"""Walk through the core pipeline on the symmetric two-mode model.

Builds the Hamiltonian, shows its adjoint matrix on the operator basis,
extracts the ladder frequencies, and prints the predicted energy lattice.
Run from anywhere after installing the package:

    python3 demos/ladder_basics.py
"""

import numpy as np

from quadham import (
    DimensionlessModel,
    adjoint_representation,
    build_model,
    classify_spectrum,
    eigen_decompose,
    ladder_check,
    pair_frequencies,
    spectrum_lattice,
    symmetric_ladders,
)

B = 0.7


def section(title: str) -> None:
    print()
    print(title)
    print("-" * len(title))


def main() -> None:
    model = DimensionlessModel(mu=1.0, k=1.0, b=B)
    h = build_model(model)

    section(f"Hamiltonian (mu=1, k=1, b={B})")
    print("operator basis:", ", ".join(h.basis.labels()))
    with np.printoptions(precision=3, suppress=True):
        print("coefficient matrix gamma:")
        print(h.gamma)
    print("H = sum_ij gamma[i,j] O_i O_j, so the rotation coupling b")
    print("sits in the (x,py) and (y,px) corners with strength b/2.")

    section("Adjoint matrix")
    m = adjoint_representation(h)
    # every entry is purely imaginary, so divide out i for display
    with np.printoptions(precision=3, suppress=True):
        print("entries / i:")
        print((m.entries / 1j).real)
    print("Row j of column i gives the coefficient of O_j in [H, O_i].")

    section("Eigenvalues of the adjoint matrix")
    data = eigen_decompose(m)
    lams = sorted(data.eigenvalues.real)
    print("computed: ", np.round(lams, 12).tolist())
    print("expected: ", sorted([-2 - B, 2 - B, -2 + B, 2 + B]))
    print("They come in +/- pairs; each positive one is a ladder frequency:")
    for pair in pair_frequencies(data):
        print(f"  lambda = {pair.lambda_plus:.12f}"
              f"   [lowering, raising] = {pair.norm_constant:.12f}")

    section("Closed-form ladder operators")
    print("The four eigenoperators are independent of b.  Checking the")
    print("ladder relation [H, Z] = lambda Z for each:")
    labels = h.basis.labels()
    for ladder in symmetric_ladders():
        coeffs = " ".join(
            f"{c.real:+.0f}*{name}" if c.imag == 0 else f"{c.imag:+.0f}i*{name}"
            for c, name in zip(ladder.form.coeffs, labels)
        )
        lam = ladder_check(h, ladder.form)
        print(f"  Z = {coeffs:<28s} lambda = {lam:+.12f}"
              f"  (shift {ladder.isotropic_shift:+.0f},"
              f" weight {ladder.rotation_weight:+.0f})")

    section("Spectrum classification")
    report = classify_spectrum(h)
    print("class:      ", report.classification.value)
    print("ground:     ", report.ground_energy)
    print("generators: ", list(report.lattice_generators))
    print("Every level is ground + m*gen1 + n*gen2 with m, n >= 0.")

    section("Predicted energy lattice (quanta up to 3)")
    for level in spectrum_lattice(report, 3):
        states = ", ".join(str(s) for s in level.states)
        print(f"  E = {level.energy:7.3f}   degeneracy {level.degeneracy}"
              f"   quanta {states}")


if __name__ == "__main__":
    main()
