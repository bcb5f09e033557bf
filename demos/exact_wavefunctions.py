"""Build eigenfunctions of the symmetric model in exact arithmetic.

The two raising operators applied to the Gaussian ground state generate
every eigenstate as a polynomial times exp(-(x^2+y^2)/2), with rational
coefficients and explicit powers of pi.  No floating point is involved,
so the eigenvalue relations below hold identically, not to a tolerance.

    python3 demos/exact_wavefunctions.py
"""

from fractions import Fraction

from quadham import (
    DimensionlessModel,
    angular_momentum_form,
    apply_linear_form,
    apply_quadratic_form,
    build_eigenfunction,
    build_model,
    inner,
    is_scalar_multiple_exact,
    symmetric_energy,
    symmetric_ladders,
    symmetric_raising_pair,
    vacuum,
    vacuum_annihilation_residual,
)

B = 0.5


def main() -> None:
    plus, minus = symmetric_raising_pair()

    print("Ground state")
    print("------------")
    print("  psi_00 =", vacuum(2).render())
    print()

    print("Ladder-generated excited states")
    print("-------------------------------")
    print("psi_mn comes from m raises at frequency 2+b and n at 2-b:")
    for m, n in [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]:
        psi = build_eigenfunction(plus.form, minus.form, m, n)
        print(f"  psi_{m}{n} =", psi.render())
    print()

    print("Orthonormality (exact inner products)")
    print("-------------------------------------")
    family = [(m, n) for m in range(3) for n in range(3) if m + n <= 2]
    ok = True
    for i, (m1, n1) in enumerate(family):
        a = build_eigenfunction(plus.form, minus.form, m1, n1)
        for m2, n2 in family[i:]:
            b = build_eigenfunction(plus.form, minus.form, m2, n2)
            amount = inner(a, b)
            same = (m1, n1) == (m2, n2)
            ok &= amount.is_one if same else amount.is_zero
    print(f"  <psi_a|psi_b> = delta_ab over {len(family)} states:",
          "verified" if ok else "FAILED")
    print()

    print(f"Eigenvalue relations at b = {B}")
    print("------------------------------")
    h = build_model(DimensionlessModel(mu=1.0, k=1.0, b=B))
    lz = angular_momentum_form()
    bq = Fraction(B)  # binary float 0.5 converts exactly
    for m, n in [(0, 0), (1, 0), (0, 1), (2, 1), (1, 3)]:
        psi = build_eigenfunction(plus.form, minus.form, m, n)
        energy = is_scalar_multiple_exact(apply_quadratic_form(h, psi), psi)
        expect = symmetric_energy(bq, m, n)
        assert energy is not None and energy.equals_rational(expect)
        out = apply_quadratic_form(lz, psi)
        if m == n:
            assert out.is_zero
            ang = "0"
        else:
            angular = is_scalar_multiple_exact(out, psi)
            assert angular is not None and angular.equals_rational(m - n)
            ang = str(m - n)
        print(f"  psi_{m}{n}:  H psi = {expect} psi   Lz psi = {ang} psi"
              "   (exact)")
    print()

    print("Annihilation at the vacuum")
    print("--------------------------")
    v = vacuum(2)
    for ladder in symmetric_ladders():
        r = vacuum_annihilation_residual(ladder.form)
        applied = apply_linear_form(ladder.form, v)
        kind = "lowering, kills the vacuum" if r == 0.0 else "raising"
        assert applied.is_zero == (r == 0.0)
        print(f"  frequency shift {ladder.isotropic_shift:+.0f}:"
              f" |Z psi_00| = {r:.1f}  ({kind})")


if __name__ == "__main__":
    main()
