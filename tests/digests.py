"""Print one SHA-256 line per output family, to compare two checkouts.

Run from the repository root of each checkout and compare the lines:

    PYTHONPATH=src python3 tests/digests.py

Equal lines mean the outputs are byte-identical.  The script runs OpenBLAS
on one thread whatever the environment says, so the lines do not depend on
the host's thread count.  The families are:

- classify: `eigen_decompose` eigenvalues and cluster members (not the
  cluster means) and `classify_spectrum` reports (or the error raised) on a
  fixed corpus of model, `sb`, random definite, random indefinite and
  hand-picked forms that covers all five classes, at tolerance scale 1,
  1e6 and 1e8;
- lattice: for each form of the classify corpus at tolerance scale 1
  whose class has a lattice, the `spectrum_lattice` levels (energy,
  states, degeneracy, `infinite`) at max_quanta 3 and 8, and
  `ladder_check` of every pair's raising member (or the error raised);
- boundary: `classify_spectrum` reports (or the error raised) of the
  symmetric model at b = +-2 +- delta for 101 log-spaced delta in
  [1e-12, 1e-7] and at b = +-2 +- 10^-k for k = 1..15, and of the
  non-real form diag(1, -1, 1, -1) + 0.05 x1 x2 at tolerance scale 2e7;
- oracle: `oracle_spectrum` results (eigenvalues, shell eigenvalues, shell
  depth and dimension), `build_fock_matrix` bytes, and
  `compare_with_lattice` reports at two lattice depths and four
  `max_levels` on the model grid, random indefinite forms (`random_forms`
  of tests/test_fock_oracle.py) and random definite forms;
- exact: `render()`, `.poly` and `.scale` of the exact eigenfunctions for
  the (m, n) pairs of the `exact_states` benchmark workload, with the exact
  amounts H psi / psi (H the symmetric model at a dyadic b) and L_z psi / psi;
  `render()`, `.poly` and `.scale` of `build_eigenfunction` (or the error
  raised) for 0 <= m, n <= 4 on seeded random dyadic ladder pairs at
  K = 1-3, which are not creation combinations, and on creation pairs on
  disjoint modes at K = 2, 3; then `apply_quadratic_form` outputs (`.poly`
  and `.scale`) of random dyadic forms with x-p cross terms and a nonzero
  offset, K = 1-3, on random states whose coefficients have denominator 3,
  with `render()` and `evaluate` at fixed points of each state and each
  output; last, on those states, `.poly`, `.scale` and `render()` of
  `apply_linear_form` of a random dyadic form and of the unit forms x_j,
  p_j of every mode j, and (`evaluate` too) `+` and `-` with a state whose
  scale differs by a rational factor and `scalar_mul` by a
  ComplexRational, a Fraction, a float, a complex and 0 (a linear-form
  output's `evaluate` sums its terms in their dict order, which the exact
  output does not fix, so it is not hashed);
- scan: `phase_scan` samples and transitions (or the error raised) at
  tolerance scale 1, 1e6 and 1e8 on the sweeps of tests/test_models.py,
  which land on b = +-2 and on the Jordan-block boundary points of mu = 4
  and k = 2, cross the non-real band of mu = 2, stack 1001 samples of the
  anisotropic model mu = 2, k = 0.5, take a single sample and land on b = 0,
  where the double eigenvalues take the rank-SVD path; on the 101-sample sweep
  of the `analysis_sweep` benchmark workload, on 10001 samples of
  mu = 0.7, k = 1.3 over [-3.5, 3.5], which cross its bounded, non-real and
  unbounded regions, and on NaN and infinite endpoints, mu <= 0, k < 0 and
  zero steps;
- cli: stdout, stderr and exit code of every subcommand in JSON and CSV,
  timestamp removed, on preset, explicit and invalid configurations;
- critical-no-shells: the comparisons, library and `verify`, of critical
  forms that do not conserve total quanta (symplectic squeezes of the b = 2
  model, `sb` at |B| != 2), which are NOT_APPLICABLE: a truncation without
  shells cannot resolve their levels above the bottom one.

A `PhaseSpaceBasis` is hashed as `PhaseSpaceBasis(K)`, its mode count, and
every other dataclass as the values of its fields.

Not a test module: pytest does not collect it.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile
from fractions import Fraction

# the oracle line hashes full-precision eigenvalues of blocks large enough for
# OpenBLAS to thread, whose last bits depend on the thread count; the count is
# read when numpy loads BLAS, so it is set first
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

import quadham as qh  # noqa: E402
from quadham import cli, serialize  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from conftest import scaled_tolerances  # noqa: E402
from make_goldens import golden_form  # noqa: E402
from test_fock_oracle import random_forms  # noqa: E402
from test_models import SWEEPS  # noqa: E402

SCALES = ("1", "1e6", "1e8")
EXACT_PAIRS = ((0, 0), (1, 0), (0, 2), (2, 1), (1, 3), (3, 2), (2, 4), (4, 3),
               (3, 5), (5, 4), (4, 6), (6, 5), (5, 7), (7, 6), (2, 12), (8, 7),
               (3, 13), (9, 8), (4, 14), (10, 9), (5, 15), (1, 20), (16, 6),
               (2, 21), (12, 12))


def token(x) -> str:
    """Exact text of a value: repr for scalars, raw bytes for arrays."""
    if isinstance(x, np.ndarray):
        return f"a{x.dtype}{x.shape}:{x.tobytes().hex()}"
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(token(v) for v in x) + "]"
    if isinstance(x, dict):
        return "{" + ",".join(f"{token(k)}:{token(v)}" for k, v in x.items()) + "}"
    if isinstance(x, qh.PhaseSpaceBasis):
        return f"PhaseSpaceBasis({x.K})"
    if hasattr(x, "__dataclass_fields__"):
        return type(x).__name__ + token({k: getattr(x, k) for k in x.__dataclass_fields__})
    return repr(x)


class Digest:
    def __init__(self):
        self.h = hashlib.sha256()
        self.count = 0

    def add(self, *items) -> None:
        self.h.update(token(items).encode())
        self.h.update(b"\n")
        self.count += 1

    def line(self, name: str) -> str:
        return f"{name} {self.count} {self.h.hexdigest()}"


def model(b, mu=1.0, k=1.0):
    return qh.build_model(qh.DimensionlessModel(mu=mu, k=k, b=b))


def squeezed_critical(s):
    """The b = 2 model in the symplectically squeezed variables S = diag(s, 1, 1/s, 1)."""
    q = model(2.0)
    S = np.diag([s, 1.0, 1.0 / s, 1.0])
    return qh.QuadraticForm(q.basis, S.T @ q.gamma @ S, q.offset)


def explicit(K, gamma, offset=0.0):
    return qh.QuadraticForm(qh.PhaseSpaceBasis(K), np.asarray(gamma, dtype=float), offset)


def classify_corpus():
    forms = []
    for mu, k in ((1.0, 1.0), (2.0, 1.0), (0.5, 1.0), (1.0, 2.0), (2.0, 0.5), (0.5, 2.0)):
        forms += [model(float(b), mu, k) for b in np.linspace(-4.0, 4.0, 41)]
    forms += [model(b) for b in (2.0, -2.0, 2.000001, 1.999999)]
    forms += [model(2.0, 0.5, 1.0), model(2.0, 1.0, 2.0), model(2 ** 0.5, 2.0, 1.0)]
    forms += [qh.sb_operator(float(B)) for B in np.linspace(-4.0, 4.0, 299)]
    forms += [qh.random_positive_definite_form(K, seed)
              for K in (1, 2, 3, 4) for seed in range(10)]
    for seed in (0, 1):
        forms += [q for q, _ in random_forms(seed)]
    forms += [squeezed_critical(s) for s in (1.05, 1.2, 1.5)]
    forms += [explicit(1, [[eps, 0.0], [0.0, 1.0]]) for eps in (0.0, 1e-12, 1e-10, 1e-9)]
    forms += [explicit(1, [[1.0, 0.0], [0.0, -1.0]]), explicit(1, [[0.0, 1.0], [1.0, 0.0]]),
              explicit(1, [[1.0, 0.0], [0.0, 0.0]]), explicit(2, np.zeros((4, 4)))]
    g = np.diag([1.0, -1.0, 1.0, -1.0])
    g[0, 1] = g[1, 0] = 0.05
    forms.append(explicit(2, g))
    return forms


def add_report(d: Digest, q) -> None:
    try:
        d.add(qh.classify_spectrum(q))
    except qh.QuadhamError as exc:
        d.add(type(exc).__name__, str(exc))


def classify_lines() -> list[str]:
    forms = classify_corpus()
    lines = []
    for scale in SCALES:
        d = Digest()
        with scaled_tolerances(scale):
            for q in forms:
                try:
                    e = qh.eigen_decompose(qh.adjoint_representation(q))
                    d.add(e.eigenvalues, e.defective,
                          [(c.algebraic, c.geometric, c.indices) for c in e.clusters])
                    d.add(qh.classify_spectrum(q))
                except qh.QuadhamError as exc:
                    d.add(type(exc).__name__, str(exc))
        lines.append(d.line(f"classify[tol_scale={scale}]"))
    return lines


def lattice_line() -> str:
    d = Digest()
    for q in classify_corpus():
        try:
            report = qh.classify_spectrum(q)
        except qh.QuadhamError:
            continue
        if not report.classification.has_lattice:
            continue
        for max_quanta in (3, 8):
            try:
                d.add(qh.spectrum_lattice(report, max_quanta))
            except qh.QuadhamError as exc:
                d.add(type(exc).__name__, str(exc))
        for pair in report.pairs:
            try:
                d.add(qh.ladder_check(q, pair.raising))
            except qh.QuadhamError as exc:
                d.add(type(exc).__name__, str(exc))
    return d.line("lattice")


def boundary_line() -> str:
    d = Digest()
    for b0 in (2.0, -2.0):
        for sign in (1.0, -1.0):
            for delta in np.logspace(-12.0, -7.0, 101):
                add_report(d, model(b0 + sign * float(delta)))
    for k in range(1, 16):
        for b in (2.0 - 10.0 ** -k, 2.0 + 10.0 ** -k, -2.0 + 10.0 ** -k, -2.0 - 10.0 ** -k):
            add_report(d, model(b))
    g = np.diag([1.0, -1.0, 1.0, -1.0])
    g[0, 1] = g[1, 0] = 0.05
    with scaled_tolerances(2e7):
        add_report(d, explicit(2, g))
    return d.line("boundary")


def scan_line() -> str:
    d = Digest()
    sweeps = SWEEPS + [((-3.5058, 3.5058, 101), {}),
                       ((-3.5, 3.5, 10001), {"mu": 0.7, "k": 1.3}),
                       ((np.nan, 1.0, 3), {}), ((0.0, np.inf, 3), {}),
                       ((0.0, 1.0, 3), {"mu": 0.0}), ((0.0, 1.0, 3), {"mu": -1.0}),
                       ((0.0, 1.0, 3), {"k": -1.0}), ((0.0, 1.0, 0), {})]
    for scale in SCALES:
        with scaled_tolerances(scale), np.errstate(invalid="ignore"):
            for bounds, model in sweeps:
                try:
                    d.add(scale, bounds, model, qh.phase_scan(*bounds, **model))
                except (ValueError, qh.QuadhamError) as exc:
                    d.add(scale, bounds, model, type(exc).__name__, str(exc))
    return d.line("scan")


def oracle_corpus():
    for mu, k in ((1.0, 1.0), (2.0, 1.0), (2.0, 0.5)):
        for b in (0.0, 1.3, -1.3, 2.0, -2.0, 3.0, -3.0):
            for n_max in range(11):
                yield model(b, mu, k), n_max
    for seed in (0, 1, 2, 3, 13):
        yield from random_forms(seed)
    for seed in range(5):
        for n_max in (8, 16):
            yield qh.random_positive_definite_form(2, seed), n_max
    yield qh.random_positive_definite_form(3, 0), 6
    yield explicit(2, np.zeros((4, 4))), 3
    for s in (1.05, 1.2, 1.5):
        for n_max in (6, 12):
            yield squeezed_critical(s), n_max


def oracle_line(critical: Digest) -> str:
    main = Digest()
    for q, n_max in oracle_corpus():
        t = qh.FockTruncation(n_max, q.basis.K)
        o = qh.oracle_spectrum(q, t)
        main.add(o.eigenvalues, o.shell_eigenvalues, o.shell_exact_upto, o.dim)
        main.add(qh.build_fock_matrix(q, t))
        report = qh.classify_spectrum(q)
        if not report.classification.has_lattice:
            continue
        for depth in (n_max, n_max + 2):
            levels = qh.spectrum_lattice(report, depth)
            no_shells = o.shell_eigenvalues is None and any(lv.infinite for lv in levels)
            for max_levels in (None, 1, 3, 10):
                r = qh.compare_with_lattice(o, levels, max_levels=max_levels,
                                            classification=report.classification)
                (critical if no_shells else main).add(r)
    return main.line("oracle")


def exact_line() -> str:
    d = Digest()
    z_m, z_n = qh.symmetric_raising_pair()
    lz = qh.angular_momentum_form()
    for i, (m, n) in enumerate(EXACT_PAIRS):
        psi = qh.build_eigenfunction(z_m.form, z_n.form, m, n)
        h = model((i - 12) / 8.0)
        d.add(psi.render(), sorted(psi.poly.items()), psi.scale,
              qh.is_scalar_multiple_exact(qh.apply_quadratic_form(h, psi), psi),
              qh.is_scalar_multiple_exact(qh.apply_quadratic_form(lz, psi), psi))
    for z, w in random_ladder_pairs(np.random.default_rng(5)):
        for m in range(5):
            for n in range(5):
                try:
                    psi = qh.build_eigenfunction(z, w, m, n)
                    d.add(psi.render(), sorted(psi.poly.items()), psi.scale)
                except ValueError as exc:
                    d.add(type(exc).__name__, str(exc))
    rng = np.random.default_rng(12)
    states = []
    for K in (1, 2, 3):
        for _ in range(4):
            g = rng.integers(-16, 17, size=(2 * K, 2 * K)) / 8.0
            g = (g + g.T) / 2.0
            g[:K, K:] = rng.choice([-1.0, 1.0], size=(K, K)) * rng.integers(1, 9, size=(K, K)) / 4.0
            g[K:, :K] = g[:K, K:].T
            q = explicit(K, g, float(rng.integers(1, 9)) / 4.0)
            for _ in range(3):
                s = random_state(rng, K)
                out = qh.apply_quadratic_form(q, s)
                d.add(K, g, sorted(out.poly.items()), out.scale)
                states.append(s)
                pts = np.linspace(-2.0, 2.0, 5 * K).reshape(5, K)
                for t in (s, out):
                    d.add(t.render(), t.evaluate(pts), t.evaluate(pts[1]))
    add_linear_outputs(d, states, np.random.default_rng(13))
    return d.line("exact")


def add_linear_outputs(d: Digest, states, rng) -> None:
    """The linear-form actions and the linear structure on states."""
    def add(t, pts=None):
        d.add(sorted(t.poly.items()), t.scale, t.render(),
              None if pts is None else t.evaluate(pts))
    for s in states:
        K = s.K
        z = qh.LinearForm(qh.PhaseSpaceBasis(K), rng.integers(-8, 9, size=2 * K) / 8.0
                          + 1j * rng.integers(-8, 9, size=2 * K) / 4.0)
        add(qh.apply_linear_form(z, s))
        units = np.eye(2 * K)
        for j in range(K):
            for index in (j, K + j):
                add(qh.apply_linear_form(qh.LinearForm(z.basis, units[index]), s))
        pts = rng.integers(-8, 9, size=(4, K)) / 4.0
        other = random_state(rng, K)
        other = qh.PolyGaussian(K, {**other.poly, **{k: v * Fraction(3, 2) for k, v in s.poly.items()}},
                                s.scale * Fraction(2, 3))
        for t in (s + other, other - s, s.scalar_mul(qh.ComplexRational(Fraction(-2, 5), 3)),
                  s.scalar_mul(Fraction(7, 3)), s.scalar_mul(-0.625),
                  s.scalar_mul(complex(0.5, -1.25)), s.scalar_mul(0)):
            add(t, pts)


def random_ladder_pairs(rng):
    """Dyadic (Z, W): random forms at K = 1-3, creation pairs at K = 2, 3."""
    def form(K, c):
        return qh.LinearForm(qh.PhaseSpaceBasis(K), c)
    for K in (1, 2, 3):
        for _ in range(3):
            yield tuple(form(K, rng.integers(-8, 9, size=2 * K) / 8.0
                             + 1j * rng.integers(-8, 9, size=2 * K) / 4.0)
                        for _ in range(2))
    for K in (2, 3):
        # Z on modes 0..K-2, W on mode K-1, so [Z^dagger, W] = 0
        zx = np.zeros(K, dtype=complex)
        zx[:K - 1] = rng.integers(1, 9, size=K - 1) / 8.0 + 1j * rng.integers(-8, 9, size=K - 1) / 4.0
        wx = np.zeros(K, dtype=complex)
        wx[K - 1] = rng.integers(1, 9) / 4.0
        yield tuple(form(K, np.concatenate([cx, -1j * cx])) for cx in (zx, wx))


def random_state(rng, K, terms=6):
    """A state with coefficients of denominator 3 and a random PiScale."""
    def third():
        return Fraction(int(rng.integers(-9, 10)), 3)
    poly = {tuple(int(e) for e in rng.integers(0, 5, size=K)):
            qh.ComplexRational(third(), third()) for _ in range(terms)}
    scale = qh.PiScale(Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 9))),
                       int(rng.integers(-3, 4)))
    return qh.PolyGaussian(K, poly, scale)


def cli_configs():
    yield {"preset": "oscillator-b", "b": 1.0}
    yield {"preset": "oscillator-b", "b": -0.75}
    yield {"preset": "oscillator-b", "b": 2.0}
    yield {"preset": "oscillator-b", "b": 3.0}
    yield {"preset": "oscillator-b", "b": 0.5, "mu": 2.0, "k": 0.5}
    yield {"preset": "oscillator-b", "b": 1, "mu": 1, "k": 1, "tol_scale": 10.0}
    yield {"preset": "physical", "m1": 1, "m2": 2, "k1": 4, "k2": 1, "omega": 2}
    yield {"preset": "physical", "m1": 1, "m2": 1, "k1": 1, "k2": 1, "omega": 0.5,
           "hbar": 0.5}
    for B in (2.0, -2.0, 0.0):
        yield {"preset": "sb", "B": B}
    yield {"preset": "random-pd", "K": 2, "seed": 3}
    yield {"preset": "random-pd", "K": 1, "seed": 4, "spread": [0.8, 1.25]}
    yield {"K": 1, "gamma": [[1.0, 0.2], [0.2, 0.5]], "offset": -0.25}
    # invalid: each names one config error
    yield {"preset": "mystery", "b": 1.0}
    yield {"preset": "oscillator-b"}
    yield {"preset": "oscillator-b", "b": 1.0, "tilt": 3.0}
    yield {"preset": "oscillator-b", "b": 1.0, "mu": -1}
    yield {"preset": "oscillator-b", "b": "1"}
    yield {"preset": "oscillator-b", "b": 1.0, "k": True}
    yield {"preset": "physical", "m1": "x", "m2": 1, "k1": 1, "k2": 1, "omega": 1}
    yield {"preset": "physical", "m1": 1, "m2": 1, "k1": 1, "k2": 1, "omega": 1,
           "hbar": 0}
    yield {"preset": "sb", "B": None}
    yield {"preset": "random-pd", "K": 2.5, "seed": 1, "spread": 3}
    yield {"preset": "random-pd", "K": 2, "seed": 1, "spread": 3}
    yield {"preset": "random-pd", "K": 2, "seed": "s"}
    yield {"preset": "random-pd", "K": 2, "seed": 1, "spread": [2.0, 1.0]}
    yield {"preset": "random-pd", "K": 0, "seed": 1}
    yield {"preset": "oscillator-b", "b": 1.0, "gamma": [[1.0]]}
    yield {"K": 1, "gamma": [[1.0, 0.0], [0.0, 1.0]], "offset": "x"}
    yield {"K": 1, "gamma": [[1.0, 0.3], [0.0, 1.0]]}


def cli_runs():
    for cmd in (["analyze"], ["spectrum", "--max-quanta", "3"],
                ["verify", "--n-max", "6"], ["verify", "--n-max", "12"],
                ["scan", "--from", "-3", "--to", "3", "--steps", "7"],
                ["wavefunction", "0", "0"], ["wavefunction", "2", "1"],
                ["wavefunction", "3", "5"]):
        for fmt in ("json", "csv"):
            yield cmd + ["--format", fmt]
    yield ["analyze", "--seed", "9", "--format", "json"]


# critical forms without shell structure: `verify` goes to critical-no-shells
CRITICAL_NO_SHELLS = ({"preset": "sb", "B": 1.0},
                      {"K": 2, "gamma": squeezed_critical(1.2).gamma.tolist()})


def cli_line(critical: Digest) -> str:
    d = Digest()
    with tempfile.TemporaryDirectory() as tmp:
        for i, cfg in enumerate(list(cli_configs()) + list(CRITICAL_NO_SHELLS)):
            path = pathlib.Path(tmp) / f"cfg{i}.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
            for argv in cli_runs():
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv[:1] + ["--config", str(path)] + argv[1:])
                text = out.getvalue()
                if code == 0 and argv[-1] == "json":
                    text = serialize.dumps_json(golden_form(json.loads(text)))
                target = critical if cfg in CRITICAL_NO_SHELLS and argv[0] == "verify" else d
                target.add(cfg, argv, code, text, err.getvalue())
    return d.line("cli")


def main() -> None:
    critical = Digest()
    for line in classify_lines():
        print(line, flush=True)
    print(lattice_line(), flush=True)
    print(boundary_line(), flush=True)
    print(scan_line(), flush=True)
    print(oracle_line(critical), flush=True)
    print(exact_line(), flush=True)
    print(cli_line(critical), flush=True)
    print(critical.line("critical-no-shells"), flush=True)


if __name__ == "__main__":
    main()
