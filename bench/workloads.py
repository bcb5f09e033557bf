"""The benchmark's four workloads: job lists, the timed calls and their checks.

A workload is a list of jobs (one "round") generated from a seed.  The seed
picks couplings, random-form seeds and configs; the sizes that set the cost
of a job are fixed per workload, so rounds from different seeds cost the
same.  Every library call in a timed job goes through the ``quadham``
package namespace, so the traced run sees it.

``run_job`` is the timed part of a job.  ``check_job`` is untimed: it raises
``CheckFailed`` on a wrong output and otherwise returns counts that the
traced run reports per job.
"""

from __future__ import annotations

import contextlib
import csv
import importlib.util
import io
import json
import math
import pathlib
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import quadham as qh
from quadham import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]

WORKLOADS = ("oracle_verify", "exact_states", "analysis_sweep", "cli_mix")

MAX_LEVELS = 10            # the CLI's verify default
SHELL_TOL = 1e-8           # agreement required of complete-shell comparisons
VARIATIONAL_TOL = 1e-6     # and of variationally converged levels
K3_SPREAD = (0.8, 1.25)    # K=3 forms converge within VARIATIONAL_TOL at n_max 8


class CheckFailed(Exception):
    """A job's output disagrees with its expectation."""


@dataclass
class Job:
    kind: str
    params: dict
    expect: dict = field(default_factory=dict)


# Sizes per workload.  "tiny" keeps every job kind but shrinks it, for the
# smoke test.
SIZES = {
    "full": {
        # three K=2, n_max=24 forms make the median job type of the round
        "oracle_k2": (24, 24, 24, 32, 40), "oracle_k3": (8,), "oracle_shell": 24,
        "oracle_crit": (24, 24),
        # every total m + n from 0 to 24 once; the costly near-balanced
        # splits thin out above 14 so a round stays a few seconds
        "exact_pairs": ((0, 0), (1, 0), (0, 2), (2, 1), (1, 3), (3, 2),
                        (2, 4), (4, 3), (3, 5), (5, 4), (4, 6), (6, 5),
                        (5, 7), (7, 6), (2, 12), (8, 7), (3, 13), (9, 8),
                        (4, 14), (10, 9), (5, 15), (1, 20), (16, 6), (2, 21),
                        (12, 12)),
        "sweep_quanta": {1: 8, 2: 8, 3: 6, 4: 6, 5: 5, 6: 4},
        "sweep_scan_steps": 101,
        "cli_scale": 1,
    },
    "tiny": {
        "oracle_k2": (16,), "oracle_k3": (8,), "oracle_shell": 10,
        "oracle_crit": (10, 10),
        "exact_pairs": ((0, 0), (1, 2), (3, 2)),
        "sweep_quanta": {1: 4, 2: 4, 3: 3},
        "sweep_scan_steps": 11,
        "cli_scale": 0,
    },
}


def _seed(rng) -> int:
    return int(rng.integers(2**31))


def _sym_form(b: float):
    return qh.build_model(qh.DimensionlessModel(mu=1.0, k=1.0, b=b))


# ---- oracle_verify ----------------------------------------------------------

def make_oracle_verify(rng, size: str) -> list[Job]:
    s = SIZES[size]
    bounded = qh.Classification.BOUNDED_BELOW_DISCRETE
    critical = qh.Classification.CRITICAL_INFINITE_MULTIPLICITY
    cases = []
    for n in s["oracle_k2"]:
        cases.append((qh.random_positive_definite_form(2, _seed(rng)), n,
                      bounded, "variational"))
    for n in s["oracle_k3"]:
        cases.append((qh.random_positive_definite_form(3, _seed(rng), K3_SPREAD),
                      n, bounded, "variational"))
    b = float(rng.uniform(0.2, 1.9)) * float(rng.choice((-1.0, 1.0)))
    cases.append((_sym_form(b), s["oracle_shell"], bounded, "shell"))
    cases.append((qh.isotropic_form(), s["oracle_shell"], bounded, "shell"))
    signs = (2.0, -2.0) if rng.random() < 0.5 else (-2.0, 2.0)
    for b, n in zip(signs, s["oracle_crit"]):
        cases.append((_sym_form(b), n, critical, "critical"))
    tols = {"variational": VARIATIONAL_TOL, "shell": SHELL_TOL,
            "critical": SHELL_TOL}
    return [Job("oracle", {"form": form, "n_max": n},
                {"classification": cls, "mode": mode, "max_diff": tols[mode]})
            for form, n, cls, mode in cases]


def _run_oracle(p):
    form, n_max = p["form"], p["n_max"]
    report = qh.classify_spectrum(form)
    levels = qh.spectrum_lattice(report, n_max)
    oracle = qh.oracle_spectrum(form, qh.FockTruncation(n_max=n_max, K=form.basis.K))
    comp = qh.compare_with_lattice(oracle, levels, max_levels=MAX_LEVELS,
                                   classification=report.classification)
    return report.classification, oracle.dim, len(levels), comp


def _check_oracle(job, out, ctx):
    cls, dim, n_levels, comp = out
    e = job.expect
    _require(cls is e["classification"], f"classified {cls}")
    _require(comp.mode == e["mode"], f"mode {comp.mode}, expected {e['mode']}")
    _require(comp.status == "PASS", f"status {comp.status}")
    _require(comp.max_abs_diff <= e["max_diff"],
             f"max_abs_diff {comp.max_abs_diff:.3e} > {e['max_diff']:.0e}")
    _require(comp.n_compared == MAX_LEVELS, f"compared {comp.n_compared}")
    return {"fock_dim": dim, "n_compared": comp.n_compared,
            "max_abs_diff": comp.max_abs_diff, "lattice_states": n_levels}


# ---- exact_states -----------------------------------------------------------

def make_exact_states(rng, size: str) -> list[Job]:
    jobs = []
    for i, (m, n) in enumerate(SIZES[size]["exact_pairs"]):
        if i % 5 == 4:
            preset, c = "sb", Fraction(int(rng.choice((-2, 2))))
        else:
            k = int(rng.integers(1, 32)) * int(rng.choice((-1, 1)))
            preset, c = "oscillator-b", Fraction(k, 8)
        energy = 2 + (2 + c) * m + (2 - c) * n
        jobs.append(Job("exact", {"m": m, "n": n, "preset": preset, "c": float(c)},
                        {"energy": energy, "lz": m - n}))
    return jobs


def _run_exact(p):
    z_m, z_n = qh.symmetric_raising_pair()
    psi = qh.build_eigenfunction(z_m.form, z_n.form, p["m"], p["n"])
    if p["preset"] == "sb":
        h = qh.sb_operator(p["c"])
    else:
        h = _sym_form(p["c"])
    energy = qh.is_scalar_multiple_exact(qh.apply_quadratic_form(h, psi), psi)
    lz = qh.is_scalar_multiple_exact(
        qh.apply_quadratic_form(qh.angular_momentum_form(), psi), psi)
    return psi, energy, lz, psi.render()


def _state_counts(psi) -> dict:
    """Terms, and term pairs whose exponent sums are all even (inner's work)."""
    parity: dict[tuple, int] = {}
    for exps in psi.poly:
        key = tuple(e % 2 for e in exps)
        parity[key] = parity.get(key, 0) + 1
    terms = len(psi.poly)
    return {"state_terms": terms, "pairs": terms * terms,
            "useful_pairs": sum(c * c for c in parity.values())}


def _check_exact(job, out, ctx):
    psi, energy, lz, text = out
    e = job.expect
    _require(energy is not None and energy.equals_rational(e["energy"]),
             f"H psi != {e['energy']} psi")
    _require(lz is not None and lz.equals_rational(e["lz"]),
             f"L_z psi != {e['lz']} psi")
    # the state depends on (m, n) only; its exact norm is checked once per run
    key = (job.params["m"], job.params["n"])
    seen = ctx.setdefault("states", {})
    if key not in seen:
        _require(qh.squared_norm(psi).is_one, f"state {key} is not normalised")
        seen[key] = (text, _state_counts(psi))
    _require(text == seen[key][0], f"state {key} rendered differently")
    return dict(seen[key][1])


# ---- analysis_sweep ---------------------------------------------------------

def _lattice_energies(b: float, quanta: int) -> list[float]:
    """Symmetric-model lattice, one entry per state, from the closed form."""
    if abs(b) == 2.0:  # one ladder has zero frequency: distinct energies only
        pairs = [(m, 0) if b > 0 else (0, m) for m in range(quanta + 1)]
    else:
        pairs = [(m, t - m) for t in range(quanta + 1) for m in range(t + 1)]
    return sorted(qh.symmetric_energy(b, m, n) for m, n in pairs)


def _symmetric_class(mu: float, k: float, b: float):
    """x^2 + k y^2 + px^2 + py^2/mu + b L_z is definite iff b^2 < 4 min(k, 1/mu)."""
    ratio = b * b / (4.0 * min(k, 1.0 / mu))
    if ratio < 1.0:
        return qh.Classification.BOUNDED_BELOW_DISCRETE
    if ratio > 1.0:
        return qh.Classification.UNBOUNDED_LATTICE
    return qh.Classification.CRITICAL_INFINITE_MULTIPLICITY


def make_analysis_sweep(rng, size: str) -> list[Job]:
    s = SIZES[size]
    C = qh.Classification
    jobs = []
    for K, quanta in s["sweep_quanta"].items():
        for _ in range(2):
            jobs.append(Job("form", {
                "form": qh.random_positive_definite_form(K, _seed(rng)),
                "quanta": quanta,
            }, {"classification": C.BOUNDED_BELOW_DISCRETE,
                "states": math.comb(K + quanta, K)}))
    # three definite, three indefinite and both boundary couplings, so every
    # seed runs each classification branch equally often
    signs = rng.choice((-1.0, 1.0), size=6)
    mags = np.concatenate([rng.uniform(0.2, 1.8, 3), rng.uniform(2.2, 4.0, 3)])
    for b in [2.0, -2.0] + [float(v) for v in signs * mags]:
        energies = _lattice_energies(b, 8)
        jobs.append(Job("form", {"form": _sym_form(b), "quanta": 8},
                        {"classification": _symmetric_class(1.0, 1.0, b),
                         "states": len(energies), "energies": energies}))
    # indefinite physical forms may have non-real frequencies, which the
    # closed form below cannot tell apart, so these stay definite
    for ratio in rng.uniform(0.1, 0.8, size=2):
        m1, m2, k1, k2 = (float(v) for v in rng.uniform(0.5, 2.0, size=4))
        mu, k = m2 / m1, k2 / k1
        omega1 = math.sqrt(k1 / m1)
        omega = math.sqrt(float(ratio) * 4.0 * min(k, 1.0 / mu)) * omega1 / 2.0
        model = qh.reduce_to_dimensionless(
            qh.PhysicalParameters(m1=m1, m2=m2, k1=k1, k2=k2, omega=omega))
        jobs.append(Job("form", {"form": qh.build_model(model), "quanta": 6},
                        {"classification": _symmetric_class(mu, k, model.b),
                         "states": math.comb(2 + 6, 2)}))
    jobs.append(Job("form", {"form": qh.make_quadratic_form(1, [(1, 1, 1.0)]),
                             "quanta": 4},
                    {"classification": C.DEFECTIVE_EXCEPTIONAL}))
    jobs.append(Job("form", {"form": qh.make_quadratic_form(
        1, [(1, 2, 1.0), (2, 1, 1.0)]), "quanta": 4},
        {"classification": C.NON_REAL_FREQUENCIES}))
    # a fixed share of the sweep lies beyond |b| = 2, where classification
    # takes the costlier indefinite path; the offset keeps samples off +-2
    edge = 3.5 + float(rng.uniform(0.0, 0.01))
    jobs.append(Job("scan", {"b_from": -edge, "b_to": edge,
                             "steps": s["sweep_scan_steps"]}))
    return jobs


def _run_form(p):
    form = p["form"]
    report = qh.classify_spectrum(form)
    try:
        levels = qh.spectrum_lattice(report, p["quanta"])
    except qh.LatticeUnavailableError:
        levels = None
    ladders = [(pair.raising_frequency, qh.ladder_check(form, pair.raising))
               for pair in report.pairs]
    return report, levels, ladders


def _check_form(job, out, ctx):
    report, levels, ladders = out
    e = job.expect
    _require(report.classification is e["classification"],
             f"classified {report.classification.value}, expected "
             f"{e['classification'].value}")
    if "states" not in e:
        _require(levels is None and not ladders,
                 "a lattice or ladder pair for a form that has none")
        return {"lattice_states": 0}
    _require(levels is not None, "no lattice")
    states = sum(len(lv.states) for lv in levels)
    _require(states == e["states"], f"{states} lattice states, "
                                    f"expected {e['states']}")
    if "energies" in e:
        got = sorted(lv.energy for lv in levels for _ in lv.states)
        _require(len(got) == len(e["energies"]) and all(
            _close(a, b) for a, b in zip(got, e["energies"])),
            "lattice energies differ from symmetric_energy")
    for freq, found in ladders:
        _require(_close(freq, found), f"ladder_check {found} != {freq}")
    return {"lattice_states": states}


def _run_scan(p):
    return qh.phase_scan(p["b_from"], p["b_to"], p["steps"])


def _check_scan(job, out, ctx):
    _require(len(out.samples) == job.params["steps"], "sample count")
    for s in out.samples:
        if abs(abs(s.b) - 2.0) > 1e-9:
            want = _symmetric_class(1.0, 1.0, s.b)
            _require(s.classification is want,
                     f"b={s.b}: {s.classification.value}")
    stars = [t.b_star for t in out.transitions]
    _require(len(stars) == 2 and abs(stars[0] + 2.0) < 1e-8
             and abs(stars[1] - 2.0) < 1e-8, f"transitions at {stars}")
    return {"scan_samples": len(out.samples)}


# ---- cli_mix ----------------------------------------------------------------

def _load_goldens():
    """The committed golden CLI cases (argv and expected text)."""
    path = ROOT / "tests" / "make_goldens.py"
    spec = importlib.util.spec_from_file_location("make_goldens", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return [(name, argv, (mod.GOLDEN / name).read_text(encoding="utf-8"),
             mod.stable_text) for name, argv in mod.CASES]


def _gamma_pd(rng, K: int) -> list[list[float]]:
    """A symmetric positive-definite gamma near the identity, as nested lists."""
    a = rng.uniform(-0.15, 0.15, size=(2 * K, 2 * K))
    g = np.eye(2 * K) + (a + a.T) / 2.0
    return g.tolist()


def _cli_configs(rng, scale: int):
    """(command, format, config, extra argv, form, expected exit code).

    ``form`` is what the library needs to recompute the answer: the form
    itself, (mu, k) for a scan, None for wavefunctions and invalid requests.
    """
    b = lambda lo, hi: float(rng.uniform(lo, hi))  # noqa: E731
    K2 = qh.PhaseSpaceBasis(2)
    osc = lambda v: ({"preset": "oscillator-b", "b": v}, _sym_form(v))  # noqa: E731
    phys = dict(zip(("m1", "m2", "k1", "k2"), (float(v) for v in rng.uniform(0.5, 2.0, 4))))
    phys["omega"] = b(0.05, 0.3)
    phys_form = qh.build_model(qh.reduce_to_dimensionless(qh.PhysicalParameters(**phys)))
    rp = lambda K, spread=(0.6, 1.8): (  # noqa: E731
        {"preset": "random-pd", "K": K, "seed": _seed(rng), "spread": list(spread)})
    rp_form = lambda c: qh.random_positive_definite_form(  # noqa: E731
        c["K"], c["seed"], tuple(c["spread"]))
    g2 = _gamma_pd(rng, 2)
    g3 = _gamma_pd(rng, 3)
    B = b(-1.5, 1.5)
    out = []
    add = lambda *row: out.append(row)  # noqa: E731

    # sizes and classes stay fixed so that every seed's round costs the same
    cfg, form = osc(b(0.2, 1.9) * float(rng.choice((-1.0, 1.0))))
    add("analyze", "json", cfg, [], form, 0)
    add("analyze", "csv", {"preset": "physical", **phys}, [], phys_form, 0)
    add("analyze", "json", {"preset": "sb", "B": B}, [], qh.sb_operator(B), 0)
    c = rp(3)
    add("analyze", "csv", c, [], rp_form(c), 0)
    add("analyze", "json", {"K": 2, "gamma": g2}, [],
        qh.QuadraticForm(K2, np.asarray(g2), 0.0), 0)

    cfg, form = osc(b(-1.9, 1.9))
    add("spectrum", "json", cfg, ["--max-quanta", str(4 + 4 * scale)], form, 0)
    c = rp(2)
    add("spectrum", "json", c, ["--max-quanta", str(4 + 6 * scale)], rp_form(c), 0)
    c = rp(2 + 2 * scale)
    add("spectrum", "csv", c, ["--max-quanta", str(3 + 5 * scale)], rp_form(c), 0)
    add("spectrum", "csv", {"preset": "sb", "B": 2.0},
        ["--max-quanta", str(4 + 6 * scale)], qh.sb_operator(2.0), 0)
    add("spectrum", "json", {"K": 3, "gamma": g3}, ["--max-quanta", "5"],
        qh.QuadraticForm(qh.PhaseSpaceBasis(3), np.asarray(g3), 0.0), 0)

    cfg, form = osc(b(-3.0, 3.0))
    add("scan", "json", cfg, ["--from", "-3", "--to", "3", "--steps", "7"], (1.0, 1.0), 0)
    add("scan", "csv", cfg, ["--from", "0", "--to", "4", "--steps", "5"], (1.0, 1.0), 0)
    d = qh.reduce_to_dimensionless(qh.PhysicalParameters(**phys))
    # |b| < 1 stays inside the definite region for any mu, k in [1/4, 4]
    add("scan", "csv", {"preset": "physical", **phys},
        ["--from", "-0.9", "--to", "0.9", "--steps", "9"], (d.mu, d.k), 0)

    n_max = str(4 + 4 * scale)
    cfg, form = osc(b(-1.9, 1.9))
    add("verify", "json", cfg, ["--n-max", n_max], form, 0)
    sign = float(rng.choice((-2.0, 2.0)))
    add("verify", "csv", {"preset": "sb", "B": sign}, ["--n-max", n_max],
        qh.sb_operator(sign), 0)
    cfg, form = osc(2.0)
    add("verify", "csv", cfg, ["--n-max", n_max], form, 0)
    c = rp(2, (0.95, 1.05))
    add("verify", "json", c, ["--n-max", "8"], rp_form(c), 0)
    c = rp(1, (0.9, 1.1))
    add("verify", "json", c, ["--n-max", "8"], rp_form(c), 0)

    cfg, _ = osc(int(rng.integers(-24, 25)) / 8.0)
    add("wavefunction", "json", cfg, ["0", "2"], None, 0)
    sign = float(rng.choice((-2.0, 2.0)))
    add("wavefunction", "csv", {"preset": "sb", "B": sign}, ["1", "0"], None, 0)

    # invalid requests: each must exit 2 with a one-line message
    add("analyze", "json", {"preset": "harmonic", "b": 1.0}, [], None, 2)
    add("spectrum", "json", {"preset": "oscillator-b"}, [], None, 2)
    add("analyze", "json", {"K": 1, "gamma": [[1.0, b(0.2, 0.9)], [0.0, 1.0]]},
        [], None, 2)
    add("analyze", "csv", {"K": 2, "gamma": [[1.0, 0.0], [0.0, 1.0]]}, [], None, 2)
    add("analyze", "json", {"preset": "oscillator-b", "b": 1.0, "tol_scale": -1.0},
        [], None, 2)
    add("wavefunction", "json", {"preset": "oscillator-b", "b": 1.0, "mu": 2.0},
        ["1", "1"], None, 2)
    add("scan", "csv", {"preset": "sb", "B": B},
        ["--from", "0", "--to", "1"], None, 2)
    add("spectrum", "json", osc(1.0)[0], ["--max-quanta", "-1"], None, 2)
    add("verify", "json", None, [], None, 2)  # config file is not JSON
    return out


def make_cli_mix(rng, size: str, workdir: pathlib.Path) -> list[Job]:
    jobs = []
    for i, (cmd, fmt, cfg, extra, form, code) in enumerate(
            _cli_configs(rng, SIZES[size]["cli_scale"])):
        path = workdir / f"config{i}.json"
        path.write_text("{not json" if cfg is None else json.dumps(cfg),
                        encoding="utf-8")
        out = workdir / f"out{i}.{fmt}"
        argv = [cmd, "--config", str(path), "--format", fmt, "--out", str(out)]
        # positional quantum numbers of 'wavefunction' go last
        argv += extra
        expect = {"code": code}
        if code == 0:
            try:
                expect.update(_library_view(cmd, extra, form))
            except qh.QuadhamError:
                # the library cannot analyse this form (classify_spectrum
                # raises PairingError for some sb couplings); the CLI must
                # then report a runtime error with exit code 3
                expect = {"code": 3}
        jobs.append(Job("cli", {"argv": argv, "out": out, "cmd": cmd,
                                "fmt": fmt}, expect))
    for name, argv, golden, stable_text in _load_goldens():
        out = workdir / f"golden_{name}"
        jobs.append(Job("cli", {"argv": argv + ["--out", str(out)], "out": out,
                                "cmd": argv[0], "fmt": name.rsplit(".", 1)[1]},
                        {"code": 0, "golden": golden, "stable_text": stable_text,
                         "name": name}))
    return jobs


def _library_view(cmd, extra, form) -> dict:
    """What the library itself computes for a CLI request: rows to compare."""
    if cmd == "analyze":
        report = qh.classify_spectrum(form)
        ev = qh.eigen_decompose(qh.adjoint_representation(form)).eigenvalues
        rows = sorted(((complex(z).real, complex(z).imag) for z in ev))
        return {"classification": report.classification.value, "rows": rows}
    if cmd == "spectrum":
        report = qh.classify_spectrum(form)
        levels = qh.spectrum_lattice(report, int(extra[1]))
        rows = [(lv.energy, lv.degeneracy) for lv in levels for _ in lv.states]
        return {"classification": report.classification.value, "rows": rows,
                "lattice_states": len(rows)}
    if cmd == "scan":
        mu, k = form
        res = qh.phase_scan(float(extra[1]), float(extra[3]), int(extra[5]),
                            mu=mu, k=k)
        rows = [(s.b, s.classification.value) for s in res.samples]
        return {"rows": rows, "scan_samples": len(rows)}
    if cmd == "verify":
        n_max = int(extra[1])
        report = qh.classify_spectrum(form)
        levels = qh.spectrum_lattice(report, n_max)
        trunc = qh.FockTruncation(n_max=n_max, K=form.basis.K)
        comp = qh.compare_with_lattice(
            qh.oracle_spectrum(form, trunc), levels, max_levels=MAX_LEVELS,
            classification=report.classification)
        rows = [(r.expected_energy, r.observed_energy) for r in comp.rows]
        return {"classification": report.classification.value, "rows": rows,
                "status": comp.status, "fock_dim": trunc.dim,
                "lattice_states": sum(len(lv.states) for lv in levels)}
    # wavefunction
    m, n = int(extra[0]), int(extra[1])
    z_m, z_n = qh.symmetric_raising_pair()
    psi = qh.build_eigenfunction(z_m.form, z_n.form, m, n)
    return {"rows": [(psi.render(),)], **_state_counts(psi)}


def _run_cli(p):
    p["out"].unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(p["argv"])
    return code, err.getvalue()


_CSV_COLUMNS = {
    "analyze": ("re", "im"),
    "spectrum": ("energy", "degeneracy"),
    "scan": ("b", "classification"),
    "verify": ("expected_energy", "observed_energy"),
    "wavefunction": ("state",),
}


def _output_rows(cmd, fmt, text):
    """Rows of the CLI output, shaped like _library_view's rows."""
    if fmt == "csv":
        table = list(csv.DictReader(io.StringIO(text)))
        return None, [tuple(_cell(r[c]) for c in _CSV_COLUMNS[cmd]) for r in table]
    res = json.loads(text)["results"]
    if cmd == "analyze":
        rows = [(z["re"], z["im"]) for z in res["adjoint_eigenvalues"]]
    elif cmd == "spectrum":
        rows = [(lv["energy"], lv["degeneracy"])
                for lv in res["levels"] for _ in lv["states"]]
    elif cmd == "scan":
        rows = [(s["b"], s["classification"]) for s in res["samples"]]
    elif cmd == "verify":
        rows = [(r["expected_energy"], r["observed_energy"])
                for r in res["comparison"]["rows"]]
    else:
        rows = [(res["state"],)]
    return res, rows


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _check_cli(job, out, ctx):
    code, err = out
    e, p = job.expect, job.params
    _require(code == e["code"], f"exit {code}, expected {e['code']}: {err.strip()}")
    _require("Traceback" not in err, "traceback on stderr")
    if code != 0:
        prefixes = ("quadham: error:",) if code == 3 else (
            "quadham: config error:", "usage:")
        _require(err.startswith(prefixes), f"unexpected message {err!r}")
        _require(not p["out"].exists(), "output written for a rejected request")
        return {}
    text = p["out"].read_text(encoding="utf-8")
    stats = {"bytes_out": len(text.encode("utf-8")), "cmd": p["cmd"]}
    if "golden" in e:
        _require(e["stable_text"](e["name"], text) == e["golden"],
                 f"{e['name']} differs from its golden file")
        return stats
    res, rows = _output_rows(p["cmd"], p["fmt"], text)
    want = e["rows"]
    _require(len(rows) == len(want) and all(
        all(_close(a, b) if isinstance(b, float) else a == b
            for a, b in zip(r, w)) for r, w in zip(rows, want)),
        f"{p['cmd']} output differs from the library's values")
    if res is not None:
        got = {"classification": res.get("classification"),
               "status": res.get("comparison", {}).get("status")}
        for key in ("classification", "status"):
            _require(key not in e or got[key] == e[key],
                     f"{key} {got[key]} != {e.get(key)}")
    if p["cmd"] == "verify":
        _require(e["status"] == "PASS", f"verify status {e['status']}")
        stats.update(n_compared=len(rows), max_abs_diff=max(
            (abs(a - b) for a, b in rows), default=0.0))
    for key in ("fock_dim", "lattice_states", "scan_samples", "state_terms",
                "pairs", "useful_pairs"):
        if key in e:
            stats[key] = e[key]
    return stats


# ---- dispatch ---------------------------------------------------------------

def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(a, b) -> bool:
    return abs(a - b) <= 1e-9 * (1.0 + abs(b))


_RUN = {"oracle": _run_oracle, "exact": _run_exact, "form": _run_form,
        "scan": _run_scan, "cli": _run_cli}
_CHECK = {"oracle": _check_oracle, "exact": _check_exact, "form": _check_form,
          "scan": _check_scan, "cli": _check_cli}


def make_jobs(workload: str, seed: int, size: str,
              workdir: pathlib.Path) -> list[Job]:
    """One round of the workload, generated from the seed alone."""
    rng = np.random.default_rng(seed)
    if workload == "cli_mix":
        return make_cli_mix(rng, size, workdir)
    return {"oracle_verify": make_oracle_verify,
            "exact_states": make_exact_states,
            "analysis_sweep": make_analysis_sweep}[workload](rng, size)


def run_job(job: Job):
    return _RUN[job.kind](job.params)


def check_job(job: Job, output, ctx: dict) -> dict:
    return _CHECK[job.kind](job, output, ctx)
