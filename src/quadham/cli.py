"""Command-line interface.

Subcommands: analyze, spectrum, scan, verify, wavefunction.  Configuration
comes from a JSON file (--config); output is a deterministic JSON envelope
(or a CSV table with --format csv) on stdout or --out.  Exit codes: 0 on
success, 2 for configuration/usage problems, 3 for runtime failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import models, serialize
from .errors import ConfigError, LatticeCapError, QuadhamError
from .fock import (
    ComparisonReport,
    ComparisonRow,
    FockTruncation,
    compare_with_lattice,
    oracle_spectrum,
)
from .phase_space import PhaseSpaceBasis, QuadraticForm, adjoint_representation
from .spectral import (
    classify_spectrum,
    eigen_decompose,
    spectrum_lattice,
)
from .wavefunctions import (
    apply_quadratic_form,
    build_eigenfunction,
    is_scalar_multiple_exact,
)
from . import tolerances as tol

# largest m + n the wavefunction command builds; (60, 60) takes 31-54 ms on
# 2 vCPUs of a shared host (best of 5, seven runs)
MAX_WAVEFUNCTION_QUANTA = 120
# most samples a scan takes; phase_scan(-3, 3, 1001) costs 13-24 us a
# sample, 10**4 samples 0.13-0.22 s (2 vCPUs of a shared host, best of 5)
MAX_SCAN_STEPS = 10**4
# most modes a random-pd config asks for; `analyze` takes 0.036, 0.15 and
# 0.56 s at K = 32, 64 and 128 and 12.9 s with a 337 MB peak RSS at K = 600
# (best of 3, 2 vCPUs, one BLAS thread)
MAX_RANDOM_MODES = 64


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True,
                        help="path to a JSON configuration file")
    common.add_argument("--format", choices=("json", "csv"), default="json",
                        help="output format (default json)")
    common.add_argument("--out", default=None,
                        help="write output to this file instead of stdout")
    common.add_argument("--seed", type=int, default=None,
                        help="override the seed of a random-pd configuration")

    p = argparse.ArgumentParser(
        prog="quadham",
        description="Analyse quadratic forms in position/momentum operators.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("analyze", parents=[common],
                   help="classify a form and report its frequency pairs")

    ps = sub.add_parser("spectrum", parents=[common],
                        help="enumerate the predicted energy lattice")
    ps.add_argument("--max-quanta", type=int, default=4,
                    help="largest total quantum number enumerated (default 4)")

    pc = sub.add_parser("scan", parents=[common],
                        help="sweep the coupling and locate phase boundaries")
    pc.add_argument("--from", dest="b_from", type=float, required=True,
                    help="first coupling value")
    pc.add_argument("--to", dest="b_to", type=float, required=True,
                    help="last coupling value")
    pc.add_argument("--steps", type=int, default=11,
                    help="number of samples, endpoints included (default 11)")

    pv = sub.add_parser("verify", parents=[common],
                        help="cross-check the lattice against a truncated "
                             "number-basis matrix")
    pv.add_argument("--n-max", type=int, default=8,
                    help="per-mode occupancy cutoff (default 8)")
    pv.add_argument("--max-quanta", type=int, default=None,
                    help="lattice depth (default: same as --n-max)")
    pv.add_argument("--max-levels", type=int, default=10,
                    help="compare at most this many levels (default 10)")

    pw = sub.add_parser("wavefunction", parents=[common],
                        help="exact eigenfunction of the symmetric model")
    pw.add_argument("m", type=int, help="quanta of the co-rotating ladder")
    pw.add_argument("n", type=int, help="quanta of the counter-rotating ladder")
    return p


# ---- configuration ----------------------------------------------------------

def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _as_float(v: int | float) -> float:
    """float(v) of a JSON number; an int beyond the float range reads inf,
    which every caller rejects as non-finite."""
    try:
        return float(v)
    except OverflowError:
        return math.inf


def _number(cfg: dict, key: str, default: float | None = None) -> float | None:
    """The finite number at cfg[key], or default when the key is absent."""
    if key not in cfg:
        return default
    v = cfg[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"config key {key!r} must be a number")
    x = _as_float(v)
    if not math.isfinite(x):
        raise ConfigError(f"config key {key!r} must be finite")
    return x


def _oscillator_b(cfg: dict):
    return None, models.DimensionlessModel(
        mu=_number(cfg, "mu", 1.0), k=_number(cfg, "k", 1.0), b=_number(cfg, "b"))


def _physical(cfg: dict):
    return None, models.reduce_to_dimensionless(models.PhysicalParameters(
        *(_number(cfg, key) for key in ("m1", "m2", "k1", "k2", "omega")),
        hbar=_number(cfg, "hbar", 1.0),
    ))


def _random_pd(cfg: dict):
    k_modes, seed = cfg["K"], cfg["seed"]
    if isinstance(k_modes, bool) or not isinstance(k_modes, int):
        raise ConfigError("config key 'K' must be an integer")
    if k_modes < 1:
        raise ConfigError("config key 'K' must be a positive integer")
    if k_modes > MAX_RANDOM_MODES:
        raise ConfigError(f"config key 'K' = {k_modes} exceeds the limit of "
                          f"{MAX_RANDOM_MODES} modes")
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError("config key 'seed' must be an integer")
    if seed < 0:
        raise ConfigError("config key 'seed' must be a non-negative integer")
    spread = cfg.get("spread", [0.6, 1.8])
    if (not isinstance(spread, (list, tuple)) or len(spread) != 2
            or any(isinstance(s, bool) or not isinstance(s, (int, float))
                   for s in spread)
            or any(math.isinf(_as_float(s)) for s in spread)):
        raise ConfigError("config key 'spread' must be [lo, hi]")
    return models.random_positive_definite_form(
        k_modes, seed, (float(spread[0]), float(spread[1]))), None


# preset -> (required keys, optional keys, builder of (form, None) or, for an
# oscillator model, (None, model))
_PRESETS = {
    "oscillator-b": ({"b"}, {"mu", "k"}, _oscillator_b),
    "physical": ({"m1", "m2", "k1", "k2", "omega"}, {"hbar"}, _physical),
    "sb": ({"B"}, set(), lambda cfg: (models.sb_operator(_number(cfg, "B")), None)),
    "random-pd": ({"K", "seed"}, {"spread"}, _random_pd),
}


def _build_form(cfg: dict, seed_override: int | None, with_form: bool):
    """Returns (form, effective config, model-or-None); without with_form an
    oscillator model's form is left unbuilt (None)."""
    has_preset = "preset" in cfg
    has_explicit = "gamma" in cfg or "offset" in cfg
    if has_preset and has_explicit:
        raise ConfigError("config must use either a preset or an explicit "
                          "gamma, not both")
    if has_preset:
        preset = cfg["preset"]
        if preset not in _PRESETS:
            raise ConfigError(
                f"unknown preset {preset!r}; expected one of "
                f"{', '.join(sorted(_PRESETS))}"
            )
        required, optional, build = _PRESETS[preset]
        missing = required - set(cfg)
        if missing:
            raise ConfigError(
                f"preset {preset!r} needs key(s): {', '.join(sorted(missing))}"
            )
        unknown = set(cfg) - required - optional - {"preset", "tol_scale"}
        if unknown:
            raise ConfigError(
                f"unknown key(s) for preset {preset!r}: {', '.join(sorted(unknown))}"
            )
        eff = dict(cfg)
        if seed_override is not None and "seed" in eff:  # random-pd's seed
            eff["seed"] = seed_override
        try:
            form, model = build(eff)
            if form is None and with_form:
                form = models.build_model(model)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return form, eff, model

    if "gamma" not in cfg:
        raise ConfigError("config needs either 'preset' or an explicit 'gamma'")
    allowed = {"K", "gamma", "offset", "tol_scale"}
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(
            f"unknown key(s) in explicit config: {', '.join(sorted(unknown))}"
        )
    if "K" not in cfg:
        raise ConfigError("explicit config needs the mode count 'K'")
    k_modes = cfg["K"]
    if isinstance(k_modes, bool) or not isinstance(k_modes, int) or k_modes < 1:
        raise ConfigError("config key 'K' must be a positive integer")
    try:
        g = np.asarray(cfg["gamma"], dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"'gamma' must be a numeric matrix: {exc}") from exc
    d = 2 * k_modes
    if g.shape != (d, d):
        raise ConfigError(f"'gamma' must be {d}x{d} for K={k_modes}, "
                          f"got shape {g.shape}")
    if not np.all(np.isfinite(g)):
        raise ConfigError("'gamma' contains non-finite entries")
    dev = float(np.max(np.abs(g - g.T))) if g.size else 0.0
    if dev > tol.machine_zero_tol(float(np.max(np.abs(g))) if g.size else 0.0):
        raise ConfigError(f"'gamma' is not symmetric (deviation {dev:.3e})")
    g = (g + g.T) / 2.0
    form = QuadraticForm(PhaseSpaceBasis(k_modes), g, _number(cfg, "offset", 0.0))
    return form, dict(cfg), None


# ---- payload builders -------------------------------------------------------

def _pair_payload(p) -> dict:
    return {
        "lambda_plus": p.lambda_plus,
        "raising_frequency": p.raising_frequency,
        "norm_constant": p.norm_constant,
        "raising": p.raising.coeffs,
        "lowering": p.lowering.coeffs,
    }


def _columns(records, names) -> tuple[list[str], list[tuple]]:
    """A CSV table of the named attributes, one row per record."""
    return list(names), [tuple(getattr(r, n) for n in names) for r in records]


def _cmd_analyze(form, model):
    report = classify_spectrum(form)
    e = eigen_decompose(adjoint_representation(form))
    evals = sorted((complex(v) for v in e.eigenvalues),
                   key=lambda z: (z.real, z.imag))
    results = {
        "K": form.basis.K,
        "classification": report.classification.value,
        "adjoint_eigenvalues": evals,
        "frequency_pairs": [_pair_payload(p) for p in report.pairs],
        "ground_energy": report.ground_energy,
        "vacuum_energy": report.vacuum_energy,
        "lattice_generators": list(report.lattice_generators),
        "multiplicity_note": report.multiplicity_note,
        "gamma_min_eigenvalue": report.gamma_min,
        "offset": form.offset,
    }
    if model is not None:
        results["model"] = model
    header = ["re", "im"]
    rows = [(z.real, z.imag) for z in evals]
    return results, (header, rows)


def _lattice(report, max_quanta: int):
    try:
        return spectrum_lattice(report, max_quanta)
    except LatticeCapError as exc:
        raise ConfigError(str(exc)) from exc


def _cmd_spectrum(form, max_quanta: int):
    if max_quanta < 0:
        raise ConfigError("--max-quanta must be non-negative")
    report = classify_spectrum(form)
    levels = _lattice(report, max_quanta)
    results = {
        "classification": report.classification.value,
        "max_quanta": max_quanta,
        "ground_energy": report.ground_energy,
        "vacuum_energy": report.vacuum_energy,
        "lattice_generators": list(report.lattice_generators),
        "levels": levels,
    }
    width = len(levels[0].states[0])  # every lattice has its anchor level
    header = [f"n{j + 1}" for j in range(width)] + \
        ["energy", "degeneracy", "infinite"]
    rows = []
    for lv in levels:
        for state in lv.states:
            rows.append(tuple(state) + (lv.energy, lv.degeneracy, lv.infinite))
    return results, (header, rows)


def _cmd_scan(model, b_from, b_to, steps):
    if model is None:
        raise ConfigError(
            "scan sweeps the coupling of an oscillator model; use the "
            "'oscillator-b' or 'physical' preset"
        )
    if not (math.isfinite(b_from) and math.isfinite(b_to)):
        raise ConfigError("--from and --to must be finite")
    if not math.isfinite(b_to - b_from):
        raise ConfigError("--to minus --from must be finite")
    if steps < 1:
        raise ConfigError("--steps must be at least 1")
    if steps > MAX_SCAN_STEPS:
        raise ConfigError(f"--steps {steps} exceeds the limit of "
                          f"{MAX_SCAN_STEPS} samples")
    result = models.phase_scan(b_from, b_to, steps, mu=model.mu, k=model.k)
    results = {
        "mu": model.mu,
        "k": model.k,
        "from": b_from,
        "to": b_to,
        "steps": steps,
        "samples": result.samples,
        "transitions": result.transitions,
    }
    return results, _columns(result.samples,
                             ("b", "classification", "margin", "ground_energy"))


def _cmd_verify(form, n_max, max_quanta, max_levels):
    if n_max < 0:
        raise ConfigError("--n-max must be non-negative")
    if max_quanta is None:
        max_quanta = n_max
    if max_quanta < 0:
        raise ConfigError("--max-quanta must be non-negative")
    if max_levels < 1:
        raise ConfigError("--max-levels must be at least 1")
    report = classify_spectrum(form)
    if not report.classification.has_lattice:
        comparison = ComparisonReport.not_applicable(
            f"classification {report.classification.value} predicts no "
            "energy lattice to compare against"
        )
        shell_upto = 0
    else:
        trunc = FockTruncation(n_max=n_max, K=form.basis.K)
        levels = _lattice(report, max_quanta)
        oracle = oracle_spectrum(form, trunc)
        comparison = compare_with_lattice(
            oracle, levels, max_levels=max_levels,
            classification=report.classification)
        shell_upto = oracle.shell_exact_upto
    results = {
        "classification": report.classification.value,
        "n_max": n_max,
        "max_quanta": max_quanta,
        "dim": (n_max + 1) ** form.basis.K,
        "shell_exact_upto": shell_upto,
        "comparison": comparison,
    }
    return results, _columns(comparison.rows,
                             [f.name for f in dataclasses.fields(ComparisonRow)])


def _cmd_wavefunction(form, cfg, model, m, n):
    if m < 0 or n < 0:
        raise ConfigError("quantum numbers m and n must be non-negative")
    if m + n > MAX_WAVEFUNCTION_QUANTA:
        raise ConfigError(f"m + n = {m + n} exceeds the limit of "
                          f"{MAX_WAVEFUNCTION_QUANTA} quanta")
    if cfg.get("preset") == "oscillator-b":
        if not model.is_symmetric:
            raise ConfigError(
                "exact eigenfunctions need the symmetric model (mu = 1, k = 1)"
            )
        b = model.b
    elif cfg.get("preset") == "sb":
        b = float(cfg["B"])
        if abs(b) != 2.0:
            raise ConfigError(
                "exact eigenfunctions for the 'sb' preset need |B| = 2, where "
                "the form coincides with the symmetric model"
            )
    else:
        raise ConfigError(
            "the wavefunction command supports the 'oscillator-b' preset with "
            "mu = k = 1, or the 'sb' preset with |B| = 2"
        )

    raise_m, raise_n = models.symmetric_raising_pair()
    psi = build_eigenfunction(raise_m.form, raise_n.form, m, n)
    # at |B| = 2 sb_operator(B) has the b = B model's gamma, entry for entry
    amount = is_scalar_multiple_exact(apply_quadratic_form(form, psi), psi)
    energy_exact = models.symmetric_energy(Fraction(b), m, n)
    if amount is None or not amount.equals_rational(energy_exact):
        raise QuadhamError("exact eigen-relation check failed")
    lz = is_scalar_multiple_exact(
        apply_quadratic_form(models.angular_momentum_form(), psi), psi
    )
    if lz is None or not lz.equals_rational(m - n):
        raise QuadhamError("exact rotation-generator check failed")

    header = ["m", "n", "b", "energy", "angular_momentum", "state"]
    row = (m, n, b, float(energy_exact), m - n, psi.render())
    return dict(zip(header, row), eigen_check="exact"), (header, [row])


# ---- entry point ------------------------------------------------------------

def _dispatch(args) -> tuple[dict, dict, tuple]:
    cfg = _load_config(args.config)
    scale = cfg.get("tol_scale", 1.0)
    bad_scale = "config key 'tol_scale' must be a positive number"
    if isinstance(scale, bool) or not isinstance(scale, (int, float)):
        raise ConfigError(bad_scale)
    try:
        tol.set_config_scale(_as_float(scale))
    except ValueError as exc:
        raise ConfigError(bad_scale) from exc

    # scan reads only the model, so its form is not built
    form, eff_cfg, model = _build_form(cfg, args.seed,
                                       with_form=args.command != "scan")
    if args.command == "analyze":
        results, table = _cmd_analyze(form, model)
    elif args.command == "spectrum":
        results, table = _cmd_spectrum(form, args.max_quanta)
    elif args.command == "scan":
        results, table = _cmd_scan(model, args.b_from, args.b_to, args.steps)
    elif args.command == "verify":
        results, table = _cmd_verify(form, args.n_max, args.max_quanta,
                                     args.max_levels)
    else:  # wavefunction: the subparsers admit only these five commands
        results, table = _cmd_wavefunction(form, eff_cfg, model, args.m, args.n)
    return eff_cfg, results, table


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else (0 if code is None else 2)

    # the run's tolerances use the config's scale alone; the caller's own
    # scale comes back through the token when the run ends
    token = tol._CONFIG_SCALE.set(1.0)
    try:
        # a numpy warning would print its source line; failures surface as
        # EigensolverError or NonFiniteResultError instead
        with np.errstate(all="ignore"):
            eff_cfg, results, (header, rows) = _dispatch(args)
        if args.format == "json":
            text = serialize.dumps_json(serialize.envelope(eff_cfg, results))
        else:
            text = serialize.dumps_csv(header, rows)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    except ConfigError as exc:
        print(f"quadham: config error: {exc}", file=sys.stderr)
        return 2
    except QuadhamError as exc:
        print(f"quadham: error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - the contract is "no tracebacks"
        print(f"quadham: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        tol._CONFIG_SCALE.reset(token)


if __name__ == "__main__":
    raise SystemExit(main())
