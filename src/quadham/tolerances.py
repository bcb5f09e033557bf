"""Centralised numerical tolerances.

Every tolerance in the package is defined here and multiplied by the value of
the QUADHAM_TOL_SCALE environment variable (default 1.0), read on every call;
each distinct value is parsed once.  The CLI can layer an additional factor
from its config file via set_config_scale(); library callers normally leave
that at 1.  That factor is a context variable: it holds for
the calling thread or task only, and the CLI restores its caller's value when
a run ends.
"""

from __future__ import annotations

import contextvars
import functools
import math
import os

_ENV_VAR = "QUADHAM_TOL_SCALE"

# extra multiplier installed by set_config_scale, per thread and task
_CONFIG_SCALE: contextvars.ContextVar[float] = contextvars.ContextVar(
    "quadham_config_scale", default=1.0)


def set_config_scale(value: float) -> None:
    if not 0.0 < value < math.inf:
        raise ValueError("tolerance scale must be finite and positive")
    _CONFIG_SCALE.set(float(value))


@functools.lru_cache(maxsize=8)
def _env_scale(raw: str | None) -> float:
    """The factor a raw QUADHAM_TOL_SCALE value sets; a bad value raises."""
    if raw is None:
        return 1.0
    try:
        env = float(raw)
    except ValueError as exc:
        raise ValueError(f"{_ENV_VAR} must be a float, got {raw!r}") from exc
    if not 0.0 < env < math.inf:
        raise ValueError(f"{_ENV_VAR} must be finite and positive, got {env}")
    return env


def tol_scale() -> float:
    env = _env_scale(os.environ.get(_ENV_VAR))
    config = _CONFIG_SCALE.get()
    scale = env * config
    if scale == math.inf:
        raise ValueError(f"tolerance scale {env} x {config} overflows")
    return scale


def pairing_tol(matrix_norm: float) -> float:
    """Eigenvalue cluster radius: sameness, reality, +/- pairing and rank."""
    return 1e-9 * (1.0 + matrix_norm) * tol_scale()


def zero_frequency_tol(matrix_norm: float) -> float:
    return 1e-10 * (1.0 + matrix_norm) * tol_scale()


def definiteness_tol(gamma_norm: float) -> float:
    return 1e-10 * (1.0 + gamma_norm) * tol_scale()


def ladder_residual_tol(adjoint_norm: float) -> float:
    return 1e-9 * adjoint_norm * tol_scale()


def offset_imag_tol() -> float:
    return 1e-12 * tol_scale()


def machine_zero_tol(matrix_max: float) -> float:
    """For checks the contract calls machine zero (sparsity, Hermiticity)."""
    return 1e-12 * (1.0 + matrix_max) * tol_scale()


def cluster_tol(energy_max: float) -> float:
    """Oracle degeneracy-merge tolerance."""
    return 1e-8 * (1.0 + energy_max) * tol_scale()


def lattice_merge_tol(energy_max: float) -> float:
    return 1e-9 * (1.0 + energy_max) * tol_scale()


def annihilation_tol(coeff_norm: float) -> float:
    """Residual below which a linear form is taken to kill the Gaussian vacuum."""
    return 1e-8 * (1.0 + coeff_norm) * tol_scale()


def oracle_shell_tol() -> float:
    """Agreement threshold for truncation-exact (complete shell) comparisons."""
    return 1e-8 * tol_scale()


def oracle_variational_tol() -> float:
    """Agreement threshold for variationally converged low-lying levels."""
    return 1e-6 * tol_scale()
