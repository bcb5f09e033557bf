"""Centralised numerical tolerances.

Every tolerance in the package is defined here and multiplied by the value of
the QUADHAM_TOL_SCALE environment variable (default 1.0).  The CLI can layer an
additional factor from its config file via set_config_scale(); library callers
normally leave that at 1.
"""

from __future__ import annotations

import math
import os

_ENV_VAR = "QUADHAM_TOL_SCALE"

# Extra multiplier installed by the CLI from config options; not thread safe
# while being mutated, set once at process start.
_config_scale = 1.0


def set_config_scale(value: float) -> None:
    global _config_scale
    if not 0.0 < value < math.inf:
        raise ValueError("tolerance scale must be finite and positive")
    _config_scale = float(value)


def tol_scale() -> float:
    raw = os.environ.get(_ENV_VAR)
    env = 1.0
    if raw is not None:
        try:
            env = float(raw)
        except ValueError as exc:
            raise ValueError(f"{_ENV_VAR} must be a float, got {raw!r}") from exc
        if not 0.0 < env < math.inf:
            raise ValueError(f"{_ENV_VAR} must be finite and positive, got {env}")
    scale = env * _config_scale
    if scale == math.inf:
        raise ValueError(f"tolerance scale {env} x {_config_scale} overflows")
    return scale


def pairing_tol(matrix_norm: float) -> float:
    """Eigenvalue reality and +/- pairing tolerance."""
    return 1e-9 * (1.0 + matrix_norm) * tol_scale()


def zero_frequency_tol(matrix_norm: float) -> float:
    return 1e-10 * (1.0 + matrix_norm) * tol_scale()


def rank_threshold(sigma_max: float) -> float:
    """Singular values above this count toward numerical rank."""
    return 1e-10 * sigma_max * tol_scale()


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
