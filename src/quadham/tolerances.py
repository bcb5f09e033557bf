"""Centralised numerical tolerances.

Each tolerance below is multiplied by one scale, 1 unless set_config_scale()
sets another (the CLI sets its config file's `tol_scale`).  The scale is a
context variable: it holds for the calling thread or task only, and the CLI
restores its caller's value when a run ends.

Fixed thresholds live beside their one use and ignore the scale: the 1e-12
floors of `spectral._canonical_phase`'s pivot and `spectral._fast_path`'s
Gram entries, `models.phase_scan`'s 1e-10 bisection width and 1e-9
transition merge, and `spectral.ladder_check`'s 1e-300 non-real floor.
"""

from __future__ import annotations

import contextvars
import math

# the scale set_config_scale installs, per thread and task
_CONFIG_SCALE: contextvars.ContextVar[float] = contextvars.ContextVar(
    "quadham_config_scale", default=1.0)


def set_config_scale(value: float) -> None:
    if not 0.0 < value < math.inf:
        raise ValueError("tolerance scale must be finite and positive")
    _CONFIG_SCALE.set(float(value))


def tol_scale() -> float:
    return _CONFIG_SCALE.get()


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
