"""Concrete two-mode models: coupled oscillators in a rotating trap.

The physical system is two oscillators whose coupling rotates at a fixed
rate.  After rescaling to dimensionless coordinates it is governed by three
numbers (mu, k, b): mass ratio, spring ratio, and twice the rotation rate in
units of the first oscillator frequency.  The symmetric case mu = k = 1 has
closed-form ladder operators; |b| = 2 is the boundary where the form matrix
loses definiteness.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .phase_space import (
    LinearForm,
    PhaseSpaceBasis,
    QuadraticForm,
    _count,
    _lapack,
    make_quadratic_form,
)
from .spectral import Classification, _cluster, _verdicts
from . import tolerances as tol

# 1-based operator indices for two modes, as make_quadratic_form expects
X, Y, PX, PY = 1, 2, 3, 4
_TWO_MODES = PhaseSpaceBasis(2)


@dataclass(frozen=True)
class PhysicalParameters:
    """Dimensionful inputs: two masses, two spring constants, rotation rate."""

    m1: float
    m2: float
    k1: float
    k2: float
    omega: float
    hbar: float = 1.0

    def __post_init__(self):
        for name in ("m1", "m2", "k1", "k2", "hbar"):
            v = getattr(self, name)
            if (isinstance(v, bool) or not isinstance(v, (int, float))
                    or not (math.isfinite(v) and v > 0)):
                raise ValueError(f"{name} must be a positive finite number")
        if (isinstance(self.omega, bool) or not isinstance(self.omega, (int, float))
                or not math.isfinite(self.omega)):
            raise ValueError("omega must be a finite number")


@dataclass(frozen=True)
class DimensionlessModel:
    """Rescaled model (mu, k, b); energies are in units of energy_scale."""

    mu: float
    k: float
    b: float
    energy_scale: float = 1.0

    def __post_init__(self):
        for name in ("mu", "k", "b", "energy_scale"):
            v = getattr(self, name)
            # float first: the numbers.Real check alone costs 0.5 us a value
            if isinstance(v, bool) or not isinstance(v, (float, numbers.Real)):
                raise ValueError(f"{name} must be a real number, got {v!r}")
            try:
                finite = math.isfinite(v)
            except OverflowError:  # an int or Fraction beyond the float range
                raise ValueError(f"{name} is beyond the float range") from None
            if name == "b" and not finite:
                raise ValueError("b must be finite")
            if name != "b" and not (finite and v > 0):
                raise ValueError(f"{name} must be positive and finite")
        try:
            inverse = 1.0 / self.mu
        except ZeroDivisionError:  # a positive mu whose float is 0.0
            inverse = math.inf
        if not math.isfinite(inverse):
            raise ValueError("1/mu must be finite")

    @property
    def is_symmetric(self) -> bool:
        return self.mu == 1.0 and self.k == 1.0


def reduce_to_dimensionless(p: PhysicalParameters) -> DimensionlessModel:
    """Rescale lengths and momenta mode by mode; returns (mu, k, b).

    The reference frequency is that of the first oscillator; half a quantum
    of it is the energy unit, and b is the rotation rate in those terms.
    """
    omega1 = math.sqrt(p.k1 / p.m1)
    return DimensionlessModel(
        mu=p.m2 / p.m1,
        k=p.k2 / p.k1,
        b=2.0 * p.omega / omega1,
        energy_scale=p.hbar * omega1 / 2.0,
    )


def build_model(d: DimensionlessModel) -> QuadraticForm:
    """x^2 + k y^2 + px^2 + py^2/mu + b (x py - y px) on two modes, gamma as
    `_gammas` writes it."""
    return QuadraticForm(_TWO_MODES, _gammas([d.b], d.mu, d.k)[0], 0.0)


def _gammas(bs, mu: float, k: float, c: float = 1.0) -> np.ndarray:
    """gamma of `build_model` at each coupling of bs, an (n, 4, 4) stack,
    x^2 weighted by c (`sb_operator` takes c = k = B^2/4).  Each entry has
    the bits `make_quadratic_form` sums for its monomials: 0.0 + w/2 + w/2
    for a diagonal weight w, 0.0 + b/2 off it (b = +-0.0 gives +0.0).
    """
    k, inv_mu = float(k), float(1.0 / mu)
    half_b = 0.0 + np.asarray(bs, dtype=float) / 2.0
    gammas = np.zeros((len(half_b), 4, 4))
    gammas[:, 0, 0] = 0.0 + c / 2.0 + c / 2.0
    gammas[:, 2, 2] = 1.0
    gammas[:, 1, 1] = 0.0 + k / 2.0 + k / 2.0
    gammas[:, 3, 3] = 0.0 + inv_mu / 2.0 + inv_mu / 2.0
    gammas[:, 0, 3] = gammas[:, 3, 0] = half_b
    gammas[:, 1, 2] = gammas[:, 2, 1] = 0.0 - half_b
    return gammas


def isotropic_form() -> QuadraticForm:
    """The uncoupled symmetric part x^2 + y^2 + px^2 + py^2."""
    return build_model(DimensionlessModel(1.0, 1.0, 0.0))


@functools.cache
def angular_momentum_form() -> QuadraticForm:
    """x py - y px (the generator the coupling term is proportional to).

    Built on the first call; every call returns that one read-only form.
    """
    return make_quadratic_form(2, [(X, PY, 1.0), (Y, PX, -1.0)])


def sb_operator(B: float) -> QuadraticForm:
    """(px - (B/2) y)^2 + (py + (B/2) x)^2, the model with x^2 and y^2
    weighted by c = B^2/4, gamma as `_gammas` writes it; the errors are
    `make_quadratic_form`'s for a c that overflows and for a bool B."""
    if not math.isfinite(B):
        raise ValueError("B must be finite")
    c = B * B / 4.0
    if not math.isfinite(c):
        raise ValueError(f"non-finite coefficient in term {(X, X, c)!r}")
    if isinstance(B, bool):
        raise ValueError(f"coefficient must be a real number, got {B!r}")
    return QuadraticForm(_TWO_MODES, _gammas([B], 1.0, c, c)[0], 0.0)


@dataclass(frozen=True, eq=False)
class LadderSpec:
    """A ladder operator of the symmetric model, valid for every coupling b.

    Its frequency at coupling b is isotropic_shift + rotation_weight * b: a
    coupling-independent shift from the isotropic part plus b times its
    rotation weight.
    """

    form: LinearForm
    isotropic_shift: float
    rotation_weight: float


@functools.cache
def symmetric_ladders() -> tuple[LadderSpec, ...]:
    """The four b-independent ladder operators of the mu = k = 1 model.

    Coefficient rows are over (x, y, px, py); shifts/weights give frequencies
    (-2 - b, 2 - b, -2 + b, 2 + b).  Built on the first call; every call
    returns the same read-only ladders.
    """
    rows = (  # (coefficients, isotropic shift, rotation weight)
        ((-1j, -1.0, 1.0, -1j), -2.0, -1.0),
        ((1j, 1.0, 1.0, -1j), 2.0, -1.0),
        ((-1j, 1.0, 1.0, 1j), -2.0, 1.0),
        ((1j, -1.0, 1.0, 1j), 2.0, 1.0),
    )
    return tuple(LadderSpec(LinearForm(_TWO_MODES, coeffs), shift, weight)
                 for coeffs, shift, weight in rows)


def symmetric_raising_pair() -> tuple[LadderSpec, ...]:
    """The two raising operators: frequencies 2 + b and 2 - b.

    Applied to the Gaussian ground state they generate the whole lattice;
    the first raises angular momentum by one, the second lowers it.  They
    are the shared ladders 3 and 1 of `symmetric_ladders`.
    """
    ladders = symmetric_ladders()
    return ladders[3], ladders[1]


def symmetric_energy(b: float | Fraction, m: int, n: int) -> float | Fraction:
    """Lattice energy 2 + (2 + b) m + (2 - b) n of the symmetric model, exact
    for a Fraction b."""
    return 2 + (2 + b) * m + (2 - b) * n


def random_positive_definite_form(
    K: int, seed: int, spread: tuple[float, float] = (0.6, 1.8)
) -> QuadraticForm:
    """Random gamma with eigenvalues uniform in [spread); reproducible.

    seed is a non-negative integer and spread a finite (lo, hi), both
    checked before anything is drawn.
    """
    K = _count(K, 1, "K must be a positive integer")
    seed = _count(seed, 0, "seed must be a non-negative integer")
    lo, hi = spread
    if not (0 < lo < hi):
        raise ValueError("spread must satisfy 0 < lo < hi")
    if not math.isfinite(hi):
        raise ValueError("spread must be finite")
    rng = np.random.default_rng(seed)
    n = 2 * K
    q, _ = _lapack(np.linalg.qr, rng.standard_normal((n, n)))
    d = rng.uniform(lo, hi, size=n)
    g = (q * d) @ q.T
    g = (g + g.T) / 2.0
    return QuadraticForm(PhaseSpaceBasis(K), g, 0.0)


@dataclass(frozen=True, eq=False)
class ScanSample:
    b: float
    classification: Classification
    margin: float                    # smallest eigenvalue of gamma
    ground_energy: float | None
    generators: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class Transition:
    b_star: float
    bracket_lo: float
    bracket_hi: float


@dataclass(frozen=True, eq=False)
class PhaseScanResult:
    samples: tuple[ScanSample, ...]
    transitions: tuple[Transition, ...]


def _margins(bs, mu: float, k: float) -> list[float]:
    """gamma's smallest eigenvalue at each coupling of bs, one eigvalsh call."""
    return _lapack(np.linalg.eigvalsh, _gammas(bs, mu, k))[:, 0].tolist()


def phase_scan(
    b_from: float,
    b_to: float,
    steps: int,
    mu: float = 1.0,
    k: float = 1.0,
) -> PhaseScanResult:
    """Classify along a sweep of the coupling and locate boundary crossings.

    steps is the sample count (endpoints included), an integer.  Only the
    endpoints become models; each sample is a slice of one `_gammas` stack
    and takes `classify_spectrum`'s verdict from `spectral._verdicts`, with
    one stacked LAPACK call per stage and no ladder pairs.  Array code
    decides every sample whose eigenvalues are simple, real and 10x clear
    of each tolerance that could merge or reject them, or that has a
    frequency 10x beyond the non-real threshold.  The other samples (a
    double frequency as at b = 0, a near-zero frequency near a boundary)
    become forms and cluster one by one, as `classify_spectrum` does.
    Transitions are read from gamma's smallest eigenvalue alone, never from
    the classes: a sample sitting on the definiteness boundary is itself a
    transition; between samples off it whose smallest eigenvalue changes
    strict sign, the crossing is bisected down to a bracket of width 1e-10,
    all brackets in lockstep with one `_gammas` stack and eigvalsh a step.
    """
    if isinstance(steps, bool) or not isinstance(steps, numbers.Integral):
        raise ValueError("steps must be an integer")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    for b in (b_from, b_to):
        DimensionlessModel(mu=mu, k=k, b=b)  # its errors, before any sampling
    # as Python floats, which overflow to inf without a numpy warning
    if not math.isfinite(float(b_to) - float(b_from)):
        raise ValueError("b_to - b_from must be finite")
    bs = np.linspace(b_from, b_to, steps).tolist()
    samples = [ScanSample(b=b, classification=v.classification, margin=v.gamma_min,
                          ground_energy=v.ground_energy, generators=v.generators)
               for b, v in zip(bs, _verdicts(_gammas(bs, mu, k)))]

    dead = tol.definiteness_tol(max(abs(s.margin) for s in samples) + 1.0)
    transitions = [Transition(s.b, s.b, s.b) for s in samples if abs(s.margin) <= dead]
    # [lo, hi, margin at lo] of each strict sign change
    brackets = [[a.b, c.b, a.margin] for a, c in zip(samples, samples[1:])
                if a.margin * c.margin < 0 and min(abs(a.margin), abs(c.margin)) > dead]
    active = brackets
    while active := [br for br in active if abs(br[1] - br[0]) > 1e-10]:
        mids = [0.5 * (lo + hi) for lo, hi, _ in active]
        for br, mid, fmid in zip(active, mids, _margins(mids, mu, k)):
            if fmid == 0.0:
                br[0] = br[1] = mid
            elif (br[2] < 0) == (fmid < 0):
                br[0], br[2] = mid, fmid
            else:
                br[1] = mid
    transitions += [Transition(0.5 * (lo + hi), lo, hi) for lo, hi, _ in brackets]

    deduped = tuple(
        transitions[g[0]] for g in _cluster([t.b_star for t in transitions], 1e-9)
    )
    return PhaseScanResult(samples=tuple(samples), transitions=deduped)
