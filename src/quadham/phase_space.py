"""Phase-space operator basis, quadratic forms and their adjoint matrices.

The operator basis is ordered (x_1..x_K, p_1..p_K) with [x_m, p_n] = i delta_mn
and hbar = 1 internally.  A quadratic form H = sum_ij gamma_ij O_i O_j + offset
acts on the basis by commutation, [H, O_i] = sum_j M_ji O_j, and the matrix M
(the adjoint matrix) has the closed form M = i (gamma + gamma^T) J = 2 i gamma J
for the symmetric gamma stored here.  Ladder operators Z = sum_i c_i O_i with
[H, Z] = lambda Z are exactly the eigenvectors M c = lambda c.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import BasisMismatchError, EigensolverError, NonHermitianFormError, QuadhamError
from .tolerances import machine_zero_tol, offset_imag_tol


def _count(value, least: int, message: str) -> int:
    """value as a plain int; ValueError(message) for a bool, a non-integer or
    a value below least.  numpy integers are accepted."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(message)
    return int(value)


@dataclass(frozen=True)
class PhaseSpaceBasis:
    """Canonical basis (x_1..x_K, p_1..p_K); hbar fixed to 1 internally."""

    K: int

    def __post_init__(self):
        object.__setattr__(self, "K", _count(self.K, 1, "K must be a positive integer"))

    @property
    def dim(self) -> int:
        return 2 * self.K

    def labels(self) -> list[str]:
        if self.K == 1:
            return ["x", "p"]
        if self.K == 2:
            return ["x", "y", "px", "py"]
        return [f"x{j}" for j in range(1, self.K + 1)] + [
            f"p{j}" for j in range(1, self.K + 1)
        ]


@functools.lru_cache(maxsize=8)
def _symplectic(K: int) -> np.ndarray:
    """Read-only J of K modes, [O_m, O_n] = i J_mn: [[0, I], [-I, 0]]."""
    J = np.zeros((2 * K, 2 * K))
    J[:K, K:] = np.eye(K)
    J[K:, :K] = -np.eye(K)
    J.flags.writeable = False
    return J


def _read_only(a: np.ndarray) -> np.ndarray:
    """A view of a that no caller can write through or make writable: numpy
    refuses to set WRITEABLE on a view of a read-only array."""
    a.flags.writeable = False
    return a.view()


def _derived(form, make):
    """make(form), computed on the form's first request and kept on it.

    A form is a value: its arrays are read-only copies, so anything derived
    from them holds for the form's lifetime.  make is a module-level
    function of the form alone; nothing is keyed by the form's content.
    """
    kept = form._kept
    try:
        return kept[make]
    except KeyError:  # setdefault: racing first calls all return one value
        return kept.setdefault(make, make(form))


@dataclass(frozen=True, eq=False)
class LinearForm:
    """First-order operator sum_i coeffs[i] O_i; coeffs is a read-only copy."""

    basis: PhaseSpaceBasis
    coeffs: np.ndarray

    def __post_init__(self):
        c = _read_only(np.array(self.coeffs, dtype=complex))
        if c.shape != (self.basis.dim,):
            raise ValueError(
                f"coefficient vector must have length {self.basis.dim}, "
                f"got shape {c.shape}"
            )
        if not np.isfinite(c).all():
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "_kept", {})  # for `_derived`; not a field

    def __reduce__(self):  # copies and pickles rebuild through the checks
        return LinearForm, (self.basis, self.coeffs)


@dataclass(frozen=True, eq=False)
class QuadraticForm:
    """H = sum_ij gamma_ij O_i O_j + offset, with gamma real symmetric.

    gamma is a read-only copy of the caller's array, so a form cannot change
    after its checks; data derived from it is computed once per form.
    """

    basis: PhaseSpaceBasis
    gamma: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        g = _read_only(np.array(self.gamma, dtype=float))
        d = self.basis.dim
        if g.shape != (d, d):
            raise ValueError(f"gamma must be {d}x{d}, got {g.shape}")
        if not np.isfinite(g).all():
            raise ValueError("gamma entries must be finite")
        if not (g == g.T).all():
            raise ValueError("gamma must be exactly symmetric")
        if not np.isfinite(self.offset):
            raise ValueError("offset must be finite")
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "offset", float(self.offset))
        object.__setattr__(self, "_kept", {})  # for `_derived`; not a field

    def __reduce__(self):  # copies and pickles rebuild through the checks
        return QuadraticForm, (self.basis, self.gamma, self.offset)


@dataclass(frozen=True, eq=False)
class AdjointMatrix:
    """Matrix of the commutator action of a quadratic form on the basis, as a
    view of that form: its entries are derived once per form.

    Column convention: [H, O_i] = sum_j entries[j, i] O_j.
    """

    source: QuadraticForm

    @property
    def entries(self) -> np.ndarray:
        return _derived(self.source, _adjoint_entries)

    @property
    def K(self) -> int:
        return self.source.basis.K


def make_quadratic_form(K: int, terms) -> QuadraticForm:
    """Assemble a quadratic form from monomials (i, j, coeff).

    Indices are 1-based into the ordering (x_1..x_K, p_1..p_K).  Coefficients
    must be real; each monomial coeff * O_i O_j is split into its symmetric
    part plus the reordering constant coeff * i J_ij / 2.  For a Hermitian
    combination the constants cancel to a real offset; a residual imaginary
    part above tolerance rejects the input.
    """
    basis = PhaseSpaceBasis(K)
    d = basis.dim
    gamma = [[0.0] * d for _ in range(d)]
    offset_im = 0.0
    for term in terms:
        try:
            i, j, coeff = term
        except (TypeError, ValueError) as exc:
            raise ValueError(f"term {term!r} is not an (i, j, coeff) triple") from exc
        if not (isinstance(i, (int, np.integer)) and isinstance(j, (int, np.integer))):
            raise ValueError(f"indices must be integers, got {term!r}")
        if not (1 <= i <= d and 1 <= j <= d):
            raise ValueError(f"index out of range 1..{d} in term {term!r}")
        if isinstance(coeff, bool):
            raise ValueError(f"coefficient must be a real number, got {coeff!r}")
        if isinstance(coeff, complex) and not isinstance(coeff, float):
            raise NonHermitianFormError(
                f"monomial coefficients must be real, got {coeff!r}"
            )
        c = float(coeff)
        if not math.isfinite(c):
            raise ValueError(f"non-finite coefficient in term {term!r}")
        a, b = i - 1, j - 1
        gamma[a][b] += c / 2.0
        gamma[b][a] += c / 2.0
        # O_a O_b = sym(O_a O_b) + (i/2) J_ab, J_ab = +1 at (a, a + K), -1
        # at (a + K, a) and 0 elsewhere
        J_ab = 1.0 if b - a == K else -1.0 if a - b == K else 0.0
        offset_im += c * J_ab / 2.0
    if abs(offset_im) > offset_imag_tol():
        raise NonHermitianFormError(
            f"imaginary reordering residual {offset_im:.3e} exceeds tolerance; "
            "the monomial combination is not Hermitian"
        )
    return QuadraticForm(basis, np.array(gamma), 0.0)


def _adjoint_entries(q: QuadraticForm) -> np.ndarray:
    """q's adjoint matrix 2 i gamma J, read-only."""
    return _read_only(2j * (q.gamma @ _symplectic(q.basis.K)))


def _generator(q: QuadraticForm) -> np.ndarray:
    """The real R with q's adjoint matrix i R, read-only."""
    return _read_only(np.real(-1j * _derived(q, _adjoint_entries)))


def _adjoint_norm(q: QuadraticForm) -> float:
    """The largest singular value of R, the norm of q's adjoint matrix."""
    return float(_lapack(np.linalg.svd, _derived(q, _generator), compute_uv=False)[0])


def _lapack(solver, *args, **kwargs):
    """solver(*args, **kwargs), a numpy.linalg call whose LinAlgError is
    raised as EigensolverError."""
    try:
        return solver(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigensolver did not converge: {exc}") from exc


def adjoint_representation(q: QuadraticForm) -> AdjointMatrix:
    """Closed-form adjoint matrix 2 i gamma J (gamma stored symmetric).

    Each call returns a new view of q, so no form holds a record that
    points back at it.
    """
    return AdjointMatrix(q)


def linear_commutator(a: LinearForm, b: LinearForm) -> complex:
    """[A, B] = i a^T J b for linear forms; a complex scalar."""
    if a.basis != b.basis:
        raise BasisMismatchError("linear forms live on different bases")
    return complex(1j * (a.coeffs @ _symplectic(a.basis.K) @ b.coeffs))


def quadratic_commutator(a: QuadraticForm, b: QuadraticForm) -> QuadraticForm:
    """Hermitian form q with [A, B] = i q.

    Computed through the adjoint matrices: gamma_q = [M_A, M_B] J / 2, which is
    real and symmetric for Hermitian inputs; the offset is exactly zero.  q is
    the zero form precisely when the adjoint matrices commute.
    """
    if a.basis != b.basis:
        raise BasisMismatchError("forms live on different bases")
    A = adjoint_representation(a).entries
    B = adjoint_representation(b).entries
    M = A @ B - B @ A
    C = M @ _symplectic(a.basis.K) / 2.0
    scale = float(np.max(np.abs(C))) if C.size else 0.0
    if float(np.max(np.abs(C.imag))) > machine_zero_tol(scale):
        raise QuadhamError("commutator produced a non-real form matrix")
    C = C.real
    if float(np.max(np.abs(C - C.T))) > machine_zero_tol(scale):
        raise QuadhamError("commutator produced a non-symmetric form matrix")
    C = (C + C.T) / 2.0
    return QuadraticForm(a.basis, C, 0.0)
