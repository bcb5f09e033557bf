"""Truncated number-basis matrices: an independent numerical check.

Matrix elements of a quadratic form are assembled per mode.  Same-mode
quadratic products are computed at a padded cutoff and cropped so every
retained entry equals its untruncated value; cross-mode products and linear
forms are elementwise in the mode factors and need no padding.  Basis states
are occupancy tuples in row-major order with mode 1 slowest.

For forms that conserve total occupancy the retained matrix is exactly
block-diagonal over shells (total quanta s <= n_max), and each shell block
reproduces untruncated eigenvalues.  Otherwise eigenvalues of the truncated
matrix are variational approximations converging from above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EigensolverError, FockCapError, HermiticityError
from .phase_space import LinearForm, QuadraticForm
from .spectral import Classification, LatticeLevel, _cluster
from . import tolerances as tol


@dataclass(frozen=True)
class FockTruncation:
    """Retained occupancies 0..n_max in each of K modes."""

    n_max: int
    K: int
    # a dense complex matrix of 4096 states is 256 MiB, and assembly holds
    # about three such arrays at once
    cap: int = 4096

    def __post_init__(self):
        if not isinstance(self.n_max, int) or self.n_max < 0:
            raise ValueError("n_max must be a non-negative integer")
        if not isinstance(self.K, int) or self.K < 1:
            raise ValueError("K must be a positive integer")
        if self.dim > self.cap:
            raise FockCapError(
                f"truncated dimension {(self.n_max + 1)}^{self.K} = {self.dim} "
                f"exceeds cap {self.cap}"
            )

    @property
    def dim(self) -> int:
        return (self.n_max + 1) ** self.K

    def occupancies(self) -> list[tuple[int, ...]]:
        """Basis order: row-major tuples, mode 1 slowest."""
        return [tuple(idx) for idx in np.ndindex(*(self.n_max + 1,) * self.K)]

    def shell_indices(self) -> dict[int, np.ndarray]:
        """Flat indices grouped by total occupancy."""
        groups: dict[int, list[int]] = {}
        for i, occ in enumerate(self.occupancies()):
            groups.setdefault(sum(occ), []).append(i)
        return {s: np.asarray(ix) for s, ix in sorted(groups.items())}


def _single_mode_ops(levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Position and momentum matrices on occupancies 0..levels-1."""
    a = np.zeros((levels, levels))
    for n in range(levels - 1):
        a[n, n + 1] = math.sqrt(n + 1)
    x = (a + a.T) / math.sqrt(2.0)
    p = 1j * (a.T - a) / math.sqrt(2.0)
    return x.astype(complex), p


def _kron_chain(factors: dict[int, np.ndarray], K: int, n: int) -> np.ndarray:
    eye = np.eye(n, dtype=complex)
    out = np.ones((1, 1), dtype=complex)
    for j in range(K):
        out = np.kron(out, factors.get(j, eye))
    return out


def build_fock_matrix(q: QuadraticForm, t: FockTruncation) -> np.ndarray:
    """Matrix of the form on the retained basis; exact entries, then checked."""
    K = q.basis.K
    if K != t.K:
        raise ValueError("truncation mode count does not match the form")
    n = t.n_max + 1
    padded = _single_mode_ops(n + 2)
    singles = tuple(op[:n, :n] for op in padded)

    h = np.zeros((t.dim, t.dim), dtype=complex)
    gamma = q.gamma
    for a in range(2 * K):
        mode_a, kind_a = a % K, a // K
        for b in range(2 * K):
            g = gamma[a, b]
            if g == 0.0:
                continue
            mode_b, kind_b = b % K, b // K
            if mode_a == mode_b:
                prod = padded[kind_a] @ padded[kind_b]
                factors = {mode_a: prod[:n, :n]}
            else:
                factors = {mode_a: singles[kind_a], mode_b: singles[kind_b]}
            h += g * _kron_chain(factors, K, n)
    if q.offset:
        h += q.offset * np.eye(t.dim)

    dev = float(np.max(np.abs(h - h.conj().T))) if t.dim else 0.0
    scale = float(np.max(np.abs(h))) if t.dim else 0.0
    if dev > tol.machine_zero_tol(scale):
        raise HermiticityError(
            f"assembled matrix deviates from Hermitian by {dev:.3e}"
        )
    return h


def linear_form_matrix(z: LinearForm, t: FockTruncation) -> np.ndarray:
    """Matrix of a linear form on the retained basis (entries exact)."""
    K = z.basis.K
    if K != t.K:
        raise ValueError("truncation mode count does not match the form")
    n = t.n_max + 1
    singles = _single_mode_ops(n)
    out = np.zeros((t.dim, t.dim), dtype=complex)
    for idx in range(2 * K):
        c = z.coeffs[idx]
        if c == 0:
            continue
        mode, kind = idx % K, idx // K
        out += c * _kron_chain({mode: singles[kind]}, K, n)
    return out


@dataclass(frozen=True, eq=False)
class OracleSpectrum:
    """Eigenvalues of the truncated matrix plus shell structure when exact."""

    eigenvalues: np.ndarray
    clusters: tuple[tuple[float, int], ...]
    shell_exact_upto: int  # 0 when the form does not conserve total quanta
    shell_eigenvalues: dict[int, np.ndarray] | None
    dim: int
    truncation: FockTruncation


def oracle_spectrum(q: QuadraticForm, t: FockTruncation) -> OracleSpectrum:
    h = build_fock_matrix(q, t)
    try:
        evals = np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigensolver did not converge: {exc}") from exc
    evals = np.sort(evals.real)

    shells = t.shell_indices()
    scale = float(np.max(np.abs(h))) if t.dim else 0.0
    mz = tol.machine_zero_tol(scale)
    shell_of = np.empty(t.dim, dtype=int)
    for s, ix in shells.items():
        shell_of[ix] = s
    off_shell = shell_of[:, None] != shell_of[None, :]
    conserves = bool(np.all(np.abs(h[off_shell]) <= mz)) if t.dim > 1 else True

    shell_evals = None
    upto = 0
    if conserves:
        # only shells with total <= n_max retain every state of that total;
        # higher shells are cut and their eigenvalues are not exact
        upto = t.n_max
        shell_evals = {}
        for s, ix in shells.items():
            if s > t.n_max:
                continue
            block = h[np.ix_(ix, ix)]
            try:
                w = np.linalg.eigvalsh(block)
            except np.linalg.LinAlgError as exc:
                raise EigensolverError(
                    f"shell eigensolver did not converge: {exc}"
                ) from exc
            shell_evals[s] = np.sort(w.real)

    clusters = _degenerate_levels(evals)
    return OracleSpectrum(
        eigenvalues=evals,
        clusters=clusters,
        shell_exact_upto=upto,
        shell_eigenvalues=shell_evals,
        dim=t.dim,
        truncation=t,
    )


def _degenerate_levels(values: np.ndarray) -> tuple[tuple[float, int], ...]:
    """(mean, count) of each cluster of sorted eigenvalues."""
    if len(values) == 0:
        return ()
    t_c = tol.cluster_tol(float(np.max(np.abs(values))))
    return tuple((float(np.mean(values[g])), len(g)) for g in _cluster(values, t_c))


@dataclass(frozen=True, eq=False)
class ComparisonRow:
    expected_energy: float
    observed_energy: float
    abs_diff: float
    expected_degeneracy: int | None
    observed_degeneracy: int | None


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    mode: str                       # "shell", "variational", "critical", "none"
    n_compared: int
    max_abs_diff: float
    degeneracies_agree: bool | None
    rows: tuple[ComparisonRow, ...]
    status: str                     # "PASS", "FAIL", "NOT_APPLICABLE"
    notes: str = ""


def compare_with_lattice(
    o: OracleSpectrum,
    levels: list[LatticeLevel],
    max_levels: int | None = None,
    classification: Classification | None = None,
) -> ComparisonReport:
    """Match truncated eigenvalues against a predicted energy lattice.

    Shell-conserving forms compare the pooled shell eigenvalues (a complete,
    untruncated multiset for total quanta <= n_max) against the expanded
    lattice, degeneracies included.  Other bounded forms compare the lowest
    window variationally.  Infinite-multiplicity lattices compare distinct
    energies only.  Unbounded lattices are not approximated by a truncation
    from below, so no comparison applies.
    """
    if classification is Classification.UNBOUNDED_LATTICE:
        return ComparisonReport(
            mode="none", n_compared=0, max_abs_diff=0.0,
            degeneracies_agree=None, rows=(), status="NOT_APPLICABLE",
            notes=(
                "spectrum is unbounded below; a truncated matrix has no "
                "variational relation to the lattice"
            ),
        )
    if not levels:
        return ComparisonReport(
            mode="none", n_compared=0, max_abs_diff=0.0,
            degeneracies_agree=None, rows=(), status="NOT_APPLICABLE",
            notes="empty lattice",
        )

    shell = o.shell_eigenvalues is not None
    if shell:
        pooled = _degenerate_levels(np.sort(np.concatenate(
            [o.shell_eigenvalues[s] for s in sorted(o.shell_eigenvalues)]
        )))
    window = None
    if any(level.infinite for level in levels):
        mode = "critical"
        expected = [(e, None) for e in sorted({lv.energy for lv in levels})]
        observed = [(e, None) for e, _ in (pooled if shell else o.clusters)]
        threshold = tol.oracle_shell_tol() if shell else tol.oracle_variational_tol()
        notes = (
            "distinct energies only; multiplicities grow with the truncation "
            "and are not compared"
        )
    elif shell:
        mode = "shell"
        expected = sorted((lv.energy, lv.degeneracy) for lv in levels)
        observed = pooled
        threshold = tol.oracle_shell_tol()
        notes = f"pooled shells s <= {o.shell_exact_upto}; threshold {threshold:.1e}"
        if len(expected) != len(observed) and max_levels is None:
            notes += (
                f"; level counts differ (lattice {len(expected)}, "
                f"oracle {len(observed)}), compared the lowest {{n}}"
            )
    else:
        mode = "variational"
        expected = [(e, None) for e in sorted(
            lv.energy for lv in levels for _ in range(lv.degeneracy)
        )]
        observed = [(e, None) for e in o.eigenvalues.tolist()]
        window = max(1, o.dim // 4)
        threshold = tol.oracle_variational_tol()
        notes = f"lowest {{n}} of {o.dim} truncated eigenvalues; threshold {threshold:.1e}"

    n = min(len(expected), len(observed))
    for limit in (window, max_levels):
        if limit is not None:
            n = min(n, limit)
    rows = tuple(
        ComparisonRow(ee, oe, abs(ee - oe), ed, od)
        for (ee, ed), (oe, od) in zip(expected[:n], observed[:n])
    )
    max_diff = max((r.abs_diff for r in rows), default=0.0)
    agree = (all(r.expected_degeneracy == r.observed_degeneracy for r in rows)
             if mode == "shell" else None)
    status = "PASS" if max_diff <= threshold and agree is not False else "FAIL"
    return ComparisonReport(
        mode=mode, n_compared=n, max_abs_diff=max_diff,
        degeneracies_agree=agree, rows=rows, status=status,
        notes=notes.format(n=n),
    )
