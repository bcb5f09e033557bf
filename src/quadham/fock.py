"""Truncated number-basis matrices: an independent numerical check.

Matrix elements of a quadratic form are assembled per mode.  Every
single-mode factor is banded: x and p move one occupancy by +-1, and a
same-mode product moves it by 0 or +-2.  So a term of the form only fills
the entries <o| . |o + d> for a few offset vectors d, and assembly writes
those entries and nothing else.  Same-mode products are computed at a
padded cutoff and cropped so every retained entry equals its untruncated
value; cross-mode products are elementwise in the mode factors and need
no padding.  Hermiticity is checked on the band sums,
before build_fock_matrix writes its one dense matrix.  Basis states are
occupancy tuples in row-major order with mode 1 slowest.

Every offset of a quadratic form changes the total occupancy by 0 or +-2,
so the matrix is exactly block-diagonal over the parity of total quanta.
When the entries that change the total are also (numerically) zero, the
form conserves total occupancy and the matrix is block-diagonal over shells
of equal total quanta.  The eigenvalues are those of the blocks: one per
shell for a conserving form, one per parity otherwise.  The oracle writes
each block from the band sums and never the dense matrix.  Shell blocks with
total quanta s <= n_max retain every state of that total and reproduce
untruncated eigenvalues; the other eigenvalues are variational
approximations converging from above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FockCapError, HermiticityError
from .phase_space import QuadraticForm, _count, _lapack
from .spectral import Classification, LatticeLevel, _cluster
from . import tolerances as tol

# most states a FockTruncation retains; bounds build_fock_matrix: a dense
# complex matrix of 4096 states is 256 MiB.  The oracle holds only its largest
# block, plus LAPACK's copy of it during the eigensolve.  At 1681 states,
# where one dense matrix is 45.2 MB, tracemalloc measures 45.6 MB for
# build_fock_matrix and 12.4 MB for oracle_spectrum: the 841-state parity
# block (LAPACK's copy is allocated outside Python's tracked heap)
FOCK_STATE_CAP = 4096


@dataclass(frozen=True)
class FockTruncation:
    """Retained occupancies 0..n_max in each of K modes."""

    n_max: int
    K: int

    def __post_init__(self):
        object.__setattr__(self, "n_max", _count(
            self.n_max, 0, "n_max must be a non-negative integer"))
        object.__setattr__(self, "K", _count(self.K, 1, "K must be a positive integer"))
        if self.dim > FOCK_STATE_CAP:
            raise FockCapError(
                f"truncated dimension {(self.n_max + 1)}^{self.K} = {self.dim} "
                f"exceeds cap {FOCK_STATE_CAP}"
            )

    @property
    def dim(self) -> int:
        return (self.n_max + 1) ** self.K


def _single_mode_ops(levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Position and momentum matrices on occupancies 0..levels-1."""
    a = np.zeros((levels, levels))
    for n in range(levels - 1):
        a[n, n + 1] = math.sqrt(n + 1)
    x = (a + a.T) / math.sqrt(2.0)
    p = 1j * (a.T - a) / math.sqrt(2.0)
    return x.astype(complex), p


def _band(op: np.ndarray, d: int, mode: int, K: int) -> np.ndarray:
    """Entries op[i, i + d], laid along axis `mode` of the occupancy grid."""
    v = np.diagonal(op, d)
    return v.reshape([len(v) if j == mode else 1 for j in range(K)])


def _entries(records) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat (rows, cols, values) of band records, concatenated in order."""
    records = list(records)
    return (np.concatenate([np.empty(0, dtype=np.intp)] + [r.ravel() for r, _, _ in records]),
            np.concatenate([np.empty(0, dtype=np.intp)] + [c.ravel() for _, c, _ in records]),
            np.concatenate([np.empty(0, dtype=complex)] + [v.ravel() for _, _, v in records]))


def _zero_filled(size: int, rows: np.ndarray, cols: np.ndarray,
                 values: np.ndarray) -> np.ndarray:
    """size x size zeros holding the values at (rows, cols)."""
    out = np.zeros((size, size), dtype=complex)
    out[rows, cols] = values
    return out


def _checked_band_sums(
    q: QuadraticForm, t: FockTruncation
) -> tuple[dict[tuple[int, ...], tuple[np.ndarray, np.ndarray, np.ndarray]], float]:
    """Band records of the form on the retained basis and their largest |entry|.

    The record of offset d holds the rows o, the columns o + d and the sums
    of the retained entries <o| . |o + d>, on the grid of rows o.  Rows and
    columns are views of one array of basis indices, so the band of -d has
    the columns of the band of d as its rows.  Each sum receives the terms in
    order, as a sum of dense per-term matrices would.  Raises
    HermiticityError when the sums are not those of a Hermitian matrix.
    """
    K = q.basis.K
    if K != t.K:
        raise ValueError("truncation mode count does not match the form")
    n = t.n_max + 1
    padded = _single_mode_ops(n + 2)
    singles = tuple(op[:n, :n] for op in padded)

    def terms():
        gamma = q.gamma
        for a in range(2 * K):
            mode_a, kind_a = a % K, a // K
            for b in range(2 * K):
                g = gamma[a, b]
                if g == 0.0:
                    continue
                mode_b, kind_b = b % K, b // K
                if mode_a == mode_b:
                    prod = (padded[kind_a] @ padded[kind_b])[:n, :n]
                    for d in (-2, 0, 2):
                        yield (tuple(d * (j == mode_a) for j in range(K)),
                               g * _band(prod, d, mode_a, K))
                    continue
                for da in (-1, 1):
                    for db in (-1, 1):
                        yield (tuple(da * (j == mode_a) + db * (j == mode_b) for j in range(K)),
                               g * (_band(singles[kind_a], da, mode_a, K)
                                    * _band(singles[kind_b], db, mode_b, K)))
        if q.offset:
            yield (0,) * K, q.offset

    index = np.arange(t.dim).reshape((n,) * K)
    records = {}
    for d, values in terms():
        if d not in records:
            rows = index[tuple(slice(max(0, -x), n - max(0, x)) for x in d)]
            cols = index[tuple(slice(max(0, x), n - max(0, -x)) for x in d)]
            records[d] = (rows, cols, np.zeros(rows.shape, dtype=complex))
        acc = records[d][2]
        acc += values
    # the rows of -d are the columns of d, so max |h - h^H| is
    # max |sums[d] - conj(sums[-d])| and no dense matrix is needed; entries
    # outside every band are 0, and a band is empty when its offset exceeds
    # the cutoff
    bands = [(acc, records[tuple(-x for x in d)][2])
             for d, (_, _, acc) in records.items() if acc.size]
    dev = float(np.max([np.max(np.abs(acc - np.conj(mirror))) for acc, mirror in bands],
                       initial=0.0))
    scale = float(np.max([np.max(np.abs(acc)) for acc, _ in bands], initial=0.0))
    if dev > tol.machine_zero_tol(scale):
        raise HermiticityError(
            f"assembled matrix deviates from Hermitian by {dev:.3e}"
        )
    return records, scale


def build_fock_matrix(q: QuadraticForm, t: FockTruncation) -> np.ndarray:
    """Matrix of the form on the retained basis; exact entries, then checked."""
    return _zero_filled(t.dim, *_entries(_checked_band_sums(q, t)[0].values()))


@dataclass(frozen=True, eq=False)
class OracleSpectrum:
    """Eigenvalues of the truncated matrix plus shell structure when exact."""

    eigenvalues: np.ndarray
    shell_exact_upto: int  # 0 when the form does not conserve total quanta
    shell_eigenvalues: dict[int, np.ndarray] | None
    dim: int


def _block_layout(t: FockTruncation, conserves: bool):
    """Block of each basis state, its index within the block, block sizes.

    Blocks are the shells of equal total quanta when the form conserves
    them, else the two parities of the total; a block lists its states in
    basis order.
    """
    block = np.indices((t.n_max + 1,) * t.K).reshape(t.K, -1).sum(axis=0)
    if not conserves:
        block %= 2
    sizes = np.bincount(block)
    local = np.empty(t.dim, dtype=np.intp)
    local[np.argsort(block, kind="stable")] = (
        np.arange(t.dim) - np.repeat(np.cumsum(sizes) - sizes, sizes))
    return block, local, sizes


def oracle_spectrum(q: QuadraticForm, t: FockTruncation) -> OracleSpectrum:
    """Block eigenvalues of the truncated matrix.

    The form conserves total quanta when every entry that changes the total
    is at most machine zero relative to the largest entry.  Conserving forms
    are diagonalised shell by shell, others per parity of total quanta.
    Each block is written from the band sums just before its eigensolve, so
    the dense matrix of build_fock_matrix is never formed.
    """
    records, scale = _checked_band_sums(q, t)
    mz = tol.machine_zero_tol(scale)
    conserves = all(np.all(np.abs(acc) <= mz) for d, (_, _, acc) in records.items() if sum(d))

    block, local, sizes = _block_layout(t, conserves)
    # a conserving form's shells leave out the entries that change the total,
    # as every block leaves out the entries outside it
    rows, cols, values = _entries(record for d, record in records.items()
                                  if record[2].size and not (conserves and sum(d)))
    keys = block[rows]
    counts = np.bincount(keys, minlength=len(sizes))
    ends = np.cumsum(counts)
    order = np.argsort(keys, kind="stable")
    rows, cols, values = local[rows[order]], local[cols[order]], values[order]

    parts = []
    shell_evals = {} if conserves else None
    for key, (size, start, end) in enumerate(
            zip(sizes.tolist(), (ends - counts).tolist(), ends.tolist())):
        seg = slice(start, end)
        # the block is a temporary, freed when eigvalsh returns
        w = _lapack(np.linalg.eigvalsh,
                    _zero_filled(size, rows[seg], cols[seg], values[seg]))
        parts.append(w)
        # only shells with total <= n_max retain every state of that total;
        # higher shells are cut and their eigenvalues are not exact
        if conserves and key <= t.n_max:
            shell_evals[key] = w  # eigvalsh's values are real and ascending
    return OracleSpectrum(
        eigenvalues=np.sort(np.concatenate(parts)),
        shell_exact_upto=t.n_max if conserves else 0,
        shell_eigenvalues=shell_evals,
        dim=t.dim,
    )


def _value_clusters(values: np.ndarray) -> list[np.ndarray]:
    """Index groups of the clusters of sorted eigenvalues; never empty, as
    the pooled shells always hold shell 0."""
    return _cluster(values, tol.cluster_tol(float(np.max(np.abs(values)))))


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

    @classmethod
    def not_applicable(cls, notes: str) -> "ComparisonReport":
        """The report of a comparison that does not apply, for the reason given."""
        return cls(mode="none", n_compared=0, max_abs_diff=0.0,
                   degeneracies_agree=None, rows=(), status="NOT_APPLICABLE",
                   notes=notes)


def compare_with_lattice(
    o: OracleSpectrum,
    levels: list[LatticeLevel],
    max_levels: int | None = None,
    classification: Classification | None = None,
) -> ComparisonReport:
    """Match truncated eigenvalues against a predicted energy lattice.

    Shell-conserving forms compare the pooled shell eigenvalues (a complete,
    untruncated multiset for total quanta <= n_max) against the expanded
    lattice, degeneracies included, or its distinct energies only when its
    multiplicity is infinite.  Other bounded forms compare the lowest window
    variationally.  No comparison applies to an unbounded lattice, which a
    truncation does not approximate from below, nor to an infinite
    multiplicity without shells, whose higher levels it cannot resolve.
    """
    if max_levels is not None:
        max_levels = _count(max_levels, 1, f"max_levels must be an integer of at "
                            f"least 1, got {max_levels!r}")
    if classification is Classification.UNBOUNDED_LATTICE:
        return ComparisonReport.not_applicable(
            "spectrum is unbounded below; a truncated matrix has no "
            "variational relation to the lattice"
        )
    if not levels:
        return ComparisonReport.not_applicable("empty lattice")
    shell = o.shell_eigenvalues is not None
    critical = any(level.infinite for level in levels)
    if critical and not shell:
        return ComparisonReport.not_applicable(
            "infinite multiplicity without shell structure; a truncation "
            "cannot resolve the levels above the bottom level"
        )

    cap = math.inf if max_levels is None else max_levels
    if shell:
        pooled = np.sort(np.concatenate(
            [o.shell_eigenvalues[s] for s in sorted(o.shell_eigenvalues)]
        ))
        # index groups for now: only the clusters compared are averaged
        groups = _value_clusters(pooled)
        threshold = tol.oracle_shell_tol()
    if critical:
        mode = "critical"
        expected = [(e, None) for e in sorted({lv.energy for lv in levels})]
        n = min(len(expected), len(groups), cap)
        observed = [(float(np.mean(pooled[g])), None) for g in groups[:n]]
        notes = (
            "distinct energies only; multiplicities grow with the truncation "
            "and are not compared"
        )
    elif shell:
        mode = "shell"
        expected = sorted((lv.energy, lv.degeneracy) for lv in levels)
        n = min(len(expected), len(groups), cap)
        observed = [(float(np.mean(pooled[g])), len(g)) for g in groups[:n]]
        notes = f"pooled shells s <= {o.shell_exact_upto}; threshold {threshold:.1e}"
        if len(expected) != len(groups) and max_levels is None:
            notes += (
                f"; level counts differ (lattice {len(expected)}, "
                f"oracle {len(groups)}), compared the lowest {n}"
            )
    else:
        mode = "variational"
        expected = [(e, None) for e in sorted(
            lv.energy for lv in levels for _ in range(lv.degeneracy)
        )]
        n = min(len(expected), len(o.eigenvalues), max(1, o.dim // 4), cap)
        observed = [(e, None) for e in o.eigenvalues[:n].tolist()]
        threshold = tol.oracle_variational_tol()
        notes = f"lowest {n} of {o.dim} truncated eigenvalues; threshold {threshold:.1e}"

    rows = tuple(
        ComparisonRow(ee, oe, abs(ee - oe), ed, od)
        for (ee, ed), (oe, od) in zip(expected, observed)
    )
    max_diff = max((r.abs_diff for r in rows), default=0.0)
    agree = (all(r.expected_degeneracy == r.observed_degeneracy for r in rows)
             if mode == "shell" else None)
    status = "PASS" if max_diff <= threshold and agree is not False else "FAIL"
    return ComparisonReport(
        mode=mode, n_compared=n, max_abs_diff=max_diff,
        degeneracies_agree=agree, rows=rows, status=status, notes=notes,
    )
