"""Truncated number-basis matrices: an independent numerical check.

Matrix elements of a quadratic form are assembled per mode.  Every
single-mode factor is banded: x and p move one occupancy by +-1, and a
same-mode product moves it by 0 or +-2.  So a term of the form only fills
the entries <o| . |o + d> for a few offset vectors d, and assembly writes
those entries and nothing else.  Same-mode products are computed at a
padded cutoff and cropped so every retained entry equals its untruncated
value; cross-mode products are elementwise in the mode factors and need
no padding.  The single-mode bands are kept as small tables per cutoff,
and a plan kept per mode count lists, for each offset, the gamma entries
that feed it.  So the cost of assembly grows with the number of offsets,
not of terms: the terms of all offsets of one kind come from one gather,
one outer product and one multiply by gamma, and each offset's sum adds
its terms to zero in (a, b) order, which gives it the bits of a sum of
dense per-term matrices.  The sums are compact: a cross offset's sums
span the occupancies of the two modes it moves, a same-mode offset's those
of its mode, and offset 0's hold one sum per state.  The entries of d and
-d read the same compact sums, so Hermiticity is checked on them, once per
pair.

The retained states are one list, kept per mode count and cutoff: their
occupancies in basis order (occupancy tuples in row-major order with mode
1 slowest), the basis index of each state's neighbour o + d for every
offset, or none, and where the value of <o| . |o + d> sits among the
compact sums.  One function reads the rows, columns and values of any set
of offsets off that list: build_fock_matrix writes every offset into its
one dense matrix, and oracle_spectrum writes its blocks.

Every offset of a quadratic form changes the total occupancy by 0 or +-2,
so the matrix is exactly block-diagonal over the parity of total quanta.
When the entries that change the total are also (numerically) zero, the
form conserves total occupancy and the matrix is block-diagonal over shells
of equal total quanta.  The eigenvalues are those of the blocks.  The
oracle writes the blocks from the band entries and never the dense matrix:
the two parity blocks one at a time, one eigensolve each, or every shell
into one buffer, the shells of one size in one stacked eigensolve.  The
box gives shell s and shell K n_max - s the same size, and a slice of a
stacked eigensolve holds the bits of the call on its shell alone.  Shell
blocks with total quanta s <= n_max retain every state of that total and
reproduce untruncated eigenvalues; the other eigenvalues are variational
approximations converging from above.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import FockCapError, HermiticityError
from .phase_space import QuadraticForm, _count, _lapack
from .spectral import Classification, LatticeLevel, _cluster
from . import tolerances as tol

# most states a FockTruncation retains; bounds build_fock_matrix: a dense
# complex matrix of 4096 states is 256 MiB.  The oracle holds one parity
# block at a time, plus LAPACK's copy of it during the eigensolve, or the
# buffer of all shells, whose sizes sum in squares to far less.  At 1681
# states, where one dense matrix is 45.2 MB, tracemalloc measures 45.9 MB
# for build_fock_matrix and 12.3 MB for oracle_spectrum: the 841-state
# parity block (LAPACK's copy is allocated outside Python's tracked heap).
# A conserving form's shells take 1.2 MB there and 3.9 MB at 4096 states.
# The retained states and block layout kept between calls take about 55
# bytes a state at K = 2
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
        base = self.n_max + 1
        # a base of 2 or more exceeds the cap from K = cap.bit_length() on, so
        # a power that large is never formed
        if base > 1 and (self.K >= FOCK_STATE_CAP.bit_length()
                         or base ** self.K > FOCK_STATE_CAP):
            raise FockCapError(_cap_message(base, self.K))

    @property
    def dim(self) -> int:
        return (self.n_max + 1) ** self.K


# str() refuses an int of more than 4300 digits (sys.get_int_max_str_digits)
_PRINTED_DIGITS = 4000
_UNPRINTED = f"over 10^{_PRINTED_DIGITS}"


def _decimal(value: int) -> str:
    return str(value) if math.log10(value) < _PRINTED_DIGITS else _UNPRINTED


def _cap_message(base: int, K: int) -> str:
    """The FockCapError text for base^K states, base >= 2.

    A number of _PRINTED_DIGITS digits or more is written as _UNPRINTED, and
    such a power of base is never formed.
    """
    printed = K < _PRINTED_DIGITS / math.log10(base)
    return (f"truncated dimension {_decimal(base)}^{_decimal(K)} = "
            f"{base ** K if printed else _UNPRINTED} exceeds cap {FOCK_STATE_CAP}")


def _single_mode_ops(levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Position and momentum matrices on occupancies 0..levels-1."""
    a = np.zeros((levels, levels))
    for n in range(levels - 1):
        a[n, n + 1] = math.sqrt(n + 1)
    x = (a + a.T) / math.sqrt(2.0)
    p = 1j * (a.T - a) / math.sqrt(2.0)
    return x.astype(complex), p


@functools.lru_cache(maxsize=8)
def _mode_tables(ops, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only bands of one mode on occupancies 0..n-1, from ops(n + 2).

    Row 2 kind + (d > 0) of the first table is x or p at offset d = -1, +1;
    row 2 kind_a + kind_b of the other two is the product xx, xp, px or pp,
    at offsets -2, +2 (columns) and at 0.  Products are taken at the padded
    cutoff and cropped, so every retained entry equals its untruncated value.
    The cache is keyed on ops too, so other single-mode matrices get tables
    of their own.
    """
    padded = ops(n + 2)
    single = np.array([np.diagonal(op[:n, :n], d) for op in padded for d in (-1, 1)])
    products = [(pa @ pb)[:n, :n] for pa in padded for pb in padded]
    two = np.array([[np.diagonal(m, d) for d in (-2, 2)] for m in products])
    zero = np.array([np.diagonal(m) for m in products])
    for table in (single, two, zero):
        table.flags.writeable = False
    return single, two, zero


# sign pairs (d_i, d_j) of the four cross offsets of two modes i < j; the
# offset at index s mirrors the one at 3 - s
_SIGNS = ((-1, -1), (-1, 1), (1, -1), (1, 1))
# a cross offset's eight terms are stacked with those whose first factor lies
# in mode i first; the tuple is its own inverse, so it also lists the stack
# rows in (a, b) order
_CROSS_ROWS = (0, 1, 4, 5, 2, 3, 6, 7)


@dataclass(frozen=True, eq=False)
class _Plan:
    """The offsets of K modes and, per offset, the gamma entries feeding it.

    Offsets come in a fixed order: the cross offsets +-1 in two modes i < j
    (pairs in order, signs in _SIGNS order), the same-mode offsets -2 and +2
    of each mode, then 0.  Each class holds, term by term in (a, b) order,
    the flat gamma index a 2K + b of each of its offsets and the table rows
    of the term's factors.
    """

    offsets: tuple[tuple[int, ...], ...]
    cross_gamma: np.ndarray     # (8, cross offsets), stacked in _CROSS_ROWS order
    cross_first: np.ndarray     # single-table row of the factor of a
    cross_second: np.ndarray    # single-table row of the factor of b
    two_gamma: np.ndarray       # (4, 2K); the term's product row is its index
    two_cols: np.ndarray        # (2K,) product-table column of each offset
    zero_gamma: np.ndarray      # (4K,)
    zero_rows: np.ndarray       # product-table row of each term
    zero_modes: tuple[int, ...]  # the mode of each term
    changes: np.ndarray         # per offset, whether it changes the total quanta


@functools.lru_cache(maxsize=8)
def _plan(K: int) -> _Plan:
    two_k = 2 * K
    offsets, cross = [], []
    for i, j in itertools.combinations(range(K), 2):
        # the entries with one factor in each mode, in row-major order
        entries = [(a, b) for a in (i, j, K + i, K + j)
                   for b in ((j, K + j) if a % K == i else (i, K + i))]
        for si, sj in _SIGNS:
            terms = []
            for a, b in entries:
                sa, sb = (si, sj) if a % K == i else (sj, si)
                terms.append((a * two_k + b, 2 * (a // K) + (sa > 0), 2 * (b // K) + (sb > 0)))
            offsets.append(tuple(si * (ax == i) + sj * (ax == j) for ax in range(K)))
            cross.append([terms[r] for r in _CROSS_ROWS])
    # (3, 8, cross offsets): gamma index, first and second factor rows
    cross = np.array(cross, dtype=np.intp).reshape(-1, 8, 3).T
    offsets += [tuple(s * (ax == i) for ax in range(K)) for i in range(K) for s in (-2, 2)]
    offsets.append((0,) * K)

    # the same-mode entries of mode i in row-major order: xx, xp, px, pp
    same = [[(ka * K + i) * two_k + kb * K + i for ka in (0, 1) for kb in (0, 1)]
            for i in range(K)]
    zero = [a * two_k + b for a in range(two_k) for b in (a % K, K + a % K)]
    return _Plan(
        offsets=tuple(offsets),
        cross_gamma=cross[0], cross_first=cross[1], cross_second=cross[2],
        two_gamma=np.repeat(same, 2, axis=0).T,
        two_cols=np.tile((0, 1), K),
        zero_gamma=np.array(zero, dtype=np.intp),
        zero_rows=np.array([2 * (e // two_k // K) + e % two_k // K for e in zero],
                           dtype=np.intp),
        zero_modes=tuple(e % K for e in zero),
        changes=np.array([sum(d) != 0 for d in offsets]),
    )


@dataclass(frozen=True, eq=False)
class _States:
    """The retained states of K modes, occupancies 0..n-1 each, in basis order.

    occ[r] holds the occupancies of state r.  neighbours[k, r] is the basis
    index of occ[r] + d for the plan's offset d = offsets[k], or -1 where
    that occupancy is not retained.  The compact sums of an offset are laid
    out row-major over the modes it moves, offset 0's over every mode (one
    sum per state, at its basis index), and concatenated in plan order; the
    value of the entry <o| . |o + d> sits at start[k] + stride[k] . o, the
    place of min(o, o + d), so d and -d read the same place.
    """

    occ: np.ndarray          # (dim, K)
    neighbours: np.ndarray   # (offsets, dim), in the smallest type holding -dim
    start: np.ndarray        # (offsets,)
    stride: np.ndarray       # (offsets, K)


@functools.lru_cache(maxsize=8)
def _states(K: int, n: int) -> _States:
    occ = np.indices((n,) * K).reshape(K, -1).T
    radix = n ** np.arange(K - 1, -1, -1)
    d = np.array(_plan(K).offsets)

    def index(o):
        """Basis index of each occupancy row, -1 where it is not retained."""
        return np.where(np.all((o >= 0) & (o < n), axis=1), o @ radix, -1)

    neighbours = np.empty((len(d), len(occ)), dtype=np.min_scalar_type(-len(occ)))
    for k, step in enumerate(d):
        neighbours[k] = index(occ + step)
    # an offset's compact sums are row-major over the modes they span, n - max|d|
    # occupancies each: (n - 1)^2 places for a cross offset, n - 2 for a
    # same-mode one, n^K for offset 0
    spans = (d != 0) | ~d.any(axis=1, keepdims=True)
    extent = np.maximum(n - np.abs(d).max(axis=1, keepdims=True), 0)
    rank = spans.sum(axis=1, keepdims=True)
    stride = np.where(spans, extent ** (rank - spans.cumsum(axis=1)), 0)
    sizes = (extent ** rank)[:, 0]
    start = np.cumsum(sizes) - sizes + (stride * np.minimum(d, 0)).sum(axis=1)
    return _States(occ=occ, neighbours=neighbours, start=start, stride=stride)


def _band_sums(q: QuadraticForm, t: FockTruncation) -> tuple[np.ndarray, bool]:
    """Compact band sums of the form on the retained states, checked Hermitian.

    Returns the sums of every offset, concatenated in plan order as
    _States lays them out, and whether every entry that changes the total
    quanta is at most machine zero relative to the largest |entry|.  Each
    sum adds its terms to zero in (a, b) order, as a sum of dense per-term
    matrices would; a zero gamma entry adds zeros, which leave every sum's
    bits alone.  Raises HermiticityError when the sums are not those of a
    Hermitian matrix.
    """
    K = q.basis.K
    if K != t.K:
        raise ValueError("truncation mode count does not match the form")
    n = t.n_max + 1
    single, two_table, zero_table = _mode_tables(_single_mode_ops, n)
    plan, occ = _plan(K), _states(K, n).occ
    gamma = q.gamma.ravel()

    # term stacks: one gather, one outer product, one multiply by gamma
    first, second = single[plan.cross_first], single[plan.cross_second]
    terms = np.empty(first.shape + first.shape[-1:], dtype=complex)
    np.multiply(first[:4, :, :, None], second[:4, :, None, :], out=terms[:4])
    np.multiply(first[4:, :, None, :], second[4:, :, :, None], out=terms[4:])
    np.multiply(gamma[plan.cross_gamma][..., None, None], terms, out=terms)
    cross = np.zeros(terms.shape[1:], dtype=complex)
    for k in _CROSS_ROWS:
        cross += terms[k]
    terms = gamma[plan.two_gamma][..., None] * two_table[:, plan.two_cols]
    two = np.zeros(terms.shape[1:], dtype=complex)
    for term in terms:
        two += term
    terms = gamma[plan.zero_gamma][:, None] * zero_table[plan.zero_rows]
    zero = np.zeros(len(occ), dtype=complex)
    for term, mode in zip(terms, plan.zero_modes):
        zero += term[occ[:, mode]]
    if q.offset:
        zero += q.offset

    # each band's largest |entry|, in plan order, gives the scale and the
    # conservation test; d and -d keep their sums at the same places, so
    # max |h - h^H| is max |sums[d] - conj(sums[-d])|, taken once per pair +-d
    peaks = np.concatenate([np.abs(cross).max(axis=(1, 2), initial=0.0),
                            np.abs(two).max(axis=1, initial=0.0),
                            [np.abs(zero).max(initial=0.0)]])
    scale = float(peaks.max())
    mirrored = cross.reshape(len(cross) // 4, 4, *cross.shape[1:])
    dev = float(np.max([
        np.abs(mirrored[:, :2] - mirrored[:, :1:-1].conj()).max(initial=0.0),
        np.abs(two[0::2] - two[1::2].conj()).max(initial=0.0),
        np.abs(zero - zero.conj()).max(initial=0.0)]))
    mz = tol.machine_zero_tol(scale)
    if dev > mz:
        raise HermiticityError(
            f"assembled matrix deviates from Hermitian by {dev:.3e}"
        )
    sums = np.concatenate([cross, two, zero], axis=None)
    return sums, bool(np.all(peaks[plan.changes] <= mz))


def _entries(sums: np.ndarray, t: FockTruncation, offsets):
    """Rows, columns and values of the band entries of the offsets picked.

    offsets picks plan offsets by index, mask or slice, and sums are those
    of _band_sums.  An entry (r, c) of offset d joins the retained states
    o = occ[r] and o + d = occ[c]; each such pair is one entry.  Entries
    come offset by offset, rows ascending within each.
    """
    st = _states(t.K, t.n_max + 1)
    cols = st.neighbours[offsets]
    which, rows = np.nonzero(cols >= 0)
    places = st.start[offsets, None] + st.stride[offsets] @ st.occ.T
    return rows, cols[which, rows], sums[places[which, rows]]


def build_fock_matrix(q: QuadraticForm, t: FockTruncation) -> np.ndarray:
    """Matrix of the form on the retained basis; exact entries, then checked."""
    rows, cols, values = _entries(_band_sums(q, t)[0], t, slice(None))
    h = np.zeros((t.dim, t.dim), dtype=complex)
    h[rows, cols] = values
    return h


@dataclass(frozen=True, eq=False)
class OracleSpectrum:
    """Eigenvalues of the truncated matrix plus shell structure when exact."""

    eigenvalues: np.ndarray
    shell_exact_upto: int  # 0 when the form does not conserve total quanta
    shell_eigenvalues: dict[int, np.ndarray] | None
    dim: int


@dataclass(frozen=True, eq=False)
class _Layout:
    """Where the oracle writes each band entry.

    Blocks are the shells of equal total quanta when the form conserves
    them, else the two parities of the total; a block lists its states in
    basis order.  Entry (r, c) goes to flat position base[r] + local[c]:
    for shells, of one buffer holding the shells of each size stacked
    (groups of (start, stop, size)), shell s at row shells[s] of its group;
    for parities, of the block parity[r].
    """

    base: np.ndarray
    local: np.ndarray
    parity: np.ndarray | None   # odd total quanta, per state
    sizes: tuple[int, ...]
    groups: tuple[tuple[int, int, int], ...]
    shells: tuple[tuple[int, int], ...]


@functools.lru_cache(maxsize=8)
def _layout(K: int, n: int, conserves: bool) -> _Layout:
    block = _states(K, n).occ.sum(axis=1)
    if not conserves:
        block %= 2
    sizes = np.bincount(block)
    local = np.empty(len(block), dtype=np.intp)
    local[np.argsort(block, kind="stable")] = (
        np.arange(len(block)) - np.repeat(np.cumsum(sizes) - sizes, sizes))
    if conserves:
        by_size = {}
        for s, m in enumerate(sizes.tolist()):
            by_size.setdefault(m, []).append(s)
        starts = np.empty(len(sizes), dtype=np.intp)
        groups, shells, stop = [], [None] * len(sizes), 0
        for g, (m, members) in enumerate(by_size.items()):
            for row, s in enumerate(members):
                starts[s] = stop + row * m * m
                shells[s] = (g, row)
            stop += len(members) * m * m
            groups.append((stop - len(members) * m * m, stop, m))
        base = starts[block] + local * sizes[block]
        parity = None
    else:
        base = local * sizes[block]
        parity, groups, shells = block.astype(bool), (), ()
    # the cap keeps every position below 2^31: a buffer of at most dim^2
    return _Layout(base=base.astype(np.int32), local=local.astype(np.int32), parity=parity,
                   sizes=tuple(sizes.tolist()), groups=tuple(groups), shells=tuple(shells))


def _filled(size: int, positions: np.ndarray, values: np.ndarray) -> np.ndarray:
    """size zeros holding the values at the flat positions."""
    out = np.zeros(size, dtype=complex)
    out[positions] = values
    return out


def oracle_spectrum(q: QuadraticForm, t: FockTruncation) -> OracleSpectrum:
    """Block eigenvalues of the truncated matrix.

    The form conserves total quanta when every entry that changes the total
    is at most machine zero relative to the largest entry.  Conserving forms
    are diagonalised shell by shell, the shells of one size in one stacked
    eigensolve, others per parity of total quanta, one block at a time.
    Blocks are written from the band entries just before their eigensolve, so
    the dense matrix of build_fock_matrix is never formed.
    """
    sums, conserves = _band_sums(q, t)
    lay = _layout(t.K, t.n_max + 1, conserves)
    # a conserving form's shells leave out the entries that change the total,
    # as every block leaves out the entries outside it
    rows, cols, values = _entries(sums, t, ~_plan(t.K).changes if conserves else slice(None))
    positions = lay.base[rows] + lay.local[cols]
    if conserves:
        # only shells with total <= n_max retain every state of that total;
        # higher shells are cut and their eigenvalues are not exact.  A slice
        # of a stacked eigvalsh holds the bits of the call on its block alone
        shells = _filled(lay.groups[-1][1], positions, values)
        stacks = [_lapack(np.linalg.eigvalsh, shells[start:stop].reshape(-1, m, m))
                  for start, stop, m in lay.groups]
        parts = [stacks[g][row] for g, row in lay.shells]
    else:
        key, parts = lay.parity[rows], []
        for p, m in enumerate(lay.sizes):
            mine = key == p
            # the block is a temporary, freed when eigvalsh returns
            parts.append(_lapack(np.linalg.eigvalsh,
                                 _filled(m * m, positions[mine], values[mine]).reshape(m, m)))
    return OracleSpectrum(
        eigenvalues=np.sort(np.concatenate(parts)),
        shell_exact_upto=t.n_max if conserves else 0,
        # eigvalsh's values are real and ascending
        shell_eigenvalues=dict(enumerate(parts[:t.n_max + 1])) if conserves else None,
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
