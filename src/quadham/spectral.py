"""Eigenstructure of adjoint matrices: frequencies, pairing, classification.

The adjoint matrix is i R with R = (gamma + gamma^T) J real, so eigenvalues
are computed as i times the eigenvalues of R and no general complex
eigensolver is needed; R and its norm are derived once per form, in
`phase_space`.  They come in sets lambda, -lambda, conj(lambda)
(Van Loan, Linear Algebra Appl. 61 (1984) 233), and the eigenvalue clusters
are built symmetric under both maps, so each real cluster above zero and its
mirror at -lambda give ladder pairs normalised so that [lowering, raising] =
1 with no matching step.  The spectrum class is decided by the definiteness
of gamma together with the frequency set.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .errors import (
    LadderCheckError,
    LatticeCapError,
    LatticeUnavailableError,
    NonRealFrequencyError,
    PairingError,
)
from .phase_space import (
    AdjointMatrix,
    LinearForm,
    PhaseSpaceBasis,
    QuadraticForm,
    _adjoint_entries,
    _adjoint_norm,
    _count,
    _derived,
    _generator,
    _lapack,
    _symplectic,
    adjoint_representation,
    linear_commutator,
)
from . import tolerances as tol

# most lattice states spectrum_lattice enumerates: K=6 at 16 quanta, 74 613
# states on as many levels, takes about 0.2 s and a 61 MB peak in a fresh
# process (2 vCPUs, Python 3.11)
LATTICE_STATE_CAP = 10**5

# eigh's eigenvectors of a 1 x 1 Hermitian matrix
_UNIT = np.ones((1, 1), dtype=complex)
_UNIT.flags.writeable = False


class Classification(str, enum.Enum):
    BOUNDED_BELOW_DISCRETE = "BoundedBelowDiscrete"
    CRITICAL_INFINITE_MULTIPLICITY = "CriticalInfiniteMultiplicity"
    UNBOUNDED_LATTICE = "UnboundedLattice"
    DEFECTIVE_EXCEPTIONAL = "DefectiveExceptional"
    NON_REAL_FREQUENCIES = "NonRealFrequencies"

    @property
    def has_lattice(self) -> bool:
        """Whether the class predicts an energy lattice."""
        return self not in (Classification.NON_REAL_FREQUENCIES,
                            Classification.DEFECTIVE_EXCEPTIONAL)


@dataclass(frozen=True, eq=False)
class EigenCluster:
    """A group of eigenvalues coinciding within tolerance."""

    value: complex
    algebraic: int
    geometric: int
    indices: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class EigenData:
    eigenvalues: np.ndarray          # eigenvalues of the adjoint matrix
    eigenvectors: np.ndarray         # columns, same order
    clusters: tuple[EigenCluster, ...]
    defective: bool
    matrix_norm: float
    source: AdjointMatrix


@dataclass(frozen=True, eq=False)
class FrequencyPair:
    """A matched (+lambda, -lambda) ladder pair.

    raising/lowering are oriented so norm_constant = [lowering, raising] is
    +1; raising_frequency is the signed eigenvalue of the raising member
    (equal to +lambda_plus except for inverted pairs of indefinite forms).
    """

    lambda_plus: float
    raising: LinearForm
    lowering: LinearForm
    norm_constant: float
    raising_frequency: float


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    classification: Classification
    pairs: tuple[FrequencyPair, ...]
    ground_energy: float | None
    lattice_generators: tuple[float, ...]
    multiplicity_note: str
    vacuum_energy: float | None = None
    gamma_min: float | None = None   # smallest eigenvalue of gamma


_SETATTR = object.__setattr__  # how a frozen record sets its own slots


@dataclass(frozen=True, eq=False, slots=True, init=False)
class LatticeLevel:
    energy: float
    states: tuple[tuple[int, ...], ...]
    degeneracy: int
    infinite: bool = False

    # the fields' own __init__: one local object.__setattr__ sets every
    # slot, where the generated frozen one looks it up once per field
    def __init__(self, energy: float, states: tuple[tuple[int, ...], ...],
                 degeneracy: int, infinite: bool = False) -> None:
        _set = _SETATTR
        _set(self, "energy", energy)
        _set(self, "states", states)
        _set(self, "degeneracy", degeneracy)
        _set(self, "infinite", infinite)


def eigen_decompose(m: AdjointMatrix) -> EigenData:
    """Eigenvalues/vectors of the adjoint matrix via its real generator R.

    Each eigenvalue v is folded to |Re v| + i |Im v| and the folded values
    are clustered once at the pairing tolerance t, so v and its mirrors -v,
    conj(v) and -conj(v) (R's conjugate eigenvalue, exactly) fold onto one
    point.  A folded cluster is then parted by the sign of each part of each
    member whose |part| exceeds t / 2, the distance beyond which `_cluster`
    keeps a value apart from its mirror.  The clusters are therefore
    symmetric under lambda -> -lambda and lambda -> conj(lambda); their
    members are in (real, imag, index) order.  A cluster's geometric
    multiplicity counts the singular values of (M - lambda I) at most t; a
    simple eigenvalue is its own cluster value and skips the SVD.  R and its
    norm are derived once per form and shared with `ladder_check`.  A
    repeated eigenvalue with a full eigenspace takes its eigenvectors from
    the null space of that SVD, because the general eigensolver can return
    parallel vectors for it.
    """
    w, V = _lapack(np.linalg.eig, _derived(m.source, _generator))
    return _decomposition(m, w, V, _derived(m.source, _adjoint_norm))


def _decomposition(m: AdjointMatrix, w: np.ndarray, V: np.ndarray,
                   norm: float) -> EigenData:
    """`eigen_decompose` after its LAPACK calls: w, V as np.linalg.eig of R
    alone returns them, norm R's largest singular value."""
    entries = m.entries
    eigenvalues = 1j * w
    values = eigenvalues.tolist()
    n = len(values)
    t = tol.pairing_tol(norm)
    half = t / 2.0
    clusters = []
    eigenspaces = []
    for folded in _cluster([complex(abs(v.real), abs(v.imag)) for v in values], t):
        parts: dict[tuple[int, int], list[int]] = {}
        for i in folded:
            v = values[i]
            parts.setdefault(((v.real > half) - (v.real < -half),
                              (v.imag > half) - (v.imag < -half)), []).append(i)
        for g in parts.values():
            if len(g) == 1:
                # the mean of one value; + 0.0 turns -0.0 into 0.0 as np.mean does
                clusters.append(EigenCluster(value=values[g[0]] + 0.0, algebraic=1,
                                             geometric=1, indices=(g[0],)))
                continue
            g.sort(key=lambda i: (values[i].real, values[i].imag, i))
            value = complex(np.mean(eigenvalues.real[g]), np.mean(eigenvalues.imag[g]))
            _, svals, vh = _lapack(np.linalg.svd, entries - value * np.eye(n))
            rank = int((svals > t).sum())
            geom = n - rank
            if geom == len(g):
                eigenspaces.append((g, vh[rank:].conj().T))
            clusters.append(EigenCluster(value=value, algebraic=len(g),
                                         geometric=geom, indices=tuple(g)))
    clusters.sort(key=lambda c: (c.value.real, c.value.imag))
    if eigenspaces:
        V = V.astype(complex)
        for g, null_basis in eigenspaces:
            V[:, g] = null_basis
    return EigenData(
        eigenvalues=eigenvalues,
        eigenvectors=V,
        clusters=tuple(clusters),
        defective=any(c.geometric < c.algebraic for c in clusters),
        matrix_norm=norm,
        source=m,
    )


def _cluster(values, t: float) -> list[list[int]]:
    """Index groups of values that coincide within t.

    values is an array, or a list of floats or of complex numbers.  They are
    visited in (real, imag) order, ties in input order.  Each one
    joins the last group when within t of that group's first member, else
    the first earlier group within t (complex values sorted by real part
    can interleave two clusters), else it starts a new group.  Sorted real
    values can only ever match the last group, so they skip that search.
    """
    vals = values.tolist() if isinstance(values, np.ndarray) else values
    search_earlier = bool(vals) and isinstance(vals[0], complex)
    key = (lambda i: (vals[i].real, vals[i].imag)) if search_earlier else vals.__getitem__
    groups: list[list[int]] = []
    anchor = None  # first member of the last group
    for i in sorted(range(len(vals)), key=key):
        v = vals[i]
        if groups and abs(v - anchor) <= t:
            groups[-1].append(i)
            continue
        home = None
        if search_earlier:
            # first members arrive in real-part order, so the scan stops at
            # the first group whose real part alone is farther than t
            for k in range(len(groups) - 2, -1, -1):
                first = vals[groups[k][0]]
                if v.real - first.real > t:
                    break
                if abs(v - first) <= t:
                    home = groups[k]
        if home is None:
            groups.append([i])
            anchor = v
        else:
            home.append(i)
    return groups


def _nonreal_frequency(e: EigenData, t: float) -> float | None:
    """Largest |Im| of a cluster value if above t / 2: a member with |Im| >
    t / 2 is parted from its conjugate a -+ i eps (2 eps apart) by
    `eigen_decompose`, and only such members give a cluster value beyond
    t / 2."""
    worst = max((abs(c.value.imag) for c in e.clusters), default=0.0)
    return worst if worst > t / 2.0 else None


def _canonical_phase(vec: np.ndarray) -> np.ndarray:
    """Rotate so the first significant coefficient is positive real."""
    mags = abs(vec).tolist()
    m = max(mags)
    pivot = vec[next(i for i, x in enumerate(mags) if x > 1e-12 * m)]
    return vec * (abs(pivot) / pivot)


def pair_frequencies(e: EigenData) -> list[FrequencyPair]:
    """Real eigenvalues as K ladder pairs with [lowering, raising] = 1.

    The eigenspaces are the clusters of `eigen_decompose`, members taken in
    (real part, index) order.  Those clusters are mirror-symmetric, so no
    -lambda partner is searched for: each cluster above the zero-frequency
    tolerance stands for itself and its mirror, and the one cluster within
    it (every member |Re| <= t / 2) is the zero eigenspace.  The eigenvalue
    -conj(v) of R's conjugate eigenvalue pairs each positive member exactly,
    so these give K pairs.  Within each cluster the Hermitian form h(u, v) =
    i u^dag J v is diagonalised: h-positive directions are raising members,
    h-negative ones are conjugates of raising members in the opposite
    eigenspace, and the zero eigenspace pairs internally, its h-positive half
    raising.  A zero frequency comes out as exactly 0.0.  A null direction
    (h ~ 0) means the pairing is ill-posed and is reported instead of patched.
    """
    worst = _nonreal_frequency(e, tol.pairing_tol(e.matrix_norm))
    if worst is not None:
        raise NonRealFrequencyError(
            f"non-real eigenvalue (|Im| up to {worst:.3e}); "
            "the form has no real frequency pairing"
        )
    return _ladders(_grams(e), e.source.source.basis)


def _grams(e: EigenData) -> list[tuple]:
    """One (frequency, mu, u) per ladder pair of a real decomposition's
    clusters, highest frequency first.

    Per cluster, with vecs its eigenvectors (members in (real part, index)
    order), mu and U are the eigenvalues and eigenvectors of the symplectic
    Gram matrix G = i vecs^dag J vecs, and u = vecs @ U[:, k] is the
    direction of a kept k, raising where mu > 0.  The frequency is >= 0,
    exactly 0.0 for the zero cluster.  At frequency != 0 every direction of
    G gives a pair, an h-negative one the conjugate of a raising member at
    -frequency; at 0 only the half with mu > `tol.gram_tol` raises and must
    be half the eigenspace.  At val != 0 a direction is null where
    t_zero / |mu|, its eigenvalue's error (1 / |mu| the condition number),
    reaches 1 + val, as at a split Jordan block.

    The clusters of one size share one stacked Gram product and, from two
    members up, one stacked eigh; a slice of a stacked call holds the bits
    of the call on that cluster alone.  One-member clusters skip eigh: of a
    1 x 1 matrix it returns the real part and the unit vector.  The
    clusters are then judged in order, so the first refusal is the first
    cluster's that fails.
    """
    freqs = e.eigenvalues.real.tolist()
    t_zero = tol.zero_frequency_tol(e.matrix_norm)
    J = _symplectic(e.source.K)
    clusters = []
    for c in reversed(e.clusters):
        val = c.value.real
        if val < -t_zero:
            break  # the rest mirror the clusters above
        clusters.append((val if val > t_zero else 0.0,
                         sorted(c.indices, key=lambda i: (freqs[i], i))))
    by_size: dict[int, list[int]] = {}
    for j, (_, idxs) in enumerate(clusters):
        by_size.setdefault(len(idxs), []).append(j)
    # per cluster: mu, and its directions as v @ U[:, k], or v itself for
    # one member
    gram = [None] * len(clusters)
    for size, js in by_size.items():
        # rows[j] is vecs^T of cluster j, so slice j of vecs has the layout
        # of e.eigenvectors[:, idxs]: every product meets the same kernel
        rows = e.eigenvectors.T.take([clusters[j][1] for j in js], axis=0)
        vecs = rows.transpose(0, 2, 1)
        G = 1j * (rows.conj() @ J @ vecs)
        if size == 1:
            for j, mu, u in zip(js, G[:, 0, 0].real.tolist(), (vecs @ _UNIT)[:, :, 0]):
                gram[j] = ([mu], u, None)
            continue
        mus, Us = _lapack(np.linalg.eigh, (G + G.conj().transpose(0, 2, 1)) / 2.0)
        for j, mu, U, v in zip(js, mus.tolist(), Us, vecs):
            gram[j] = (mu, v, U)
    grams = []
    for (val, idxs), (mu, v, U) in zip(clusters, gram):
        if val == 0.0:
            keep = [k for k in range(len(mu)) if mu[k] > tol.gram_tol()]
            if len(keep) != len(idxs) // 2:
                raise PairingError("zero eigenspace does not split into ladder pairs")
        elif any(abs(m) * (1.0 + val) <= t_zero for m in mu):
            raise PairingError(
                f"symplectically null eigenvector at frequency {val:.6g}"
            )
        else:
            keep = range(len(mu))
        grams += [(val, mu[k], v if U is None else v @ U[:, k]) for k in keep]
    return grams


def _ladders(grams: list[tuple], basis) -> list[FrequencyPair]:
    """The ladder pairs of `_grams`, in its order: each direction u, scaled
    to [lowering, raising] = 1 and conjugated where h(u, u) < 0, with its
    first significant coefficient made positive real."""
    out = []
    for frequency, m, u in grams:
        w = u / math.sqrt(abs(m))
        w, freq = (w, frequency) if m > 0 else (np.conj(w), -frequency)
        w = _canonical_phase(w)
        raising = LinearForm(basis, w)
        lowering = LinearForm(basis, np.conj(w))
        nc = linear_commutator(lowering, raising)
        out.append(FrequencyPair(lambda_plus=frequency, raising=raising,
                                 lowering=lowering, norm_constant=float(nc.real),
                                 raising_frequency=freq))
    return out


def ladder_check(q: QuadraticForm, z: LinearForm) -> float:
    """Verify [H, Z] = lambda Z through the adjoint matrix; return lambda.

    The adjoint entries and the norm of R are derived once per form, so every
    candidate checked against one form shares them with its decomposition.
    lambda does not depend on the scale of z: a candidate whose squared norm
    is not between 2^-500 and 2^500 is first scaled by a power of two, which
    keeps every product exact.
    """
    if q.basis != z.basis:
        raise ValueError("form and candidate live on different bases")
    c = z.coeffs
    sq = _squared_norm(c)
    if not 2.0 ** -500 < sq < 2.0 ** 500:
        # bring max |c_i| into [1/2, 1), where no product overflows or
        # underflows
        top = float(abs(c).max())
        if top == 0.0:
            raise ValueError("zero vector is not a ladder operator candidate")
        c = np.ldexp(c.view(float), -math.frexp(top)[1]).view(complex)
        sq = _squared_norm(c)
    cn = math.sqrt(sq)
    M = _derived(q, _adjoint_entries)
    hnorm = _derived(q, _adjoint_norm)
    Mc = M @ c
    cc = np.conj(c)
    lam = complex((cc @ Mc) / (cc @ c))
    residual = math.sqrt(_squared_norm(Mc - lam * c)) / cn
    t = tol.ladder_residual_tol(hnorm)
    if not residual <= t:  # a NaN residual fails too
        raise LadderCheckError(
            f"residual {residual:.3e} exceeds tolerance {t:.3e}", residual
        )
    if not abs(lam.imag) <= max(t, 1e-300):
        raise LadderCheckError(
            f"eigenvalue {lam} has non-real part beyond tolerance", residual
        )
    return float(lam.real)


def _squared_norm(v: np.ndarray) -> float:
    """|v|^2 of a complex vector as re.re + im.im, the sum np.linalg.norm
    takes, without its dispatch.  np.vdot, unlike dot, warns of no
    overflow."""
    re, im = v.real, v.imag
    return float(np.vdot(re, re)) + float(np.vdot(im, im))


def vacuum_annihilation_residual(z: LinearForm) -> float:
    """Norm of z applied to the normalised Gaussian vacuum.

    Zero exactly when cx_j + i cp_j = 0 for every mode, since
    z . vacuum = sum_j (cx_j + i cp_j) x_j . vacuum and <x_j^2> = 1/2.
    """
    K = z.basis.K
    d = z.coeffs[:K] + 1j * z.coeffs[K:]
    return float(np.linalg.norm(d) / math.sqrt(2.0))


def _misses_vacuum(p: FrequencyPair) -> bool:
    """Whether the lowering member fails to annihilate the Gaussian vacuum.

    [lowering, raising] = 1 makes |raising.vac|^2 - |lowering.vac|^2 = 1, so
    the raising member never annihilates it and one threshold (the members
    share their norm) decides the pair.
    """
    t = tol.annihilation_tol(float(np.linalg.norm(p.raising.coeffs)))
    return not (vacuum_annihilation_residual(p.lowering) <= t
                < vacuum_annihilation_residual(p.raising))


class _Verdict(NamedTuple):
    """What `_verdict` decides; grams, `_grams`' (frequency, mu, u) records,
    is empty unless the class has a lattice, and on a fast `_verdicts` one."""

    classification: Classification
    note: str
    grams: list[tuple]
    ground_energy: float | None
    vacuum_energy: float | None
    generators: tuple[float, ...]
    gamma_min: float


def _verdict(q: QuadraticForm) -> _Verdict:
    """The spectrum class of q and every number it rests on, no ladders.

    Each verdict is taken once, the boundary ones at the cluster radius t:
    reality and rank by the clusters, a zero frequency by the pairing (as
    exactly 0.0, critical whatever gamma reads), and any other real form by
    gamma's lowest eigenvalue.  The pairing's Gram signs alone give the
    generators: a definite form's are its cluster frequencies, an indefinite
    form's its raising frequencies.
    """
    return _judge(q, eigen_decompose(adjoint_representation(q)),
                  _lapack(np.linalg.eigvalsh, q.gamma).tolist())


def _verdicts(gammas: np.ndarray) -> list[_Verdict]:
    """`_verdict` of the offset-0.0 form of each gamma of an (n, 2K, 2K)
    stack, bit for bit, with one stacked eig, norm SVD and eigvalsh; a slice
    of a stacked LAPACK call holds the bits of a call on that matrix alone.

    Array code over the whole stack decides each sample that `_fast_path`
    admits: a non-real one, or a real one whose eigenvalues are all their
    own clusters, each 10x clear of every threshold that could merge or
    reject it.  Only the rest become `QuadraticForm`s, for `_decomposition`
    and `_judge`.  A fast verdict keeps no Gram records.
    """
    basis = PhaseSpaceBasis(gammas.shape[-1] // 2)
    J = _symplectic(basis.K)
    # `_generator`'s R of adjoint_representation's 2 i gamma J: J is a signed
    # permutation, so each entry is one exact product whichever way the
    # stack is multiplied
    R = np.real(-1j * (2j * (gammas @ J)))
    w, V = _lapack(np.linalg.eig, R)
    norms = _lapack(np.linalg.svd, R, compute_uv=False)[:, 0]
    gevals = _lapack(np.linalg.eigvalsh, gammas).tolist()
    nonreal, fast, grams = _fast_path(w, V, J, norms)
    out = []
    for i, gi in enumerate(gevals):
        if nonreal[i]:
            out.append(_non_real(gi[0]))
        elif fast[i]:
            out.append(_lattice_verdict(0.0, gi, grams[i], []))
        else:
            wq, Vq = w[i], V[i]
            # a stacked eig returns complex arrays for every matrix once one
            # has a non-real eigenvalue; a call on one matrix alone returns
            # real arrays when all of its eigenvalues are real
            if not wq.imag.any():
                wq, Vq = wq.real, Vq.real
            q = QuadraticForm(basis, gammas[i], 0.0)
            e = _decomposition(AdjointMatrix(q), wq, Vq, float(norms[i]))
            out.append(_judge(q, e, gi))
    return out


def _fast_path(w: np.ndarray, V: np.ndarray, J: np.ndarray, norms: np.ndarray):
    """Which samples of a stacked eig `_verdicts` decides by array code.

    values = i w are the adjoint eigenvalues, t each sample's pairing
    tolerance.  Only a sample whose eig row is complex (some w not real) is
    fast; a real row, which a scan meets rarely, keeps `_decomposition`'s
    real-array path.  Such a sample is non-real when some |Im value| >
    10 (t / 2): that member's sign part holds only members with |Im| > t / 2
    of one sign, so its cluster value is beyond t / 2 and `_judge` returns
    `_non_real`.  A sample is fast and real when every |Im value| <= t / 20,
    min |Re| > 10 t and the positive frequencies lie more than 10 t apart.
    The eig of a real R returns each complex pair as exact conjugates, so
    the real parts are then exactly +-omega_j, `_cluster` puts each pair in
    one folded group whose sign parts are single members, no cluster is at
    zero, and `_grams` reads one Gram entry mu_j = Re(i v_j^dag J v_j) per
    positive member, which must clear `_grams`' null bar tenfold (and 1e-12,
    far above the rounding this batched product may add) in magnitude.
    Returns per sample, as lists: nonreal, fast, and one (frequency, mu)
    record per positive member, highest frequency first (each
    `(1j * w).real` of its member, as `_grams` reads it; mu only for its
    sign).
    """
    K = J.shape[0] // 2
    t = tol.pairing_tol(norms)[:, None]
    t_zero = tol.zero_frequency_tol(norms)[:, None]
    values = 1j * w
    imag = abs(values.imag)
    nonreal = w.imag.any(axis=-1) & (imag > 5.0 * t).any(axis=-1)
    order = np.argsort(values.real, axis=-1)
    re = np.take_along_axis(values.real, order, axis=-1)
    high = re[:, K:]
    mu = -(V.conj() * (J @ V)).sum(axis=-2).imag
    mu_high = np.take_along_axis(mu, order[:, K:], axis=-1)
    fast = ((imag <= t / 20.0).all(axis=-1)
            & (abs(re).min(axis=-1) > 10.0 * t[:, 0])
            & (np.diff(high, axis=-1) > 10.0 * t).all(axis=-1)
            & (abs(mu_high) > np.maximum(10.0 * t_zero / (1.0 + high), 1e-12)).all(axis=-1))
    return (nonreal.tolist(), fast.tolist(),
            [list(zip(f, m)) for f, m in zip(high[:, ::-1].tolist(),
                                             mu_high[:, ::-1].tolist())])


def _non_real(gmin: float) -> _Verdict:
    return _Verdict(
        Classification.NON_REAL_FREQUENCIES,
        "adjoint eigenvalues include non-real frequencies; no real "
        "ladder structure or energy lattice exists",
        [], None, None, (), gmin)


def _judge(q: QuadraticForm, e: EigenData, gevals: list[float]) -> _Verdict:
    """`_verdict` from q's decomposition e and gamma's eigenvalues, ascending."""
    gmin = gevals[0]

    if _nonreal_frequency(e, tol.pairing_tol(e.matrix_norm)) is not None:
        return _non_real(gmin)
    if e.defective:
        bad = [c for c in e.clusters if c.geometric < c.algebraic]
        desc = ", ".join(
            f"{c.value.real:.6g} (algebraic {c.algebraic}, geometric {c.geometric})"
            for c in bad
        )
        return _Verdict(
            Classification.DEFECTIVE_EXCEPTIONAL,
            f"adjoint matrix is defective at eigenvalue(s) {desc}; "
            "ladder operators do not span and no discrete lattice applies",
            [], None, None, (), gmin)

    grams = _grams(e)
    return _lattice_verdict(q.offset, gevals, grams, grams)


def _lattice_verdict(offset: float, gevals: list[float], grams: list[tuple],
                     kept: list[tuple]) -> _Verdict:
    """`_judge`'s verdict on a real, non-defective form with that offset, from
    grams' first two fields per ladder pair (frequency, Gram entry, raising
    where > 0); it stores kept, `_grams`' records or [] on the fast path."""
    gmin = gevals[0]
    dtol = tol.definiteness_tol(max(-gmin, gevals[-1]))  # largest |eigenvalue|
    if gmin > -dtol:
        gens = tuple(g[0] for g in grams)
        ground = float(offset + 0.5 * sum(gens))
        if 0.0 in gens:
            # a zero-frequency pair is critical whatever gmin reads
            cls = Classification.CRITICAL_INFINITE_MULTIPLICITY
            note = (
                "zero-frequency ladder pair on the semidefinite boundary: "
                "every lattice level carries infinite multiplicity"
            )
        elif gmin > dtol:
            cls = Classification.BOUNDED_BELOW_DISCRETE
            note = (
                "form matrix positive definite; spectrum is the discrete "
                "lattice ground + n . generators with finite degeneracies"
            )
        else:
            cls = Classification.BOUNDED_BELOW_DISCRETE
            note = (
                "form matrix semidefinite but all frequencies nonzero; "
                "treated as bounded below"
            )
        return _Verdict(cls, note, kept, ground, ground, gens, gmin)

    # indefinite with all-real frequencies: the signed raising frequencies
    gens = tuple(sorted((g[0] if g[1] > 0 else -g[0] for g in grams), reverse=True))
    return _Verdict(
        Classification.UNBOUNDED_LATTICE,
        "form matrix indefinite with real frequencies: the Gaussian-vacuum "
        "lattice extends without a lower bound (signed generators)",
        kept, None, float(offset + 0.5 * sum(gens)), gens, gmin)


def classify_spectrum(q: QuadraticForm) -> SpectrumReport:
    """Decision tree over frequency reality, defectiveness and definiteness.

    `_verdict` takes every decision; the ladder pairs are then built from its
    Gram data.  Their vacuum residuals only flag, in an indefinite form's
    note, a pair whose lowering member misses the vacuum.
    """
    v = _verdict(q)
    pairs = tuple(_ladders(v.grams, q.basis))
    note = v.note
    if (v.classification is Classification.UNBOUNDED_LATTICE
            and any(_misses_vacuum(p) for p in pairs)):
        note += (
            "; warning: some pair had no member annihilating the standard "
            "Gaussian vacuum, sign taken from the commutator orientation"
        )
    return SpectrumReport(
        classification=v.classification,
        pairs=pairs,
        ground_energy=v.ground_energy,
        lattice_generators=v.generators,
        multiplicity_note=note,
        vacuum_energy=v.vacuum_energy,
        gamma_min=v.gamma_min,
    )


def spectrum_lattice(r: SpectrumReport, max_quanta: int) -> list[LatticeLevel]:
    """Enumerate lattice energies anchor + sum n_i g_i for sum n_i <= max_quanta.

    Zero generators are excluded from enumeration and instead mark every level
    as infinitely degenerate.  Bounded/critical lattices merge equal energies
    globally; unbounded lattices merge only within a total-quanta shell and
    sort by (total quanta, energy).  More than LATTICE_STATE_CAP states, the
    C(max_quanta + k, k) tuples of k nonzero generators, raise LatticeCapError
    before any is built.
    """
    if not r.classification.has_lattice:
        raise LatticeUnavailableError(
            f"no energy lattice for classification {r.classification.value}"
        )
    max_quanta = _count(max_quanta, 0,
                        "max_quanta must be a non-negative integer")
    anchor = r.ground_energy if r.ground_energy is not None else r.vacuum_energy
    if anchor is None:
        raise LatticeUnavailableError("report carries no anchor energy")

    active = [g for g in r.lattice_generators if g != 0.0]
    infinite = len(active) < len(r.lattice_generators)
    count = math.comb(max_quanta + len(active), len(active))
    if count > LATTICE_STATE_CAP:
        raise LatticeCapError(
            f"{count} lattice states up to {max_quanta} quanta exceed cap "
            f"{LATTICE_STATE_CAP}"
        )
    unbounded = r.classification is Classification.UNBOUNDED_LATTICE

    # lexicographic order, which each shell's stable sort keeps among equal
    # energies; with a float anchor, anchor + s has the bits of
    # float(anchor + s)
    quanta, energies, left = _multi_indices(active, max_quanta, float(anchor))
    t = tol.lattice_merge_tol(max(map(abs, energies)))

    # unbounded lattices merge only within a total-quanta shell
    shells = [(energies, quanta)]
    if unbounded:
        shells = [([], []) for _ in range(max_quanta + 1)]
        for e, n, b in zip(energies, quanta, left):
            shell_energies, shell_quanta = shells[max_quanta - b]
            shell_energies.append(e)
            shell_quanta.append(n)
    levels = []
    for shell_energies, shell_quanta in shells:
        # `_cluster`'s merge of sorted reals: a level opens at each energy
        # more than t above the level's first, ties in lexicographic order
        order = sorted(range(len(shell_energies)), key=shell_energies.__getitem__)
        ordered = [shell_energies[i] for i in order]
        if all(b - a > t for a, b in zip(ordered, ordered[1:])):
            # each level's first is the energy before, so each is one state
            levels += [LatticeLevel(e, (shell_quanta[i],), 1, infinite)
                       for e, i in zip(ordered, order)]
            continue
        # the level from order[first] opened at low; inf closes the last
        first, low = 0, ordered[0]
        for k, e in enumerate(ordered[1:] + [math.inf], 1):
            if e - low > t:
                states = [shell_quanta[i] for i in order[first:k]]
                if not unbounded:
                    states.sort()
                levels.append(LatticeLevel(low, tuple(states), k - first, infinite))
                first, low = k, e
    return levels


def _multi_indices(weights, max_total: int,
                   start: float) -> tuple[list, list, Iterator[int]]:
    """All n in N^k with sum(n) <= max_total, k = len(weights), in
    lexicographic order, as three parallel sequences: the n, the values
    start + s of their weighted sums s = 0 + n_1 w_1 + ... + n_k w_k, and an
    iterator over the budgets max_total - sum(n) left.

    Each n extends its prefix by one entry, so s adds one term to its
    prefix's sum, exactly the additions `sum(map(operator.mul, n, weights))`
    makes, and start comes last.  Prefixes are (n, s, budget) records; the
    last coordinate writes the lists directly, so no record is held per
    state, and the budgets are counted out only when read.
    """
    if not weights:
        return [()], [start + 0], iter([max_total])
    ones = list(zip(range(max_total + 1)))
    prefixes = [((), 0, max_total)]
    for w in weights[:-1]:
        steps = [(t, h * w, h) for h, t in enumerate(ones)]
        prefixes = [(n + t, s + x, b - h) for n, s, b in prefixes
                    for t, x, h in steps[:b + 1]]
    w = weights[-1]
    quanta = [n + t for n, _, b in prefixes for t in ones[:b + 1]]
    values = [start + (s + h * w) for _, s, b in prefixes for h in range(b + 1)]
    budgets = [b for _, _, b in prefixes]
    return quanta, values, (c for b in budgets for c in range(b, -1, -1))
