import math
import tracemalloc

import numpy as np
import pytest

from quadham import (
    Classification,
    DimensionlessModel,
    EigensolverError,
    FockCapError,
    FockTruncation,
    HermiticityError,
    PhaseSpaceBasis,
    QuadraticForm,
    build_fock_matrix,
    build_model,
    classify_spectrum,
    compare_with_lattice,
    make_quadratic_form,
    oracle_spectrum,
    random_positive_definite_form,
    sb_operator,
    spectrum_lattice,
    symmetric_energy,
    symmetric_raising_pair,
)
from quadham import fock
from quadham import tolerances as tol


def model_form(b, mu=1.0, k=1.0):
    return build_model(DimensionlessModel(mu=mu, k=k, b=b))


def squeezed(q, s):
    """The form in the variables S = diag(s, 1, 1/s, 1), gamma' = S^T gamma S."""
    S = np.diag([s, 1.0, 1.0 / s, 1.0])
    return QuadraticForm(q.basis, S.T @ q.gamma @ S, q.offset)


def _ladder_ops(levels):
    """Position and momentum on occupancies 0..levels-1, written out densely."""
    a = np.diag(np.sqrt(np.arange(1.0, levels)), 1)
    x = (a + a.T) / math.sqrt(2.0)
    p = 1j * (a.T - a) / math.sqrt(2.0)
    return x.astype(complex), p


def _kron_chain(factors, K, n):
    out = np.ones((1, 1), dtype=complex)
    for j in range(K):
        out = np.kron(out, factors.get(j, np.eye(n, dtype=complex)))
    return out


def kron_fock_matrix(q, t):
    """Reference assembly: one dense Kronecker product per gamma entry."""
    K, n = t.K, t.n_max + 1
    padded = _ladder_ops(n + 2)
    h = np.zeros((t.dim, t.dim), dtype=complex)
    for a in range(2 * K):
        for b in range(2 * K):
            g = q.gamma[a, b]
            if g == 0.0:
                continue
            if a % K == b % K:
                factors = {a % K: (padded[a // K] @ padded[b // K])[:n, :n]}
            else:
                factors = {a % K: padded[a // K][:n, :n],
                           b % K: padded[b // K][:n, :n]}
            h += g * _kron_chain(factors, K, n)
    if q.offset:
        h += q.offset * np.eye(t.dim)
    return h


def kron_linear_matrix(z, t):
    K, n = t.K, t.n_max + 1
    singles = _ladder_ops(n)
    out = np.zeros((t.dim, t.dim), dtype=complex)
    for idx, c in enumerate(z.coeffs):
        if c != 0:
            out += c * _kron_chain({idx % K: singles[idx // K]}, K, n)
    return out


def occupancies(t):
    """Basis order: row-major occupancy tuples, mode 1 slowest."""
    return list(np.ndindex(*(t.n_max + 1,) * t.K))


def shell_indices(t):
    """Flat basis indices grouped by total occupancy, shells in order."""
    groups = {}
    for i, occ in enumerate(occupancies(t)):
        groups.setdefault(sum(occ), []).append(i)
    return {s: np.array(groups[s]) for s in sorted(groups)}


def conserves_by_mask(h, t):
    """Shell conservation as a dense test of every off-shell entry."""
    shell_of = np.empty(t.dim, dtype=int)
    for s, ix in shell_indices(t).items():
        shell_of[ix] = s
    off_shell = shell_of[:, None] != shell_of[None, :]
    mz = tol.machine_zero_tol(float(np.max(np.abs(h))))
    return bool(np.all(np.abs(h[off_shell]) <= mz))


def random_form(rng, K, zero_row=None, offset=0.0):
    g = rng.uniform(-1.0, 1.0, size=(2 * K, 2 * K))
    g = (g + g.T) / 2.0
    if zero_row is not None:
        g[zero_row, :] = 0.0
        g[:, zero_row] = 0.0
    return QuadraticForm(PhaseSpaceBasis(K), g, offset)


def random_forms(seed):
    """Indefinite K = 1..3 forms, some with a zero gamma row or an offset."""
    rng = np.random.default_rng(seed)
    for K in (1, 2, 3):
        for n_max in range(7):
            yield random_form(rng, K), n_max
            yield random_form(rng, K, zero_row=int(rng.integers(2 * K)),
                              offset=float(rng.uniform(-3.0, 3.0))), n_max


def reference_band_sums(q, t):
    """The per-term band loop the oracle replaced: one record per offset d in
    the order the terms first reach it, each sum taking its terms one by one
    in (a, b) order."""
    K, n = t.K, t.n_max + 1
    padded = fock._single_mode_ops(n + 2)
    singles = tuple(op[:n, :n] for op in padded)

    def band(op, d, mode):
        v = np.diagonal(op, d)
        return v.reshape([len(v) if j == mode else 1 for j in range(K)])

    def terms():
        for a in range(2 * K):
            mode_a, kind_a = a % K, a // K
            for b in range(2 * K):
                g = q.gamma[a, b]
                if g == 0.0:
                    continue
                mode_b, kind_b = b % K, b // K
                if mode_a == mode_b:
                    prod = (padded[kind_a] @ padded[kind_b])[:n, :n]
                    for d in (-2, 0, 2):
                        yield (tuple(d * (j == mode_a) for j in range(K)),
                               g * band(prod, d, mode_a))
                    continue
                for da in (-1, 1):
                    for db in (-1, 1):
                        yield (tuple(da * (j == mode_a) + db * (j == mode_b)
                                     for j in range(K)),
                               g * (band(singles[kind_a], da, mode_a)
                                    * band(singles[kind_b], db, mode_b)))
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
    scale = float(np.max([np.max(np.abs(acc)) for _, _, acc in records.values()
                          if acc.size], initial=0.0))
    return records, scale


def reference_oracle(q, t):
    """The per-block eigensolve loop the oracle replaced: one eigvalsh per
    shell or parity block, each block cut from the reference band sums.
    Returns the eigenvalues and the shell eigenvalues (None without shells)."""
    records, scale = reference_band_sums(q, t)
    mz = tol.machine_zero_tol(scale)
    conserves = all(np.all(np.abs(acc) <= mz) for d, (_, _, acc) in records.items() if sum(d))
    block = np.indices((t.n_max + 1,) * t.K).reshape(t.K, -1).sum(axis=0)
    if not conserves:
        block %= 2
    sizes = np.bincount(block)
    local = np.empty(t.dim, dtype=np.intp)
    local[np.argsort(block, kind="stable")] = (
        np.arange(t.dim) - np.repeat(np.cumsum(sizes) - sizes, sizes))
    kept = [r for d, r in records.items() if r[2].size and not (conserves and sum(d))]
    rows = np.concatenate([np.empty(0, dtype=np.intp)] + [r.ravel() for r, _, _ in kept])
    cols = np.concatenate([np.empty(0, dtype=np.intp)] + [c.ravel() for _, c, _ in kept])
    values = np.concatenate([np.empty(0, dtype=complex)] + [v.ravel() for _, _, v in kept])
    parts = []
    for key, size in enumerate(sizes.tolist()):
        mine = block[rows] == key
        h = np.zeros((size, size), dtype=complex)
        h[local[rows[mine]], local[cols[mine]]] = values[mine]
        parts.append(np.linalg.eigvalsh(h))
    shells = dict(enumerate(parts[:t.n_max + 1])) if conserves else None
    return np.sort(np.concatenate(parts)), shells


def perturbed_model(b, eps):
    """The b model with eps added to its x1 x2 entry, which changes the total."""
    base = model_form(b)
    gamma = base.gamma.copy()
    gamma[0, 1] += eps
    gamma[1, 0] += eps
    return QuadraticForm(base.basis, gamma, base.offset)


def reference_cases():
    """Random K = 1-3 forms at n_max 0-8, some with zero gamma entries or an
    offset, and the named forms the oracle must keep bit for bit."""
    rng = np.random.default_rng(35)
    for K in (1, 2, 3):
        for n_max in range(9):
            for variant in ("dense", "zeros", "offset"):
                g = rng.uniform(-1.0, 1.0, size=(2 * K, 2 * K))
                g = (g + g.T) / 2.0
                if variant == "zeros":
                    cut = rng.random((2 * K, 2 * K)) < 0.4
                    g[cut | cut.T] = 0.0
                offset = float(rng.uniform(-3.0, 3.0)) if variant == "offset" else 0.0
                yield f"K{K}-{variant}-{n_max}", QuadraticForm(PhaseSpaceBasis(K), g, offset), n_max
    named = {"b=2": model_form(2.0), "b=-2": model_form(-2.0), "b=1.3": model_form(1.3),
             "anisotropic": model_form(0.5, mu=2.0), "sb(2)": sb_operator(2.0),
             "sb(-2)": sb_operator(-2.0), "eps 1e-14": perturbed_model(1.3, 1e-14),
             "eps 1e-6": perturbed_model(1.3, 1e-6),
             "zero K=2": QuadraticForm(PhaseSpaceBasis(2), np.zeros((4, 4))),
             "zero K=3": QuadraticForm(PhaseSpaceBasis(3), np.zeros((6, 6)))}
    for name, q in named.items():
        for n_max in (0, 1, 2, 5, 8):
            yield f"{name}-{n_max}", q, n_max


REFERENCE_CASES = list(reference_cases())


class TestTruncation:
    def test_dim(self):
        assert FockTruncation(5, 1).dim == 6
        assert FockTruncation(3, 2).dim == 16
        assert FockTruncation(2, 3).dim == 27

    def test_validation(self):
        with pytest.raises(ValueError):
            FockTruncation(-1, 1)
        with pytest.raises(ValueError):
            FockTruncation(3, 0)

    def test_cap(self):
        assert fock.FOCK_STATE_CAP == 4096
        with pytest.raises(FockCapError, match=r"41\^3 = 68921 exceeds cap 4096"):
            FockTruncation(40, 3)

    @pytest.mark.parametrize("n_max, K, size", [
        (10 ** 5, 1000, "100001^1000 = over 10^4000"),
        (10 ** 68, 64, f"{10 ** 68 + 1}^64 = over 10^4000"),
        (1, 64, "2^64 = 18446744073709551616")])
    def test_cap_message_prints_no_overlong_number(self, n_max, K, size):
        # str() refuses an int of more than 4300 digits; such a dimension is
        # written as a power of ten, and the check never forms it
        with pytest.raises(FockCapError) as err:
            FockTruncation(n_max, K)
        assert str(err.value) == f"truncated dimension {size} exceeds cap 4096"

    def test_default_cap_bounds_dense_memory(self):
        # 4096 states: a dense complex matrix of 256 MiB
        assert FockTruncation(63, 2).dim == 4096
        with pytest.raises(FockCapError):
            FockTruncation(64, 2)


class TestBuildMatrix:
    def test_single_mode_oscillator(self):
        # x^2 + p^2 is diagonal 2n + 1 in the number basis; the off-diagonal
        # cancellation is exact, the diagonal only up to sqrt rounding
        q = make_quadratic_form(1, [(1, 1, 1.0), (2, 2, 1.0)])
        h = build_fock_matrix(q, FockTruncation(5, 1))
        off = h - np.diag(np.diag(h))
        assert np.max(np.abs(off)) == 0.0
        assert np.max(np.abs(np.diag(h) - np.arange(1, 12, 2))) < 1e-14

    def test_hermitian_exactly(self):
        h = build_fock_matrix(model_form(1.3), FockTruncation(6, 2))
        assert np.array_equal(h, h.conj().T)

    def test_offset_added_to_diagonal(self):
        q = make_quadratic_form(1, [(1, 1, 1.0), (2, 2, 1.0)])
        t = FockTruncation(3, 1)
        base = build_fock_matrix(q, t)
        shifted = QuadraticForm(q.basis, q.gamma, 2.5)
        h = build_fock_matrix(shifted, t)
        assert np.array_equal(h, base + 2.5 * np.eye(4))

    def test_equals_kronecker_assembly(self):
        forms = list(random_forms(11))
        assert any(np.min(np.linalg.eigvalsh(q.gamma)) < 0 for q, _ in forms)
        for q, n_max in forms:
            t = FockTruncation(n_max, q.basis.K)
            assert np.array_equal(build_fock_matrix(q, t),
                                  kron_fock_matrix(q, t))

    def test_cross_parity_entries_are_zero(self):
        for q, n_max in random_forms(12):
            t = FockTruncation(n_max, q.basis.K)
            h = build_fock_matrix(q, t)
            parity = np.array([sum(o) % 2 for o in occupancies(t)])
            assert np.all(h[parity[:, None] != parity[None, :]] == 0)

    def test_band_records_pair_each_offset_with_its_negative(self):
        # the Hermiticity check compares the sums of d and -d place by place,
        # so the entries of -d must be the transposes of those of d
        rng = np.random.default_rng(14)
        forms = list(random_forms(14)) + [(random_form(rng, 4), n) for n in range(4)]
        for q, n_max in forms:
            t = FockTruncation(n_max, q.basis.K)
            occ = np.array(occupancies(t))
            sums, _ = fock._band_sums(q, t)
            bands = {d: fock._entries(sums, t, [k])[:2]
                     for k, d in enumerate(fock._plan(t.K).offsets)}
            for d, (rows, cols) in bands.items():
                # every entry <o| . |o + d> with o and o + d retained, once,
                # rows ascending
                inside = np.all((occ + d >= 0) & (occ + d <= n_max), axis=1)
                assert np.array_equal(rows, np.flatnonzero(inside))
                assert np.all(occ[cols] - occ[rows] == d)
                back = bands[tuple(-x for x in d)]
                assert sorted(zip(back[0].tolist(), back[1].tolist())) == sorted(
                    zip(cols.tolist(), rows.tolist()))

    def test_basis_size_mismatch_rejected(self):
        q = model_form(1.0)
        with pytest.raises(ValueError):
            build_fock_matrix(q, FockTruncation(4, 1))

    def test_non_hermitian_operator_rejected(self, monkeypatch):
        ops = fock._single_mode_ops

        def upper_p(levels):
            x, p = ops(levels)
            return x, np.triu(p)

        monkeypatch.setattr(fock, "_single_mode_ops", upper_p)
        with pytest.raises(HermiticityError, match="deviates from Hermitian"):
            build_fock_matrix(model_form(1.3), FockTruncation(4, 2))

    def test_assembly_holds_one_dense_matrix(self):
        t = FockTruncation(20, 2)
        q = random_positive_definite_form(2, seed=3)
        tracemalloc.start()
        try:
            build_fock_matrix(q, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 16 * t.dim ** 2


class TestOracleSpectrum:
    def test_shell_structure_detected(self):
        o = oracle_spectrum(model_form(1.0), FockTruncation(6, 2))
        assert o.shell_eigenvalues is not None
        assert o.shell_exact_upto == 6
        assert sorted(o.shell_eigenvalues) == list(range(7))
        for s, evs in o.shell_eigenvalues.items():
            expected = sorted(symmetric_energy(1.0, m, s - m)
                              for m in range(s + 1))
            assert np.max(np.abs(np.sort(evs) - expected)) < 1e-8

    def test_no_shell_structure_when_anisotropic(self):
        o = oracle_spectrum(model_form(0.5, mu=2.0), FockTruncation(5, 2))
        assert o.shell_eigenvalues is None
        assert o.shell_exact_upto == 0

    def test_block_eigenvalues_match_full_matrix(self):
        forms = [(q, n) for q, n in random_forms(13) if n >= 3]
        forms += [(model_form(1.3), 6), (model_form(2.0), 5),
                  (model_form(0.5, mu=2.0), 5)]
        for q, n_max in forms:
            t = FockTruncation(n_max, q.basis.K)
            h = build_fock_matrix(q, t)
            o = oracle_spectrum(q, t)
            full = np.linalg.eigvalsh(h)
            assert len(o.eigenvalues) == t.dim
            assert (np.max(np.abs(o.eigenvalues - full))
                    <= 1e-10 * np.max(np.abs(h)))

    def test_shell_eigenvalues_are_those_of_the_shell_blocks(self):
        t = FockTruncation(6, 2)
        q = model_form(1.3)
        h = build_fock_matrix(q, t)
        o = oracle_spectrum(q, t)
        shells = shell_indices(t)
        for s, evs in o.shell_eigenvalues.items():
            block = h[np.ix_(shells[s], shells[s])]
            assert np.array_equal(evs, np.linalg.eigvalsh(block))

    @pytest.mark.parametrize("eps, conserves", [(1e-14, True), (1e-6, False)])
    def test_conservation_threshold(self, eps, conserves):
        # a tiny x1 x2 term breaks conservation only above machine zero
        base = model_form(1.3)
        gamma = base.gamma.copy()
        gamma[0, 1] += eps
        gamma[1, 0] += eps
        q = QuadraticForm(base.basis, gamma, base.offset)
        t = FockTruncation(6, 2)
        assert conserves_by_mask(build_fock_matrix(q, t), t) is conserves
        o = oracle_spectrum(q, t)
        assert (o.shell_eigenvalues is not None) is conserves
        assert o.shell_exact_upto == (6 if conserves else 0)

    def test_eigenvalues_sorted(self):
        o = oracle_spectrum(model_form(0.7), FockTruncation(5, 2))
        assert np.all(np.diff(o.eigenvalues) >= 0)
        assert o.dim == 36

    def test_critical_multiplicity(self):
        # at b = 2 the bottom eigenvalue 2 appears once per retained n
        for n_max in (4, 6):
            o = oracle_spectrum(model_form(2.0), FockTruncation(n_max, 2))
            bottom = fock._value_clusters(o.eigenvalues)[0]
            assert abs(np.mean(o.eigenvalues[bottom]) - 2.0) < 1e-10
            assert len(bottom) == n_max + 1

    def test_ladder_transport(self):
        # matrix powers of the raising operators walk the exact lattice
        b = 1.3
        t = FockTruncation(6, 2)
        h = build_fock_matrix(model_form(b), t)
        zp, zm = symmetric_raising_pair()
        mp = kron_linear_matrix(zp.form, t)
        mm = kron_linear_matrix(zm.form, t)
        e0 = np.zeros(t.dim, dtype=complex)
        e0[0] = 1.0
        for m in range(5):
            for n in range(5 - m):
                v = np.linalg.matrix_power(mp, m) @ (
                    np.linalg.matrix_power(mm, n) @ e0)
                nv = np.linalg.norm(v)
                assert nv > 0
                want = symmetric_energy(b, m, n)
                assert np.linalg.norm(h @ v - want * v) < 1e-12 * nv


def expected_blocks(h, t, conserves):
    """Shell or parity blocks cut from the dense matrix, in eigensolve order,
    grouped as the eigensolves stack them: the shells of one size together,
    groups in the order of their first shell; each parity block alone."""
    shells = list(shell_indices(t).values())
    if not conserves:
        return [[h[np.ix_(ix, ix)]] for ix in
                [np.sort(np.concatenate(shells[p::2])) for p in (0, 1)] if len(ix)]
    by_size = {}
    for ix in shells:
        by_size.setdefault(len(ix), []).append(h[np.ix_(ix, ix)])
    return list(by_size.values())


def recorded_eigvalsh(monkeypatch):
    """A list that receives a copy of every matrix stack eigvalsh is given."""
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a):
        seen.append(a.copy())
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    return seen


class TestBlockStreaming:
    """oracle_spectrum writes each block from the band sums, never h itself."""

    def test_blocks_equal_the_cut_dense_matrix(self, monkeypatch):
        # a stacked call unstacks into the blocks it solves; the shells of a
        # conserving form stack by size, and the box pairs shell s with shell
        # K n_max - s, so every group but a K = 1 form's is one such pair
        seen = recorded_eigvalsh(monkeypatch)
        forms = list(random_forms(13))
        forms += [(model_form(1.3), 6), (model_form(2.0), 5),
                  (model_form(0.5, mu=2.0), 5), (model_form(1.3), 0)]
        for q, n_max in forms:
            t = FockTruncation(n_max, q.basis.K)
            seen.clear()
            o = oracle_spectrum(q, t)
            conserves = o.shell_eigenvalues is not None
            want = expected_blocks(build_fock_matrix(q, t), t, conserves)
            assert len(seen) == len(want)
            for got, group in zip(seen, want):
                assert got.shape == ((len(group),) if conserves else ()) + group[0].shape
                for block, cut in zip(got.reshape(-1, *got.shape[-2:]), group):
                    assert block.tobytes() == cut.tobytes()
            if conserves and t.K > 1:
                sizes = [len(ix) for ix in shell_indices(t).values()]
                assert [len(group) for group in want] == [
                    1 + (s != t.K * n_max - s) for s in range(len(sizes))
                    if s <= t.K * n_max - s]

    def test_equal_parity_blocks_are_solved_one_at_a_time(self, monkeypatch):
        # at n_max 21, K = 2 has two parity blocks of 242 states: one call
        # each, so the oracle never holds both
        t = FockTruncation(21, 2)
        q = random_positive_definite_form(2, seed=3)
        seen = recorded_eigvalsh(monkeypatch)
        o = oracle_spectrum(q, t)
        assert o.shell_eigenvalues is None
        assert [a.shape for a in seen] == [(242, 242), (242, 242)]
        monkeypatch.undo()
        tracemalloc.start()
        try:
            oracle_spectrum(q, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * 16 * t.dim ** 2

    @pytest.mark.parametrize("q", [random_positive_definite_form(2, seed=3), model_form(1.3)],
                             ids=["parities", "shells"])
    def test_caches_hold_no_basis_sized_arrays(self, q):
        # what one call leaves cached (tables, plan, retained states, block
        # layout) grows with the basis by a few ints a state, not by the
        # band sums or term stacks
        t = FockTruncation(40, 2)
        for cached in (fock._mode_tables, fock._plan, fock._states, fock._layout):
            cached.cache_clear()
        tracemalloc.start()
        try:
            oracle_spectrum(q, t)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 64 * t.dim

    def test_never_builds_the_dense_matrix(self, monkeypatch):
        calls = []
        build = fock.build_fock_matrix

        def counting(q, t):
            calls.append(t)
            return build(q, t)

        monkeypatch.setattr(fock, "build_fock_matrix", counting)
        for q, n_max in [(model_form(1.3), 6), (model_form(0.5, mu=2.0), 5),
                         (random_positive_definite_form(2, seed=3), 8)]:
            oracle_spectrum(q, FockTruncation(n_max, 2))
        assert calls == []

    def test_holds_less_than_one_dense_matrix(self):
        t = FockTruncation(20, 2)
        q = random_positive_definite_form(2, seed=3)
        tracemalloc.start()
        try:
            oracle_spectrum(q, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * 16 * t.dim ** 2

    def test_non_hermitian_operator_rejected(self, monkeypatch):
        ops = fock._single_mode_ops

        def upper_p(levels):
            x, p = ops(levels)
            return x, np.triu(p)

        monkeypatch.setattr(fock, "_single_mode_ops", upper_p)
        with pytest.raises(HermiticityError, match="deviates from Hermitian"):
            oracle_spectrum(model_form(1.3), FockTruncation(4, 2))

    def test_block_eigensolver_failure(self, monkeypatch):
        def failing(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        with pytest.raises(EigensolverError,
                           match="^eigensolver did not converge: Eigenvalues did not"):
            oracle_spectrum(model_form(1.3), FockTruncation(4, 2))

    @pytest.mark.parametrize("K, n_max", [(1, 0), (2, 0), (2, 1), (2, 3), (3, 2)])
    def test_zero_form(self, K, n_max):
        # no band sums at all: every shell block is zero
        t = FockTruncation(n_max, K)
        o = oracle_spectrum(QuadraticForm(PhaseSpaceBasis(K), np.zeros((2 * K, 2 * K))), t)
        assert o.eigenvalues.tobytes() == np.zeros(t.dim).tobytes()
        assert o.shell_exact_upto == n_max
        sizes = {s: len(ix) for s, ix in shell_indices(t).items() if s <= n_max}
        assert {s: v.tobytes() for s, v in o.shell_eigenvalues.items()} == {
            s: np.zeros(size).tobytes() for s, size in sizes.items()}
        assert fock._value_clusters(o.eigenvalues) == [list(range(t.dim))]

    @pytest.mark.parametrize("q", [model_form(1.3), model_form(0.5, mu=2.0),
                                   random_positive_definite_form(2, seed=3)],
                             ids=["symmetric", "anisotropic", "random-pd"])
    def test_single_state(self, q):
        # at n_max = 0 no entry changes the total, so the one state is shell 0
        t = FockTruncation(0, 2)
        h00 = build_fock_matrix(q, t)[0, 0]
        o = oracle_spectrum(q, t)
        assert o.eigenvalues.tolist() == [h00.real]
        assert o.shell_exact_upto == 0
        assert list(o.shell_eigenvalues) == [0]
        assert o.shell_eigenvalues[0].tolist() == [h00.real]
        assert o.dim == 1


class TestBitsAgainstReference:
    """Per-offset sums and stacked shell eigensolves keep the bits of the
    per-term band loop and the per-block eigensolve loop."""

    @pytest.mark.parametrize("name, q, n_max", REFERENCE_CASES,
                             ids=[c[0] for c in REFERENCE_CASES])
    def test_band_records(self, name, q, n_max):
        # the entries of every offset in plan order: the reference's band
        # where a nonzero term feeds the offset, zeros on its band elsewhere
        t = FockTruncation(n_max, q.basis.K)
        rows, cols, values = fock._entries(fock._band_sums(q, t)[0], t, slice(None))
        want = reference_band_sums(q, t)[0]
        offsets = fock._plan(t.K).offsets
        assert set(want) <= set(offsets)
        n = n_max + 1
        index = np.arange(t.dim).reshape((n,) * t.K)
        bands = []
        for d in offsets:
            band = (index[tuple(slice(max(0, -x), n - max(0, x)) for x in d)],
                    index[tuple(slice(max(0, x), n - max(0, -x)) for x in d)])
            bands.append(want.get(d, band + (np.zeros(band[0].shape, dtype=complex),)))
        assert np.array_equal(rows, np.concatenate([r.ravel() for r, _, _ in bands]))
        assert np.array_equal(cols, np.concatenate([c.ravel() for _, c, _ in bands]))
        assert values.tobytes() == np.concatenate([v.ravel() for _, _, v in bands]).tobytes()
        h = np.zeros((t.dim, t.dim), dtype=complex)
        for r, c, v in want.values():
            h[r, c] = v
        assert build_fock_matrix(q, t).tobytes() == h.tobytes()

    @pytest.mark.parametrize("name, q, n_max", REFERENCE_CASES,
                             ids=[c[0] for c in REFERENCE_CASES])
    def test_oracle_spectrum(self, name, q, n_max):
        t = FockTruncation(n_max, q.basis.K)
        o = oracle_spectrum(q, t)
        eigenvalues, shells = reference_oracle(q, t)
        assert o.eigenvalues.tobytes() == eigenvalues.tobytes()
        if shells is None:
            assert (o.shell_eigenvalues, o.shell_exact_upto) == (None, 0)
        else:
            assert o.shell_exact_upto == n_max
            assert {s: v.tobytes() for s, v in o.shell_eigenvalues.items()} == {
                s: v.tobytes() for s, v in shells.items()}

    def test_cases_cover_both_block_kinds(self):
        # True where the form conserves total quanta
        shells = {name: reference_oracle(q, FockTruncation(n_max, q.basis.K))[1] is not None
                  for name, q, n_max in REFERENCE_CASES}
        assert shells["eps 1e-14-8"] and not shells["eps 1e-6-8"]
        assert shells["b=2-8"] and shells["b=-2-8"] and not shells["anisotropic-8"]
        assert 50 < sum(shells.values()) < len(shells) - 50


class TestComparison:
    def test_shell_mode(self):
        q = model_form(1.0)
        rep = classify_spectrum(q)
        levels = spectrum_lattice(rep, 6)
        o = oracle_spectrum(q, FockTruncation(6, 2))
        r = compare_with_lattice(o, levels, classification=rep.classification)
        assert r.mode == "shell"
        assert r.status == "PASS"
        assert r.max_abs_diff < 1e-8
        assert r.degeneracies_agree is True
        assert r.n_compared > 0
        assert abs(r.rows[0].expected_energy - 2.0) < 1e-12

    def test_variational_mode(self):
        q = random_positive_definite_form(2, seed=7)
        rep = classify_spectrum(q)
        levels = spectrum_lattice(rep, 8)
        o = oracle_spectrum(q, FockTruncation(20, 2))
        r = compare_with_lattice(o, levels, classification=rep.classification)
        assert r.mode == "variational"
        assert r.status == "PASS"
        assert r.max_abs_diff < 1e-6

    def test_critical_mode(self):
        q = model_form(2.0)
        rep = classify_spectrum(q)
        levels = spectrum_lattice(rep, 4)
        o = oracle_spectrum(q, FockTruncation(8, 2))
        r = compare_with_lattice(o, levels, classification=rep.classification)
        assert r.mode == "critical"
        assert r.status == "PASS"
        assert r.max_abs_diff < 1e-8
        assert r.degeneracies_agree is None

    @pytest.mark.parametrize("q", [
        squeezed(model_form(2.0), 1.05), squeezed(model_form(2.0), 1.2),
        squeezed(model_form(2.0), 1.5), sb_operator(1.0)],
        ids=["squeeze 1.05", "squeeze 1.2", "squeeze 1.5", "sb B=1"])
    @pytest.mark.parametrize("n_max", [12, 24])
    def test_critical_without_shells_not_applicable(self, q, n_max):
        # the truncation splits the infinitely degenerate bottom level into
        # clusters near 2 (or 1) that would be matched against 6, 10, ...
        rep = classify_spectrum(q)
        assert rep.classification is Classification.CRITICAL_INFINITE_MULTIPLICITY
        o = oracle_spectrum(q, FockTruncation(n_max, 2))
        assert o.shell_eigenvalues is None
        r = compare_with_lattice(o, spectrum_lattice(rep, n_max),
                                 classification=rep.classification)
        assert (r.status, r.mode, r.n_compared, r.rows) == (
            "NOT_APPLICABLE", "none", 0, ())
        assert r.notes == (
            "infinite multiplicity without shell structure; a truncation "
            "cannot resolve the levels above the bottom level")

    def test_squeezed_critical_model_keeps_its_verdict(self):
        # S = diag(s, 1, 1/s, 1) is symplectic: the same Hamiltonian in other
        # variables, so the b = 2 verdict and generators (4, 0) stay
        rep = classify_spectrum(squeezed(model_form(2.0), 1.2))
        assert rep.classification is Classification.CRITICAL_INFINITE_MULTIPLICITY
        assert rep.lattice_generators == pytest.approx((4.0, 0.0), abs=1e-12)

    def test_unbounded_not_applicable(self):
        q = model_form(3.0)
        rep = classify_spectrum(q)
        levels = spectrum_lattice(rep, 3)
        o = oracle_spectrum(q, FockTruncation(6, 2))
        r = compare_with_lattice(o, levels, classification=rep.classification)
        assert r.status == "NOT_APPLICABLE"
        assert r.mode == "none"
        assert r.n_compared == 0

    def test_empty_lattice_not_applicable(self):
        q = model_form(1.0)
        o = oracle_spectrum(q, FockTruncation(4, 2))
        r = compare_with_lattice(o, [], classification=None)
        assert r.status == "NOT_APPLICABLE"

    def test_max_levels_window(self):
        q = model_form(1.0)
        rep = classify_spectrum(q)
        levels = spectrum_lattice(rep, 6)
        o = oracle_spectrum(q, FockTruncation(6, 2))
        r = compare_with_lattice(o, levels, max_levels=3,
                                 classification=rep.classification)
        assert r.status == "PASS"
        assert r.n_compared <= sum(
            lv.degeneracy for lv in levels[:3]) + len(levels)

    @pytest.mark.parametrize("max_levels", [0, -1, True, math.nan, 2.5, 2.0, "3"])
    def test_max_levels_below_one_rejected(self, max_levels):
        # a window of no levels compares nothing, and a negative one would
        # slice from the end of the level list; a count is an integer, not
        # a bool, a float or a string
        q = model_form(1.0)
        rep = classify_spectrum(q)
        o = oracle_spectrum(q, FockTruncation(6, 2))
        with pytest.raises(ValueError, match="max_levels"):
            compare_with_lattice(o, spectrum_lattice(rep, 6), max_levels=max_levels,
                                 classification=rep.classification)

    @pytest.mark.parametrize("b, max_levels", [(1.3, 10), (1.3, None), (2.0, 10)],
                             ids=["shell", "shell-all-levels", "critical"])
    def test_pooled_shells_average_only_the_compared_clusters(
            self, b, max_levels, monkeypatch):
        q = model_form(b)
        rep = classify_spectrum(q)
        # a deeper lattice than the truncation makes the level counts differ
        levels = spectrum_lattice(rep, 14)
        o = oracle_spectrum(q, FockTruncation(12, 2))
        pooled = np.sort(np.concatenate(list(o.shell_eigenvalues.values())))
        want = [(float(np.mean(pooled[g])), len(g)) for g in fock._value_clusters(pooled)]
        means = []
        mean = np.mean

        def counting(a, *args, **kwargs):
            means.append(len(a))
            return mean(a, *args, **kwargs)

        monkeypatch.setattr(np, "mean", counting)
        r = compare_with_lattice(o, levels, max_levels=max_levels,
                                 classification=rep.classification)
        monkeypatch.undo()
        assert len(means) == r.n_compared
        assert r.n_compared == (len(want) if max_levels is None else max_levels)
        shell = r.mode == "shell"
        assert [(row.observed_energy, row.observed_degeneracy) for row in r.rows] == [
            (e, c if shell else None) for e, c in want[:r.n_compared]]
        if max_levels is None:
            assert f"oracle {len(want)}), compared the lowest {len(want)}" in r.notes
