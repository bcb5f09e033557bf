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
        # the Hermiticity check compares the sums of d and -d entry by entry,
        # so the rows of -d must be the columns of d, in the same order
        for q, n_max in random_forms(14):
            t = FockTruncation(n_max, q.basis.K)
            occ = np.array(occupancies(t))
            records, _ = fock._checked_band_sums(q, t)
            for d, (rows, cols, sums) in records.items():
                assert rows.shape == cols.shape == sums.shape
                assert np.array_equal(records[tuple(-x for x in d)][0], cols)
                # every entry <o| . |o + d> with o and o + d in the box, once
                inside = np.all((occ + d >= 0) & (occ + d <= n_max), axis=1)
                assert np.array_equal(np.sort(rows.ravel()), np.flatnonzero(inside))
                assert np.all(occ[cols.ravel()] - occ[rows.ravel()] == d)

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
    """Shell or parity blocks cut from the dense matrix, in eigensolve order."""
    shells = list(shell_indices(t).values())
    if not conserves:
        shells = [np.sort(np.concatenate(shells[p::2])) for p in (0, 1)]
    return [h[np.ix_(ix, ix)] for ix in shells]


class TestBlockStreaming:
    """oracle_spectrum writes each block from the band sums, never h itself."""

    def test_blocks_equal_the_cut_dense_matrix(self, monkeypatch):
        seen = []
        eigvalsh = np.linalg.eigvalsh

        def recording(a):
            seen.append(a.copy())
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        forms = list(random_forms(13))
        forms += [(model_form(1.3), 6), (model_form(2.0), 5),
                  (model_form(0.5, mu=2.0), 5)]
        for q, n_max in forms:
            t = FockTruncation(n_max, q.basis.K)
            seen.clear()
            o = oracle_spectrum(q, t)
            want = expected_blocks(build_fock_matrix(q, t), t,
                                   o.shell_eigenvalues is not None)
            assert len(seen) == len(want)
            for got, block in zip(seen, want):
                assert got.shape == block.shape
                assert got.tobytes() == block.tobytes()

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
