import copy
import dataclasses
import math
import operator
import pickle
import struct

import numpy as np
import pytest

from conftest import random_symmetric, scaled_tolerances
from quadham import (
    Classification,
    LadderCheckError,
    LatticeCapError,
    LatticeLevel,
    LatticeUnavailableError,
    LinearForm,
    NonRealFrequencyError,
    PairingError,
    PhaseSpaceBasis,
    QuadhamError,
    QuadraticForm,
    adjoint_representation,
    build_model,
    classify_spectrum,
    DimensionlessModel,
    EigensolverError,
    eigen_decompose,
    ladder_check,
    linear_commutator,
    make_quadratic_form,
    pair_frequencies,
    phase_scan,
    random_positive_definite_form,
    spectrum_lattice,
    sb_operator,
    SpectrumReport,
)
from quadham import spectral
from quadham import tolerances as tol
from quadham.spectral import _cluster


def model_form(b, mu=1.0, k=1.0):
    return build_model(DimensionlessModel(mu=mu, k=k, b=b))


def gamma_stack(forms):
    """The (n, 2K, 2K) gamma stack that `spectral._verdicts` takes."""
    return np.array([q.gamma for q in forms])


def zero_offset(q):
    """q with offset 0.0, the offset `spectral._verdicts` judges at."""
    return QuadraticForm(q.basis, q.gamma, 0.0)


class TestCluster:
    T = 1e-9

    def test_groups_anchor_to_first_member(self):
        # 1.2t is within t of 0.6t but not of the group's first member 0
        t = self.T
        assert _cluster([1.2 * t, 0.0, 0.6 * t], t) == [[1, 2], [0]]

    def test_complex_value_joins_its_earlier_cluster(self):
        # sorted by real part the order is a1, b1, a2: a2 lands after the
        # other cluster's member and still joins a1's group
        a1, b1, a2 = 1.0 + 1.0j, 1.0 + 1e-13 - 1.0j, 1.0 + 2e-13 + 1.0j
        assert _cluster([a2, b1, a1], self.T) == [[2, 0], [1]]

    def test_real_values_in_sorted_order(self):
        vals = [3.0, 1.0, 2.0 + 5e-10, 2.0, 1.0 + 2e-10]
        assert _cluster(vals, self.T) == [[1, 4], [3, 2], [0]]


class TestEigenDecompose:
    def test_model_frequencies(self, rng):
        for _ in range(25):
            b = float(rng.uniform(-5, 5))
            e = eigen_decompose(adjoint_representation(model_form(b)))
            got = np.sort(e.eigenvalues.real)
            expected = np.sort([-2 - b, 2 - b, b - 2, 2 + b])
            assert np.max(np.abs(e.eigenvalues.imag)) < 1e-12
            assert np.max(np.abs(got - expected)) < 1e-12

    def test_simple_spectrum_not_defective(self):
        e = eigen_decompose(adjoint_representation(model_form(0.7)))
        assert not e.defective
        assert all(c.algebraic == c.geometric == 1 for c in e.clusters)

    def test_defective_single_mode(self):
        # x^2 alone: the adjoint is nilpotent with a one-dimensional kernel
        q = make_quadratic_form(1, [(1, 1, 1.0)])
        e = eigen_decompose(adjoint_representation(q))
        assert len(e.clusters) == 1
        c = e.clusters[0]
        assert abs(c.value) < 1e-12
        assert c.algebraic == 2
        assert c.geometric == 1
        assert e.defective

    def test_zero_form_full_kernel(self):
        q = QuadraticForm(PhaseSpaceBasis(2), np.zeros((4, 4)), 0.0)
        e = eigen_decompose(adjoint_representation(q))
        assert len(e.clusters) == 1
        assert e.clusters[0].algebraic == 4
        assert e.clusters[0].geometric == 4
        assert not e.defective

    def test_coalescence_stays_diagonalisable(self):
        e = eigen_decompose(adjoint_representation(model_form(2.0)))
        zero = [c for c in e.clusters if abs(c.value) < 1e-9]
        assert len(zero) == 1
        assert zero[0].algebraic == 2
        assert zero[0].geometric == 2
        assert not e.defective



class TestStackedDecomposition:
    """`spectral._verdicts` makes one LAPACK call per stage over a stack of
    gammas; each slice must decompose and judge as a call on its form alone."""

    FORMS = [model_form(1.3), model_form(3.0), model_form(0.0),
             # R's eigenvalues are all real for these two (distinct, then
             # double) and not for the model forms, so the stacked eig
             # returns complex arrays for them too
             QuadraticForm(PhaseSpaceBasis(2), np.diag([1.0, 2.0, -1.0, -3.0]), 0.0),
             QuadraticForm(PhaseSpaceBasis(2), np.diag([1.0, 1.0, -1.0, -1.0]), 0.5)]
    # the samples the fast path leaves to `_decomposition`: the double
    # frequency of b = 0 and the two real eig rows
    FALLBACK = [2, 3, 4]

    def test_slices_match_single_calls(self, monkeypatch):
        seen = []
        decomposition = spectral._decomposition
        monkeypatch.setattr(spectral, "_decomposition",
                            lambda *args: seen.append(decomposition(*args)) or seen[-1])
        verdicts = list(spectral._verdicts(gamma_stack(self.FORMS)))
        monkeypatch.undo()
        # a fallback sample is made a form of its own, so it is matched by gamma
        assert ([e.source.source.gamma.tobytes() for e in seen]
                == [self.FORMS[i].gamma.tobytes() for i in self.FALLBACK])
        for i, e in zip(self.FALLBACK, seen):
            ref = eigen_decompose(adjoint_representation(self.FORMS[i]))
            for got, want in ((e.eigenvalues, ref.eigenvalues),
                              (e.eigenvectors, ref.eigenvectors)):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
            assert repr(e.matrix_norm) == repr(ref.matrix_norm)
            assert ([(repr(c.value), c.algebraic, c.geometric, c.indices) for c in e.clusters]
                    == [(repr(c.value), c.algebraic, c.geometric, c.indices)
                        for c in ref.clusters])
        for q, v in zip(self.FORMS, verdicts):
            single = spectral._verdict(zero_offset(q))
            for field in ("classification", "note", "ground_energy", "vacuum_energy",
                          "generators", "gamma_min"):
                assert repr(getattr(v, field)) == repr(getattr(single, field))
        assert seen[1].eigenvectors.dtype == np.float64

    def test_residual_check_per_matrix(self, monkeypatch):
        # a form's R and each slice of the stacked R are the one expression
        q = model_form(1.3)
        want = np.real(-1j * adjoint_representation(q).entries).tobytes()
        assert spectral._generator(q).tobytes() == want
        seen = []
        lapack = spectral._lapack
        monkeypatch.setattr(spectral, "_lapack",
                            lambda solver, a, **kw: seen.append(a) or lapack(solver, a, **kw))
        spectral._verdicts(gamma_stack([q, q]))
        assert [R.tobytes() for R in seen[0]] == [want, want]

    @pytest.mark.parametrize("solver, shape", [
        (np.linalg.svd, (4, 4)), (np.linalg.eigh, (4, 4)), (np.linalg.eigvalsh, (4, 4)),
        # `_verdicts`' stacked eig
        (np.linalg.eig, (2, 4, 4))], ids=["svd", "eigh", "eigvalsh", "eig"])
    def test_every_lapack_failure_is_an_eigensolver_error(self, solver, shape):
        with pytest.raises(EigensolverError, match="^eigensolver did not converge: "):
            spectral._lapack(solver, np.full(shape, np.nan))

    @pytest.mark.parametrize("run", [
        classify_spectrum, lambda q: eigen_decompose(adjoint_representation(q))],
        ids=["classify", "decompose"])
    def test_overflowing_cluster_svd_is_an_eigensolver_error(self, run):
        # the b = 1e308 model's cluster mean overflows to inf, and the SVD of
        # M - inf I fails to converge
        with np.errstate(all="ignore"), pytest.raises(
                EigensolverError,
                match="^eigensolver did not converge: SVD did not converge$"):
            run(model_form(1e308))


def mode_form(modes, rng):
    """A direct sum of one-mode normal forms a x_j^2 + c p_j^2, one per kind."""
    coeffs = {
        "osc+": lambda: (rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)),
        "osc-": lambda: (-rng.uniform(0.5, 2.0), -rng.uniform(0.5, 2.0)),
        "zero": lambda: (0.0, 0.0),
        "free": lambda: (rng.uniform(0.5, 2.0), 0.0),
        "hyper": lambda: (rng.uniform(0.5, 2.0), -rng.uniform(0.5, 2.0)),
    }
    a, c = zip(*(coeffs[m]() for m in modes))
    return QuadraticForm(PhaseSpaceBasis(len(modes)), np.diag(a + c), float(rng.uniform(-1, 1)))


def symplectic_copy(q, rng):
    """q under the congruence S = diag(A, A^-T) [[I, B], [0, I]], B symmetric."""
    K = q.basis.K
    A = np.eye(K) + 0.3 * rng.standard_normal((K, K))
    B = random_symmetric(rng, K, 0.3)
    S = np.block([[A, np.zeros((K, K))], [np.zeros((K, K)), np.linalg.inv(A).T]])
    S = S @ np.block([[np.eye(K), B], [np.zeros((K, K)), np.eye(K)]])
    g = S.T @ q.gamma @ S
    return QuadraticForm(q.basis, (g + g.T) / 2.0, q.offset)


class TestFastVerdicts:
    """`spectral._verdicts` decides most samples by array code; every verdict
    must still equal `_verdict` of that form alone, bit for bit."""

    FIELDS = ("classification", "note", "ground_energy", "vacuum_energy",
              "generators", "gamma_min")
    # the double frequency of b = 0 and the sliver where +-delta merge
    FALLBACK_EDGES = [model_form(0.0), model_form(2.0 - 1e-9), model_form(2.0 + 1e-9),
                      model_form(-2.0 - 1e-9), model_form(-2.0 + 1e-9)]
    # gamma has a 1-dimensional kernel at each: a split Jordan block
    JORDAN_POINTS = [model_form(2.0, 0.5, 1.0), model_form(2.0, 1.0, 2.0),
                     model_form(1.0, 4.0, 1.0), model_form(math.sqrt(2.0), 2.0, 1.0),
                     model_form(2.0, 2.0, 1.0)]

    @staticmethod
    def squeezed(s, K):
        """s x^2 + p^2 / s beside K - 1 oscillators of other frequencies:
        frequency 2 and a Gram entry of about 2 / s."""
        d = [s] + [1.0] * (K - 1) + [1.0 / s] + [1.5, 2.5][:K - 1]
        return QuadraticForm(PhaseSpaceBasis(K), np.diag(d), 0.0)

    @staticmethod
    def split(delta, K):
        """x^2 + p^2 beside a mode (1 + delta)(y^2 + p_y^2) and, at K = 3, a
        third of frequency 3."""
        d = [1.0, 1.0 + delta, 1.5][:K]
        return QuadraticForm(PhaseSpaceBasis(K), np.diag(d + d), 0.0)

    def corpus(self, K, rng):
        forms = []
        for kinds in (["osc+"] * K, ["osc-"] * K, ["osc-"] + ["osc+"] * (K - 1),
                      ["zero"] + ["osc+"] * (K - 1), ["free"] + ["osc+"] * (K - 1),
                      ["hyper"] + ["osc+"] * (K - 1)):
            q = mode_form(kinds, rng)
            forms += [q, symplectic_copy(q, rng)]
        for _ in range(12):
            kinds = rng.choice(["osc+", "osc-", "zero", "free", "hyper"], size=K)
            forms.append(symplectic_copy(mode_form(list(kinds), rng), rng))
        forms += [QuadraticForm(PhaseSpaceBasis(K), random_symmetric(rng, 2 * K), 0.25)
                  for _ in range(12)]
        forms += [random_positive_definite_form(K, int(seed))
                  for seed in rng.integers(0, 1000, size=4)]
        forms += [self.squeezed(3.16e4 * 2.0 ** j, K) for j in range(-3, 3)]
        if K > 1:
            # frequencies 2 and 2 + 2 delta, merged by the clusters up to
            # delta ~ t and sent back up to ~ 5 t
            forms += [self.split(delta, K) for delta in (3e-10, 3e-9, 1e-8, 3e-8, 1e-6)]
        if K == 2:
            forms += self.FALLBACK_EDGES + self.JORDAN_POINTS
            forms += [model_form(b, mu, k) for b, mu, k in rng.uniform(
                [-4.0, 0.25, 0.25], [4.0, 4.0, 4.0], size=(12, 3)).tolist()]
        return [forms[i] for i in rng.permutation(len(forms))]

    @staticmethod
    def run(forms, monkeypatch):
        """_verdicts of the forms' gammas and the gamma bytes of the samples
        it sent to `_decomposition`."""
        seen = []
        decomposition = spectral._decomposition
        monkeypatch.setattr(spectral, "_decomposition",
                            lambda m, *args: seen.append(m.source.gamma.tobytes())
                            or decomposition(m, *args))
        try:
            return spectral._verdicts(gamma_stack(forms)), seen
        finally:
            monkeypatch.undo()

    @pytest.mark.parametrize("scale", ("1", "1e6", "1e8"))
    @pytest.mark.parametrize("K", (1, 2, 3))
    def test_mixed_stacks_match_single_verdicts(self, K, scale, monkeypatch):
        forms = self.corpus(K, np.random.default_rng(100 * K + len(scale)))
        with scaled_tolerances(scale):
            singles, kept = [], []
            for q in forms:
                try:
                    singles.append(spectral._verdict(zero_offset(q)))
                    kept.append(q)
                except QuadhamError as exc:
                    # a form without a verdict fails its stack the same way
                    with pytest.raises(type(exc)) as info:
                        spectral._verdicts(gamma_stack([q]))
                    assert str(info.value) == str(exc)
            verdicts, fallback = self.run(kept, monkeypatch)
        assert len(kept) >= len(forms) // 2
        for v, single in zip(verdicts, singles):
            for field in self.FIELDS:
                assert repr(getattr(v, field)) == repr(getattr(single, field))
        for q in self.FALLBACK_EDGES:
            assert all(f is not q for f in kept) or q.gamma.tobytes() in fallback
        if scale == "1":
            assert {v.classification for v in verdicts} == set(Classification)
            fast = [v for q, v in zip(kept, verdicts) if q.gamma.tobytes() not in fallback]
            assert any(v.classification is Classification.NON_REAL_FREQUENCIES
                       for v in fast) == (K > 1)
            assert any(v.classification is Classification.BOUNDED_BELOW_DISCRETE
                       for v in fast)
            assert any(v.classification is Classification.UNBOUNDED_LATTICE
                       for v in fast)
            # the Gram-entry guard: a positive member's mu scales by c^2
            # with its eigenvector column
            J = spectral._symplectic(K)
            R = np.real(-1j * (2j * (gamma_stack([self.split(1.0, K)]) @ J)))
            w, V = np.linalg.eig(R)
            norms = np.linalg.svd(R, compute_uv=False)[:, 0]
            positive = int(np.argmax((1j * w).real[0]))
            for c, admitted in ((1.0, True), (1e-3, True), (3e-5, False)):
                Vc = V.copy()
                Vc[0, :, positive] *= c
                assert spectral._fast_path(w, Vc, J, norms)[1] == [admitted], c

    def test_benchmark_sweep_coverage(self, monkeypatch):
        forms = [model_form(b) for b in np.linspace(-3.5058, 3.5058, 101).tolist()]
        _, fallback = self.run(forms, monkeypatch)
        assert fallback == [forms[50].gamma.tobytes()]  # b = 0 exactly

    def test_anisotropic_stack_coverage(self, monkeypatch):
        # bounded, non-real (2.28 < |b| < 2.39) and unbounded samples
        forms = [model_form(b, 0.7, 1.3) for b in np.linspace(-3.5, 3.5, 10001).tolist()]
        verdicts, fallback = self.run(forms, monkeypatch)
        assert len(fallback) <= 500
        assert {v.classification for v in verdicts} == {
            Classification.BOUNDED_BELOW_DISCRETE, Classification.NON_REAL_FREQUENCIES,
            Classification.UNBOUNDED_LATTICE}


class TestGramScale:
    """mu of a unit eigenvector is dimensionless (|mu| <= 1), so the Gram
    guards hold at any scale of the form, where the frequency tolerance
    grows with the adjoint norm past 1."""

    def test_scaled_form_stays_bounded(self):
        q = model_form(1.0)
        for k in range(31, 61):
            r = classify_spectrum(QuadraticForm(q.basis, q.gamma * 2.0 ** k, 0.0))
            assert r.classification is Classification.BOUNDED_BELOW_DISCRETE, k
            assert r.lattice_generators == pytest.approx(
                (3.0 * 2.0 ** k, 2.0 ** k), rel=1e-12, abs=0.0), k

    @pytest.mark.parametrize("b", (1e10, -1e10, 1e12, -1e12, 5e307, -5e307))
    def test_strong_field_is_unbounded(self, b):
        unbounded = Classification.UNBOUNDED_LATTICE
        assert classify_spectrum(model_form(b)).classification is unbounded
        assert [s.classification for s in phase_scan(b, b, 1).samples] == [unbounded]

    @pytest.mark.parametrize("k", (0, 30))
    def test_no_shear_of_the_free_particle_reads_a_lattice(self, k):
        # p^2 is one Jordan block at 0; rounding in a shear's eig can split
        # it into +-omega with omega ~ 1e-7 and a Gram entry mu ~ omega / ||R||,
        # which the null bar |mu| (1 + omega) <= t_zero must still reject
        p2 = np.diag([0.0, 1.0]) * 2.0 ** k
        shears = [np.array([[1.0, a], [0.0, 1.0]]) @ np.array([[1.0, 0.0], [b, 1.0]])
                  @ np.array([[1.0, c], [0.0, 1.0]])
                  for a in range(-3, 4) for b in range(-3, 4) for c in range(-3, 4)]
        read = []
        for S in shears:
            try:
                r = classify_spectrum(QuadraticForm(PhaseSpaceBasis(1), S.T @ p2 @ S, 0.0))
                read.append(r.classification)
            except PairingError:
                read.append("PairingError")
        assert len(read) == 343
        assert set(read) <= {Classification.DEFECTIVE_EXCEPTIONAL,
                             Classification.NON_REAL_FREQUENCIES, "PairingError"}


class TestPairFrequencies:
    def commutator_matrix(self, pairs):
        n = len(pairs)
        low_raise = np.empty((n, n), dtype=complex)
        for i, pi in enumerate(pairs):
            for j, pj in enumerate(pairs):
                low_raise[i, j] = linear_commutator(pi.lowering, pj.raising)
        return low_raise

    def test_model_pairs(self):
        for b in (0.0, 0.5, 1.0, 1.7, 3.0):
            e = eigen_decompose(adjoint_representation(model_form(b)))
            pairs = pair_frequencies(e)
            assert len(pairs) == 2
            lams = sorted(p.lambda_plus for p in pairs)
            assert np.allclose(lams, sorted([abs(2 - b), 2 + b]), atol=1e-12)
            c = self.commutator_matrix(pairs)
            assert np.allclose(c, np.eye(2), atol=1e-10)

    def test_degenerate_frequencies_b0(self):
        # both pairs sit at lambda = 2; the pairing must still split them
        e = eigen_decompose(adjoint_representation(model_form(0.0)))
        pairs = pair_frequencies(e)
        assert [round(p.lambda_plus, 12) for p in pairs] == [2.0, 2.0]
        c = self.commutator_matrix(pairs)
        assert np.allclose(c, np.eye(2), atol=1e-10)
        # cross commutators between raising members vanish
        rr = linear_commutator(pairs[0].raising, pairs[1].raising)
        assert abs(rr) < 1e-10

    def test_zero_group_pairing(self):
        # b = 2: frequencies {-4, 0, 0, 4}; the zero group pairs internally
        e = eigen_decompose(adjoint_representation(model_form(2.0)))
        pairs = pair_frequencies(e)
        lams = sorted(round(p.lambda_plus, 9) for p in pairs)
        assert lams == [0.0, 4.0]
        c = self.commutator_matrix(pairs)
        assert np.allclose(c, np.eye(2), atol=1e-10)

    def test_random_pd_forms(self, rng):
        for K in (1, 2, 3):
            for seed in range(5):
                q = random_positive_definite_form(K, seed=seed + 100 * K)
                e = eigen_decompose(adjoint_representation(q))
                pairs = pair_frequencies(e)
                assert len(pairs) == K
                assert all(p.lambda_plus > 0 for p in pairs)
                assert all(abs(p.norm_constant - 1.0) < 1e-9 for p in pairs)
                c = self.commutator_matrix(pairs)
                assert np.allclose(c, np.eye(K), atol=1e-9)

    def test_nonreal_rejected(self):
        # x^2 - p^2 has hyperbolic flow: purely imaginary frequency pair
        q = make_quadratic_form(1, [(1, 1, 1.0), (2, 2, -1.0)])
        e = eigen_decompose(adjoint_representation(q))
        with pytest.raises(NonRealFrequencyError):
            pair_frequencies(e)

    def test_lowering_is_conjugate(self):
        e = eigen_decompose(adjoint_representation(model_form(1.0)))
        pairs = pair_frequencies(e)
        for p in pairs:
            assert np.array_equal(p.lowering.coeffs, np.conj(p.raising.coeffs))


class TestLadderCheck:
    def test_model_ladders(self):
        from quadham import symmetric_ladders
        for b in (0.0, 1.3, -2.7, 4.0):
            q = model_form(b)
            for ladder, freq in zip(symmetric_ladders(),
                                    (-2 - b, 2 - b, -2 + b, 2 + b)):
                lam = ladder_check(q, ladder.form)
                assert abs(lam - freq) < 1e-12

    def test_zero_vector_rejected(self):
        q = model_form(1.0)
        z = LinearForm(PhaseSpaceBasis(2), np.zeros(4))
        with pytest.raises(ValueError):
            ladder_check(q, z)

    def test_non_ladder_rejected(self):
        q = model_form(1.0)
        z = LinearForm(PhaseSpaceBasis(2), [1.0, 1.0, 0.0, 0.0])
        with pytest.raises(LadderCheckError) as info:
            ladder_check(q, z)
        assert info.value.residual > 0.0

    def test_different_bases_rejected(self):
        z = LinearForm(PhaseSpaceBasis(1), [1.0, 1j])
        with pytest.raises(ValueError,
                           match="^form and candidate live on different bases$"):
            ladder_check(model_form(1.0), z)

    def test_imaginary_eigenvalue_rejected(self):
        # H = xp + px has M = 2i diag(-1, 1): x is an exact eigenvector at -2i
        q = make_quadratic_form(1, [(1, 2, 1.0), (2, 1, 1.0)])
        with pytest.raises(LadderCheckError, match="non-real part") as info:
            ladder_check(q, LinearForm(PhaseSpaceBasis(1), [1.0, 0.0]))
        assert info.value.residual == 0.0

    def test_shares_the_decomposition_norm(self, monkeypatch):
        # one SVD gives the norm of R to the verdict and to every check
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda *args, **kw: calls.append(kw) or svd(*args, **kw))
        q = model_form(1.3)
        for p in classify_spectrum(q).pairs:
            ladder_check(q, p.raising)
            ladder_check(q, p.lowering)
        assert calls == [{"compute_uv": False}]
        assert (spectral._derived(q, spectral._adjoint_norm)
                == eigen_decompose(adjoint_representation(q)).matrix_norm)

    @pytest.mark.parametrize("index", range(4))
    def test_overflowing_form_fails(self, index):
        # the Rayleigh quotient overflows, so the residual and Im lambda are
        # NaN; NaN must fail both tolerance tests instead of passing them
        from quadham import symmetric_ladders
        q = model_form(1e308)
        with np.errstate(all="ignore"), pytest.raises(LadderCheckError) as info:
            ladder_check(q, symmetric_ladders()[index].form)
        assert math.isnan(info.value.residual)


class TestClassification:
    def test_model_grid(self):
        expected = {
            0.0: Classification.BOUNDED_BELOW_DISCRETE,
            1.0: Classification.BOUNDED_BELOW_DISCRETE,
            1.9: Classification.BOUNDED_BELOW_DISCRETE,
            -1.999: Classification.BOUNDED_BELOW_DISCRETE,
            2.0: Classification.CRITICAL_INFINITE_MULTIPLICITY,
            -2.0: Classification.CRITICAL_INFINITE_MULTIPLICITY,
            2.001: Classification.UNBOUNDED_LATTICE,
            3.0: Classification.UNBOUNDED_LATTICE,
            -10.0: Classification.UNBOUNDED_LATTICE,
        }
        for b, cls in expected.items():
            assert classify_spectrum(model_form(b)).classification is cls, b

    def test_bounded_report(self):
        rep = classify_spectrum(model_form(1.0))
        assert abs(rep.ground_energy - 2.0) < 1e-12
        assert rep.vacuum_energy == rep.ground_energy
        assert sorted(rep.lattice_generators) == pytest.approx([1.0, 3.0],
                                                               abs=1e-12)

    def test_critical_report(self):
        rep = classify_spectrum(model_form(2.0))
        assert abs(rep.ground_energy - 2.0) < 1e-12
        gens = sorted(rep.lattice_generators)
        assert gens[0] == 0.0
        assert abs(gens[1] - 4.0) < 1e-12
        assert "infinite" in rep.multiplicity_note

    def test_unbounded_report(self):
        rep = classify_spectrum(model_form(3.0))
        assert rep.ground_energy is None
        assert sorted(rep.lattice_generators) == pytest.approx([-1.0, 5.0],
                                                               abs=1e-12)
        assert abs(rep.vacuum_energy - 2.0) < 1e-12

    def test_nonreal_report(self):
        q = make_quadratic_form(1, [(1, 1, 1.0), (2, 2, -1.0)])
        rep = classify_spectrum(q)
        assert rep.classification is Classification.NON_REAL_FREQUENCIES
        assert rep.pairs == ()
        assert rep.ground_energy is None
        assert rep.vacuum_energy is None

    def test_defective_report(self):
        rep = classify_spectrum(sb_operator(0.0))
        assert rep.classification is Classification.DEFECTIVE_EXCEPTIONAL
        assert rep.pairs == ()

    @pytest.mark.parametrize("q, cls", [
        (model_form(1.0), Classification.BOUNDED_BELOW_DISCRETE),
        (model_form(2.0), Classification.CRITICAL_INFINITE_MULTIPLICITY),
        (model_form(-2.0), Classification.CRITICAL_INFINITE_MULTIPLICITY),
        (model_form(3.0), Classification.UNBOUNDED_LATTICE),
        (make_quadratic_form(1, [(1, 1, 1.0)]), Classification.DEFECTIVE_EXCEPTIONAL),
        (make_quadratic_form(1, [(1, 2, 1.0), (2, 1, 1.0)]),
         Classification.NON_REAL_FREQUENCIES),
    ])
    def test_report_carries_gamma_min(self, q, cls):
        # every class carries the smallest eigenvalue of gamma, bit for bit
        rep = classify_spectrum(q)
        assert rep.classification is cls
        expected = float(np.linalg.eigvalsh(q.gamma)[0])
        assert struct.pack("d", rep.gamma_min) == struct.pack("d", expected)

    @pytest.mark.parametrize("k", [k for k in range(-149, 150) if k != 0])
    def test_sb_operator_couplings_pair(self, k):
        # the 2-fold zero eigenvalue has a full eigenspace at every B != 0,
        # even where the general eigensolver returns parallel vectors for it
        B = k / 100
        rep = classify_spectrum(sb_operator(B))
        assert rep.classification is Classification.CRITICAL_INFINITE_MULTIPLICITY
        assert rep.lattice_generators[0] == pytest.approx(2 * abs(B), abs=1e-12)
        assert rep.lattice_generators[1] == 0.0

    def test_offset_shifts_energies(self):
        q = QuadraticForm(PhaseSpaceBasis(2), model_form(1.0).gamma, 1.5)
        rep = classify_spectrum(q)
        assert abs(rep.ground_energy - 3.5) < 1e-12

    def test_anisotropic_bounded(self):
        rep = classify_spectrum(model_form(0.5, mu=2.0, k=0.25))
        assert rep.classification is Classification.BOUNDED_BELOW_DISCRETE
        assert rep.ground_energy > 0


class TestSpectrumLattice:
    def test_bounded_brute_force(self):
        rep = classify_spectrum(model_form(1.0))
        levels = spectrum_lattice(rep, 3)
        # independent enumeration: E = 2 + 3 m + n over m + n <= 3
        table = {}
        for m in range(4):
            for n in range(4 - m):
                table.setdefault(round(2 + 3 * m + n, 9), []).append((m, n))
        expected = sorted(table.items())
        assert len(levels) == len(expected)
        for lv, (energy, states) in zip(levels, expected):
            assert abs(lv.energy - energy) < 1e-9
            assert lv.degeneracy == len(states)
            assert sorted(lv.states) == sorted(states)
            assert not lv.infinite

    def test_generator_order_matches_states(self):
        # first state slot belongs to the larger generator (pairs sorted
        # descending), so (1, 0) costs more than (0, 1)
        rep = classify_spectrum(model_form(1.0))
        levels = spectrum_lattice(rep, 2)
        by_state = {lv.states[0]: lv.energy for lv in levels
                    if lv.degeneracy == 1}
        assert abs(by_state[(1, 0)] - 5.0) < 1e-12
        assert abs(by_state[(0, 1)] - 3.0) < 1e-12

    def test_critical_levels(self):
        rep = classify_spectrum(model_form(2.0))
        levels = spectrum_lattice(rep, 4)
        assert [round(lv.energy, 9) for lv in levels] == [2.0, 6.0, 10.0,
                                                          14.0, 18.0]
        assert all(lv.infinite for lv in levels)
        assert all(len(lv.states[0]) == 1 for lv in levels)

    def test_unbounded_levels(self):
        rep = classify_spectrum(model_form(3.0))
        levels = spectrum_lattice(rep, 2)
        # sorted by total quanta then energy; energies drop below the anchor
        energies = [round(lv.energy, 9) for lv in levels]
        assert energies == [2.0, 1.0, 7.0, 0.0, 6.0, 12.0]
        assert all(not lv.infinite for lv in levels)

    def test_unavailable(self):
        rep = classify_spectrum(sb_operator(0.0))
        with pytest.raises(LatticeUnavailableError):
            spectrum_lattice(rep, 3)

    def test_report_without_an_anchor(self):
        rep = SpectrumReport(Classification.BOUNDED_BELOW_DISCRETE, (), None, (1.0,),
                             "")
        with pytest.raises(LatticeUnavailableError,
                           match="^report carries no anchor energy$"):
            spectrum_lattice(rep, 3)

    def test_max_quanta_validation(self):
        rep = classify_spectrum(model_form(1.0))
        for max_quanta in (-1, 2.5, 2.0, True, math.nan, math.inf, "3"):
            with pytest.raises(ValueError, match="max_quanta must be a "
                                                 "non-negative integer"):
                spectrum_lattice(rep, max_quanta)
        levels = [(lv.energy, lv.states) for lv in spectrum_lattice(rep, np.int64(2))]
        assert levels == [(lv.energy, lv.states) for lv in spectrum_lattice(rep, 2)]

    def test_degenerate_merge(self):
        # b = 0: E = 2 + 2(m + n), level s has s + 1 states
        rep = classify_spectrum(model_form(0.0))
        levels = spectrum_lattice(rep, 3)
        assert [lv.degeneracy for lv in levels] == [1, 2, 3, 4]
        assert [round(lv.energy, 9) for lv in levels] == [2.0, 4.0, 6.0, 8.0]

    def test_indefinite_shell_order(self):
        # x1^2 + p1^2 + x2^2 + p2^2 - x3^2 - p3^2: generators (2, 2, -2)
        g = np.diag([1.0, 1.0, -1.0, 1.0, 1.0, -1.0])
        rep = classify_spectrum(QuadraticForm(PhaseSpaceBasis(3), g, 0.0))
        assert rep.classification is Classification.UNBOUNDED_LATTICE
        assert rep.lattice_generators == pytest.approx((2.0, 2.0, -2.0),
                                                       abs=1e-12)
        levels = spectrum_lattice(rep, 1)
        assert [round(lv.energy, 9) for lv in levels] == [1.0, -1.0, 3.0]
        assert levels[1].states == ((0, 0, 1),)
        assert levels[2].states == ((0, 1, 0), (1, 0, 0))
        assert levels[2].degeneracy == 2

    @pytest.mark.parametrize("cls,gens,states", [
        # unbounded levels keep (energy, quanta) order: (1,0,1) sits 1e-12
        # below (0,2,0)
        (Classification.UNBOUNDED_LATTICE, (3.0 - 1e-12, 1.0, -1.0),
         ((1, 0, 1), (0, 2, 0))),
        # bounded levels list their states in quanta order
        (Classification.BOUNDED_BELOW_DISCRETE, (2.0 - 1e-12, 1.0),
         ((0, 2), (1, 0))),
    ])
    def test_merged_level_state_order(self, cls, gens, states):
        rep = SpectrumReport(cls, (), None, gens, "", vacuum_energy=0.0)
        merged = [lv for lv in spectrum_lattice(rep, 2) if set(lv.states) == set(states)]
        assert len(merged) == 1
        assert merged[0].states == states


    @pytest.mark.parametrize("b", [0.0, 2.0, 3.0], ids=["merged", "critical",
                                                      "unbounded"])
    def test_level_record(self, b):
        # a frozen slotted record: no __dict__, fields survive copy and pickle
        for lv in spectrum_lattice(classify_spectrum(model_form(b)), 3):
            assert not hasattr(lv, "__dict__")
            with pytest.raises(dataclasses.FrozenInstanceError):
                lv.energy = 0.0
            assert lv.degeneracy == len(lv.states)
            fields = dataclasses.astuple(lv)
            for twin in (copy.copy(lv), pickle.loads(pickle.dumps(lv))):
                assert type(twin) is LatticeLevel and twin is not lv
                assert dataclasses.astuple(twin) == fields

    @pytest.mark.parametrize("form", [
        *(random_positive_definite_form(K, 40 + K) for K in range(1, 7)),
        *(model_form(b) for b in (0.0, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0)),
        sb_operator(2.0),
    ], ids=[*(f"random-K{K}" for K in range(1, 7)),
            *(f"model-b{b:+g}" for b in (0.0, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0)),
            "sb-B2"])
    def test_matches_per_state_enumeration(self, form):
        rep = classify_spectrum(form)
        for max_quanta in [*range(9), np.int64(5)]:
            assert lattice_bits(rep, max_quanta) == reference_lattice_bits(
                rep, max_quanta), max_quanta

    def test_zero_generators_match_per_state_enumeration(self):
        # no generator to enumerate: one state, and -0.0 + 0 is +0.0
        rep = SpectrumReport(Classification.CRITICAL_INFINITE_MULTIPLICITY, (), None,
                             (0.0, 0.0), "", vacuum_energy=-0.0)
        for max_quanta in (0, 3):
            assert lattice_bits(rep, max_quanta) == reference_lattice_bits(
                rep, max_quanta) == [((0.0).hex(), ((),), 1, True)]


def lattice_bits(rep, max_quanta):
    return [(lv.energy.hex(), lv.states, lv.degeneracy, lv.infinite)
            for lv in spectrum_lattice(rep, max_quanta)]


def reference_lattice_bits(rep, max_quanta):
    """`lattice_bits` from each state's energy summed on its own and its shell
    counted from its quanta, then the same `_cluster` merge."""
    anchor = rep.ground_energy if rep.ground_energy is not None else rep.vacuum_energy
    active = [g for g in rep.lattice_generators if g != 0.0]
    infinite = len(active) < len(rep.lattice_generators)
    unbounded = rep.classification is Classification.UNBOUNDED_LATTICE
    quanta = [()]
    for _ in active:
        quanta = [n + (h,) for n in quanta for h in range(max_quanta + 1 - sum(n))]
    energies = [float(anchor + sum(map(operator.mul, n, active))) for n in quanta]
    t = tol.lattice_merge_tol(max(map(abs, energies)))
    shells = ([[i for i, n in enumerate(quanta) if sum(n) == s]
               for s in range(max_quanta + 1)] if unbounded
              else [range(len(quanta))])
    out = []
    for shell in shells:
        for g in _cluster([energies[i] for i in shell], t):
            states = [quanta[shell[i]] for i in g]
            if not unbounded:
                states.sort()
            out.append((energies[shell[g[0]]].hex(), tuple(states), len(states),
                        infinite))
    return out


class TestLatticeCap:
    def test_large_enumeration_raises_before_building(self):
        from quadham import spectral
        report = classify_spectrum(random_positive_definite_form(20, 1))
        with pytest.raises(LatticeCapError, match="30045015 lattice states"):
            spectral.spectrum_lattice(report, 10)

    def test_cap_is_inclusive(self, monkeypatch):
        from quadham import spectral
        report = classify_spectrum(random_positive_definite_form(2, 1))
        monkeypatch.setattr(spectral, "LATTICE_STATE_CAP", 15)
        levels = spectral.spectrum_lattice(report, 4)
        assert sum(lv.degeneracy for lv in levels) == 15
        with pytest.raises(LatticeCapError):
            spectral.spectrum_lattice(report, 5)
