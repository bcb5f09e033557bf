"""Each spectral verdict is taken at one site, on quantities computed once.

Pairing groups eigenvalues by the clusters of `eigen_decompose`, the zero
frequency test lives in the pairing, and an indefinite form's generators are
its raising frequencies: [lowering, raising] = 1 is the bosonic normalisation
|raising.vac|^2 - |lowering.vac|^2 = 1 (Colpa, Physica A 93 (1978) 327), so
the raising member never annihilates the Gaussian vacuum.
"""

import numpy as np
import pytest

from quadham import (
    Classification,
    DimensionlessModel,
    PhaseSpaceBasis,
    QuadraticForm,
    adjoint_representation,
    build_model,
    classify_spectrum,
    eigen_decompose,
    isotropic_form,
    linear_commutator,
    pair_frequencies,
    random_positive_definite_form,
    sb_operator,
    vacuum_annihilation_residual,
)
from quadham import spectral, tolerances
from conftest import scaled_tolerances
from test_fock_oracle import random_forms


def model_form(b, mu=1.0, k=1.0):
    return build_model(DimensionlessModel(mu=mu, k=k, b=b))


BOUNDED = Classification.BOUNDED_BELOW_DISCRETE
CRITICAL = Classification.CRITICAL_INFINITE_MULTIPLICITY
UNBOUNDED = Classification.UNBOUNDED_LATTICE

# (form, class, whether the note carries the vacuum warning)
LATTICE_FORMS = {
    "b=0": (model_form(0.0), BOUNDED, False),
    "b=1": (model_form(1.0), BOUNDED, False),
    "b=-1.5": (model_form(-1.5), BOUNDED, False),
    "aniso bounded": (model_form(0.5, mu=2.0, k=0.25), BOUNDED, False),
    **{f"random-pd K={K} seed={s}": (random_positive_definite_form(K, s),
                                     BOUNDED, False)
       for K in (1, 2, 3) for s in (0, 1)},
    "b=2": (model_form(2.0), CRITICAL, False),
    "b=-2": (model_form(-2.0), CRITICAL, False),
    "sb B=1.3": (sb_operator(1.3), CRITICAL, False),
    "b=3": (model_form(3.0), UNBOUNDED, False),
    "b=-10": (model_form(-10.0), UNBOUNDED, False),
    "diag K=3": (QuadraticForm(PhaseSpaceBasis(3),
                               np.diag([1.0, 1.0, -1.0, 1.0, 1.0, -1.0]), 0.0),
                 UNBOUNDED, False),
    "aniso b=4": (model_form(4.0, mu=0.5, k=0.5), UNBOUNDED, True),
    "aniso b=-3.2": (model_form(-3.2, mu=2.0, k=2.0), UNBOUNDED, True),
}


@pytest.mark.parametrize("name", LATTICE_FORMS)
def test_bosonic_normalisation_of_every_pair(name):
    q, cls, _ = LATTICE_FORMS[name]
    rep = classify_spectrum(q)
    assert rep.classification is cls
    assert len(rep.pairs) == q.basis.K
    for p in rep.pairs:
        res_r = vacuum_annihilation_residual(p.raising)
        res_l = vacuum_annihilation_residual(p.lowering)
        assert abs(p.norm_constant - 1.0) <= 1e-9
        assert abs(res_r ** 2 - res_l ** 2 - p.norm_constant) <= 1e-9
        assert abs(linear_commutator(p.lowering, p.raising) - 1.0) <= 1e-9


@pytest.mark.parametrize("name", [n for n, (_, cls, _) in LATTICE_FORMS.items()
                                  if cls is UNBOUNDED])
def test_unbounded_generators_are_the_raising_frequencies(name):
    q, _, warned = LATTICE_FORMS[name]
    rep = classify_spectrum(q)
    assert rep.lattice_generators == tuple(
        sorted((p.raising_frequency for p in rep.pairs), reverse=True))
    missed = any(
        vacuum_annihilation_residual(p.lowering)
        > tolerances.annihilation_tol(float(np.linalg.norm(p.lowering.coeffs)))
        for p in rep.pairs)
    assert missed is warned
    assert ("warning" in rep.multiplicity_note) is warned


@pytest.mark.parametrize("q", [model_form(0.0), model_form(2.0),
                               sb_operator(-0.7),
                               random_positive_definite_form(3, 4)])
def test_pairing_reuses_the_eigen_clusters(q, monkeypatch):
    calls = []
    cluster = spectral._cluster
    monkeypatch.setattr(spectral, "_cluster",
                        lambda *args: calls.append(args) or cluster(*args))
    e = eigen_decompose(adjoint_representation(q))
    assert len(calls) == 1
    pairs = pair_frequencies(e)
    assert len(calls) == 1
    assert len(pairs) == q.basis.K


@pytest.mark.parametrize("b", [1.0, 2.0, 3.0])
def test_zero_frequency_is_tested_once(b, monkeypatch):
    # only the pairing asks whether a frequency is zero; the classification
    # reads the exact 0.0 it leaves behind
    calls = []
    zero_tol = tolerances.zero_frequency_tol
    monkeypatch.setattr(tolerances, "zero_frequency_tol",
                        lambda *args: calls.append(args) or zero_tol(*args))
    rep = classify_spectrum(model_form(b))
    assert len(calls) == 1
    assert (0.0 in rep.lattice_generators) is (rep.classification is CRITICAL)


def test_conjugate_eigenvalues_within_a_loose_tolerance_stay_apart():
    # two coupled modes of opposite sign: adjoint eigenvalues +-2.0006 +- 0.05i
    g = np.diag([1.0, -1.0, 1.0, -1.0])
    g[0, 1] = g[1, 0] = 0.05
    q = QuadraticForm(PhaseSpaceBasis(2), g, 0.0)
    assert classify_spectrum(q).classification is \
        Classification.NON_REAL_FREQUENCIES
    # loosened until |Im| = 0.05 lies within the radius t = 0.06, the
    # conjugates (0.1 apart) are still separate clusters, so the form stays
    # non-real: reality is read from the clusters, at t / 2
    with scaled_tolerances(2e7):
        e = eigen_decompose(adjoint_representation(q))
        assert len(e.clusters) == 4
        assert classify_spectrum(q).classification is \
            Classification.NON_REAL_FREQUENCIES


# random definite forms (K, seed) whose two nearest frequencies lie within
# the radius t at tolerance scale 1e8: they merge into one doubled
# generator at their mean, and their mirrors -lambda merge the same way
LOOSE_DEFINITE = {
    (3, 4): (2.800344, 2.350012, 2.350012),
    (4, 0): (3.040821, 2.438938, 2.010051, 2.010051),
    (4, 1): (3.232292, 2.518083, 2.064851, 2.064851),
    (4, 2): (3.145773, 2.626632, 2.626632, 1.885202),
    (4, 6): (3.301522, 2.830766, 2.830766, 2.129132),
    (4, 8): (2.989603, 2.510118, 1.983744, 1.983744),
    (4, 9): (2.640033, 2.106842, 2.106842, 1.422016),
}
# K = 2 with a zero gamma row: eigenvalues +-0.3526i and a double zero, all
# within t = 0.359 of one another at tolerance scale 1e8
IMAGINARY_BESIDE_ZERO = list(random_forms(0))[21][0]


@pytest.mark.parametrize("K, seed", list(LOOSE_DEFINITE))
def test_loose_tolerance_pairs_every_definite_form(K, seed):
    with scaled_tolerances(1e8):
        rep = classify_spectrum(random_positive_definite_form(K, seed))
        assert rep.classification is BOUNDED
        assert rep.lattice_generators == pytest.approx(LOOSE_DEFINITE[K, seed], abs=1e-6)


def test_loose_tolerance_splits_an_imaginary_pair_from_a_zero_pair():
    # one folded cluster holds all four values; only the members beyond t / 2
    # are parted by sign, so the double zero stays a full eigenspace
    with scaled_tolerances(1e8):
        e = eigen_decompose(adjoint_representation(IMAGINARY_BESIDE_ZERO))
        assert [(c.algebraic, c.geometric) for c in e.clusters] == [(1, 1), (2, 2), (1, 1)]
        assert e.clusters[0].value == pytest.approx(-0.352632j, abs=1e-6)
        assert e.clusters[1].value == 0.0
        assert classify_spectrum(IMAGINARY_BESIDE_ZERO).classification is \
            Classification.NON_REAL_FREQUENCIES


@pytest.mark.parametrize("scale", ["1", "1e6", "1e8"])
def test_clusters_are_symmetric_under_negation_and_conjugation(scale):
    with scaled_tolerances(scale):
        forms = [random_positive_definite_form(K, s) for K, s in LOOSE_DEFINITE]
        forms += [IMAGINARY_BESIDE_ZERO]
        forms += [model_form(float(b)) for b in np.linspace(-4.0, 4.0, 33)]
        forms += [model_form(b) for b in (2.0 + 1e-9, -2.0 - 1e-9)]
        for q in forms:
            e = eigen_decompose(adjoint_representation(q))
            t = tolerances.pairing_tol(e.matrix_norm)
            for c in e.clusters:
                for mirror in (-c.value, c.value.conjugate()):
                    assert any(abs(d.value - mirror) <= t and d.algebraic == c.algebraic
                               for d in e.clusters)


@pytest.mark.parametrize("eps, definite", [(1e-12, False), (2e-10, False),
                                           (3e-10, True), (1e-9, True)])
def test_semidefinite_form_with_nonzero_frequency_is_bounded(eps, definite):
    # H = eps x^2 + p^2 has the one frequency 2 sqrt(eps) > 0; gamma's lowest
    # eigenvalue eps meets definiteness_tol(1) = 2e-10 at eps = 2e-10
    rep = classify_spectrum(QuadraticForm(PhaseSpaceBasis(1),
                                          np.diag([eps, 1.0]), 0.0))
    assert rep.classification is BOUNDED
    assert rep.lattice_generators == pytest.approx((2.0 * eps ** 0.5,), rel=1e-12)
    assert rep.ground_energy == pytest.approx(eps ** 0.5, rel=1e-12)
    assert rep.multiplicity_note == (
        "form matrix positive definite; spectrum is the discrete lattice "
        "ground + n . generators with finite degeneracies" if definite else
        "form matrix semidefinite but all frequencies nonzero; treated as "
        "bounded below")
    if eps == 1e-12:
        assert rep.lattice_generators == pytest.approx((2e-6,), rel=1e-12)
        assert rep.ground_energy == pytest.approx(1e-6, rel=1e-12)


@pytest.mark.parametrize("q, scale", [(model_form(0.0), "1"), (model_form(2.0), "1"),
                                      (sb_operator(0.1), "1e8"),
                                      (random_positive_definite_form(3, 4), "1e8"),
                                      (random_positive_definite_form(3, 33), "1e8")])
def test_cluster_value_is_the_mean_of_real_and_imaginary_parts(q, scale):
    # the real mean over members in (real part, index) order is the frequency
    # the pairing used to average again; at scale 1e8 three frequencies of
    # random_positive_definite_form(3, 33) near +-2.9086 merge, where a complex
    # mean differs in the last bit
    with scaled_tolerances(scale):
        e = eigen_decompose(adjoint_representation(q))
        for c in e.clusters:
            g = sorted(c.indices, key=lambda i: (e.eigenvalues.real[i], i))
            assert c.value.real == float(np.mean(e.eigenvalues.real[g]))
            assert c.value.imag == float(np.mean(e.eigenvalues.imag[g]))


@pytest.mark.parametrize("q", [model_form(0.0), model_form(2.0), model_form(3.0),
                               sb_operator(-0.7),
                               random_positive_definite_form(3, 4)])
def test_pairing_takes_no_mean(q, monkeypatch):
    e = eigen_decompose(adjoint_representation(q))
    calls = []
    mean = np.mean
    monkeypatch.setattr(np, "mean",
                        lambda *args, **kwargs: calls.append(args) or mean(*args, **kwargs))
    pairs = pair_frequencies(e)
    monkeypatch.undo()
    assert calls == []
    values = {c.value.real for c in e.clusters}
    assert all(p.lambda_plus in values or p.lambda_plus == 0.0 for p in pairs)


@pytest.mark.parametrize("q, expected", [
    # simple spectrum: a one-member cluster is its own value and its own
    # eigenspace, so neither a mean nor eigh is taken, and the norm is read
    # from one SVD
    (model_form(0.7), {"eig": 1, "eigh": 0, "eigvalsh": 1, "svd": 1, "norm": 0,
                       "mean": 0}),
    # two doubly degenerate clusters: both averaged, both ranked by an SVD,
    # and the positive one diagonalised by eigh
    (isotropic_form(), {"eig": 1, "eigh": 1, "eigvalsh": 1, "svd": 3, "norm": 0,
                        "mean": 4}),
], ids=["simple", "isotropic"])
def test_classification_calls_into_numpy(q, expected, monkeypatch):
    counts = dict.fromkeys(expected, 0)

    def counting(name, f):
        def call(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)
        return call

    for name in ("eig", "eigh", "eigvalsh", "svd", "norm"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    monkeypatch.setattr(np, "mean", counting("mean", np.mean))
    classify_spectrum(q)
    monkeypatch.undo()
    assert counts == expected


def test_one_member_cluster_value_is_bitwise_its_mean():
    # 1j * w can carry -0.0 parts, which the mean of one value turns into 0.0
    # (mu = 2 at b = -1.8 has two, on non-real eigenvalues)
    for q in (model_form(0.7), model_form(3.0), model_form(-1.8, mu=2.0)):
        e = eigen_decompose(adjoint_representation(q))
        for c in e.clusters:
            if c.algebraic == 1:
                (i,) = c.indices
                mean = complex(np.mean(e.eigenvalues.real[[i]]),
                               np.mean(e.eigenvalues.imag[[i]]))
                assert repr(c.value) == repr(mean)
