"""Verdicts that the theory says must not change.

On random definite forms: symplectic congruence gamma -> S^T gamma S keeps
the frequencies, scaling gamma by s scales them by s, permuting the modes
changes nothing, and the frequencies are twice the Williamson values, the
positive eigenvalues of i gamma^1/2 J gamma^1/2.  The symmetric model's
discrete symmetries hold bitwise.

On a form of each class but `DefectiveExceptional` (the model at b = 1, 2
and 3 and at mu = 2, k = 1, b = 1.5, each also with a unit oscillator
added as a third mode): an integer symplectic congruence, a positive scale
and a mode permutation keep the class and scale the lattice generators.
An integer S keeps a dyadic gamma dyadic, so the critical form stays
exactly on its boundary.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from quadham import (Classification, DimensionlessModel, PhaseSpaceBasis, QuadraticForm,
                     build_model, classify_spectrum)
from quadham.phase_space import _symplectic

RTOL = 1e-12
INVARIANT = settings(derandomize=True, deadline=None, database=None, max_examples=40)


@st.composite
def definite_forms(draw):
    K = draw(st.integers(1, 3))
    m = draw(hnp.arrays(np.float64, (2 * K, 2 * K), elements=st.floats(-1.0, 1.0)))
    g = m @ m.T / (2 * K) + 0.5 * np.eye(2 * K)
    return QuadraticForm(PhaseSpaceBasis(K), (g + g.T) / 2.0, 0.0)


def reform(q, gamma):
    return QuadraticForm(q.basis, (gamma + gamma.T) / 2.0, q.offset)


def frequencies(q):
    r = classify_spectrum(q)
    assert r.classification is Classification.BOUNDED_BELOW_DISCRETE
    return np.array(r.lattice_generators)


@INVARIANT
@given(definite_forms(), st.data())
def test_symplectic_congruence(q, data):
    n = q.basis.dim
    m = data.draw(hnp.arrays(np.float64, (n, n), elements=st.floats(-1.0, 1.0)))
    a = (m + m.T) / 2.0
    J = _symplectic(q.basis.K)
    # J A is Hamiltonian, so its Cayley transform is symplectic; |J A| <= 1/2
    # keeps I - J A well conditioned
    X = J @ (0.5 * a / max(1.0, float(np.linalg.norm(a, 2))))
    S = np.linalg.solve(np.eye(n) - X, np.eye(n) + X)
    assert np.allclose(S.T @ J @ S, J, rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(frequencies(reform(q, S.T @ q.gamma @ S)),
                               frequencies(q), rtol=RTOL)


@INVARIANT
@given(definite_forms(), st.floats(0.1, 10.0))
def test_scaling(q, s):
    np.testing.assert_allclose(frequencies(reform(q, s * q.gamma)),
                               s * frequencies(q), rtol=RTOL)


@INVARIANT
@given(definite_forms(), st.randoms(use_true_random=False))
def test_mode_permutation(q, rnd):
    K = q.basis.K
    modes = list(range(K))
    rnd.shuffle(modes)
    perm = modes + [K + j for j in modes]  # x's and p's alike
    np.testing.assert_allclose(frequencies(reform(q, q.gamma[np.ix_(perm, perm)])),
                               frequencies(q), rtol=RTOL)


@INVARIANT
@given(definite_forms())
def test_williamson_values(q):
    w, U = np.linalg.eigh(q.gamma)
    root = (U * np.sqrt(w)) @ U.T
    sym = np.linalg.eigvalsh(1j * root @ _symplectic(q.basis.K) @ root)
    np.testing.assert_allclose(frequencies(q), 2.0 * sym[::-1][:q.basis.K], rtol=RTOL)


def test_symmetric_model_mode_swap_and_parity():
    # swapping the two modes maps b to -b, and full parity x, p -> -x, -p
    # leaves any quadratic form alone; both only permute and negate entries
    swap = [1, 0, 3, 2]
    parity = -np.eye(4)
    for b in (-3.0, -2.0, -0.5, 0.0, 1.7, 2.0):
        gamma = build_model(DimensionlessModel(1.0, 1.0, b)).gamma
        assert np.array_equal(gamma[np.ix_(swap, swap)],
                              build_model(DimensionlessModel(1.0, 1.0, -b)).gamma)
        assert np.array_equal(parity.T @ gamma @ parity, gamma)


def with_unit_mode(q):
    """The K = 2 form plus a third mode (x3^2 + p3^2) / 2 of frequency 1."""
    g = np.zeros((6, 6))
    old = [0, 1, 3, 4]
    g[np.ix_(old, old)] = q.gamma
    g[2, 2] = g[5, 5] = 0.5
    return QuadraticForm(PhaseSpaceBasis(3), g, q.offset)


def integer_symplectic(rng, K):
    """A product of three integer generators, K >= 2: [[A, 0], [0, A^-T]]
    with A an elementary unimodular matrix, and the shears [[I, B], [0, I]]
    and [[I, 0], [B, I]] with B integer symmetric, entries in -2..2."""
    I, Z = np.eye(K, dtype=np.int64), np.zeros((K, K), dtype=np.int64)
    S = np.eye(2 * K, dtype=np.int64)
    for _ in range(3):
        kind = rng.integers(3)
        if kind == 0:
            A = I.copy()
            i, j = rng.choice(K, 2, replace=False)
            A[i, j] = rng.choice([-1, 1])
            # A is I plus one off-diagonal +-1, so A^-1 = 2I - A
            G = np.block([[A, Z], [Z, (2 * I - A).T]])
        else:
            B = rng.integers(-2, 3, size=(K, K))
            B = np.triu(B) + np.triu(B, 1).T
            G = np.block([[I, B], [Z, I]]) if kind == 1 else np.block([[I, Z], [B, I]])
        S = S @ G
    assert np.array_equal(S.T @ _symplectic(K) @ S, _symplectic(K))
    return S.astype(float)


@pytest.mark.parametrize("unit_mode", [False, True], ids=["K=2", "K=3"])
@pytest.mark.parametrize("mu, k, b", [(1.0, 1.0, 1.0), (1.0, 1.0, 2.0), (1.0, 1.0, 3.0),
                                      (2.0, 1.0, 1.5)])
def test_class_under_integer_congruence_scale_and_permutation(mu, k, b, unit_mode):
    q = build_model(DimensionlessModel(mu, k, b))
    if unit_mode:
        q = with_unit_mode(q)
    K = q.basis.K
    before = classify_spectrum(q)
    generators = np.sort(before.lattice_generators)
    rng = np.random.default_rng(0)
    for _ in range(60):
        S = integer_symplectic(rng, K)
        s = float(rng.choice([0.5, 1.0, 3.0]))
        modes = rng.permutation(K)
        perm = np.concatenate([modes, modes + K])
        gamma = (s * (S.T @ q.gamma @ S))[np.ix_(perm, perm)]
        after = classify_spectrum(QuadraticForm(q.basis, gamma, s * q.offset))
        assert after.classification is before.classification
        # relative to the largest generator: the critical class has a zero one
        np.testing.assert_allclose(np.sort(after.lattice_generators), s * generators,
                                   rtol=0.0, atol=1e-9 * s * np.max(np.abs(generators),
                                                                    initial=0.0))
