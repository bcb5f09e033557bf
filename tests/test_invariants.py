"""Verdicts that the theory says must not change, on random definite forms.

Symplectic congruence gamma -> S^T gamma S keeps the frequencies, scaling
gamma by s scales them by s, permuting the modes changes nothing, and the
frequencies are twice the Williamson values, the positive eigenvalues of
i gamma^1/2 J gamma^1/2.  The symmetric model's discrete symmetries hold
bitwise.
"""

import numpy as np
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
