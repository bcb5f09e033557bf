import contextlib

import numpy as np
import pytest

from quadham import LinearForm, PhaseSpaceBasis, tolerances


@pytest.fixture
def rng():
    return np.random.default_rng(20260821)


@contextlib.contextmanager
def scaled_tolerances(scale):
    """Multiply every tolerance by scale inside the block; the caller's scale
    comes back through the token when it ends."""
    token = tolerances._CONFIG_SCALE.set(float(scale))
    try:
        yield
    finally:
        tolerances._CONFIG_SCALE.reset(token)


def adjoint_by_expansion(gamma: np.ndarray, J: np.ndarray) -> np.ndarray:
    """Independent adjoint construction, term by term.

    [O_a O_b, O_c] = O_a [O_b, O_c] + [O_a, O_c] O_b = i J_bc O_a + i J_ac O_b,
    so each monomial contributes directly to two columns.  No matrix identity
    is used; this is the expansion a hand derivation would write down.
    """
    d = gamma.shape[0]
    m = np.zeros((d, d), dtype=complex)
    for a in range(d):
        for b in range(d):
            g = gamma[a, b]
            if g == 0.0:
                continue
            for c in range(d):
                if J[b, c] != 0.0:
                    m[a, c] += 1j * g * J[b, c]
                if J[a, c] != 0.0:
                    m[b, c] += 1j * g * J[a, c]
    return m


def unit_form(K: int, index: int) -> LinearForm:
    """The basis operator O_index of (x_1..x_K, p_1..p_K) as a linear form."""
    return LinearForm(PhaseSpaceBasis(K), np.eye(2 * K)[index])


def random_symmetric(rng, d: int, scale: float = 2.0) -> np.ndarray:
    g = rng.uniform(-scale, scale, size=(d, d))
    return (g + g.T) / 2.0
