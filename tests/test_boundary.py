"""The |b| = 2 boundary of the symmetric model, decided by one radius.

`eigen_decompose` clusters adjoint eigenvalues within the pairing tolerance
t and counts a cluster's rank at the same t, so the pair {+delta, -delta}
near the boundary is one diagonalisable zero eigenspace rather than a
defective one; a zero-frequency pair makes the form critical whatever
gamma's lowest eigenvalue reads; and `phase_scan` takes its transitions
from gamma's lowest eigenvalue alone.
"""

import numpy as np
import pytest

from quadham import Classification, DimensionlessModel, build_model, classify_spectrum, phase_scan

BOUNDED = Classification.BOUNDED_BELOW_DISCRETE
CRITICAL = Classification.CRITICAL_INFINITE_MULTIPLICITY
UNBOUNDED = Classification.UNBOUNDED_LATTICE


def report(b):
    return classify_spectrum(build_model(DimensionlessModel(1.0, 1.0, b)))


@pytest.mark.parametrize("b0", [2.0, -2.0])
@pytest.mark.parametrize("side", [1.0, -1.0])
def test_no_defective_verdict_near_the_boundary(b0, side):
    # side -1 moves toward b = 0, inside the boundary
    allowed = (BOUNDED, CRITICAL) if side < 0 else (CRITICAL, UNBOUNDED)
    for delta in np.logspace(-12.0, -7.0, 101):
        r = report(b0 + np.sign(b0) * side * float(delta))
        assert r.classification in allowed, delta
        # a zero pair is critical, and a bounded form has none
        if r.classification is not UNBOUNDED:
            assert (0.0 in r.lattice_generators) is (r.classification is CRITICAL)


@pytest.mark.parametrize("k", range(1, 16))
@pytest.mark.parametrize("b0", [2.0, -2.0])
def test_boundary_sweep(b0, k):
    # inside the boundary (|b| < 2) and outside it, as measured
    inside, outside = report(b0 - np.sign(b0) * 10.0 ** -k), \
        report(b0 + np.sign(b0) * 10.0 ** -k)
    if k <= 8:
        assert inside.classification is BOUNDED
        assert outside.classification is UNBOUNDED
        assert 0.0 not in inside.lattice_generators + outside.lattice_generators
    elif k == 9:
        assert inside.classification is CRITICAL
        # the zero pair merged at the radius, gamma plainly indefinite
        assert outside.classification is UNBOUNDED
        assert 0.0 in outside.lattice_generators
    else:
        assert inside.classification is CRITICAL
        assert outside.classification is CRITICAL
    if k >= 9:
        assert inside.lattice_generators[1] == 0.0


def zoomed_scans():
    rng = np.random.default_rng(1)
    for w in (1e-6, 1e-7, 1e-8, 5e-9, 2e-9, 1e-9):
        for steps in (11, 41, 101):
            for _ in range(5):
                o = rng.uniform(-0.3 * w, 0.3 * w)
                yield 2.0 - w + o, 2.0 + w + o, steps


def test_zoomed_scans_find_the_one_transition():
    missed = []
    for b_from, b_to, steps in zoomed_scans():
        res = phase_scan(b_from, b_to, steps)
        stars = [t.b_star for t in res.transitions]
        if len(stars) != 1 or abs(stars[0] - 2.0) > 5e-9:
            missed.append((b_from, b_to, steps, stars))
    assert missed == []
