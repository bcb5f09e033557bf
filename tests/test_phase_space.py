import re

import numpy as np
import pytest

from conftest import adjoint_by_expansion, random_symmetric
from quadham import (
    BasisMismatchError,
    FockTruncation,
    LinearForm,
    NonHermitianFormError,
    PhaseSpaceBasis,
    QuadraticForm,
    adjoint_representation,
    linear_commutator,
    make_quadratic_form,
    quadratic_commutator,
    vacuum,
)
from quadham.phase_space import _symplectic

# each mode or level count, read back from its constructor
COUNTS = {
    "PhaseSpaceBasis.K": lambda v: PhaseSpaceBasis(v).K,
    "FockTruncation.n_max": lambda v: FockTruncation(v, 2).n_max,
    "FockTruncation.K": lambda v: FockTruncation(3, v).K,
    "PolyGaussian.K": lambda v: vacuum(v).K,
}


class TestBasis:
    def test_dim_and_labels(self):
        b1 = PhaseSpaceBasis(1)
        assert b1.dim == 2
        assert b1.labels() == ["x", "p"]
        b2 = PhaseSpaceBasis(2)
        assert b2.dim == 4
        assert b2.labels() == ["x", "y", "px", "py"]
        b3 = PhaseSpaceBasis(3)
        assert b3.labels() == ["x1", "x2", "x3", "p1", "p2", "p3"]

    def test_symplectic_structure(self):
        for K in (1, 2, 3):
            J = _symplectic(K)
            assert np.array_equal(J.T, -J)
            assert np.array_equal(J @ J, -np.eye(2 * K))
            eye, zero = np.eye(K), np.zeros((K, K))
            assert np.array_equal(J, np.block([[zero, eye], [-eye, zero]]))
            # J is built once per K and shared, so no caller may write into it
            assert not J.flags.writeable

    def test_validation(self):
        with pytest.raises(ValueError):
            PhaseSpaceBasis(0)
        with pytest.raises(ValueError):
            PhaseSpaceBasis(2.5)
        with pytest.raises(TypeError):
            PhaseSpaceBasis(1, hbar=2.0)


class TestCounts:
    """A count takes any integer, numpy's included, but not a bool."""

    @pytest.mark.parametrize("name", sorted(COUNTS))
    @pytest.mark.parametrize("value", [True, False])
    def test_bool_rejected(self, name, value):
        with pytest.raises(ValueError, match=r"must be a (positive|non-negative) integer"):
            COUNTS[name](value)

    @pytest.mark.parametrize("name", sorted(COUNTS))
    @pytest.mark.parametrize("value", [np.int64(2), np.int32(2), np.uint8(2)])
    def test_numpy_integer_stored_as_int(self, name, value):
        count = COUNTS[name](value)
        assert type(count) is int and count == 2

    def test_unsigned_count_does_not_wrap(self):
        # vacuum's scale holds pi^(-K/4); -np.uint8(2) would read 254
        assert vacuum(np.uint8(2)).render() == vacuum(2).render()


class TestMakeQuadraticForm:
    def test_harmonic_oscillator(self):
        q = make_quadratic_form(1, [(1, 1, 1.0), (2, 2, 1.0)])
        assert np.array_equal(q.gamma, np.eye(2))
        assert q.offset == 0.0

    def test_cross_term_symmetrised(self):
        # x p + p x: the two orderings' reordering constants cancel
        q = make_quadratic_form(1, [(1, 2, 1.0), (2, 1, 1.0)])
        assert np.array_equal(q.gamma, np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert q.offset == 0.0

    def test_lone_xp_rejected(self):
        # a single x p is not Hermitian
        with pytest.raises(NonHermitianFormError):
            make_quadratic_form(1, [(1, 2, 1.0)])

    def test_commuting_cross_term_allowed(self):
        # x p_y commutes, so it is Hermitian on its own
        q = make_quadratic_form(2, [(1, 4, 3.0)])
        assert q.gamma[0, 3] == 1.5
        assert q.gamma[3, 0] == 1.5
        assert q.offset == 0.0

    def test_index_validation(self):
        with pytest.raises(ValueError):
            make_quadratic_form(1, [(0, 1, 1.0)])
        with pytest.raises(ValueError):
            make_quadratic_form(1, [(1, 3, 1.0)])
        with pytest.raises(ValueError):
            make_quadratic_form(1, [(1.5, 1, 1.0)])
        with pytest.raises(ValueError):
            make_quadratic_form(1, [(1, 1)])

    def test_coefficient_validation(self):
        with pytest.raises(NonHermitianFormError):
            make_quadratic_form(1, [(1, 1, 1.0 + 2.0j)])
        with pytest.raises(ValueError):
            make_quadratic_form(1, [(1, 1, True)])
        with pytest.raises(ValueError):
            make_quadratic_form(1, [(1, 1, float("nan"))])


class TestQuadraticForm:
    def test_requires_exact_symmetry(self):
        basis = PhaseSpaceBasis(1)
        g = np.array([[1.0, 0.1], [0.100000001, 1.0]])
        with pytest.raises(ValueError):
            QuadraticForm(basis, g, 0.0)

    @pytest.mark.parametrize("gamma, offset, message", [
        (np.eye(3), 0.0, "gamma must be 2x2, got (3, 3)"),
        ([[1.0, np.nan], [np.nan, 1.0]], 0.0, "gamma entries must be finite"),
        ([[1.0, 0.1], [0.100000001, 1.0]], 0.0, "gamma must be exactly symmetric"),
        (np.eye(2), np.inf, "offset must be finite"),
    ], ids=["shape", "non-finite", "asymmetric", "offset"])
    def test_invalid_input(self, gamma, offset, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            QuadraticForm(PhaseSpaceBasis(1), gamma, offset)

    def test_basis_mismatch(self):
        a = make_quadratic_form(1, [(1, 1, 1.0)])
        b = make_quadratic_form(2, [(1, 1, 1.0)])
        with pytest.raises(BasisMismatchError):
            quadratic_commutator(a, b)


class TestLinearForm:
    @pytest.mark.parametrize("coeffs, message", [
        ([1.0, 0.0, 0.0], "coefficient vector must have length 2, got shape (3,)"),
        ([1.0, complex(0.0, np.inf)], "coefficients must be finite"),
    ], ids=["length", "non-finite"])
    def test_invalid_input(self, coeffs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LinearForm(PhaseSpaceBasis(1), coeffs)


class TestAdjointRepresentation:
    def test_matches_term_expansion(self, rng):
        # the closed form must agree entrywise with the hand expansion
        for _ in range(100):
            K = int(rng.integers(1, 4))
            basis = PhaseSpaceBasis(K)
            g = random_symmetric(rng, 2 * K)
            q = QuadraticForm(basis, g, 0.0)
            expected = adjoint_by_expansion(g, _symplectic(K))
            got = adjoint_representation(q).entries
            assert np.array_equal(got, expected)

    def test_purely_imaginary_entries(self, rng):
        K = 2
        g = random_symmetric(rng, 2 * K)
        m = adjoint_representation(QuadraticForm(PhaseSpaceBasis(K), g, 0.0))
        assert np.all(m.entries.real == 0.0)
        assert m.K == K


class TestLinearCommutator:
    def test_canonical_pairs(self):
        basis = PhaseSpaceBasis(2)
        x = LinearForm(basis, [1, 0, 0, 0])
        y = LinearForm(basis, [0, 1, 0, 0])
        px = LinearForm(basis, [0, 0, 1, 0])
        py = LinearForm(basis, [0, 0, 0, 1])
        assert linear_commutator(x, px) == 1j
        assert linear_commutator(px, x) == -1j
        assert linear_commutator(x, py) == 0
        assert linear_commutator(x, y) == 0
        assert linear_commutator(y, py) == 1j

    def test_ladder_normalisation(self):
        basis = PhaseSpaceBasis(1)
        s = 1.0 / np.sqrt(2.0)
        low = LinearForm(basis, [s, 1j * s])
        high = LinearForm(basis, np.conj(low.coeffs))
        assert abs(linear_commutator(low, high) - 1.0) < 1e-15

    def test_basis_mismatch(self):
        a = LinearForm(PhaseSpaceBasis(1), [1, 0])
        b = LinearForm(PhaseSpaceBasis(2), [1, 0, 0, 0])
        with pytest.raises(BasisMismatchError):
            linear_commutator(a, b)


class TestQuadraticCommutator:
    def test_x2_p2(self):
        # [x^2, p^2] = 2i (x p + p x)
        a = make_quadratic_form(1, [(1, 1, 1.0)])
        b = make_quadratic_form(1, [(2, 2, 1.0)])
        c = quadratic_commutator(a, b)
        assert np.array_equal(c.gamma, np.array([[0.0, 2.0], [2.0, 0.0]]))
        assert c.offset == 0.0

    def test_zero_for_commuting(self):
        a = make_quadratic_form(2, [(1, 1, 1.0), (2, 2, 1.0),
                                    (3, 3, 1.0), (4, 4, 1.0)])
        b = make_quadratic_form(2, [(1, 4, 1.0), (2, 3, -1.0)])
        c = quadratic_commutator(a, b)
        assert np.all(c.gamma == 0.0)

    def test_adjoint_homomorphism(self, rng):
        # adjoint([A, B]/i scaled): [M_A, M_B] = i M_[A,B]
        K = 2
        basis = PhaseSpaceBasis(K)
        for _ in range(20):
            a = QuadraticForm(basis, random_symmetric(rng, 2 * K), 0.0)
            b = QuadraticForm(basis, random_symmetric(rng, 2 * K), 0.0)
            c = quadratic_commutator(a, b)
            ma = adjoint_representation(a).entries
            mb = adjoint_representation(b).entries
            mc = adjoint_representation(c).entries
            assert np.allclose(ma @ mb - mb @ ma, 1j * mc,
                               rtol=0.0, atol=1e-12)
