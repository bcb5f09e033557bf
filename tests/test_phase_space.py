import copy
import gc
import pickle
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import adjoint_by_expansion, random_symmetric
from quadham import (
    AdjointMatrix,
    BasisMismatchError,
    Classification,
    FockTruncation,
    LinearForm,
    NonHermitianFormError,
    PhaseSpaceBasis,
    PiScale,
    PolyGaussian,
    QuadhamError,
    QuadraticForm,
    adjoint_representation,
    angular_momentum_form,
    apply_linear_form,
    apply_quadratic_form,
    classify_spectrum,
    ladder_check,
    linear_commutator,
    make_quadratic_form,
    quadratic_commutator,
    symmetric_ladders,
    symmetric_raising_pair,
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


# (gamma, offset, message) of each QuadraticForm constructor error on K = 1
QUADRATIC_ERRORS = [
    (np.eye(3), 0.0, "gamma must be 2x2, got (3, 3)"),
    ([[1.0, np.nan], [np.nan, 1.0]], 0.0, "gamma entries must be finite"),
    ([[1.0, 0.1], [0.100000001, 1.0]], 0.0, "gamma must be exactly symmetric"),
    (np.eye(2), np.inf, "offset must be finite"),
]
# (coeffs, message) of each LinearForm constructor error on K = 1
LINEAR_ERRORS = [
    ([1.0, 0.0, 0.0], "coefficient vector must have length 2, got shape (3,)"),
    ([1.0, complex(0.0, np.inf)], "coefficients must be finite"),
]


class TestQuadraticForm:
    def test_requires_exact_symmetry(self):
        basis = PhaseSpaceBasis(1)
        g = np.array([[1.0, 0.1], [0.100000001, 1.0]])
        with pytest.raises(ValueError):
            QuadraticForm(basis, g, 0.0)

    @pytest.mark.parametrize("gamma, offset, message", QUADRATIC_ERRORS,
                             ids=["shape", "non-finite", "asymmetric", "offset"])
    def test_invalid_input(self, gamma, offset, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            QuadraticForm(PhaseSpaceBasis(1), gamma, offset)

    def test_basis_mismatch(self):
        a = make_quadratic_form(1, [(1, 1, 1.0)])
        b = make_quadratic_form(2, [(1, 1, 1.0)])
        with pytest.raises(BasisMismatchError):
            quadratic_commutator(a, b)


class TestLinearForm:
    @pytest.mark.parametrize("coeffs, message", LINEAR_ERRORS,
                             ids=["length", "non-finite"])
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

    def test_a_view_of_its_form(self):
        q = make_quadratic_form(1, [(1, 1, 1.0), (2, 2, 1.0)])
        with pytest.raises(TypeError):
            AdjointMatrix(adjoint_representation(q).entries, q)
        assert AdjointMatrix(q).entries is adjoint_representation(q).entries

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


def _read_only_array(values, dtype) -> np.ndarray:
    a = np.array(values, dtype=dtype)
    a.flags.writeable = False
    return a


class TestFormsAreValues:
    """A form copies its array and marks the copy read-only, so nothing a
    caller does after construction reaches the form or gets past its checks."""

    def test_caller_array_changes_do_not_reach_the_form(self):
        basis = PhaseSpaceBasis(2)
        g = np.eye(4)
        q = QuadraticForm(basis, g, 0.0)
        before = classify_spectrum(q).classification
        g[0, 0] = -5.0
        assert q.gamma.tobytes() == np.eye(4).tobytes()
        assert before is Classification.BOUNDED_BELOW_DISCRETE
        assert classify_spectrum(q).classification is before
        # the changed array is another spectrum class, so the copy matters
        assert classify_spectrum(QuadraticForm(basis, g, 0.0)).classification \
            is Classification.NON_REAL_FREQUENCIES
        c = np.array([1.0, 0.5j])
        z = LinearForm(PhaseSpaceBasis(1), c)
        c[:] = 0.0
        assert z.coeffs.tolist() == [1.0, 0.5j]

    def test_arrays_cannot_be_written(self):
        q = make_quadratic_form(1, [(1, 1, 1.0), (2, 2, 1.0)])
        z = LinearForm(PhaseSpaceBasis(1), [1.0, 1j])
        with pytest.raises(ValueError, match="read-only"):
            q.gamma[1, 1] = np.nan
        with pytest.raises(ValueError, match="read-only"):
            z.coeffs[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            adjoint_representation(q).entries[0, 1] = 0.0
        # nor made writable again
        for a in (q.gamma, z.coeffs, adjoint_representation(q).entries):
            with pytest.raises(ValueError):
                a.flags.writeable = True
        assert q.gamma.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_read_only_input(self):
        g = _read_only_array(np.eye(2), float)
        q = QuadraticForm(PhaseSpaceBasis(1), g, 0.5)
        assert q.gamma.tobytes() == g.tobytes() and q.offset == 0.5
        c = _read_only_array([1.0, 1j], complex)
        z = LinearForm(PhaseSpaceBasis(1), c)
        assert z.coeffs.tobytes() == c.tobytes()
        # a form's own arrays are valid input too
        assert QuadraticForm(q.basis, q.gamma, q.offset).gamma.tobytes() == g.tobytes()
        assert LinearForm(z.basis, z.coeffs).coeffs.tobytes() == c.tobytes()

    @pytest.mark.parametrize("gamma, offset, message", QUADRATIC_ERRORS,
                             ids=["shape", "non-finite", "asymmetric", "offset"])
    def test_quadratic_errors_unchanged_for_read_only_input(self, gamma, offset,
                                                            message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            QuadraticForm(PhaseSpaceBasis(1), _read_only_array(gamma, float), offset)

    @pytest.mark.parametrize("coeffs, message", LINEAR_ERRORS,
                             ids=["length", "non-finite"])
    def test_linear_errors_unchanged_for_read_only_input(self, coeffs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LinearForm(PhaseSpaceBasis(1), _read_only_array(coeffs, complex))

    def test_copies_and_pickles_are_read_only_forms(self):
        q = make_quadratic_form(2, [(1, 4, 1.5), (4, 1, 1.5), (2, 2, 0.25)])
        z = LinearForm(PhaseSpaceBasis(2), [1.0, 1j, -0.5, 2.0])
        adjoint_representation(q)
        for twin in (copy.copy(q), copy.deepcopy(q), pickle.loads(pickle.dumps(q))):
            assert type(twin) is QuadraticForm and twin.offset == q.offset
            assert twin.gamma.tobytes() == q.gamma.tobytes()
            assert not twin.gamma.flags.writeable
        for twin in (copy.copy(z), copy.deepcopy(z), pickle.loads(pickle.dumps(z))):
            assert type(twin) is LinearForm
            assert twin.coeffs.tobytes() == z.coeffs.tobytes()
            assert not twin.coeffs.flags.writeable

    def test_derived_data_is_kept_per_form_not_per_content(self):
        g = np.diag([1.0, 2.0, 3.0, 4.0])
        a = QuadraticForm(PhaseSpaceBasis(2), g, 0.0)
        b = QuadraticForm(PhaseSpaceBasis(2), g, 0.0)
        assert adjoint_representation(a).entries is adjoint_representation(a).entries
        assert adjoint_representation(a) is not adjoint_representation(a)
        assert adjoint_representation(b).entries is not adjoint_representation(a).entries

    def test_a_form_holds_no_reference_cycle(self):
        # a form whose kept data pointed back at it would outlive its job
        # until the cyclic collector ran
        gc.disable()
        try:
            q = QuadraticForm(PhaseSpaceBasis(2), np.eye(4), 0.0)
            z = symmetric_raising_pair()[0].form
            z = LinearForm(z.basis, z.coeffs)
            s = vacuum(2)
            adjoint_representation(q)
            ladder_check(q, z)
            apply_quadratic_form(q, s)
            apply_linear_form(z, s)
            refs = weakref.ref(q), weakref.ref(z)
            del q, z
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()

    def test_constant_operators_are_shared_and_read_only(self):
        lz = angular_momentum_form()
        assert angular_momentum_form() is lz
        assert not lz.gamma.flags.writeable
        ladders = symmetric_ladders()
        assert symmetric_ladders() is ladders
        pair = symmetric_raising_pair()
        assert pair[0] is ladders[3] and pair[1] is ladders[1]
        assert all(a is b for a, b in zip(symmetric_raising_pair(), pair))
        assert not any(spec.form.coeffs.flags.writeable for spec in ladders)


_dyadic = st.integers(-64, 64).map(lambda n: n / 16.0)


@st.composite
def dyadic_cases(draw):
    """A dyadic quadratic form on K = 1-3 modes (diagonally dominant, so
    definite with ladder pairs, half the time), a dyadic linear form and a
    small state on the same modes."""
    K = draw(st.integers(1, 3))
    n = 2 * K
    g = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            g[i, j] = g[j, i] = draw(_dyadic)
    if draw(st.booleans()):
        g += np.diag(np.abs(g).sum(axis=1) + 1.0)
    basis = PhaseSpaceBasis(K)
    q = QuadraticForm(basis, g, draw(_dyadic))
    z = LinearForm(basis, [complex(draw(_dyadic), draw(_dyadic)) for _ in range(n)])
    poly = draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * K),
                                st.integers(-9, 9), min_size=1, max_size=4))
    return q, z, PolyGaussian(K, poly, PiScale(1, -K))


def _ladder_outcome(q, z):
    try:
        return ladder_check(q, z).hex()
    except (QuadhamError, ValueError) as exc:  # no ladder, or a zero candidate
        return type(exc).__name__, str(exc)


def _outcomes(q, z, s, pairs) -> list:
    """Every result that a form's kept data feeds, exactly comparable; q and
    z are called for the form of each use."""
    out = [adjoint_representation(q()).entries.tobytes(), _ladder_outcome(q(), z())]
    out += [_ladder_outcome(q(), member) for pair in pairs
            for member in (pair.raising, pair.lowering)]
    for state in (apply_quadratic_form(q(), s), apply_linear_form(z(), s)):
        out.append((state._terms, state._den, state.scale.q, state.scale.quarter))
    return out


class TestKeptDataEqualsFreshData:
    @settings(max_examples=150, deadline=None)
    @given(case=dyadic_cases())
    def test_second_call_equals_first_and_fresh_forms(self, case):
        q, z, s = case
        # a new form for every use derives everything afresh
        fresh = (lambda: QuadraticForm(q.basis, q.gamma, q.offset),
                 lambda: LinearForm(z.basis, z.coeffs))
        try:
            pairs = classify_spectrum(fresh[0]()).pairs
        except QuadhamError:
            pairs = ()
        kept = (lambda: q, lambda: z)
        first = _outcomes(*kept, s, pairs)
        assert _outcomes(*kept, s, pairs) == first
        assert _outcomes(*fresh, s, pairs) == first
