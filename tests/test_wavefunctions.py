import math
import re
from fractions import Fraction

import numpy as np
import pytest

from conftest import unit_form
from quadham import (
    ComplexRational,
    LinearForm,
    PhaseSpaceBasis,
    PiScale,
    PolyGaussian,
    QuadraticForm,
    apply_linear_form,
    apply_quadratic_form,
    build_eigenfunction,
    build_model,
    DimensionlessModel,
    angular_momentum_form,
    inner,
    is_scalar_multiple_exact,
    normalized_copy,
    squared_norm,
    symmetric_ladders,
    symmetric_raising_pair,
    vacuum,
    vacuum_annihilation_residual,
)
from quadham import wavefunctions as wf


def psi(m, n):
    zp, zm = symmetric_raising_pair()
    return build_eigenfunction(zp.form, zm.form, m, n)


class TestExactScalars:
    def test_complex_rational_arithmetic(self):
        a = ComplexRational(1, 2)
        b = ComplexRational(3, -1)
        assert a * b == ComplexRational(5, 5)
        assert a + b == ComplexRational(4, 1)
        assert a - b == ComplexRational(-2, 3)
        assert ComplexRational(1, 1) / ComplexRational(0, 2) == ComplexRational(
            Fraction(1, 2), Fraction(-1, 2))
        assert a.conjugate() == ComplexRational(1, -2)
        assert not a.is_zero
        assert ComplexRational(0, 0).is_zero

    def test_complex_rational_from_float(self):
        # floats convert exactly, not through a decimal approximation
        z = ComplexRational.from_number(0.5 + 0.25j)
        assert z == ComplexRational(Fraction(1, 2), Fraction(1, 4))

    def test_pi_scale_arithmetic(self):
        half_pi_power = PiScale(1, -2)
        assert half_pi_power * half_pi_power == PiScale(1, -4)
        assert PiScale(2, 0) * PiScale(2, 0) == PiScale(4, 0)
        assert PiScale(4, 4) / PiScale(1, 2) == PiScale(4, 2)
        assert float(PiScale(1, 4)) == pytest.approx(math.pi, rel=1e-15)
        assert float(PiScale(9, 0)) == 3.0

    def test_pi_scale_display(self):
        assert PiScale(1, 0).display() == "1"
        assert PiScale(1, -2).display() == "1/sqrt(pi)"
        assert PiScale(1, -1).display() == "1/pi^(1/4)"
        assert PiScale(1, 2).display() == "sqrt(pi)"
        assert PiScale(2, 0).display() == "sqrt(2)"
        assert PiScale(1, 4).display() == "pi"
        assert PiScale(4, 4).display() == "2*pi"
        assert PiScale(Fraction(1, 2), -2).display() == "sqrt(1/2)/sqrt(pi)"


class TestVacuum:
    def test_render(self):
        assert vacuum(1).render() == "1/pi^(1/4) * exp(-x^2/2)"
        assert vacuum(2).render() == "1/sqrt(pi) * exp(-(x^2 + y^2)/2)"

    def test_normalised(self):
        for K in (1, 2, 3):
            assert squared_norm(vacuum(K)).is_one

    def test_evaluate_at_origin(self):
        v = vacuum(2)
        assert v.evaluate((0.0, 0.0)) == pytest.approx(1 / math.sqrt(math.pi),
                                                       rel=1e-15)
        # Gaussian decay in one step
        val = v.evaluate((1.0, 0.0))
        assert val == pytest.approx(math.exp(-0.5) / math.sqrt(math.pi),
                                    rel=1e-14)

    def test_evaluate_rejects_malformed_points(self):
        with pytest.raises(ValueError, match=r"shape \(1,\) or \(N, 1\)"):
            vacuum(1).evaluate(0.5)
        with pytest.raises(ValueError, match=r"shape \(2,\) or \(N, 2\)"):
            vacuum(2).evaluate(np.zeros((2, 3, 2)))
        for pts in ((0.0, 0.0, 0.0), np.zeros((4, 3)), np.zeros((0,))):
            with pytest.raises(ValueError, match="points must have last dimension 2"):
                vacuum(2).evaluate(pts)
        assert vacuum(2).evaluate(np.zeros((0, 2))).shape == (0,)

    def test_momentum_action(self):
        # p acting on exp(-x^2/2) gives i x times the same Gaussian
        v = vacuum(1)
        out = apply_linear_form(unit_form(1, 1), v)
        assert set(out.poly) == {(1,)}
        assert out.poly[(1,)] == ComplexRational(0, 1)

    def test_position_action(self):
        v = vacuum(1)
        out = apply_linear_form(unit_form(1, 0), v)
        assert set(out.poly) == {(1,)}
        assert out.poly[(1,)] == ComplexRational(1, 0)


class TestEigenfunctions:
    def test_ground_state(self):
        s = psi(0, 0)
        assert s.render() == "1/sqrt(pi) * exp(-(x^2 + y^2)/2)"
        assert s.scale == PiScale(1, -2)
        assert s.poly == {(0, 0): ComplexRational(1, 0)}

    def test_first_excited(self):
        s01 = psi(0, 1)
        assert s01.render() == "1/sqrt(pi) * (i*x + y) * exp(-(x^2 + y^2)/2)"
        assert s01.poly == {(1, 0): ComplexRational(0, 1),
                            (0, 1): ComplexRational(1, 0)}
        s10 = psi(1, 0)
        assert s10.render() == "1/sqrt(pi) * (i*x - y) * exp(-(x^2 + y^2)/2)"
        assert s10.poly == {(1, 0): ComplexRational(0, 1),
                            (0, 1): ComplexRational(-1, 0)}

    def test_diagonal_state(self):
        s = psi(1, 1)
        assert s.render() == ("1/sqrt(pi) * (1 - x^2 - y^2) * "
                              "exp(-(x^2 + y^2)/2)")
        assert s.poly == {(0, 0): ComplexRational(1, 0),
                          (2, 0): ComplexRational(-1, 0),
                          (0, 2): ComplexRational(-1, 0)}
        assert s.scale == PiScale(1, -2)

    def test_second_shell_scale(self):
        s = psi(0, 2)
        assert s.scale == PiScale(Fraction(1, 2), -2)
        assert s.poly == {(2, 0): ComplexRational(-1, 0),
                          (1, 1): ComplexRational(0, 2),
                          (0, 2): ComplexRational(1, 0)}

    def test_orthonormal_family(self):
        states = {(m, n): psi(m, n) for m in range(4) for n in range(4 - m)}
        for (a, sa) in states.items():
            for (b, sb) in states.items():
                amount = inner(sa, sb)
                if a == b:
                    assert amount.is_one
                else:
                    assert amount.is_zero

    def test_energy_eigenrelations(self):
        for b in (0.5, 2.0, -3.0):
            h = build_model(DimensionlessModel(mu=1.0, k=1.0, b=b))
            bq = Fraction(b)
            for m in range(5):
                for n in range(5 - m):
                    s = psi(m, n)
                    out = apply_quadratic_form(h, s)
                    amount = is_scalar_multiple_exact(out, s)
                    assert amount is not None, (b, m, n)
                    energy = 2 + (2 + bq) * m + (2 - bq) * n
                    assert amount.equals_rational(energy), (b, m, n)

    def test_rotation_eigenrelations(self):
        lz = angular_momentum_form()
        for m in range(5):
            for n in range(5 - m):
                s = psi(m, n)
                out = apply_quadratic_form(lz, s)
                amount = is_scalar_multiple_exact(out, s)
                if m == n:
                    # eigenvalue zero: output is the zero state
                    assert out.is_zero
                else:
                    assert amount is not None
                    assert amount.equals_rational(m - n)

    def test_critical_family_degenerate(self):
        # at b = 2 the energy no longer depends on n
        h = build_model(DimensionlessModel(mu=1.0, k=1.0, b=2.0))
        for n in range(4):
            s = psi(1, n)
            out = apply_quadratic_form(h, s)
            amount = is_scalar_multiple_exact(out, s)
            assert amount.equals_rational(6)

    def test_ladder_transport(self):
        zp, zm = symmetric_raising_pair()
        for (m, n) in [(0, 0), (1, 0), (0, 2), (1, 1)]:
            lifted = apply_linear_form(zp.form, psi(m, n))
            target = psi(m + 1, n)
            amount = is_scalar_multiple_exact(lifted, target)
            assert amount is not None
            assert not amount.is_zero

    def test_invalid_quantum_numbers(self):
        zp, zm = symmetric_raising_pair()
        # counts are integers: a bool, a float (2.0 too) or a non-finite value
        # is rejected before any arithmetic
        for m, n in [(-1, 0), (0, -1), (math.inf, 0), (math.nan, 0), (True, 0),
                     (0, False), (2.0, 0), (0, 2.5), ("1", 0)]:
            with pytest.raises(ValueError, match="quantum numbers must be "
                                                 "non-negative integers"):
                build_eigenfunction(zp.form, zm.form, m, n)
        # numpy integers are counts
        psi_np = build_eigenfunction(zp.form, zm.form, np.int64(1), np.uint8(2))
        assert psi_np.poly == psi(1, 2).poly and psi_np.scale == psi(1, 2).scale


class TestAnnihilation:
    def test_lowering_members_annihilate(self):
        ladders = symmetric_ladders()
        # frequencies (-2-b, 2-b, -2+b, 2+b): the two negative-shift members
        # kill the vacuum, the raising members do not
        assert vacuum_annihilation_residual(ladders[0].form) == 0.0
        assert vacuum_annihilation_residual(ladders[2].form) == 0.0
        assert vacuum_annihilation_residual(ladders[1].form) == 2.0
        assert vacuum_annihilation_residual(ladders[3].form) == 2.0

    def test_matches_exact_application(self):
        ladders = symmetric_ladders()
        v = vacuum(2)
        for ladder in ladders:
            applied = apply_linear_form(ladder.form, v)
            residual = vacuum_annihilation_residual(ladder.form)
            if residual == 0.0:
                assert applied.is_zero
            else:
                assert squared_norm(applied).equals_rational(residual ** 2)


class TestNorms:
    def test_norm_scale_values(self):
        v = vacuum(1)
        # |2 v| = 2, so the copy is v again
        unit = normalized_copy(v.scalar_mul(2))
        assert unit.scale == v.scale == PiScale(1, -1)
        assert unit.poly == {(0,): ComplexRational(1)}
        x_state = apply_linear_form(unit_form(1, 0), v)
        # |x exp(-x^2/2)|^2 = sqrt(pi)/2 against the pi^(-1/2) prefactor, so
        # the norm is sqrt(1/2)
        unit = normalized_copy(x_state)
        assert unit.scale == x_state.scale / PiScale(Fraction(1, 2), 0)
        assert unit.poly == x_state.poly == {(1,): ComplexRational(1)}

    def test_zero_state_rejected(self):
        z = PolyGaussian(1, {}, PiScale.one())
        with pytest.raises(ValueError):
            normalized_copy(z)

    def test_quadrature_cross_check(self):
        # numeric integral of |psi(1,1)|^2 over a wide grid
        s = psi(1, 1)
        xs = np.linspace(-8.0, 8.0, 401)
        dx = xs[1] - xs[0]
        gx, gy = np.meshgrid(xs, xs, indexing="ij")
        pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
        vals = s.evaluate(pts)
        total = np.sum(np.abs(vals) ** 2) * dx * dx
        assert total == pytest.approx(1.0, abs=1e-6)


class TestAlgebra:
    def test_canonical_moves_content(self):
        v = vacuum(1)
        s = v.scalar_mul(ComplexRational(Fraction(2, 3), 0))
        c = wf._canonical(s.K, s._terms, s._den, s.scale)
        # positive rational content lives in the scale after canonicalisation
        assert c.scale == PiScale(Fraction(4, 9), -1)
        assert c.poly == {(0,): ComplexRational(1, 0)}
        assert is_scalar_multiple_exact(c, s).is_one
        # the sign stays in the polynomial
        neg = s.scalar_mul(-1)
        c = wf._canonical(neg.K, neg._terms, neg._den, neg.scale)
        assert c.scale == PiScale(Fraction(4, 9), -1)
        assert c.poly == {(0,): ComplexRational(-1, 0)}

    def test_addition_collects_terms(self):
        x = apply_linear_form(unit_form(1, 0), vacuum(1))
        s = x + x
        assert s.poly == {(1,): ComplexRational(2, 0)}
        assert (x - x).is_zero

    def test_form_mode_count_checked(self):
        with pytest.raises(ValueError, match="different mode counts"):
            apply_linear_form(unit_form(1, 0), vacuum(2))
        with pytest.raises(ValueError, match="different mode counts"):
            apply_quadratic_form(angular_momentum_form(), vacuum(1))

    def test_linear_form_application(self):
        basis = PhaseSpaceBasis(1)
        # x - i p doubles the position action; x + i p annihilates
        out = apply_linear_form(LinearForm(basis, [1.0, -1j]), vacuum(1))
        assert out.poly == {(1,): ComplexRational(2, 0)}
        gone = apply_linear_form(LinearForm(basis, [1.0, 1j]), vacuum(1))
        assert gone.is_zero

    @pytest.mark.parametrize("poly", [{(1.5,): 1}, {(1.5,): 1, (1,): 2},
                                      {(True,): 1}, {(1.0,): 1}],
                             ids=["half", "colliding", "bool", "float"])
    def test_non_integral_exponents_rejected(self, poly):
        # int() would truncate 1.5 to 1 and read True as 1
        with pytest.raises(ValueError, match="exponents must be integers"):
            PolyGaussian(1, poly, PiScale())

    @pytest.mark.parametrize("K, poly, scale, error, message", [
        (1, {(0,): 1}, 1.0, TypeError, "scale must be a PiScale"),
        (2, {(1,): 1}, PiScale(), ValueError,
         "exponent tuple (1,) does not have length 2"),
        (2, {(1, -1): 1}, PiScale(), ValueError, "negative exponent in (1, -1)"),
    ], ids=["scale", "length", "negative"])
    def test_constructor_checks(self, K, poly, scale, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            PolyGaussian(K, poly, scale)

    def test_numpy_integer_exponents_accepted(self):
        s = PolyGaussian(2, {(np.int64(2), np.int32(0)): 1}, PiScale())
        assert s.poly == {(2, 0): ComplexRational(1)}
        assert s.render() == "x^2 * exp(-(x^2 + y^2)/2)"


ZERO_1 = PolyGaussian(1, {}, PiScale.one())


class TestInputChecks:
    def test_inner_needs_equal_mode_counts(self):
        with pytest.raises(ValueError, match="^states have different mode counts$"):
            inner(vacuum(1), vacuum(2))

    def test_eigenfunction_forms_share_a_basis(self):
        with pytest.raises(ValueError, match="^ladder forms live on different bases$"):
            build_eigenfunction(unit_form(1, 0), unit_form(2, 0), 1, 1)

    @pytest.mark.parametrize("a, b, want", [
        (vacuum(1), vacuum(2), None),
        (ZERO_1, ZERO_1, 1),
        (vacuum(1), ZERO_1, None),
        (ZERO_1, vacuum(1), 0),
        (apply_linear_form(unit_form(1, 0), vacuum(1)), vacuum(1), None),
    ], ids=["mode-counts", "zero-over-zero", "state-over-zero", "zero-over-state",
            "supports"])
    def test_scalar_multiple_edges(self, a, b, want):
        amount = is_scalar_multiple_exact(a, b)
        if want is None:
            assert amount is None
        else:
            assert amount.equals_rational(want) and amount.factor.is_one

    @pytest.mark.parametrize("coeff, factor, value, want", [
        (ComplexRational(1, 1), PiScale.one(), 1, False),
        (ComplexRational(1), PiScale(1, 2), 1, False),
        (ComplexRational(-1), PiScale.one(), 1, False),
        (ComplexRational(1), PiScale.one(), -1, False),
        (ComplexRational(-1), PiScale.one(), -1, True),
        (ComplexRational(1), PiScale(4), 2, True),
    ], ids=["imaginary", "pi", "negative-coeff", "negative-value", "minus-one",
            "radicand"])
    def test_equals_rational(self, coeff, factor, value, want):
        assert wf.ExactAmount(coeff, factor).equals_rational(value) is want


def _reference_quadratic_action(q, s):
    """sum_ab gamma_ab O_a(O_b s) + offset * s, one double application each."""
    K = s.K
    ops = [lambda t, a=a: apply_linear_form(unit_form(K, a), t) for a in range(2 * K)]
    total = s.scalar_mul(Fraction(q.offset))
    for a in range(2 * K):
        for b in range(2 * K):
            if q.gamma[a, b] != 0.0:
                term = ops[a](ops[b](s))
                total = total + term.scalar_mul(Fraction(float(q.gamma[a, b])))
    return total


class TestQuadraticAction:
    @pytest.mark.parametrize("K,zero_row,offset", [
        (1, None, 0.0), (1, None, -1.25), (2, 1, 0.0), (2, None, 0.375),
        (3, None, 0.0), (3, 4, 2.5),
    ])
    def test_matches_double_applications(self, K, zero_row, offset):
        rng = np.random.default_rng(100 * K + (zero_row or 0))
        g = rng.integers(-12, 13, size=(2 * K, 2 * K)) / 8.0
        g[rng.random((2 * K, 2 * K)) < 0.3] = 0.0
        g = (g + g.T) / 2.0
        if zero_row is not None:
            g[zero_row, :] = 0.0
            g[:, zero_row] = 0.0
        q = QuadraticForm(PhaseSpaceBasis(K), g, offset)
        poly = {}
        for _ in range(4):
            exps = tuple(int(e) for e in rng.integers(0, 3, size=K))
            poly[exps] = complex(*(rng.integers(-8, 9, size=2) / 4.0))
        s = PolyGaussian(K, poly, PiScale(3, -K))
        got = apply_quadratic_form(q, s)
        want = _reference_quadratic_action(q, s)
        assert not want.is_zero
        assert got.poly == want.poly
        assert got.scale == want.scale

    def test_eigenfunction_matches_double_applications(self):
        s = psi(3, 2)
        for q in (build_model(DimensionlessModel(mu=1.0, k=1.0, b=0.75)),
                  angular_momentum_form()):
            got = apply_quadratic_form(q, s)
            want = _reference_quadratic_action(q, s)
            assert got.poly == want.poly and got.scale == want.scale
