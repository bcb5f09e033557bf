"""The Gaussian-integer kernels and the closed-form eigenfunction norm.

The ComplexRational functions prefixed ``ref_`` are the Fraction-arithmetic
ladder action, quadratic-form action (two linear-form passes per nonzero row
of gamma), inner product, canonical form, scalar-multiple test, number
conversion, rendering, evaluation and linear structure that
quadham.wavefunctions computed over the ``.poly`` view before it moved to
Gaussian integers and to one operator-table kernel; the integer code must
reproduce them exactly, as ``_quadratic_table`` must reproduce
``ref_quadratic_table``, which converts gamma through ``_ints``.
``build_eigenfunction``, which sums its closed-form recurrence instead of
applying the ladder forms, must equal m + n ``apply_linear_form`` passes
from the vacuum (``_raw_state``).
"""

import copy
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import unit_form
from quadham import (
    ComplexRational,
    DimensionlessModel,
    LinearForm,
    PhaseSpaceBasis,
    PiScale,
    PolyGaussian,
    QuadraticForm,
    angular_momentum_form,
    apply_linear_form,
    apply_quadratic_form,
    build_eigenfunction,
    build_model,
    inner,
    is_scalar_multiple_exact,
    normalized_copy,
    squared_norm,
    symmetric_ladders,
    symmetric_raising_pair,
    vacuum,
)
from quadham import wavefunctions as wf

_I = ComplexRational(0, 1)


# ---- reference: the ComplexRational kernel ---------------------------------

def _ref_accumulate(table, key, value):
    cur = table.get(key)
    new = value if cur is None else cur + value
    if new.is_zero:
        table.pop(key, None)
    else:
        table[key] = new


def _ref_bump(exps, j, step):
    out = list(exps)
    out[j] += step
    return tuple(out)


def ref_unit(K, index):
    coeffs = [ComplexRational(0)] * (2 * K)
    coeffs[index] = ComplexRational(1)
    return coeffs


def ref_act(poly, coeffs):
    K = len(coeffs) // 2
    out = {}
    for j in range(K):
        cx, cp = coeffs[j], coeffs[K + j]
        if not cx.is_zero:
            for exps, c in poly.items():
                _ref_accumulate(out, _ref_bump(exps, j, +1), c * cx)
        if not cp.is_zero:
            icp = cp * _I
            for exps, c in poly.items():
                if exps[j] > 0:
                    _ref_accumulate(out, _ref_bump(exps, j, -1),
                                    icp * (-exps[j]) * c)
                _ref_accumulate(out, _ref_bump(exps, j, +1), icp * c)
    return out


def ref_apply_quadratic(q, s):
    K = q.basis.K
    offset = ComplexRational.from_number(q.offset)
    total = {} if offset.is_zero else {k: v * offset for k, v in s.poly.items()}
    for a, row in enumerate(q.gamma):
        if not row.any():
            continue
        inner_poly = ref_act(s.poly, [ComplexRational.from_number(float(g))
                                      for g in row])
        for exps, c in ref_act(inner_poly, ref_unit(K, a)).items():
            _ref_accumulate(total, exps, c)
    return total


def ref_ints(values):
    """Numerator pairs over one denominator, through Fraction."""
    cs = [ComplexRational.from_number(v) for v in values]
    den = math.lcm(1, *(c.re.denominator for c in cs),
                   *(c.im.denominator for c in cs))
    return [(c.re.numerator * (den // c.re.denominator),
             c.im.numerator * (den // c.im.denominator)) for c in cs], den


def ref_inner(a, b):
    top = max(map(max, a.poly), default=0) + max(map(max, b.poly), default=0)
    moments = [Fraction(1)]
    for m in range(1, top + 1):
        moments.append(0 if m % 2 else moments[m - 2] * Fraction(m - 1, 2))
    total = ComplexRational(0)
    for ea, ca in a.poly.items():
        cac = ca.conjugate()
        for eb, cb in b.poly.items():
            w = math.prod(moments[x + y] for x, y in zip(ea, eb))
            if w:
                total = total + cac * cb * w
    return total, a.scale * b.scale * PiScale(1, 2 * a.K)


def ref_canonical(s):
    content = None
    for c in s.poly.values():
        for part in (abs(c.re), abs(c.im)):
            if part == 0:
                continue
            content = part if content is None else Fraction(
                math.gcd(content.numerator, part.numerator),
                math.lcm(content.denominator, part.denominator))
    if content is None or content == 1:
        return s.poly, s.scale
    return {k: v / content for k, v in s.poly.items()}, s.scale * content


def ref_scalar_multiple(a, b):
    ratio = None
    for key, cb in b.poly.items():
        r = a.poly[key] / cb
        if ratio is None:
            ratio = r
        elif ratio != r:
            return None
    return ratio


def _fraction_str(f):
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _ref_term_pieces(c, mono):
    if c.im == 0:
        neg = c.re < 0
        mag = abs(c.re)
        coeff = "" if mono and mag == 1 else _fraction_str(mag)
    elif c.re == 0:
        neg = c.im < 0
        mag = abs(c.im)
        coeff = "i" if mag == 1 else f"{_fraction_str(mag)}*i"
    else:
        neg = False
        im_mag = abs(c.im)
        im_s = "i" if im_mag == 1 else f"{_fraction_str(im_mag)}*i"
        sign = "+" if c.im > 0 else "-"
        coeff = f"({_fraction_str(c.re)} {sign} {im_s})"
    if coeff and mono:
        return neg, f"{coeff}*{mono}"
    return neg, coeff or mono


def ref_render(s):
    if not s.poly:
        return "0"
    labels = PhaseSpaceBasis(s.K).labels()[:s.K]
    out = []
    for key in sorted(s.poly, key=lambda k: (sum(k), tuple(-e for e in k))):
        neg, body = _ref_term_pieces(s.poly[key], wf._mono_str(key, labels))
        if not out:
            out.append(f"-{body}" if neg else body)
        else:
            out.append(f"- {body}" if neg else f"+ {body}")
    poly_str = " ".join(out)
    parts = [] if s.scale.is_one else [s.scale.display()]
    if poly_str != "1":
        parts.append(f"({poly_str})" if len(s.poly) > 1 else poly_str)
    parts.append(wf._render_gaussian(labels))
    return " * ".join(parts)


def ref_evaluate(s, pts):
    acc = np.zeros(pts.shape[0], dtype=complex)
    for exps, c in s.poly.items():
        mono = np.ones(pts.shape[0])
        for j, e in enumerate(exps):
            if e:
                mono = mono * pts[:, j] ** e
        acc += c.to_complex() * mono
    acc *= float(s.scale) * np.exp(-0.5 * np.sum(pts * pts, axis=-1))
    return acc


def ref_sum(a, b):
    """(a + b).poly over b's scale, for a rational scale ratio."""
    ratio = a.scale.rational_ratio(b.scale)
    out = {k: v * ratio for k, v in a.poly.items()}
    for k, v in b.poly.items():
        _ref_accumulate(out, k, v)
    return {k: v for k, v in out.items() if not v.is_zero}


# ---- random inputs ----------------------------------------------------------

def _fraction(rng):
    return Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 12)))


def random_state(rng, K, terms=5):
    poly = {tuple(int(e) for e in rng.integers(0, 4, size=K)):
            ComplexRational(_fraction(rng), _fraction(rng)) for _ in range(terms)}
    scale = PiScale(Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 9))),
                    int(rng.integers(-3, 4)))
    return PolyGaussian(K, poly, scale)


def random_fraction_coeffs(rng, K):
    coeffs = [ComplexRational(_fraction(rng), _fraction(rng)) for _ in range(2 * K)]
    coeffs[int(rng.integers(0, 2 * K))] = ComplexRational(0)
    return coeffs


def random_dyadic_form(rng, K):
    c = rng.integers(-8, 9, size=2 * K) / 8.0 + 1j * rng.integers(-8, 9, size=2 * K) / 4.0
    return LinearForm(PhaseSpaceBasis(K), c)


CASES = [(K, seed) for K in (1, 2, 3) for seed in range(4)]


def _model(b):
    return build_model(DimensionlessModel(mu=1.0, k=1.0, b=b))


def _cross_form(rng, K):
    """Random dyadic form whose every x-p cross entry is nonzero."""
    g = rng.integers(-12, 13, size=(2 * K, 2 * K)) / 16.0
    g = (g + g.T) / 2.0
    xp = rng.choice([-1.0, 1.0], size=(K, K)) * rng.integers(1, 9, size=(K, K)) / 8.0
    g[:K, K:] = xp
    g[K:, :K] = xp.T
    return QuadraticForm(PhaseSpaceBasis(K), g, 0.375)


def psi_states(quanta):
    """The symmetric model's build_eigenfunction states with m + n <= quanta."""
    z, w = (spec.form for spec in symmetric_raising_pair())
    return [build_eigenfunction(z, w, m, n)
            for m in range(quanta + 1) for n in range(quanta + 1 - m)]


# random (K, seed) cases by their ids, then the model's forms by name
QUADRATIC_CASES = [f"{K}-{seed}" for K, seed in CASES] + [
    *(f"b={b}" for b in (0.0, 0.375, -0.375, 2.0, -2.0, 3.0, -3.0)), "L_z"]


def quadratic_inputs(case):
    """(form, state) pairs for one of QUADRATIC_CASES.

    A random case pairs a form with a zero row and a form with every x-p
    cross entry nonzero with a random state, the zero state and the vacuum;
    a model case pairs the form with every eigenfunction up to 12 quanta.
    """
    if case == "L_z" or case.startswith("b="):
        q = angular_momentum_form() if case == "L_z" else _model(float(case[2:]))
        return [(q, s) for s in psi_states(12)]
    K, seed = map(int, case.split("-"))
    rng = np.random.default_rng(seed)
    g = rng.integers(-12, 13, size=(2 * K, 2 * K)) / 16.0
    g = (g + g.T) / 2.0
    zero = int(rng.integers(0, 2 * K))
    g[zero, :] = 0.0
    g[:, zero] = 0.0
    s = random_state(rng, K)
    forms = (QuadraticForm(PhaseSpaceBasis(K), g, -0.625), _cross_form(rng, K))
    states = (s, PolyGaussian(K, {}, s.scale), vacuum(K))
    return [(q, t) for q in forms for t in states]


def _counting_kernel(monkeypatch):
    calls = []
    original = wf._act_table
    monkeypatch.setattr(wf, "_act_table",
                        lambda t, table: calls.append(1) or original(t, table))
    return calls


class TestIntegerKernelMatchesReference:
    @pytest.mark.parametrize("K,seed", CASES)
    def test_act_with_fraction_coefficients(self, K, seed):
        rng = np.random.default_rng(seed)
        s = random_state(rng, K)
        coeffs = random_fraction_coeffs(rng, K)
        pairs, cden = wf._ints(coeffs)
        table = wf._linear_table(*wf._split(pairs))
        got = wf._from_ints(wf._act_table(s._terms, table), s._den * cden)
        assert got == ref_act(s.poly, coeffs)
        assert all(not c.is_zero for c in got.values())

    @pytest.mark.parametrize("K,seed", CASES)
    def test_linear_form_and_single_operators(self, K, seed):
        rng = np.random.default_rng(seed)
        s = random_state(rng, K)
        z = random_dyadic_form(rng, K)
        want = ref_act(s.poly, [ComplexRational.from_number(complex(c))
                                for c in z.coeffs])
        got = apply_linear_form(z, s)
        assert got.poly == want and got.scale == s.scale
        for index in range(2 * K):
            assert (apply_linear_form(unit_form(K, index), s).poly
                    == ref_act(s.poly, ref_unit(K, index)))

    @pytest.mark.parametrize("case", QUADRATIC_CASES)
    def test_quadratic_form_with_zero_row_and_offset(self, case):
        for q, s in quadratic_inputs(case):
            got = apply_quadratic_form(q, s)
            assert got.poly == ref_apply_quadratic(q, s)
            assert got.scale == s.scale

    def test_quadratic_form_runs_no_linear_pass(self, monkeypatch):
        # one pass of the table kernel per form, not two per row of gamma
        s = psi_states(4)[-1]
        calls = _counting_kernel(monkeypatch)
        for q in (_model(0.375), angular_momentum_form(),
                  _cross_form(np.random.default_rng(0), 2)):
            apply_quadratic_form(q, s)
        assert calls == [1, 1, 1]

    def test_eigenfunction_runs_no_ladder_pass(self, monkeypatch):
        calls = _counting_kernel(monkeypatch)
        z, w = (spec.form for spec in symmetric_raising_pair())
        rng = np.random.default_rng(0)
        for m, n in ((0, 1), (3, 0), (2, 5), (12, 12)):
            build_eigenfunction(z, w, m, n)
            build_eigenfunction(random_dyadic_form(rng, 3),
                                random_dyadic_form(rng, 3), m % 4, n % 4)
        assert calls == []

    @pytest.mark.parametrize("K,seed", CASES)
    def test_kernel_states_carry_their_pairs(self, K, seed):
        rng = np.random.default_rng(seed)
        s = random_state(rng, K)
        z = random_dyadic_form(rng, K)
        v = apply_linear_form(z, vacuum(K))
        states = [s, apply_linear_form(z, s), apply_linear_form(unit_form(K, K - 1), s),
                  apply_linear_form(unit_form(K, K), s),
                  apply_quadratic_form(_cross_form(rng, K), s),
                  wf._canonical(K, s._terms, s._den, s.scale), v, normalized_copy(v)]
        if K == 2:
            lowering = symmetric_ladders()[2].form
            states += psi_states(4) + [
                build_eigenfunction(lowering, symmetric_raising_pair()[1].form, 1, 2),
                apply_quadratic_form(_model(-0.375), psi_states(4)[-2])]
        for t in states:
            assert wf._from_ints(t._terms, t._den) == t.poly
            assert t._den > 0 and all(pair != (0, 0) for pair in t._terms.values())
            with pytest.raises(TypeError):
                t.poly[(0,) * K] = ComplexRational(1)
            c = copy.copy(t)
            assert c.poly == t.poly and c.scale == t.scale and c.K == K

    @pytest.mark.parametrize("values", [
        [0.0], [-0.0], [5e-324], [-5e-324], [1e308], [0.1],
        [np.float64(0.1)], [np.float64(-2.5e-300)],
        [complex(-0.0, -0.0)], [complex(0.25, -0.0)], [complex(-0.0, 1e-300)],
        [np.complex128(0.1 - 3.5j)],
        [0, 7, -12, Fraction(-5, 12), Fraction(7, 3)],
        [ComplexRational(Fraction(1, 6), Fraction(-4, 9)), ComplexRational(0)],
        [0.0, -0.0, 5e-324, 1e308, 0.1, np.float64(0.3), complex(-0.0, 0.5),
         3, Fraction(2, 7), ComplexRational(Fraction(1, 5), 2)],
    ])
    def test_ints_equals_fraction_route(self, values):
        pairs, den = wf._ints(values)
        want_pairs, want_den = ref_ints(values)
        assert den == want_den and pairs == want_pairs
        assert all(type(x) is int for pair in pairs for x in pair)

    @pytest.mark.parametrize("K,seed", CASES)
    def test_inner(self, K, seed):
        rng = np.random.default_rng(seed)
        a = random_state(rng, K, terms=6)
        b = random_state(rng, K, terms=4)
        for x, y in ((a, b), (b, a), (a, a)):
            got = inner(x, y)
            coeff, factor = ref_inner(x, y)
            assert got.coeff == coeff and got.factor == factor

    @pytest.mark.parametrize("K,seed", CASES)
    def test_canonical(self, K, seed):
        rng = np.random.default_rng(seed)
        s = random_state(rng, K)
        for t in (s, s.scalar_mul(Fraction(2, 3)),
                  s.scalar_mul(ComplexRational(Fraction(-6, 5), Fraction(9, 7)))):
            got = wf._canonical(K, t._terms, t._den, t.scale)
            poly, scale = ref_canonical(t)
            assert got.poly == poly and got.scale == scale

    @pytest.mark.parametrize("K,seed", CASES)
    def test_scalar_multiple(self, K, seed):
        rng = np.random.default_rng(seed)
        b = random_state(rng, K)
        r = ComplexRational(_fraction(rng) or 1, Fraction(5, 3))
        a = b.scalar_mul(r)
        got = is_scalar_multiple_exact(a, b)
        assert got.coeff == ref_scalar_multiple(a, b) == r
        assert got.factor == PiScale.one()
        key = next(iter(a.poly))
        off = PolyGaussian(K, {**a.poly, key: a.poly[key] + Fraction(1, 3)},
                           a.scale)
        assert ref_scalar_multiple(off, b) is None
        assert is_scalar_multiple_exact(off, b) is None


# ---- linear structure, evaluation and rendering -----------------------------

def _mixed_state(K):
    """Unit, negative, imaginary, mixed and fractional coefficients, den 6."""
    coeffs = [1, -1, ComplexRational(0, 1), ComplexRational(0, -1),
              ComplexRational(1, -1), ComplexRational(Fraction(-1, 2), 1),
              Fraction(5, 6), ComplexRational(0, Fraction(-4, 3)),
              ComplexRational(Fraction(7, 3), Fraction(1, 2))]
    keys = [(i,) + (i % 2,) * (K - 1) for i in range(len(coeffs))]
    return PolyGaussian(K, dict(zip(keys, coeffs)), PiScale(Fraction(9, 4), -K))


def _rendered_states(K, seed):
    rng = np.random.default_rng(seed)
    states = [random_state(rng, K), random_state(rng, K, terms=3), _mixed_state(K)]
    z = random_dyadic_form(rng, K)
    states += [apply_linear_form(z, t) for t in states]
    return states + [apply_linear_form(unit_form(K, 2 * K - 1), states[0]),
                     PolyGaussian(K, {}, PiScale())]


def _scaled_pair(rng, K):
    """a at scale 4/9 * pi^(k/4) and b at pi^(k/4), sharing some terms
    so that a - b cancels them: the scales differ by the ratio 2/3."""
    a = random_state(rng, K)
    k = int(rng.integers(-3, 4))
    a = PolyGaussian(K, a.poly, PiScale(Fraction(4, 9), k))
    shared = list(a.poly)[:2]
    b = random_state(rng, K, terms=3)
    poly = {**b.poly, **{key: a.poly[key] * Fraction(2, 3) for key in shared}}
    return a, PolyGaussian(K, poly, PiScale(1, k))


class TestPairArithmeticMatchesReference:
    @pytest.mark.parametrize("K,seed", CASES)
    def test_render(self, K, seed):
        states = _rendered_states(K, seed)
        assert any(t._den != 1 for t in states)
        for t in states:
            assert t.render() == ref_render(t)

    def test_render_covers_every_coefficient_shape(self):
        s = _mixed_state(1)
        assert s._den == 6
        assert s.render() == ref_render(s) == (
            "(3/2)/pi^(1/4) * (1 - x + i*x^2 - i*x^3 + (1 - i)*x^4 "
            "+ (-1/2 + i)*x^5 + 5/6*x^6 - 4/3*i*x^7 + (7/3 + 1/2*i)*x^8) "
            "* exp(-x^2/2)")

    @pytest.mark.parametrize("K,seed", CASES)
    def test_sum_difference_and_negation(self, K, seed):
        rng = np.random.default_rng(seed)
        a, b = _scaled_pair(rng, K)
        assert a.scale.rational_ratio(b.scale) == Fraction(2, 3)
        for x, y in ((a, b), (b, a), (a, a)):
            want = ref_sum(x, y)
            assert (x + y).poly == want and (x + y).scale == y.scale
            neg = {k: -v for k, v in y.poly.items()}
            diff = x - y
            assert diff.poly == ref_sum(x, PolyGaussian(K, neg, y.scale))
            assert diff.scale == y.scale
        assert (a - PolyGaussian(K, a.poly, a.scale)).is_zero
        # sums keep the denominator of their terms, not its powers
        total = b
        for _ in range(20):
            total = total + b - b.scalar_mul(Fraction(1, 2))
        assert total._den <= 2 * b._den
        assert is_scalar_multiple_exact(total, b).equals_rational(11)
        assert len((a - b).poly) < len(a.poly) + len(b.poly)

    @pytest.mark.parametrize("K,seed", CASES)
    def test_irrational_scale_ratio_raises(self, K, seed):
        a, b = _scaled_pair(np.random.default_rng(seed), K)
        for off in (PiScale(2, b.scale.quarter), PiScale(1, b.scale.quarter + 1)):
            with pytest.raises(ValueError, match="irrational"):
                a + PolyGaussian(K, b.poly, off)

    @pytest.mark.parametrize("K,seed", CASES)
    def test_scalar_mul(self, K, seed):
        a, _ = _scaled_pair(np.random.default_rng(seed), K)
        for r in (ComplexRational(Fraction(-6, 5), Fraction(9, 7)), Fraction(-7, 12),
                  0.375, -1.0e-3, complex(0.25, -1.5), 3, 0, 0.0,
                  ComplexRational(0)):
            got = a.scalar_mul(r)
            c = ComplexRational.from_number(r)
            want = {} if c.is_zero else {k: v * c for k, v in a.poly.items()}
            assert got.poly == want and got.scale == a.scale, r
            assert got.render() == ref_render(got)
        with pytest.raises(TypeError):
            a.scalar_mul(True)

    @pytest.mark.parametrize("K,seed", CASES)
    def test_evaluate_bitwise(self, K, seed):
        rng = np.random.default_rng(seed)
        a, b = _scaled_pair(rng, K)
        pts = rng.standard_normal((7, K)) * 1.7
        for t in (a, b, a + b, a - b, a.scalar_mul(Fraction(1, 3)),
                  apply_linear_form(random_dyadic_form(rng, K), a),
                  apply_quadratic_form(_cross_form(rng, K), b)):
            got = t.evaluate(pts)
            assert got.tobytes() == ref_evaluate(t, pts).tobytes()
            assert complex(t.evaluate(pts[3])) == complex(got[3])


# ---- closed-form norm ------------------------------------------------------

def _counting_inner(monkeypatch):
    calls = []
    original = wf.inner
    monkeypatch.setattr(wf, "inner",
                        lambda a, b: calls.append(1) or original(a, b))
    return calls


def _raw_state(z, w, m, n):
    s = vacuum(z.basis.K)
    for _ in range(n):
        s = apply_linear_form(w, s)
    for _ in range(m):
        s = apply_linear_form(z, s)
    return s


class TestClosedFormNorm:
    def test_symmetric_pair_constants(self):
        z, w = (wf._ints(complex(c) for c in spec.form.coeffs)[0]
                for spec in symmetric_raising_pair())
        assert wf._creation_norms(z, w) == (4, 4)

    def test_equals_inner_up_to_24_quanta(self, monkeypatch):
        z, w = (spec.form for spec in symmetric_raising_pair())
        calls = _counting_inner(monkeypatch)
        for n in range(25):
            raw = _raw_state(z, w, 0, n)
            for m in range(25 - n):
                calls.clear()
                psi = build_eigenfunction(z, w, m, n)
                assert calls == [], (m, n)
                # inner's squared norm, then the state divided by its root
                sq = math.factorial(m) * math.factorial(n) * 4 ** (m + n)
                assert squared_norm(raw).equals_rational(sq), (m, n)
                poly, scale = ref_canonical(
                    PolyGaussian(2, raw.poly, raw.scale / PiScale(sq, 0)))
                assert psi.poly == poly and psi.scale == scale, (m, n)
                raw = apply_linear_form(z, raw)

    @pytest.mark.parametrize("K,seed", [(K, seed) for K in (2, 3) for seed in range(3)])
    def test_creation_pairs_on_disjoint_modes(self, K, seed, monkeypatch):
        # Z on modes 0..K-2, W on mode K-1: [Z^dagger, W] = 0 and the norm
        # is closed-form, while u_Z.d_Z = 2 sum_j zx_j^2 is nonzero, so U_p
        # is not A^p as for the symmetric pair
        rng = np.random.default_rng(seed)
        zx = np.zeros(K, dtype=complex)
        zx[:K - 1] = (rng.integers(1, 9, size=K - 1) / 8.0
                      + 1j * rng.integers(-8, 9, size=K - 1) / 4.0)
        wx = np.zeros(K, dtype=complex)
        wx[K - 1] = rng.integers(1, 9) / 4.0
        z, w = (LinearForm(PhaseSpaceBasis(K), np.concatenate([cx, -1j * cx]))
                for cx in (zx, wx))
        calls = _counting_inner(monkeypatch)
        for m in range(5):
            for n in range(5):
                calls.clear()
                psi = build_eigenfunction(z, w, m, n)
                assert calls == [], (m, n)
                want = normalized_copy(_raw_state(z, w, m, n))
                assert psi.poly == want.poly and psi.scale == want.scale, (m, n)

    def test_equals_inner_at_16_16(self):
        z, w = (spec.form for spec in symmetric_raising_pair())
        psi = build_eigenfunction(z, w, 16, 16)
        assert squared_norm(psi).is_one
        want = normalized_copy(_raw_state(z, w, 16, 16))
        assert psi.poly == want.poly and psi.scale == want.scale


def _creation_x():
    """Pure creation on the first of two modes, x - i p_x."""
    return LinearForm(PhaseSpaceBasis(2), np.array([1, 0, -1j, 0]))


class TestPreconditionFailuresUseInner:
    @pytest.mark.parametrize("case,m,n", [
        # a lowering member: W^dagger W^2 |0> = 2 c_W W |0>
        ("lowering", 1, 2),
        # x and p_x: [x, p_x] = i, neither a creation combination
        ("non_commuting", 2, 1),
        # two creation combinations with [Z^dagger, W] = -2i
        ("cross_commutator", 2, 2),
        # Z = W: [Z^dagger, W] = c_Z
        ("same_form", 1, 1),
    ])
    def test_normalised_by_inner(self, case, m, n, monkeypatch):
        ladders = symmetric_ladders()
        basis = PhaseSpaceBasis(2)
        z, w = {
            "lowering": (ladders[2].form, ladders[1].form),
            "non_commuting": (LinearForm(basis, np.array([1, 0, 0, 0])),
                              LinearForm(basis, np.array([0, 0, 1, 0]))),
            "cross_commutator": (ladders[3].form, _creation_x()),
            "same_form": (ladders[3].form, ladders[3].form),
        }[case]
        calls = _counting_inner(monkeypatch)
        psi = build_eigenfunction(z, w, m, n)
        assert calls
        assert squared_norm(psi).is_one
        want = normalized_copy(_raw_state(z, w, m, n))
        assert psi.poly == want.poly and psi.scale == want.scale

    @pytest.mark.parametrize("K,seed", CASES)
    def test_random_dyadic_pairs(self, K, seed):
        rng = np.random.default_rng(seed)
        z, w = random_dyadic_form(rng, K), random_dyadic_form(rng, K)
        for m in range(5):
            for n in range(5):
                psi = build_eigenfunction(z, w, m, n)
                want = normalized_copy(_raw_state(z, w, m, n))
                assert psi.poly == want.poly and psi.scale == want.scale, (m, n)

    def test_annihilated_state_raises(self):
        lowering = symmetric_ladders()[2].form
        with pytest.raises(ValueError, match="annihilated"):
            build_eigenfunction(lowering, symmetric_raising_pair()[1].form, 1, 0)


# ---- integer paths against their Fraction routes ----------------------------

def ref_quadratic_table(q):
    """_quadratic_table with gamma and offset converted through ``_ints``."""
    K = q.basis.K
    pairs, den = wf._ints([*q.gamma.ravel().tolist(), q.offset])
    *g, offset = (re for re, _ in pairs)
    G = [g[r * 2 * K:(r + 1) * 2 * K] for r in range(2 * K)]

    def a(j, k):
        return G[j][k] - G[K + j][K + k], G[j][K + k] + G[K + j][k]

    def b(j, k):
        return G[K + j][K + k] + G[K + k][K + j], -(G[j][K + k] + G[K + k][j])

    def c(j, k):
        return -G[K + j][K + k], 0

    def sym(f, j, k):
        (ur, ui), (vr, vi) = f(j, k), f(k, j)
        return (ur, ui) if j == k else (ur + vr, ui + vi)

    c0 = (offset + sum(G[K + j][K + j] for j in range(K)),
          -sum(G[K + j][j] for j in range(K)))
    modes = range(K)
    diag = [(j, b(j, j)) for j in modes]
    moves = [(j, 1, k, 1, sym(a, j, k)) for j in modes for k in modes if j <= k]
    moves += [(j, 1, k, -1, b(j, k)) for j in modes for k in modes if j != k]
    moves += [(j, -1, k, -1, sym(c, j, k)) for j in modes for k in modes if j <= k]
    return (c0, [d for d in diag if d[1] != (0, 0)],
            [mv for mv in moves if mv[4] != (0, 0)]), den


_SPECIAL_ENTRIES = (0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308)
_entries = st.one_of(st.sampled_from(_SPECIAL_ENTRIES),
                     st.integers(-64, 64).map(lambda n: n / 16.0))


@st.composite
def dyadic_forms(draw):
    """A symmetric dyadic gamma, K = 1-4, possibly with zero rows, and an offset."""
    K = draw(st.integers(1, 4))
    n = 2 * K
    g = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            g[i, j] = g[j, i] = draw(_entries)
    for row in draw(st.sets(st.integers(0, n - 1), max_size=n)):
        g[row, :] = 0.0
        g[:, row] = 0.0
    return QuadraticForm(PhaseSpaceBasis(K), g, draw(_entries))


def _single_term(K, pair, den):
    return PolyGaussian._from_kernel(K, {(1,) * K: pair}, den, PiScale(1, -K))


_gaussian = st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))


class TestIntegerPathsMatchFractionRoute:
    def test_scalar_multiple_with_complex_ratio_and_unequal_denominators(self):
        for K, seed in CASES:
            rng = np.random.default_rng(seed)
            b = random_state(rng, K)
            r = ComplexRational(Fraction(-7, 12), Fraction(5, 9))
            a = b.scalar_mul(r)
            assert a._den != b._den
            got = is_scalar_multiple_exact(a, b)
            key = next(iter(b._terms))
            (pr, pi), (qr, qi) = a._terms[key], b._terms[key]
            want = ComplexRational(Fraction(pr * b._den), Fraction(pi * b._den)) \
                / ComplexRational(qr * a._den, qi * a._den)
            assert got.coeff == want == ref_scalar_multiple(a, b) == r
            assert got.coeff.re.imag == got.coeff.im.imag == 0

    @settings(max_examples=300, deadline=None)
    @given(p=_gaussian, q=_gaussian, da=st.integers(1, 10**4),
           db=st.integers(1, 10**4), K=st.integers(1, 3))
    def test_ratio_equals_complex_rational_division(self, p, q, da, db, K):
        assume(p != (0, 0) and q != (0, 0))
        got = is_scalar_multiple_exact(_single_term(K, p, da),
                                       _single_term(K, q, db))
        want = ComplexRational(Fraction(p[0], da), Fraction(p[1], da)) \
            / ComplexRational(Fraction(q[0], db), Fraction(q[1], db))
        assert got.coeff == want and got.factor == PiScale.one()
        for part, ref in ((got.coeff.re, want.re), (got.coeff.im, want.im)):
            assert (part.numerator, part.denominator) == (ref.numerator,
                                                          ref.denominator)

    @settings(max_examples=300, deadline=None)
    @given(q=dyadic_forms())
    @example(q=_model(0.375))
    @example(q=angular_momentum_form())
    @example(q=_cross_form(np.random.default_rng(0), 3))
    def test_quadratic_table_equals_ints_route(self, q):
        got, den = wf._quadratic_table(q)
        want, want_den = ref_quadratic_table(q)
        assert den == want_den
        assert got[0] == want[0]
        assert list(got[1]) == list(want[1]) and list(got[2]) == list(want[2])
        assert all(type(x) is int for x in (*got[0], den))

    def test_closed_form_scale_equals_normalized_copy(self, monkeypatch):
        z, w = (spec.form for spec in symmetric_raising_pair())
        closed = {(m, n): build_eigenfunction(z, w, m, n)
                  for m in range(9) for n in range(9 - m)}
        # without the closed form, the same sum is normalised through inner
        monkeypatch.setattr(wf, "_creation_norms", lambda first, second: None)
        calls = _counting_inner(monkeypatch)
        for (m, n), psi in closed.items():
            calls.clear()
            want = build_eigenfunction(z, w, m, n)
            assert calls, (m, n)
            assert psi.scale == want.scale, (m, n)
            assert (psi.scale.q.numerator, psi.scale.q.denominator) == (
                want.scale.q.numerator, want.scale.q.denominator)
            assert psi._terms == want._terms and psi._den == want._den == 1
            assert psi.scale == normalized_copy(_raw_state(z, w, m, n)).scale

    def test_raising_pair_is_two_of_the_ladders(self):
        ladders = symmetric_ladders()
        pair = symmetric_raising_pair()
        assert len(pair) == 2
        for spec, want in zip(pair, (ladders[3], ladders[1])):
            assert spec.form.coeffs.dtype == want.form.coeffs.dtype
            assert spec.form.coeffs.tobytes() == want.form.coeffs.tobytes()
            assert spec.form.basis == want.form.basis
            assert (spec.isotropic_shift, spec.rotation_weight) == (
                want.isotropic_shift, want.rotation_weight)
        # the ladders are shared and read-only, so no caller can change what
        # a later call returns
        want = ladders[3].form.coeffs.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            pair[0].form.coeffs[:] = 0
        assert symmetric_raising_pair()[0].form.coeffs.tobytes() == want
