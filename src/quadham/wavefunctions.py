"""Exact polynomial-times-Gaussian states and operator actions on them.

A state is scale * f(x) * exp(-|x|^2 / 2) with f a polynomial over exact
complex rationals and scale a PiScale.  Position acts by multiplication,
momentum by p_j = -i d/dx_j, which on the polynomial part is
f -> -i df/dx_j + i x_j f.  Every operation here is exact: floats entering
through form coefficients are dyadic rationals and convert losslessly.

A state holds its polynomial as numerator pairs (re, im) of Python ints by
exponent tuple over one shared positive denominator (a power of two for the
dyadic coefficients the models produce, any positive integer for general
Fraction coefficients).  Every operation runs on those pairs: the linear
structure, ``evaluate``, ``render``, ``inner``,
``is_scalar_multiple_exact`` and ``build_eigenfunction``.  The constructor
is the one place a caller's coefficients convert to pairs, and
``PolyGaussian.poly``, a read-only ComplexRational view built on first use,
is output only: nothing here reads it.

Every operator acts through one kernel, ``_act_table``, on a table of
moves.  A linear form sum_j (cx_j x_j + cp_j p_j) acts on the polynomial
part as u.x - d.grad with u_j = cx_j + i cp_j and d_j = i cp_j, a
first-order table.  A quadratic form sum_ab gamma_ab O_a O_b + offset acts
as one second-order operator: sum_jk (A_jk x_j x_k + B_jk x_j d_k +
C_jk d_j d_k) + c0.  Its table follows from p_j (f G) = (-i d_j f + i x_j f) G
and is derived once per form, in Gaussian integers, with exact cancellations
dropped: for gamma = identity the x_j^2 terms cancel and p_j^2 + x_j^2 leaves
-d_j^2 + 2 x_j d_j + 1.  A linear form's numerators and its u, d split are
likewise derived once per form; a form is a value, so they stay valid.

``build_eigenfunction`` builds Z^m W^n |0> from its generating function
e^(sZ) e^(tW) |0>, a Gaussian because [Z, W] is a scalar: a finite sum of
products of two Hermite-type polynomials, Ito's complex Hermite polynomials
for the symmetric model's raising pair, instead of m + n ladder passes.  It
normalises the state in closed form when both forms
are pure creation combinations (cp_j = -i cx_j, so Z^dagger |0> = 0) with
[Z^dagger, W] = 0.  Then [Z, W] = 0 and c = [Z^dagger, Z] > 0 follow, and
||Z^m W^n |0>||^2 = m! n! c_Z^m c_W^n (Colpa, Physica A 93 (1978) 327).  Any
other pair of forms is normalised through ``inner``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from ._exact import ComplexRational, PiScale, _ratio_str, _rational_sqrt
from .phase_space import LinearForm, PhaseSpaceBasis, QuadraticForm, _count, _derived

@dataclass(frozen=True, eq=False)
class ExactAmount:
    """An exact value coeff * factor, factor a positive real PiScale."""

    coeff: ComplexRational
    factor: PiScale

    @property
    def is_zero(self) -> bool:
        return self.coeff.is_zero

    @property
    def is_one(self) -> bool:
        return self.equals_rational(1)

    def equals_rational(self, value) -> bool:
        r = Fraction(value) if not isinstance(value, Fraction) else value
        c = self.coeff
        if c.im != 0 or self.factor.quarter != 0:
            return False
        if r == 0:
            return c.re == 0
        if (c.re > 0) != (r > 0):
            return False
        return c.re * c.re * self.factor.q == r * r

    def __repr__(self):
        return f"ExactAmount({self.coeff!r}, {self.factor!r})"


class PolyGaussian:
    """scale * (polynomial in x_1..x_K) * exp(-|x|^2/2).

    The numerator pairs and their denominator are the state; ``poly`` is
    their ComplexRational view, built from them on first use.  The
    constructor validates and converts a caller's polynomial; every other
    state comes from ``_from_kernel``.
    """

    __slots__ = ("K", "scale", "_terms", "_den", "_poly")

    def __init__(self, K: int, poly, scale: PiScale):
        K = _count(K, 1, "K must be a positive integer")
        terms, den = _poly_ints(K, poly)
        if not isinstance(scale, PiScale):
            raise TypeError("scale must be a PiScale")
        _set(self, K, terms, den, scale)

    @classmethod
    def _from_kernel(cls, K: int, terms: dict, den: int,
                     scale: PiScale) -> "PolyGaussian":
        """A state from kernel output: nonzero pairs over den > 0, unchecked."""
        s = object.__new__(cls)
        _set(s, K, terms, den, scale)
        return s

    def __setattr__(self, name, value):
        raise AttributeError("PolyGaussian is immutable")

    def __reduce__(self):
        return PolyGaussian._from_kernel, (self.K, self._terms, self._den, self.scale)

    @property
    def poly(self) -> MappingProxyType:
        """Exponent tuple -> ComplexRational coefficient, read-only."""
        if self._poly is None:
            object.__setattr__(self, "_poly",
                               MappingProxyType(_from_ints(self._terms, self._den)))
        return self._poly

    @property
    def is_zero(self) -> bool:
        return not self._terms

    # ---- linear structure ------------------------------------------------

    def scalar_mul(self, z) -> "PolyGaussian":
        [(zr, zi)], den = _ints([z])
        terms = {k: (zr * re - zi * im, zr * im + zi * re)
                 for k, (re, im) in self._terms.items()} if zr or zi else {}
        return PolyGaussian._from_kernel(self.K, terms, self._den * den, self.scale)

    def __add__(self, other: "PolyGaussian") -> "PolyGaussian":
        if not isinstance(other, PolyGaussian):
            return NotImplemented
        if self.K != other.K:
            raise ValueError("cannot add states with different mode counts")
        ratio = self.scale.rational_ratio(other.scale)
        if ratio is None:
            raise ValueError(
                "scales differ by an irrational factor; exact addition "
                "is not representable"
            )
        # (p / q) A / da + B / db over L = lcm(q da, db), so that repeated
        # sums keep the denominator of their terms
        qa = ratio.denominator * self._den
        den = math.lcm(qa, other._den)
        fa, fb = ratio.numerator * (den // qa), den // other._den
        out = {k: (fa * re, fa * im) for k, (re, im) in self._terms.items()}
        for k, (re, im) in other._terms.items():
            ar, ai = out.get(k, (0, 0))
            out[k] = (ar + fb * re, ai + fb * im)
        return PolyGaussian._from_kernel(
            self.K, {k: v for k, v in out.items() if v != (0, 0)}, den, other.scale)

    def __sub__(self, other: "PolyGaussian") -> "PolyGaussian":
        if not isinstance(other, PolyGaussian):
            return NotImplemented
        return self + other.scalar_mul(-1)

    # ---- numerics ----------------------------------------------------------

    def evaluate(self, points) -> complex | np.ndarray:
        """Value at points of shape (K,) or (N, K)."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim not in (1, 2):
            raise ValueError(f"points must have shape ({self.K},) or (N, {self.K})")
        if pts.shape[-1] != self.K:
            raise ValueError(f"points must have last dimension {self.K}")
        single = pts.ndim == 1
        if single:
            pts = pts[None, :]
        den = self._den
        acc = np.zeros(pts.shape[0], dtype=complex)
        for exps, (re, im) in self._terms.items():
            mono = np.ones(pts.shape[0])
            for j, e in enumerate(exps):
                if e:
                    mono = mono * pts[:, j] ** e
            # int / int is correctly rounded, as Fraction.__float__ is
            acc += complex(re / den, im / den) * mono
        acc *= float(self.scale) * np.exp(-0.5 * np.sum(pts * pts, axis=-1))
        return complex(acc[0]) if single else acc

    # ---- rendering ---------------------------------------------------------

    def render(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        if not self.scale.is_one:
            parts.append(self.scale.display())
        labels = PhaseSpaceBasis(self.K).labels()[:self.K]
        poly_str = _render_poly(self._terms, self._den, labels)
        if poly_str != "1":
            if len(self._terms) > 1:
                poly_str = f"({poly_str})"
            parts.append(poly_str)
        parts.append(_render_gaussian(labels))
        return " * ".join(parts)

    def __repr__(self):
        return f"PolyGaussian({self.render()!r})"


def _set(s: PolyGaussian, K: int, terms: dict, den: int, scale: PiScale) -> None:
    for name, value in (("K", K), ("scale", scale), ("_terms", terms),
                        ("_den", den), ("_poly", None)):
        object.__setattr__(s, name, value)


# ---- Gaussian-integer representation ---------------------------------------


def _ratios(v) -> tuple[tuple[int, int], tuple[int, int]]:
    """(numerator, denominator) in lowest terms of v's real and imaginary parts.

    A float converts through as_integer_ratio, which is what Fraction(float)
    does; anything else goes through ComplexRational.from_number.
    """
    if isinstance(v, float):
        return v.as_integer_ratio(), (0, 1)
    if isinstance(v, complex):
        return v.real.as_integer_ratio(), v.imag.as_integer_ratio()
    c = ComplexRational.from_number(v)
    return (c.re.numerator, c.re.denominator), (c.im.numerator, c.im.denominator)


def _ints(values) -> tuple[list[tuple[int, int]], int]:
    """Exact numbers as Gaussian-integer numerators (re, im) over one denominator."""
    parts = [_ratios(v) for v in values]
    den = math.lcm(1, *(d for re, im in parts for d in (re[1], im[1])))
    return [(rn * (den // rd), jn * (den // jd))
            for (rn, rd), (jn, jd) in parts], den


def _poly_ints(K: int, poly) -> tuple[dict, int]:
    """A caller's polynomial as nonzero numerator pairs by exponent tuple,
    and their denominator; zero coefficients have denominator 1."""
    keys = []
    for exps in poly:
        if any(isinstance(e, bool) or not isinstance(e, numbers.Integral)
               for e in exps):
            raise ValueError(f"exponents must be integers, got {exps!r}")
        key = tuple(int(e) for e in exps)
        if len(key) != K:
            raise ValueError(f"exponent tuple {key} does not have length {K}")
        if any(e < 0 for e in key):
            raise ValueError(f"negative exponent in {key}")
        keys.append(key)
    pairs, den = _ints(poly.values())
    return {k: pair for k, pair in zip(keys, pairs) if pair != (0, 0)}, den


def _from_ints(terms: dict, den: int) -> dict:
    return {k: ComplexRational(Fraction(re, den), Fraction(im, den))
            for k, (re, im) in terms.items()}


def _content(terms: dict) -> tuple[int, dict]:
    """(g, terms / g) for nonzero terms, g the gcd of every numerator."""
    g = math.gcd(*(part for pair in terms.values() for part in pair))
    return g, {k: (re // g, im // g) for k, (re, im) in terms.items()}


def _canonical(K: int, terms: dict, den: int, scale: PiScale) -> "PolyGaussian":
    """scale * (terms / den) * G for nonzero terms, the positive rational
    content of the polynomial moved into the scale; sign and phase stay."""
    g, primitive = _content(terms)
    return PolyGaussian._from_kernel(K, primitive, 1, scale * Fraction(g, den))


def _render_gaussian(labels: list[str]) -> str:
    if len(labels) == 1:
        return f"exp(-{labels[0]}^2/2)"
    body = " + ".join(f"{v}^2" for v in labels)
    return f"exp(-({body})/2)"


def _mono_str(exps: tuple, labels: list[str]) -> str:
    pieces = []
    for label, e in zip(labels, exps):
        if e == 1:
            pieces.append(label)
        elif e > 1:
            pieces.append(f"{label}^{e}")
    return "*".join(pieces)


def _imag_str(mag: int, den: int) -> str:
    return "i" if mag == den else f"{_ratio_str(mag, den)}*i"


def _term_pieces(re: int, im: int, den: int, mono: str) -> tuple[bool, str]:
    """(is_negative, body) for one rendered term with coefficient (re + i im) / den."""
    if im == 0:
        neg = re < 0
        coeff = "" if mono and abs(re) == den else _ratio_str(abs(re), den)
    elif re == 0:
        neg = im < 0
        coeff = _imag_str(abs(im), den)
    else:
        neg = False
        sign = "+" if im > 0 else "-"
        coeff = f"({_ratio_str(re, den)} {sign} {_imag_str(abs(im), den)})"
    if coeff and mono:
        return neg, f"{coeff}*{mono}"
    return neg, coeff or mono


def _render_poly(terms: dict, den: int, labels: list[str]) -> str:
    # ascending total degree, then descending exponents; the keys are unique
    keys = sorted(terms, key=lambda k: (-sum(k), k), reverse=True)
    out = []
    for key in keys:
        neg, body = _term_pieces(*terms[key], den, _mono_str(key, labels))
        if not out:
            out.append(f"-{body}" if neg else body)
        else:
            out.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(out)


# ---- construction and form actions -----------------------------------------


def vacuum(K: int) -> PolyGaussian:
    """Normalised Gaussian ground state of K modes."""
    return PolyGaussian(K, {(0,) * K: ComplexRational(1)}, PiScale(1, -int(K)))


def _linear_table(u: list, d: list) -> tuple:
    """The first-order table of a linear form whose ``_split`` is (u, d).

    On the polynomial part the form is u.x - d.grad: a raise of e_j with
    coefficient u_j and a lowering of e_j with coefficient -d_j.
    """
    moves = [(j, 1, j, 0, uj) for j, uj in enumerate(u) if uj != (0, 0)]
    moves += [(j, -1, j, 0, (-dr, -di)) for j, (dr, di) in enumerate(d) if dr or di]
    return (0, 0), (), tuple(moves)


def _applied(s: PolyGaussian, table: tuple, den: int) -> PolyGaussian:
    """s acted on by the operator table with numerators over den."""
    return PolyGaussian._from_kernel(s.K, _act_table(s._terms, table),
                                     s._den * den, s.scale)


def _linear_parts(z: LinearForm) -> tuple:
    """(numerators, denominator, u, d, table) of z: its Gaussian-integer
    coefficients, their ``_split`` and its first-order table, derived once
    per form."""
    coeffs, den = _ints(z.coeffs.tolist())
    u, d = _split(coeffs)
    return tuple(coeffs), den, tuple(u), tuple(d), _linear_table(u, d)


def apply_linear_form(z: LinearForm, s: PolyGaussian) -> PolyGaussian:
    """Act with sum_j (cx_j x_j + cp_j p_j); coefficients convert exactly."""
    if z.basis.K != s.K:
        raise ValueError("linear form and state have different mode counts")
    _, den, _, _, table = _derived(z, _linear_parts)
    return _applied(s, table, den)


def _quadratic_table(q: QuadraticForm) -> tuple[tuple, int]:
    """q as one second-order operator on the polynomial part, over a denominator.

    With X_j f = x_j f and P_j f = i (x_j f - d_j f), the ordered products are
    X_j P_k = i x_j x_k - i x_j d_k,
    P_j X_k = i x_j x_k - i x_k d_j - i delta_jk and
    P_j P_k = -x_j x_k + x_j d_k + x_k d_j - d_j d_k + delta_jk, so
    sum_ab gamma_ab O_a O_b + offset acts as
    sum_jk (A_jk x_j x_k + B_jk x_j d_k + C_jk d_j d_k) + c0 with, for the
    blocks xx, xp, px, pp of gamma,
        A_jk = xx_jk - pp_jk + i (xp_jk + px_jk)
        B_jk = pp_jk + pp_kj - i (xp_jk + px_kj)
        C_jk = -pp_jk
        c0   = offset + sum_j (pp_jj - i px_jj).
    The table is (c0, diag, moves): diag holds (j, B_jj), and moves holds
    (j, dj, k, dk, coefficient) for A_jk + A_kj (j <= k, the j = k entry
    once) with dj = dk = +1, for B_jk (j != k) with dj = +1, dk = -1, and for
    C_jk + C_kj (j <= k) with dj = dk = -1.  Entries that cancel to zero
    are dropped; gamma and offset are real floats, exact over one denominator.
    """
    K = q.basis.K
    ratios = [v.as_integer_ratio() for v in (*q.gamma.ravel().tolist(), q.offset)]
    den = math.lcm(*(d for _, d in ratios))
    *g, offset = (n * (den // d) for n, d in ratios)
    G = [g[r * 2 * K:(r + 1) * 2 * K] for r in range(2 * K)]

    def a(j, k):
        return G[j][k] - G[K + j][K + k], G[j][K + k] + G[K + j][k]

    def b(j, k):
        return G[K + j][K + k] + G[K + k][K + j], -(G[j][K + k] + G[K + k][j])

    def c(j, k):
        return -G[K + j][K + k], 0

    def sym(f, j, k):  # f_jk + f_kj, or f_jj once
        (ur, ui), (vr, vi) = f(j, k), f(k, j)
        return (ur, ui) if j == k else (ur + vr, ui + vi)

    c0 = (offset + sum(G[K + j][K + j] for j in range(K)),
          -sum(G[K + j][j] for j in range(K)))
    modes = range(K)
    diag = [(j, b(j, j)) for j in modes]
    moves = [(j, 1, k, 1, sym(a, j, k)) for j in modes for k in modes if j <= k]
    moves += [(j, 1, k, -1, b(j, k)) for j in modes for k in modes if j != k]
    moves += [(j, -1, k, -1, sym(c, j, k)) for j in modes for k in modes if j <= k]
    return (c0, tuple(d for d in diag if d[1] != (0, 0)),
            tuple(mv for mv in moves if mv[4] != (0, 0))), den


def _act_table(terms: dict, table: tuple) -> dict:
    """Numerators of an operator table acting on terms * G; the one kernel.

    A monomial keeps its exponents with weight c0 + sum_j B_jj e_j.  A move
    shifts e_k by dk and then e_j by dj; a lowering weighs the exponent it
    lowers, read after the earlier shift, and a raise weighs 1, so d_j d_k
    weighs e_k (e_j - delta_jk) and x_j d_k weighs e_k.  A move with dk = 0
    leaves e_k alone with weight 1: the first-order moves of
    ``_linear_table``.  The result is over the product of the terms' and the
    table's denominators.
    """
    (c0r, c0i), diag, moves = table
    out: dict = {}
    get = out.get
    for exps, (cr, ci) in terms.items():
        fr, fi = c0r, c0i
        for j, (br, bi) in diag:
            fr += exps[j] * br
            fi += exps[j] * bi
        if fr or fi:
            cur = get(exps)
            vr, vi = fr * cr - fi * ci, fr * ci + fi * cr
            out[exps] = (vr, vi) if cur is None else (cur[0] + vr, cur[1] + vi)
        e = list(exps)
        for j, dj, k, dk, (ar, ai) in moves:
            w = e[k] if dk < 0 else 1
            e[k] += dk
            if dj < 0:
                w *= e[j]
            e[j] += dj
            if w:
                key = tuple(e)
                cur = get(key)
                vr, vi = w * (ar * cr - ai * ci), w * (ar * ci + ai * cr)
                out[key] = (vr, vi) if cur is None else (cur[0] + vr, cur[1] + vi)
            e[j] -= dj
            e[k] -= dk
    return {k: v for k, v in out.items() if v != (0, 0)}


def apply_quadratic_form(q: QuadraticForm, s: PolyGaussian) -> PolyGaussian:
    """Act with sum_ab gamma_ab O_a O_b + offset, exactly, in one pass."""
    if q.basis.K != s.K:
        raise ValueError("quadratic form and state have different mode counts")
    return _applied(s, *_derived(q, _quadratic_table))


def inner(a: PolyGaussian, b: PolyGaussian) -> ExactAmount:
    """Exact L2 inner product <a, b>, conjugate-linear in a."""
    if a.K != b.K:
        raise ValueError("states have different mode counts")
    factor = a.scale * b.scale * PiScale(1, 2 * a.K)
    ta, da = a._terms, a._den
    tb, db = b._terms, b._den
    # integral x^m e^(-x^2) dx / sqrt(pi) is (m-1)!! / 2^(m/2) for even m and
    # 0 for odd m, so only terms whose exponents agree in parity pair up.
    # Over the common denominator 2^half a pair weighs
    # prod_j (x_j + y_j - 1)!! * 2^(half - (|x| + |y|)/2).
    top = max(map(max, ta), default=0) + max(map(max, tb), default=0)
    double_fact = [1] * (top + 1)
    for m in range(2, top + 1, 2):
        double_fact[m] = double_fact[m - 2] * (m - 1)
    half = (max(map(sum, ta), default=0) + max(map(sum, tb), default=0)) // 2
    by_parity: dict = {}
    for eb, cb in tb.items():
        by_parity.setdefault(tuple(e & 1 for e in eb), []).append((eb, sum(eb), cb))
    re = im = 0
    for ea, (ar, ai) in ta.items():
        sa = sum(ea)
        for eb, sb, (br, bi) in by_parity.get(tuple(e & 1 for e in ea), ()):
            w = math.prod(double_fact[x + y] for x, y in zip(ea, eb)) \
                << (half - (sa + sb) // 2)
            re += (ar * br + ai * bi) * w
            im += (ar * bi - ai * br) * w
    den = da * db << half
    return ExactAmount(ComplexRational(Fraction(re, den), Fraction(im, den)),
                       factor)


def squared_norm(s: PolyGaussian) -> ExactAmount:
    return inner(s, s)


def normalized_copy(s: PolyGaussian) -> PolyGaussian:
    """s divided by its exact norm, a PiScale, in ``_canonical`` form."""
    sq = squared_norm(s)
    if sq.is_zero:
        raise ValueError("zero state has no normalisation")
    if sq.coeff.im != 0 or sq.coeff.re <= 0:
        raise ValueError("squared norm is not a positive rational multiple")
    radicand = sq.coeff.re * sq.coeff.re * sq.factor.q
    root = _rational_sqrt(radicand)
    if root is None or sq.factor.quarter % 2:
        raise ValueError("norm is not representable as sqrt(q) * pi^(k/4)")
    return _canonical(s.K, s._terms, s._den,
                      s.scale / PiScale(root, sq.factor.quarter // 2))


def is_scalar_multiple_exact(a: PolyGaussian, b: PolyGaussian) -> ExactAmount | None:
    """The exact amount r with a = r * b, or None if a is not a multiple of b."""
    if a.K != b.K:
        return None
    if b.is_zero:
        return ExactAmount(ComplexRational(1), PiScale.one()) if a.is_zero else None
    if a.is_zero:
        return ExactAmount(ComplexRational(0), PiScale.one())
    ta, da = a._terms, a._den
    tb, db = b._terms, b._den
    if ta.keys() != tb.keys():
        return None
    key = next(iter(tb))
    (pr, pi), (qr, qi) = ta[key], tb[key]
    # a_k / b_k = p / q for every k, as a_k * q = p * b_k
    for k, (br, bi) in tb.items():
        ar, ai = ta[k]
        if (ar * qr - ai * qi != pr * br - pi * bi
                or ar * qi + ai * qr != pr * bi + pi * br):
            return None
    # (p / da) / (q / db) = p conj(q) db / (|q|^2 da)
    den = (qr * qr + qi * qi) * da
    ratio = ComplexRational(Fraction((pr * qr + pi * qi) * db, den),
                            Fraction((pi * qr - pr * qi) * db, den))
    return ExactAmount(ratio, a.scale / b.scale)


def _creation_norms(z: list, w: list) -> tuple[int, int] | None:
    """Numerators of c_Z = [Z^dagger, Z] and c_W = [W^dagger, W], or None.

    None unless ||Z^m W^n |0>||^2 = m! n! c_Z^m c_W^n: both forms must be
    pure creation combinations, cp_j = -i cx_j, and [Z^dagger, W] must vanish.
    For such forms [x_j, p_k] = i delta_jk gives [Z, W] = 0 identically,
    [Z^dagger, W] = 2 sum_j conj(zx_j) wx_j and c_Z = 2 sum_j |zx_j|^2, each
    over the product of the two forms' denominators.
    """
    K = len(z) // 2
    for f in (z, w):
        if any(f[K + j] != (f[j][1], -f[j][0]) for j in range(K)):
            return None
    cross_re = sum(zr * wr + zi * wi for (zr, zi), (wr, wi) in zip(z[:K], w[:K]))
    cross_im = sum(zr * wi - zi * wr for (zr, zi), (wr, wi) in zip(z[:K], w[:K]))
    if cross_re or cross_im:
        return None
    return tuple(2 * sum(r * r + i * i for r, i in f[:K]) for f in (z, w))


def _split(coeffs: list) -> tuple[list, list]:
    """(u, d) of a linear form's numerators, positions first: the form acts
    on the polynomial part as u.x - d.grad, u_j = cx_j + i cp_j and
    d_j = i cp_j."""
    K = len(coeffs) // 2
    u = [(xr - pi, xi + pr) for (xr, xi), (pr, pi) in zip(coeffs[:K], coeffs[K:])]
    return u, [(-pi, pr) for pr, pi in coeffs[K:]]


def _dot(u: list, d: list) -> tuple[int, int]:
    """The bilinear product sum_j u_j d_j of two lists of pairs."""
    re = im = 0
    for (ur, ui), (dr, di) in zip(u, d):
        re += ur * dr - ui * di
        im += ur * di + ui * dr
    return re, im


def _hermite(u: list, ud: tuple[int, int], top: int, shifts: list) -> list[dict]:
    """U_0 .. U_top of U_0 = 1, U_(p+1) = (u.x) U_p - p (u.d) U_(p-1).

    Each U_p maps packed exponent keys to numerator pairs; x_j adds
    shifts[j] to a key.
    """
    moves = [(s, ur, ui) for s, (ur, ui) in zip(shifts, u) if ur or ui]
    kr, ki = ud
    polys = [{0: (1, 0)}]
    for p in range(top):
        out: dict = {}
        get = out.get
        for key, (cr, ci) in polys[p].items():
            for s, ur, ui in moves:
                k = key + s
                vr, vi = ur * cr - ui * ci, ur * ci + ui * cr
                cur = get(k)
                out[k] = (vr, vi) if cur is None else (cur[0] + vr, cur[1] + vi)
        if p and (kr or ki):
            for key, (cr, ci) in polys[p - 1].items():
                vr, vi = p * (kr * cr - ki * ci), p * (kr * ci + ki * cr)
                cur = get(key)
                out[key] = (-vr, -vi) if cur is None else (cur[0] - vr, cur[1] - vi)
        polys.append(out)
    return polys


def build_eigenfunction(z_first: LinearForm, z_second: LinearForm,
                        m: int, n: int) -> PolyGaussian:
    """Normalised Z^m W^n |0>, Z = z_first and W = z_second.

    On the polynomial part a form acts as u.x - d.grad, u_j = cx_j + i cp_j
    and d_j = i cp_j.  Because [Z, W] and [d_j, x_k] are scalars,
    e^(sZ) e^(tW) = e^(sZ + tW + st [Z, W] / 2) and e^(a.x - b.grad) 1 =
    e^(a.x - a.b / 2), so with A = u_Z.x and B = u_W.x
        e^(sZ) e^(tW) 1 = e^(sA - s^2 u_Z.d_Z / 2) e^(tB - t^2 u_W.d_W / 2)
                          e^(-st u_W.d_Z),
    whose s^m t^n / (m! n!) coefficient is
        Z^m W^n 1 = sum_c c! C(m, c) C(n, c) (-u_W.d_Z)^c U_(m-c) V_(n-c)
    with U_0 = 1, U_(p+1) = A U_p - p (u_Z.d_Z) U_(p-1), and V_q alike from
    B.  For the symmetric model's raising pair these are Ito's complex
    Hermite polynomials H_(m,n)(z, conj z) (K. Ito, Jpn. J. Math. 22 (1952)
    63).  Every term is a Gaussian integer over first_den^m second_den^n, as
    after m + n ladder passes.  Exponent tuples are packed into one int in
    base m + n + 1 while summing and unpacked once at the end.
    """
    m, n = (_count(q, 0, "quantum numbers must be non-negative integers")
            for q in (m, n))
    if z_first.basis != z_second.basis:
        raise ValueError("ladder forms live on different bases")
    first, first_den, u_z, d_z, _ = _derived(z_first, _linear_parts)
    second, second_den, u_w, d_w, _ = _derived(z_second, _linear_parts)
    K = z_first.basis.K
    base = m + n + 1
    shifts = [base ** j for j in range(K)]
    us = _hermite(u_z, _dot(u_z, d_z), m, shifts)
    vs = _hermite(u_w, _dot(u_w, d_w), n, shifts)
    kr, ki = _dot(u_w, d_z)
    kr, ki = -kr, -ki  # kappa = -u_W.d_Z
    out: dict = {}
    get = out.get
    wr, wi = 1, 0  # kappa^c, zero for every c > 0 when kappa = 0
    for c in range(min(m, n) + 1 if kr or ki else 1):
        if c:
            wr, wi = wr * kr - wi * ki, wr * ki + wi * kr
        f = math.comb(m, c) * math.comb(n, c) * math.factorial(c)
        sr, si = f * wr, f * wi
        v_items = list(vs[n - c].items())
        for ka, (ar, ai) in us[m - c].items():
            tr, ti = sr * ar - si * ai, sr * ai + si * ar
            for kb, (br, bi) in v_items:
                k = ka + kb
                vr, vi = tr * br - ti * bi, tr * bi + ti * br
                cur = get(k)
                out[k] = (vr, vi) if cur is None else (cur[0] + vr, cur[1] + vi)
    terms = {}
    for key, pair in out.items():
        if pair != (0, 0):
            exps = []
            for _ in range(K):
                key, e = divmod(key, base)
                exps.append(e)
            terms[tuple(exps)] = pair
    if not terms:
        raise ValueError("ladder application annihilated the state")
    c = _creation_norms(first, second)
    if c is None:  # the vacuum's scale is pi^(-K/4)
        return normalized_copy(PolyGaussian._from_kernel(
            K, terms, first_den ** m * second_den ** n, PiScale(1, -K)))
    # terms over den have squared norm N / den^2, N = m! n! c_Z^m c_W^n, so
    # with their content g moved out the scale's radicand is g^2 / N
    g, primitive = _content(terms)
    norm = math.factorial(m) * math.factorial(n) * c[0] ** m * c[1] ** n
    return PolyGaussian._from_kernel(K, primitive, 1,
                                     PiScale(Fraction(g * g, norm), -K))
