"""Exact polynomial-times-Gaussian states and ladder actions on them.

A state is scale * f(x) * exp(-|x|^2 / 2) with f a polynomial over exact
complex rationals and scale a PiScale.  Position acts by multiplication,
momentum by p_j = -i d/dx_j, which on the polynomial part is
f -> -i df/dx_j + i x_j f.  Every operation here is exact: floats entering
through form coefficients are dyadic rationals and convert losslessly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._exact import ComplexRational, PiScale, _fraction_str, _rational_sqrt
from .phase_space import LinearForm, PhaseSpaceBasis, QuadraticForm

_I = ComplexRational(0, 1)


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

    def to_complex(self) -> complex:
        return self.coeff.to_complex() * float(self.factor)

    def __repr__(self):
        return f"ExactAmount({self.coeff!r}, {self.factor!r})"


def _clean_poly(K: int, poly) -> dict:
    out = {}
    for exps, coeff in poly.items():
        key = tuple(int(e) for e in exps)
        if len(key) != K:
            raise ValueError(f"exponent tuple {key} does not have length {K}")
        if any(e < 0 for e in key):
            raise ValueError(f"negative exponent in {key}")
        c = ComplexRational.from_number(coeff)
        if not c.is_zero:
            out[key] = c
    return out


@dataclass(frozen=True, eq=False)
class PolyGaussian:
    """scale * (polynomial in x_1..x_K) * exp(-|x|^2/2)."""

    K: int
    poly: dict
    scale: PiScale

    def __post_init__(self):
        if not isinstance(self.K, int) or self.K < 1:
            raise ValueError("K must be a positive integer")
        object.__setattr__(self, "poly", _clean_poly(self.K, self.poly))
        if not isinstance(self.scale, PiScale):
            raise TypeError("scale must be a PiScale")

    @property
    def is_zero(self) -> bool:
        return not self.poly

    # ---- linear structure ------------------------------------------------

    def scalar_mul(self, z) -> "PolyGaussian":
        c = ComplexRational.from_number(z)
        if c.is_zero:
            return PolyGaussian(self.K, {}, self.scale)
        return PolyGaussian(self.K, {k: v * c for k, v in self.poly.items()},
                            self.scale)

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
        out = {k: v * ratio for k, v in self.poly.items()}
        for k, v in other.poly.items():
            _accumulate(out, k, v)
        return PolyGaussian(self.K, out, other.scale)

    def __sub__(self, other: "PolyGaussian") -> "PolyGaussian":
        if not isinstance(other, PolyGaussian):
            return NotImplemented
        return self + other.scalar_mul(-1)

    def __neg__(self) -> "PolyGaussian":
        return self.scalar_mul(-1)

    # ---- operator actions ------------------------------------------------

    def apply_position(self, j: int) -> "PolyGaussian":
        self._check_mode(j)
        return PolyGaussian(self.K, _act(self.poly, _unit(self.K, j)), self.scale)

    def apply_momentum(self, j: int) -> "PolyGaussian":
        self._check_mode(j)
        return PolyGaussian(self.K, _act(self.poly, _unit(self.K, self.K + j)),
                            self.scale)

    def _check_mode(self, j: int) -> None:
        if not 0 <= j < self.K:
            raise ValueError(f"mode index {j} out of range for K={self.K}")

    # ---- canonical form and equality --------------------------------------

    def canonical(self) -> "PolyGaussian":
        """Unique representative: polynomial content moved into the scale.

        After this, equal states compare equal field by field.  The sign and
        phase stay in the polynomial; only positive rational content moves.
        """
        if not self.poly:
            return PolyGaussian(self.K, {}, PiScale.one())
        content = None
        for c in self.poly.values():
            for part in (abs(c.re), abs(c.im)):
                if part == 0:
                    continue
                content = part if content is None else _fraction_gcd(content, part)
        if content is None or content == 1:
            return self
        poly = {k: v / content for k, v in self.poly.items()}
        return PolyGaussian(self.K, poly, self.scale * content)

    def equals_exact(self, other: "PolyGaussian") -> bool:
        if self.K != other.K:
            return False
        a = self.canonical()
        b = other.canonical()
        return a.scale == b.scale and a.poly == b.poly

    # ---- numerics ----------------------------------------------------------

    def evaluate(self, points) -> complex | np.ndarray:
        """Value at points of shape (K,) or (N, K)."""
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        if single:
            pts = pts[None, :]
        if pts.shape[-1] != self.K:
            raise ValueError(f"points must have last dimension {self.K}")
        acc = np.zeros(pts.shape[0], dtype=complex)
        for exps, c in self.poly.items():
            mono = np.ones(pts.shape[0])
            for j, e in enumerate(exps):
                if e:
                    mono = mono * pts[:, j] ** e
            acc += c.to_complex() * mono
        acc *= float(self.scale) * np.exp(-0.5 * np.sum(pts * pts, axis=-1))
        return complex(acc[0]) if single else acc

    # ---- rendering ---------------------------------------------------------

    def render(self) -> str:
        if not self.poly:
            return "0"
        parts = []
        if not self.scale.is_one:
            parts.append(self.scale.display())
        poly_str = _render_poly(self.poly, PhaseSpaceBasis(self.K).labels()[:self.K])
        if poly_str != "1":
            if len(self.poly) > 1:
                poly_str = f"({poly_str})"
            parts.append(poly_str)
        parts.append(_render_gaussian(self.K))
        return " * ".join(parts)

    def __repr__(self):
        return f"PolyGaussian({self.render()!r})"


def _accumulate(table: dict, key: tuple, value: ComplexRational) -> None:
    cur = table.get(key)
    new = value if cur is None else cur + value
    if new.is_zero:
        table.pop(key, None)
    else:
        table[key] = new


def _bump(exps: tuple, j: int, step: int) -> tuple:
    out = list(exps)
    out[j] += step
    return tuple(out)


def _fraction_gcd(a: Fraction, b: Fraction) -> Fraction:
    return Fraction(
        math.gcd(a.numerator, b.numerator),
        math.lcm(a.denominator, b.denominator),
    )


def _render_gaussian(K: int) -> str:
    labels = PhaseSpaceBasis(K).labels()[:K]
    if K == 1:
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


def _term_pieces(c: ComplexRational, mono: str) -> tuple[bool, str]:
    """(is_negative, body) for one rendered term."""
    if c.im == 0:
        neg = c.re < 0
        mag = abs(c.re)
        if mono and mag == 1:
            coeff = ""
        else:
            coeff = _fraction_str(mag)
    elif c.re == 0:
        neg = c.im < 0
        mag = abs(c.im)
        coeff = "i" if mag == 1 else f"{_fraction_str(mag)}*i"
    else:
        neg = False
        re_s = _fraction_str(c.re)
        im_mag = abs(c.im)
        im_s = "i" if im_mag == 1 else f"{_fraction_str(im_mag)}*i"
        sign = "+" if c.im > 0 else "-"
        coeff = f"({re_s} {sign} {im_s})"
    if coeff and mono:
        return neg, f"{coeff}*{mono}"
    return neg, coeff or mono


def _render_poly(poly: dict, labels: list[str]) -> str:
    keys = sorted(poly, key=lambda k: (sum(k), tuple(-e for e in k)))
    out = []
    for key in keys:
        neg, body = _term_pieces(poly[key], _mono_str(key, labels))
        if not out:
            out.append(f"-{body}" if neg else body)
        else:
            out.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(out)


# ---- construction and form actions -----------------------------------------


def vacuum(K: int) -> PolyGaussian:
    """Normalised Gaussian ground state of K modes."""
    return PolyGaussian(K, {(0,) * K: ComplexRational(1)}, PiScale(1, -K))


def _unit(K: int, index: int) -> list[ComplexRational]:
    """Exact coefficients of the single basis operator O_index."""
    coeffs = [ComplexRational(0)] * (2 * K)
    coeffs[index] = ComplexRational(1)
    return coeffs


def _act(poly: dict, coeffs) -> dict:
    """Polynomial part of sum_j (cx_j x_j + cp_j p_j) acting on poly * G.

    coeffs holds 2K exact ComplexRationals, positions first.  Momentum acts
    as p_j (f G) = (-i df/dx_j + i x_j f) G.
    """
    K = len(coeffs) // 2
    out: dict = {}
    for j in range(K):
        cx, cp = coeffs[j], coeffs[K + j]
        if not cx.is_zero:
            for exps, c in poly.items():
                _accumulate(out, _bump(exps, j, +1), c * cx)
        if not cp.is_zero:
            icp = cp * _I
            for exps, c in poly.items():
                if exps[j] > 0:
                    _accumulate(out, _bump(exps, j, -1), icp * (-exps[j]) * c)
                _accumulate(out, _bump(exps, j, +1), icp * c)
    return out


def apply_linear_form(z: LinearForm, s: PolyGaussian) -> PolyGaussian:
    """Act with sum_j (cx_j x_j + cp_j p_j); coefficients convert exactly."""
    if z.basis.K != s.K:
        raise ValueError("linear form and state have different mode counts")
    coeffs = [ComplexRational.from_number(complex(c)) for c in z.coeffs]
    return PolyGaussian(s.K, _act(s.poly, coeffs), s.scale)


def apply_quadratic_form(q: QuadraticForm, s: PolyGaussian) -> PolyGaussian:
    """Act with sum_a O_a (sum_b gamma_ab O_b) + offset, exactly."""
    K = q.basis.K
    if K != s.K:
        raise ValueError("quadratic form and state have different mode counts")
    offset = ComplexRational.from_number(q.offset)
    total = {} if offset.is_zero else {k: v * offset for k, v in s.poly.items()}
    for a, row in enumerate(q.gamma):
        if not row.any():
            continue
        inner_poly = _act(s.poly, [ComplexRational.from_number(float(g))
                                   for g in row])
        for exps, c in _act(inner_poly, _unit(K, a)).items():
            _accumulate(total, exps, c)
    return PolyGaussian(K, total, s.scale)


def inner(a: PolyGaussian, b: PolyGaussian) -> ExactAmount:
    """Exact L2 inner product <a, b>, conjugate-linear in a."""
    if a.K != b.K:
        raise ValueError("states have different mode counts")
    factor = a.scale * b.scale * PiScale(1, 2 * a.K)
    # moments[m] = integral x^m e^(-x^2) dx / sqrt(pi): (m-1)!! / 2^(m/2)
    # for even m, 0 for odd m
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
    return ExactAmount(total, factor)


def squared_norm(s: PolyGaussian) -> ExactAmount:
    return inner(s, s)


def norm_scale(s: PolyGaussian) -> PiScale:
    """The exact norm of a nonzero state as a PiScale."""
    sq = squared_norm(s)
    if sq.is_zero:
        raise ValueError("zero state has no normalisation")
    if sq.coeff.im != 0 or sq.coeff.re <= 0:
        raise ValueError("squared norm is not a positive rational multiple")
    radicand = sq.coeff.re * sq.coeff.re * sq.factor.q
    root = _rational_sqrt(radicand)
    if root is None or sq.factor.quarter % 2:
        raise ValueError("norm is not representable as sqrt(q) * pi^(k/4)")
    return PiScale(root, sq.factor.quarter // 2)


def normalized_copy(s: PolyGaussian) -> PolyGaussian:
    n = norm_scale(s)
    return PolyGaussian(s.K, s.poly, s.scale / n).canonical()


def is_scalar_multiple_exact(a: PolyGaussian, b: PolyGaussian) -> ExactAmount | None:
    """The exact amount r with a = r * b, or None if a is not a multiple of b."""
    if a.K != b.K:
        return None
    if b.is_zero:
        return ExactAmount(ComplexRational(1), PiScale.one()) if a.is_zero else None
    if a.is_zero:
        return ExactAmount(ComplexRational(0), PiScale.one())
    if set(a.poly) != set(b.poly):
        return None
    ratio = None
    for key, cb in b.poly.items():
        r = a.poly[key] / cb
        if ratio is None:
            ratio = r
        elif ratio != r:
            return None
    return ExactAmount(ratio, a.scale / b.scale)


def build_eigenfunction(z_first: LinearForm, z_second: LinearForm,
                        m: int, n: int) -> PolyGaussian:
    """Normalised state from m hits of z_first after n hits of z_second."""
    if m < 0 or n < 0 or m != int(m) or n != int(n):
        raise ValueError("quantum numbers must be non-negative integers")
    if z_first.basis != z_second.basis:
        raise ValueError("ladder forms live on different bases")
    s = vacuum(z_first.basis.K)
    for _ in range(int(n)):
        s = apply_linear_form(z_second, s)
    for _ in range(int(m)):
        s = apply_linear_form(z_first, s)
    if s.is_zero:
        raise ValueError("ladder application annihilated the state")
    return normalized_copy(s)

