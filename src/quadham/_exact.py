"""Exact scalar arithmetic for the wavefunction layer.

Two small value types:

* ComplexRational: a complex number with Fraction real and imaginary parts.
  Conversion from float is exact (every finite float is a dyadic rational),
  so polynomial arithmetic downstream carries no rounding at all.
* PiScale: a positive real of the form sqrt(q) * pi**(k/4) with q a positive
  rational and k an integer.  Closed under multiplication and division, and
  square roots of squared norms (rational times an integer power of sqrt(pi))
  land back in the same form.  Tracks the irrational normalisation factors
  that plain rationals cannot represent.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _to_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a valid coefficient")
    if isinstance(value, numbers.Integral):
        return Fraction(int(value))
    if isinstance(value, numbers.Real):
        return Fraction(float(value))
    raise TypeError(f"cannot convert {type(value).__name__} to Fraction")


class ComplexRational:
    """Exact complex number over the rationals."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _to_fraction(re))
        object.__setattr__(self, "im", _to_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("ComplexRational is immutable")

    @classmethod
    def from_number(cls, z) -> "ComplexRational":
        if isinstance(z, ComplexRational):
            return z
        if isinstance(z, complex):
            return cls(z.real, z.imag)
        if isinstance(z, numbers.Complex) and not isinstance(z, numbers.Real):
            zc = complex(z)
            return cls(zc.real, zc.imag)
        return cls(_to_fraction(z))

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def conjugate(self) -> "ComplexRational":
        return ComplexRational(self.re, -self.im)

    def __add__(self, other):
        other = ComplexRational.from_number(other)
        return ComplexRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = ComplexRational.from_number(other)
        return ComplexRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return ComplexRational.from_number(other) - self

    def __mul__(self, other):
        other = ComplexRational.from_number(other)
        return ComplexRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = ComplexRational.from_number(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by exact zero")
        return ComplexRational(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __neg__(self):
        return ComplexRational(-self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, (ComplexRational, complex, numbers.Number)):
            other = ComplexRational.from_number(other)
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"ComplexRational({self.re!r}, {self.im!r})"


def _rational_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of q if it is a perfect rational square, else None."""
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


class PiScale:
    """Positive real scale factor sqrt(q) * pi**(quarter/4)."""

    __slots__ = ("q", "quarter")

    def __init__(self, q=1, quarter: int = 0):
        q = _to_fraction(q)
        if q <= 0:
            raise ValueError("PiScale radicand must be positive")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "quarter", int(quarter))

    def __setattr__(self, name, value):
        raise AttributeError("PiScale is immutable")

    @classmethod
    def one(cls) -> "PiScale":
        return cls(_ONE, 0)

    def __mul__(self, other):
        if isinstance(other, PiScale):
            return PiScale(self.q * other.q, self.quarter + other.quarter)
        t = _to_fraction(other)
        if t <= 0:
            raise ValueError("can only scale by a positive rational")
        return PiScale(self.q * t * t, self.quarter)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, PiScale):
            return PiScale(self.q / other.q, self.quarter - other.quarter)
        return NotImplemented

    @property
    def is_one(self) -> bool:
        return self.q == 1 and self.quarter == 0

    def rational_ratio(self, other: "PiScale") -> Fraction | None:
        """self/other as an exact rational, or None if the ratio is irrational."""
        if self.quarter != other.quarter:
            return None
        return _rational_sqrt(self.q / other.q)

    def __eq__(self, other):
        if isinstance(other, PiScale):
            return self.q == other.q and self.quarter == other.quarter
        return NotImplemented

    def __hash__(self):
        return hash((self.q, self.quarter))

    def __float__(self):
        return math.sqrt(float(self.q)) * math.pi ** (self.quarter / 4.0)

    def __repr__(self):
        return f"PiScale({self.q!r}, {self.quarter})"

    def display(self) -> str:
        """Human-readable rendering, e.g. '1/sqrt(pi)' or '(3/2)*pi^(1/4)'."""
        root = _rational_sqrt(self.q)
        if root is not None:
            num = _ratio_str(root.numerator, root.denominator)
            if "/" in num:
                num = f"({num})"
            is_rational_part_one = root == 1
        else:
            num = f"sqrt({_ratio_str(self.q.numerator, self.q.denominator)})"
            is_rational_part_one = False

        k = self.quarter
        if k == 0:
            return num
        mag = abs(k)
        if mag % 4 == 0:
            p = mag // 4
            pi_part = "pi" if p == 1 else f"pi^{p}"
        elif mag % 2 == 0:
            p = mag // 2
            pi_part = "sqrt(pi)" if p == 1 else f"sqrt(pi)^{p}"
        else:
            pi_part = f"pi^({mag}/4)"
        if k > 0:
            if is_rational_part_one:
                return pi_part
            return f"{num}*{pi_part}"
        return f"{num}/{pi_part}"


def _ratio_str(num: int, den: int) -> str:
    """num / den in lowest terms, "n" or "n/d"."""
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"
