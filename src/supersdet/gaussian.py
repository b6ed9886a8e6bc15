"""Exact scalars in Q(i): complex numbers with rational real and imaginary parts.

Every coefficient in the symbolic layers of this package lives here.  No
floating point is ever produced by arithmetic on these values.  A value is
three ints (a, b, d) meaning (a + b i)/d, in the canonical form d > 0 and
gcd(a, b, d) = 1, so equal values have equal fields.  Every operation
computes on ints and normalizes its result with one gcd.  `from_parts` and
`parts` are the only way other modules cross into and out of that form;
`.re` and `.im` read the parts as Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Tuple, Union

RatLike = Union[int, Fraction]
ScalarLike = Union[int, Fraction, "GaussianRational"]


class GaussianRational:
    """An element (a + b*i)/d of Q(i), built from exact rational parts:
    ints or :class:`fractions.Fraction`s, never floats.

    Instances are immutable by convention; all operators return new values.
    """

    __slots__ = ("_real", "_imag", "_den")

    def __init__(self, re: RatLike = 0, im: RatLike = 0):
        for part in (re, im):
            if not isinstance(part, (int, Fraction)):
                raise TypeError(f"cannot coerce {part!r} into Q(i)")
        # reduced parts over the lcm of their denominators are canonical
        d = lcm(re.denominator, im.denominator)
        self._real = re.numerator * (d // re.denominator)
        self._imag = im.numerator * (d // im.denominator)
        self._den = d

    @staticmethod
    def coerce(value: ScalarLike) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return _reduced(value.numerator, 0, value.denominator)
        raise TypeError(f"cannot coerce {value!r} into Q(i)")

    re = property(lambda self: Fraction(self._real, self._den), doc="The real part.")
    im = property(lambda self: Fraction(self._imag, self._den), doc="The imaginary part.")

    def __add__(self, other: ScalarLike) -> "GaussianRational":
        if isinstance(other, GaussianRational):
            a, b, d = other._real, other._imag, other._den
        elif isinstance(other, (int, Fraction)):
            a, b, d = other.numerator, 0, other.denominator
        else:
            return NotImplemented
        d1 = self._den
        if d1 == d:
            return _reduced(self._real + a, self._imag + b, d)
        return _reduced(self._real * d + a * d1, self._imag * d + b * d1, d1 * d)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "GaussianRational":
        if not isinstance(other, (int, Fraction, GaussianRational)):
            return NotImplemented
        return self + -other

    def __rsub__(self, other: ScalarLike) -> "GaussianRational":
        return -self + other

    def __neg__(self) -> "GaussianRational":
        return _reduced(-self._real, -self._imag, self._den)

    def __mul__(self, other: ScalarLike) -> "GaussianRational":
        if isinstance(other, GaussianRational):
            a1, b1, a2, b2 = self._real, self._imag, other._real, other._imag
            if not b1 and not b2:
                # real times real: one integer product
                return _reduced(a1 * a2, 0, self._den * other._den)
            return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self._den * other._den)
        if isinstance(other, int):
            return _reduced(self._real * other, self._imag * other, self._den)
        if isinstance(other, Fraction):
            p = other.numerator
            return _reduced(self._real * p, self._imag * p, self._den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "GaussianRational":
        if not isinstance(other, (int, Fraction, GaussianRational)):
            return NotImplemented
        a2, b2, d2 = parts(GaussianRational.coerce(other))
        norm = a2 * a2 + b2 * b2
        if not norm:
            raise ZeroDivisionError("division by zero in Q(i)")
        # times the conjugate over the norm: (a1 + b1 i)(a2 - b2 i) d2 / (d1 norm)
        a1, b1 = self._real, self._imag
        return _reduced((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2, self._den * norm)

    def is_rational(self) -> bool:
        return not self._imag

    def __eq__(self, other) -> bool:
        # canonical fields: equal values have equal fields
        if isinstance(other, (int, Fraction, GaussianRational)):
            return parts(self) == parts(GaussianRational.coerce(other))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.re) if not self._imag else hash(parts(self))

    def __bool__(self) -> bool:
        return bool(self._real or self._imag)

    def __repr__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


_new = object.__new__  # bound once: every result is built here


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """(a + b i)/d for d > 0, divided by gcd(a, b, d)."""
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    out = _new(GaussianRational)
    out._real, out._imag, out._den = a, b, d
    return out


def from_parts(a: int, b: int, d: int) -> GaussianRational:
    """(a + b i)/d from Gaussian integer parts a, b over a nonzero int d."""
    if not d:
        raise ZeroDivisionError("zero denominator in Q(i)")
    return _reduced(a, b, d) if d > 0 else _reduced(-a, -b, -d)


def parts(z: GaussianRational) -> Tuple[int, int, int]:
    """The fields (a, b, d) of z = (a + b i)/d: d > 0 and gcd(a, b, d) = 1."""
    return z._real, z._imag, z._den


I = GaussianRational(0, 1)
