"""Exact scalars in Q(i): complex numbers with rational real and imaginary parts.

Every coefficient in the symbolic layers of this package lives here.  No
floating point is ever produced by arithmetic on these values.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

RatLike = Union[int, Fraction]
ScalarLike = Union[int, Fraction, "GaussianRational"]

_FRACTION_ZERO = Fraction(0)


def _of(re: Fraction, im: Fraction) -> "GaussianRational":
    """Wrap parts that are already Fractions, skipping __init__'s conversion."""
    out = GaussianRational.__new__(GaussianRational)
    out.re = re
    out.im = im
    return out


class GaussianRational:
    """An element a + b*i of Q(i), with a, b exact :class:`fractions.Fraction`s.

    Instances are immutable by convention; all operators return new values.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: RatLike = 0, im: RatLike = 0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def coerce(value: ScalarLike) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        raise TypeError(f"cannot coerce {value!r} into Q(i)")

    @staticmethod
    def _accepts(value) -> bool:
        return isinstance(value, (int, Fraction, GaussianRational))

    def __add__(self, other: ScalarLike) -> "GaussianRational":
        if not GaussianRational._accepts(other):
            return NotImplemented
        other = GaussianRational.coerce(other)
        return _of(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "GaussianRational":
        if not GaussianRational._accepts(other):
            return NotImplemented
        other = GaussianRational.coerce(other)
        return _of(self.re - other.re, self.im - other.im)

    def __rsub__(self, other: ScalarLike) -> "GaussianRational":
        if not GaussianRational._accepts(other):
            return NotImplemented
        return GaussianRational.coerce(other) - self

    def __neg__(self) -> "GaussianRational":
        return _of(-self.re, -self.im)

    def __mul__(self, other: ScalarLike) -> "GaussianRational":
        if isinstance(other, (int, Fraction)):
            # a rational factor scales both parts
            return _of(self.re * other, self.im * other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        if not self.im and not other.im:
            # real times real: one rational product
            return _of(self.re * other.re, _FRACTION_ZERO)
        return _of(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "GaussianRational":
        if not GaussianRational._accepts(other):
            return NotImplemented
        other = GaussianRational.coerce(other)
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def is_rational(self) -> bool:
        return self.im == 0

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = GaussianRational.coerce(other)
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self) -> int:
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __repr__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


I = GaussianRational(0, 1)
