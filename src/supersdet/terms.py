"""Sparse term arithmetic shared by the package's algebras.

An element of each algebra (Grassmann elements, which also model
polynomial forms and sections; graded polynomials; cohomology-ring
elements) is a dict from a monomial key to an exact coefficient, a
Fraction or a GaussianRational.  The functions here build such dicts and
never store a zero coefficient, so every dict they return is clean.  What
a key means, and how two keys multiply, stays with the algebra that owns
it: the sign of a product of anticommuting generators, for one, is
grassmann.sign.  The grading recurrence at the end sums the exponentials
and unit inverses of series and Grassmann elements, over whatever grading
its caller cuts the element into.  `Record` is the base of the package's
small value classes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, Hashable, Iterable, Optional, Sequence, Tuple

Terms = Dict[Hashable, object]
Combine = Callable[[object, object], Optional[Tuple[Hashable, int]]]


def accumulate(out: Terms, key: Hashable, c) -> None:
    """Add c into out[key], dropping the key when the sum is zero."""
    old = out.get(key)
    if old is not None:
        c = old + c
    if c:
        out[key] = c
    elif old is not None:
        del out[key]


def add(a: Terms, b: Terms) -> Terms:
    out = dict(a)
    for key, c in b.items():
        accumulate(out, key, c)
    return out


def negate(a: Terms) -> Terms:
    return {key: -c for key, c in a.items()}


def scale(a: Terms, c) -> Terms:
    out = {}
    for key, v in a.items():
        v = v * c
        if v:
            out[key] = v
    return out


def product(a: Iterable[Tuple[object, object]], b: Iterable[Tuple[object, object]],
            combine: Combine) -> Terms:
    """Bilinear product of two term lists of (key, coefficient) pairs; b is
    iterated once per term of a.  combine(ka, kb) returns the key of the
    product monomial and its sign (+1 or -1), or None when it vanishes.
    Work that depends on one operand only belongs in its keys, not in
    combine, which runs once per pair."""
    out: Terms = {}
    for ka, ca in a:
        for kb, cb in b:
            hit = combine(ka, kb)
            if hit is None:
                continue
            key, sign = hit
            accumulate(out, key, ca * cb if sign > 0 else -(ca * cb))
    return out


def graded_series(parts: Sequence, first, coefficient: Callable[[int, int], object]) -> list:
    """F_0..F_n, n = len(parts) - 1, of the grading recurrence

        F_0 = first,   F_w = sum_{j=1..w} coefficient(j, w) * parts[j] * F_{w-j},

    where parts[j] is the grade-j piece of an element x.  It sums the
    exponentials and unit inverses of series and Grassmann elements (Brent
    and Kung, J. ACM 25, 1978; Knuth, TAOCP vol. 2, 4.7):

    - first = 1 and coefficient j/w (exp_coefficient) give the pieces of
      exp(x), for x without a grade-0 piece that commutes with its pieces:
      the Euler derivation turns e' = x'e into w F_w = sum_j j x_j F_{w-j};
    - first = 1/parts[0] and coefficient -first give the pieces of 1/x, for
      a central parts[0].

    series.GradedPolynomial.exp runs the same recurrence for exp(x) in its
    own integer loop on packed keys.  A product with a zero (falsy) factor is skipped.  Nothing above grade n
    is computed: the caller pads parts to the top grade the result can
    reach."""
    zero = 0 * first
    out = [first]
    for w in range(1, len(parts)):
        acc = zero
        for j in range(1, w + 1):
            if parts[j] and out[w - j]:
                acc = acc + coefficient(j, w) * parts[j] * out[w - j]
        out.append(acc)
    return out


def exp_coefficient(j: int, w: int) -> Fraction:
    """The coefficient j/w under which graded_series sums an exponential."""
    return Fraction(j, w)


class Record:
    """A value class whose fields are its ``__slots__``: equality, hash and
    repr read them in order, as a dataclass's would.  The package defines its
    records this way because importing dataclasses (and with it inspect, ast,
    dis and tokenize) costs a CLI process more start-up time than most of its
    commands take to compute."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"
