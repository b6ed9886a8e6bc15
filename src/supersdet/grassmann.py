"""Finite Grassmann algebras over Q(i) tensored with commuting indeterminates.

An element is a finite sum of terms

    coefficient * (ordered product of odd generators) * (monomial in even variables)

with coefficients in Q(i).  Odd generators anticommute and square to zero.
An append-only table shared by the whole process gives each generator name a
bit, in the order the names are first seen; an odd monomial is a bitmask,
the product of its generators in increasing bit order, and sign() is the
one rule for the sign of every reordering.  Rendering lists the generators
in name order, with the sign of that permutation moved into the coefficient,
so no output depends on the order in which names were seen.  Even variables
commute with everything and may carry negative exponents (used for the
invertible radius symbol ``r``) and half-integer Fraction exponents (the
radial powers r^{k/2} of sections).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Tuple, Union

from . import terms
from .gaussian import GaussianRational, ScalarLike

EvenMono = Tuple[Tuple[str, int], ...]
TermKey = Tuple[int, EvenMono]  # (odd bitmask, even monomial)

Coercible = Union[int, Fraction, GaussianRational, "GrassmannElement"]

_EMPTY: EvenMono = ()

# append-only, so a key keeps its meaning for the life of the process
_BIT: Dict[str, int] = {}
_NAMES: List[str] = []


def bit(name: str) -> int:
    """The mask bit of an odd generator, assigned when the name is first seen."""
    b = _BIT.get(name)
    if b is None:
        b = _BIT[name] = 1 << len(_NAMES)
        _NAMES.append(name)
    return b


def names(mask: int) -> List[str]:
    """The generators of a mask, in bit order."""
    return [_NAMES[i] for i in range(mask.bit_length()) if mask >> i & 1]


def sign(m1: int, m2: int) -> int:
    """The sign in m1 * m2 = sign * (m1 | m2) for disjoint masks: -1 when
    an odd number of pairs has its bit of m1 above its bit of m2."""
    swaps = 0
    while m2:
        low = m2 & -m2
        # the generator low moves left past the larger generators of m1
        swaps += (m1 & -(low << 1)).bit_count()
        m2 ^= low
    return -1 if swaps & 1 else 1


def _mul_even(a: EvenMono, b: EvenMono) -> EvenMono:
    if not a:
        return b
    if not b:
        return a
    exps: Dict[str, int] = dict(a)
    for name, e in b:
        e2 = exps.get(name, 0) + e
        if e2 == 0:
            exps.pop(name, None)
        else:
            exps[name] = e2
    return tuple(sorted(exps.items()))


def _combine(a: TermKey, b: TermKey) -> Optional[Tuple[TermKey, int]]:
    if a[0] & b[0]:
        return None
    return (a[0] | b[0], _mul_even(a[1], b[1])), sign(a[0], b[0])


class GrassmannElement:
    """Immutable element of the ambient Grassmann-with-even-variables algebra."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping[TermKey, GaussianRational]] = None):
        self.terms = {k: c for k, c in terms.items() if c} if terms else {}

    @staticmethod
    def _of(clean: Dict[TermKey, GaussianRational]) -> "GrassmannElement":
        """Wrap a dict the term core returned, which holds no zeros."""
        out = GrassmannElement.__new__(GrassmannElement)
        out.terms = clean
        return out

    # -- constructors ------------------------------------------------------

    @staticmethod
    def coerce(value: Coercible) -> "GrassmannElement":
        if isinstance(value, GrassmannElement):
            return value
        return scalar(value)

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: Coercible) -> "GrassmannElement":
        other = GrassmannElement.coerce(other)
        return GrassmannElement._of(terms.add(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self) -> "GrassmannElement":
        return GrassmannElement._of(terms.negate(self.terms))

    def __sub__(self, other: Coercible) -> "GrassmannElement":
        return self + (-GrassmannElement.coerce(other))

    def __rsub__(self, other: Coercible) -> "GrassmannElement":
        return GrassmannElement.coerce(other) - self

    def __mul__(self, other: Coercible) -> "GrassmannElement":
        if isinstance(other, GrassmannElement):
            return GrassmannElement._of(
                terms.product(self.terms.items(), other.terms.items(), _combine))
        if not isinstance(other, (int, Fraction, GaussianRational)):
            return NotImplemented
        return GrassmannElement._of(terms.scale(self.terms, other))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, GaussianRational, GrassmannElement)):
            return (self - other).is_zero()
        return NotImplemented

    # equal to plain scalars, so no hash can agree with __eq__: unhashable
    __hash__ = None

    # -- structure queries --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def parity(self) -> Optional[int]:
        """0 for even, 1 for odd, None for mixed or zero-ambiguous elements.

        Parity counts odd generators only; even variables never contribute.
        """
        if not self.terms:
            return 0
        parities = {mask.bit_count() % 2 for (mask, _even) in self.terms}
        if len(parities) == 1:
            return parities.pop()
        return None

    def odd_generators(self) -> set:
        union = 0
        for mask, _even in self.terms:
            union |= mask
        return set(names(union))

    def even_variables(self) -> set:
        names = set()
        for _odd, even in self.terms:
            names.update(name for name, _ in even)
        return names

    # -- calculus ------------------------------------------------------------

    def derivative_odd(self, name: str) -> "GrassmannElement":
        """Left derivative with respect to an odd generator (odd derivation)."""
        b = _BIT.get(name, 0)
        # name * rest = sign(b, rest) * mask, and the keys rest stay distinct
        return GrassmannElement._of({(mask ^ b, even): coeff * sign(b, mask ^ b)
                                     for (mask, even), coeff in self.terms.items()
                                     if mask & b})

    def derivative_even(self, name: str) -> "GrassmannElement":
        """Partial derivative with respect to an even variable."""
        out = {}
        for (mask, even), coeff in self.terms.items():
            for idx, (var, exp) in enumerate(even):
                if var == name:
                    # only the exponent of name changes, so the keys stay distinct
                    lowered = ((var, exp - 1),) if exp != 1 else ()
                    out[(mask, even[:idx] + lowered + even[idx + 1:])] = coeff * exp
        return GrassmannElement._of(out)

    def derive_even(self, images: Mapping[str, "GrassmannElement"]) -> "GrassmannElement":
        """Apply the even derivation sending each named generator/variable to
        its image: the sum of image * partial over the names.  The partial of
        an odd generator is its left derivative, so the image of an odd
        generator must be odd; names without an image are constants.
        """
        odd_names = self.odd_generators()
        return sum((image * (self.derivative_odd(name) if name in odd_names
                             else self.derivative_even(name))
                    for name, image in images.items()), GrassmannElement())

    def substitute_odd(self, name: str, value: "GrassmannElement") -> "GrassmannElement":
        """Replace an odd generator by an odd element (or zero)."""
        vp = value.parity()
        if not value.is_zero() and vp != 1:
            raise ValueError(f"substitution for odd generator {name!r} must be odd")
        # a term holding the generator is moved to the front, which is the left
        # derivative, and the generator is then replaced by value
        b = _BIT.get(name, 0)
        kept = GrassmannElement._of({k: c for k, c in self.terms.items() if not k[0] & b})
        return kept + value * self.derivative_odd(name)

    # -- inverses and exponentials ---------------------------------------------

    def _graded_series(self, first: "GrassmannElement", coefficient) -> "GrassmannElement":
        """Sum terms.graded_series over the pieces of self by odd-generator
        count.  The pieces are padded to the number of odd generators, not to
        the top count present: (1 + ab + cd)^{-1} has an abcd term."""
        parts = [{} for _ in range(len(self.odd_generators()) + 1)]
        for key, c in self.terms.items():
            parts[key[0].bit_count()][key] = c
        pieces = terms.graded_series([GrassmannElement._of(p) for p in parts],
                                     first, coefficient)
        # piece w holds w odd generators, so the pieces share no key
        return GrassmannElement._of({k: c for piece in pieces for k, c in piece.terms.items()})

    def invert_unit(self) -> "GrassmannElement":
        """Inverse of c*m*(1 + n) with c a nonzero scalar, m an even monomial
        and n nilpotent.  Covers every inverse this package needs (r-powers
        and 1 + soul)."""
        body_terms = [(k, c) for k, c in self.terms.items() if not k[0]]
        # locate the invertible even monomial: the unique body term whose
        # even variables are all "unit-like" is not decidable in general, so
        # require a single body term
        if len(body_terms) != 1:
            raise ValueError("invert_unit needs a single body monomial")
        (odd0, even0), c0 = body_terms[0]
        first = GrassmannElement._of(
            {(0, tuple((n, -e) for n, e in even0)): GaussianRational(1) / c0})
        minus_first = -first
        return self._graded_series(first, lambda j, w: minus_first)

    def exp(self) -> "GrassmannElement":
        """Exponential of an even element without body, which is nilpotent
        and commutes with everything."""
        if self.parity() != 0 or any(not mask for mask, _even in self.terms):
            raise ValueError("exp needs an even element without body")
        return self._graded_series(scalar(1), terms.exp_coefficient)

    # -- rendering -------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        rows = []
        for (mask, even), coeff in self.terms.items():
            # the product in name order is flip times the monomial mask
            ordered, prefix, flip = sorted(names(mask)), 0, 1
            for name in ordered:
                flip *= sign(prefix, _BIT[name])
                prefix |= _BIT[name]
            rows.append((ordered, even, coeff * flip))
        chunks = []
        for ordered, even, coeff in sorted(rows, key=lambda row: row[:2]):
            factors = [f"({coeff!r})"]
            factors.extend(ordered)
            factors.extend(
                name if e == 1 else f"{name}^{e}" for name, e in even
            )
            chunks.append("*".join(factors))
        return " + ".join(chunks)

    __repr__ = __str__


def scalar(value: ScalarLike) -> GrassmannElement:
    c = GaussianRational.coerce(value)
    if not c:
        return GrassmannElement()
    return GrassmannElement._of({(0, _EMPTY): c})


def odd(name: str) -> GrassmannElement:
    return GrassmannElement._of({(bit(name), _EMPTY): GaussianRational(1)})


def even(name: str, exponent: int = 1) -> GrassmannElement:
    if exponent == 0:
        return scalar(1)
    return GrassmannElement._of({(0, ((name, exponent),)): GaussianRational(1)})
