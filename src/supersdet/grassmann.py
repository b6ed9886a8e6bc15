"""Finite Grassmann algebras over Q(i) tensored with commuting indeterminates.

An element is a finite sum of terms

    coefficient * (ordered product of odd generators) * (monomial in even variables)

with coefficients in Q(i).  Odd generators anticommute and square to zero;
they are kept as tuples sorted in the global name order, with the sign of the
sorting permutation absorbed into the coefficient.  Even variables commute
with everything and may carry negative exponents (used for the invertible
radius symbol ``r``) and half-integer Fraction exponents (the radial powers
r^{k/2} of sections).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Mapping, Optional, Tuple, Union

from . import terms
from .gaussian import GaussianRational, ScalarLike

OddMono = Tuple[str, ...]
EvenMono = Tuple[Tuple[str, int], ...]
TermKey = Tuple[OddMono, EvenMono]

Coercible = Union[int, Fraction, GaussianRational, "GrassmannElement"]

_EMPTY: EvenMono = ()


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
    merged = terms.merge_signed(a[0], b[0])
    if merged is None:
        return None
    return (merged[0], _mul_even(a[1], b[1])), merged[1]


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
    def scalar(value: ScalarLike) -> "GrassmannElement":
        c = GaussianRational.coerce(value)
        if not c:
            return GrassmannElement()
        return GrassmannElement({((), _EMPTY): c})

    @staticmethod
    def odd(name: str) -> "GrassmannElement":
        return GrassmannElement({((name,), _EMPTY): GaussianRational(1)})

    @staticmethod
    def even(name: str, exponent: int = 1) -> "GrassmannElement":
        if exponent == 0:
            return GrassmannElement.scalar(1)
        return GrassmannElement({((), ((name, exponent),)): GaussianRational(1)})

    @staticmethod
    def coerce(value: Coercible) -> "GrassmannElement":
        if isinstance(value, GrassmannElement):
            return value
        return GrassmannElement.scalar(value)

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
        other = GrassmannElement.coerce(other)
        return GrassmannElement._of(
            terms.product(self.terms.items(), other.terms.items(), _combine))

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
        parities = {len(odd) % 2 for (odd, _even) in self.terms}
        if len(parities) == 1:
            return parities.pop()
        return None

    def body(self) -> "GrassmannElement":
        """The part with no odd generators (the 'numerical' shadow)."""
        return GrassmannElement(
            {k: c for k, c in self.terms.items() if not k[0]}
        )

    def odd_generators(self) -> set:
        names = set()
        for odd, _even in self.terms:
            names.update(odd)
        return names

    def even_variables(self) -> set:
        names = set()
        for _odd, even in self.terms:
            names.update(name for name, _ in even)
        return names

    # -- calculus ------------------------------------------------------------

    def derivative_odd(self, name: str) -> "GrassmannElement":
        """Left derivative with respect to an odd generator (odd derivation)."""
        out: Dict[TermKey, GaussianRational] = {}
        for (odd, even), coeff in self.terms.items():
            if name not in odd:
                continue
            pos = odd.index(name)
            rest = odd[:pos] + odd[pos + 1:]
            terms.accumulate(out, (rest, even), coeff if pos % 2 == 0 else -coeff)
        return GrassmannElement._of(out)

    def derive_even(self, images: Mapping[str, "GrassmannElement"]) -> "GrassmannElement":
        """Apply the even derivation sending each named generator/variable to
        its image, extended by the (sign-free) Leibniz rule.

        Keys may be even variable names or odd generator names; generators
        without an image are treated as constants.
        """
        acc = GrassmannElement()
        for (odd, even), coeff in self.terms.items():
            # even-variable slots
            for idx, (name, exp) in enumerate(even):
                image = images.get(name)
                if image is None:
                    continue
                lowered = even[:idx] + ((name, exp - 1),) + even[idx + 1:]
                lowered = tuple((n, e) for n, e in lowered if e != 0)
                piece = GrassmannElement({(odd, tuple(sorted(lowered))): coeff * exp})
                acc = acc + piece * image
            # odd-generator slots: replace in place, multiplication restores order
            for pos, gname in enumerate(odd):
                image = images.get(gname)
                if image is None:
                    continue
                left = GrassmannElement({(odd[:pos], even): coeff})
                right = GrassmannElement({(odd[pos + 1:], _EMPTY): GaussianRational(1)})
                acc = acc + left * image * right
        return acc

    def substitute_odd(self, name: str, value: "GrassmannElement") -> "GrassmannElement":
        """Replace an odd generator by an odd element (or zero)."""
        vp = value.parity()
        if not value.is_zero() and vp != 1:
            raise ValueError(f"substitution for odd generator {name!r} must be odd")
        # a term holding the generator is moved to the front, which is the left
        # derivative, and the generator is then replaced by value
        kept = GrassmannElement._of({k: c for k, c in self.terms.items() if name not in k[0]})
        return kept + value * self.derivative_odd(name)

    def coefficient_of_odd_pair(self, first: str, second: str) -> "GrassmannElement":
        """Coefficient g in f = ... + g*(first*second): a term containing
        both generators is rewritten as sign * rest*first*second (sign of the
        reordering) and contributes sign * coefficient * rest.  Terms missing
        either generator contribute nothing; remaining odd factors stay in g."""
        pair, flip = ((first, second), 1) if first < second else ((second, first), -1)
        out: Dict[TermKey, GaussianRational] = {}
        for (odd, even), coeff in self.terms.items():
            if first not in odd or second not in odd:
                continue
            rest = tuple(g for g in odd if g not in pair)
            sign = terms.merge_signed(rest, pair)[1] * flip
            terms.accumulate(out, (rest, even), coeff * sign)
        return GrassmannElement._of(out)

    # -- inverses and exponentials ---------------------------------------------

    def _graded_series(self, first: "GrassmannElement", coefficient) -> "GrassmannElement":
        """Sum terms.graded_series over the pieces of self by odd-generator
        count.  The pieces are padded to the number of odd generators, not to
        the top count present: (1 + ab + cd)^{-1} has an abcd term."""
        parts = [{} for _ in range(len(self.odd_generators()) + 1)]
        for key, c in self.terms.items():
            parts[len(key[0])][key] = c
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
            {((), tuple((n, -e) for n, e in even0)): GaussianRational(1) / c0})
        minus_first = -first
        return self._graded_series(first, lambda j, w: minus_first)

    def exp(self) -> "GrassmannElement":
        """Exponential of an even element without body, which is nilpotent
        and commutes with everything."""
        if self.parity() != 0 or any(not odd for odd, _even in self.terms):
            raise ValueError("exp needs an even element without body")
        return self._graded_series(GrassmannElement.scalar(1), terms.exp_coefficient)

    # -- rendering -------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for (odd, even) in sorted(self.terms):
            coeff = self.terms[(odd, even)]
            factors = [f"({coeff!r})"]
            factors.extend(odd)
            factors.extend(
                name if e == 1 else f"{name}^{e}" for name, e in even
            )
            chunks.append("*".join(factors))
        return " + ".join(chunks)

    __repr__ = __str__


def scalar(value: ScalarLike) -> GrassmannElement:
    return GrassmannElement.scalar(value)


def odd(name: str) -> GrassmannElement:
    return GrassmannElement.odd(name)


def even(name: str, exponent: int = 1) -> GrassmannElement:
    return GrassmannElement.even(name, exponent)
