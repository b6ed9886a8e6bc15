"""The function-space model for sections over the classical vacua.

A section lives in C^inf(R_>0)[rho] tensor Omega^*(R^n), modeled exactly:
radial dependence is a half-integer power of the symbolic radius r, rho is a
single odd generator with rho^2 = 0, and differential forms have polynomial
coefficients over Q(i).  The supersymmetry generator is the odd operator

    Q = -2i rho d/dr (x) id  -  id (x) d  +  i (rho/r) (x) deg

with the Koszul convention that the de Rham d anticommutes with rho.  Its
kernel on rho-independent sections is exactly the span of r^{k/2} (x) omega
with omega closed of degree k, and Q^2 = -(i/r) rho (x) d; both facts are
exercised by the verification suites rather than assumed.

The sign of the d/dr term relative to the degree term is forced by that
kernel: the conventions here normalize the odd radius coordinate so the two
derivative terms cancel precisely on r^{deg/2}.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

from . import terms
from .gaussian import GaussianRational, I, ScalarLike

PolyKey = Tuple[Tuple[int, ...], Tuple[int, ...]]  # (monomial exponents, form indices)


def _combine_forms(a: PolyKey, b: PolyKey):
    merged = terms.merge_signed(a[1], b[1])
    if merged is None:
        return None
    return (tuple(map(operator.add, a[0], b[0])), merged[0]), merged[1]


class PolyForm:
    """A polynomial differential form on R^n with coefficients in Q(i)."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Optional[Dict[PolyKey, GaussianRational]] = None):
        self.n = n
        clean: Dict[PolyKey, GaussianRational] = {}
        if terms:
            for (exps, idxs), c in terms.items():
                if len(exps) != n:
                    raise ValueError("monomial exponent length mismatch")
                if any(i < 1 or i > n for i in idxs):
                    raise ValueError("form index out of range")
                if c:
                    clean[(tuple(exps), tuple(idxs))] = c
        self.terms = clean

    # -- constructors

    @staticmethod
    def constant(n: int, value: ScalarLike = 1) -> "PolyForm":
        c = GaussianRational.coerce(value)
        return PolyForm(n, {(tuple([0] * n), ()): c} if c else {})

    @staticmethod
    def coordinate(n: int, i: int) -> "PolyForm":
        exps = [0] * n
        exps[i - 1] = 1
        return PolyForm(n, {(tuple(exps), ()): GaussianRational(1)})

    @staticmethod
    def d_coordinate(n: int, i: int) -> "PolyForm":
        return PolyForm(n, {(tuple([0] * n), (i,)): GaussianRational(1)})

    @staticmethod
    def monomial(n: int, exps: Sequence[int], idxs: Sequence[int],
                 coeff: ScalarLike = 1) -> "PolyForm":
        ordered = tuple(sorted(idxs))
        sign = _permutation_sign(tuple(idxs))
        if sign == 0:
            return PolyForm(n)
        c = GaussianRational.coerce(coeff) * sign
        return PolyForm(n, {(tuple(exps), ordered): c})

    # -- ring structure

    def __add__(self, other: "PolyForm") -> "PolyForm":
        if self.n != other.n:
            raise ValueError("ambient dimension mismatch")
        return PolyForm(self.n, terms.add(self.terms, other.terms))

    def __sub__(self, other: "PolyForm") -> "PolyForm":
        return self + (-other)

    def __neg__(self) -> "PolyForm":
        return PolyForm(self.n, terms.negate(self.terms))

    def __mul__(self, other):
        if isinstance(other, PolyForm):
            return self.wedge(other)
        return PolyForm(self.n, terms.scale(self.terms, GaussianRational.coerce(other)))

    __rmul__ = __mul__

    def wedge(self, other: "PolyForm") -> "PolyForm":
        if self.n != other.n:
            raise ValueError("ambient dimension mismatch")
        return PolyForm(self.n, terms.product(self.terms.items(), other.terms.items(),
                                              _combine_forms))

    def __eq__(self, other) -> bool:
        if isinstance(other, PolyForm):
            return self.n == other.n and self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    # -- calculus and grading

    def d(self) -> "PolyForm":
        """Exterior derivative."""
        out: Dict[PolyKey, GaussianRational] = {}
        for (exps, idxs), c in self.terms.items():
            for i in range(1, self.n + 1):
                e = exps[i - 1]
                if e == 0:
                    continue
                merged = terms.merge_signed((i,), idxs)
                if merged is None:
                    continue
                new_idx, sign = merged
                lowered = exps[:i - 1] + (e - 1,) + exps[i:]
                terms.accumulate(out, (lowered, new_idx), c * (e * sign))
        return PolyForm(self.n, out)

    def degrees(self) -> Set[int]:
        return {len(idxs) for (_e, idxs) in self.terms}

    def degree_component(self, k: int) -> "PolyForm":
        return PolyForm(self.n, {key: c for key, c in self.terms.items()
                                 if len(key[1]) == k})

    def degree(self) -> int:
        degs = self.degrees()
        if not degs:
            return 0
        if len(degs) > 1:
            raise ValueError("form is not homogeneous")
        return degs.pop()

    def is_closed(self) -> bool:
        return self.d().is_zero()

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (exps, idxs) in sorted(self.terms):
            c = self.terms[(exps, idxs)]
            factors = [f"({c!r})"]
            factors.extend(f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"
                           for i, e in enumerate(exps) if e)
            factors.extend(f"dx{i}" for i in idxs)
            bits.append("*".join(factors))
        return " + ".join(bits)

    __repr__ = __str__


def _permutation_sign(idxs: Tuple[int, ...]) -> int:
    seen = set()
    for i in idxs:
        if i in seen:
            return 0
        seen.add(i)
    sign = 1
    lst = list(idxs)
    for i in range(len(lst)):
        for j in range(i + 1, len(lst)):
            if lst[i] > lst[j]:
                sign = -sign
    return sign


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------

SectionKey = Tuple[Fraction, int, Tuple[int, ...], Tuple[int, ...]]
# (r-exponent, rho in {0,1}, monomial exponents, form indices)


class Section:
    """An element of C^inf(R_>0)[rho] (x) Omega^*(R^n) with half-integer
    powers of r; parity of a term is rho-power plus form degree mod 2."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Optional[Dict[SectionKey, GaussianRational]] = None):
        self.n = n
        clean: Dict[SectionKey, GaussianRational] = {}
        if terms:
            for (q, rho, exps, idxs), c in terms.items():
                q = Fraction(q)
                if 2 * q != int(2 * q):
                    raise ValueError("r-exponent must be half-integer")
                if rho not in (0, 1):
                    raise ValueError("rho power must be 0 or 1")
                if c:
                    clean[(q, rho, tuple(exps), tuple(idxs))] = c
        self.terms = clean

    @staticmethod
    def from_form(n: int, form: PolyForm, r_power: Fraction = Fraction(0),
                  rho: int = 0) -> "Section":
        q = Fraction(r_power)
        out: Dict[SectionKey, GaussianRational] = {}
        for (exps, idxs), c in form.terms.items():
            out[(q, rho, exps, idxs)] = c
        return Section(n, out)

    def __add__(self, other: "Section") -> "Section":
        if self.n != other.n:
            raise ValueError("ambient dimension mismatch")
        return Section(self.n, terms.add(self.terms, other.terms))

    def __sub__(self, other: "Section") -> "Section":
        return self + (-other)

    def __neg__(self) -> "Section":
        return Section(self.n, terms.negate(self.terms))

    def __mul__(self, other):
        if not isinstance(other, Section):
            return Section(self.n, terms.scale(self.terms, GaussianRational.coerce(other)))
        if self.n != other.n:
            raise ValueError("ambient dimension mismatch")
        return Section(self.n, terms.product(self.terms.items(), other.terms.items(),
                                             _combine_sections))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, Section):
            return self.n == other.n and self.terms == other.terms
        return NotImplemented

    def is_zero(self) -> bool:
        return not self.terms

    def has_rho(self) -> bool:
        return any(rho for (_q, rho, _e, _s) in self.terms)

    def parity(self) -> Optional[int]:
        if not self.terms:
            return 0
        parities = {(rho + len(idxs)) % 2 for (_q, rho, _e, idxs) in self.terms}
        return parities.pop() if len(parities) == 1 else None

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms):
            q, rho, exps, idxs = key
            c = self.terms[key]
            factors = [f"({c!r})"]
            if q:
                factors.append(f"r^{q}")
            if rho:
                factors.append("rho")
            factors.extend(f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"
                           for i, e in enumerate(exps) if e)
            factors.extend(f"dx{i}" for i in idxs)
            bits.append("*".join(factors))
        return " + ".join(bits)

    __repr__ = __str__


def _combine_sections(a: SectionKey, b: SectionKey):
    qa, ra, ea, sa = a
    qb, rb, eb, sb = b
    if ra + rb > 1:
        return None  # rho^2 = 0
    merged = terms.merge_signed(sa, sb)
    if merged is None:
        return None
    idxs, sign = merged
    # Koszul: move rho_b leftwards past the form part of a
    if rb == 1 and len(sa) % 2 == 1:
        sign = -sign
    return (qa + qb, ra + rb, tuple(map(operator.add, ea, eb)), idxs), sign


def apply_Q(s: Section) -> Section:
    """The supersymmetry generator Q = -2i rho d/dr - d + i (rho/r) deg, with
    d anticommuting past rho.  Q is odd and Q-closedness characterizes the
    supersymmetric sections."""
    out: Dict[SectionKey, GaussianRational] = {}
    for (q, rho, exps, idxs), c in s.terms.items():
        # -2i rho d/dr and +i (rho/r) deg: kill rho-terms, create a rho
        if rho == 0:
            if q:
                terms.accumulate(out, (q - 1, 1, exps, idxs), GaussianRational(0, -2) * c * q)
            deg = len(idxs)
            if deg:
                terms.accumulate(out, (q - 1, 1, exps, idxs), I * c * deg)
        # -(id (x) d), with the Koszul sign past rho
        form = PolyForm(s.n, {(exps, idxs): c})
        dform = form.d()
        sign = -1 if rho == 0 else 1  # -(+1) without rho, -(-1) with rho
        for (de, ds), dc in dform.terms.items():
            terms.accumulate(out, (q, rho, de, ds), dc * sign)
    return Section(s.n, out)


def is_supersymmetric(s: Section) -> bool:
    return apply_Q(s).is_zero()


def q_squared(s: Section) -> Section:
    return apply_Q(apply_Q(s))


def rho_d(s: Section) -> Section:
    """The operator rho (x) d (sending rho-terms to zero); Q^2 equals
    -(i/r) times this, an identity the suite establishes on a spanning set."""
    out: Dict[SectionKey, GaussianRational] = {}
    for (q, rho, exps, idxs), c in s.terms.items():
        if rho:
            continue
        for (de, ds), dc in PolyForm(s.n, {(exps, idxs): c}).d().terms.items():
            terms.accumulate(out, (q, 1, de, ds), dc)
    return Section(s.n, out)


def scale_r(s: Section, power: Fraction) -> Section:
    """Multiply by r^power."""
    return Section(s.n, {(q + Fraction(power), rho, e, i): c
                         for (q, rho, e, i), c in s.terms.items()})


def grade(s: Section) -> Set[int]:
    """The set of line-bundle weights mod 4 carried by the terms: a plain
    term of form degree k sits in weight k, a rho-term in deg + 1 (the odd
    radius coordinate carries one unit of the finite-group weight, which is
    what keeps Q acting homogeneously)."""
    return {(len(idxs) + rho) % 4 for (_q, rho, _e, idxs) in s.terms}


def is_section_of(s: Section, k: int) -> bool:
    g = grade(s)
    return g <= {k % 4}


@dataclass(frozen=True)
class TwoPiPower:
    """rational * (2 pi)^exponent, exponent half-integer, never evaluated."""

    coefficient: Fraction
    exponent: Fraction

    def __mul__(self, other: "TwoPiPower") -> "TwoPiPower":
        return TwoPiPower(self.coefficient * other.coefficient,
                          self.exponent + other.exponent)

    def __str__(self) -> str:
        if self.exponent == 0:
            return str(self.coefficient)
        return f"{self.coefficient}*(2pi)^{self.exponent}"


Cocycle = List[Tuple[TwoPiPower, PolyForm]]


def to_cocycle(s: Section) -> Cocycle:
    """The closed-form representative of a supersymmetric section: the
    degree-k piece r^{k/2} (x) omega maps to (2 pi)^{-k/2} omega.  Faults on
    rho-dependence (sections of the vacua stack are rho-independent), on
    failing Q-closedness, and on r-exponents not matching deg/2."""
    if s.has_rho():
        raise ValueError("sections over the vacua carry no rho-dependence")
    if not is_supersymmetric(s):
        raise ValueError("section is not supersymmetric")
    by_degree: Dict[int, Dict[PolyKey, GaussianRational]] = {}
    for (q, _rho, exps, idxs), c in s.terms.items():
        k = len(idxs)
        if q != Fraction(k, 2):
            raise ValueError(f"term of degree {k} carries r^{q}, expected r^{Fraction(k, 2)}")
        terms.accumulate(by_degree.setdefault(k, {}), (exps, idxs), c)
    return [(TwoPiPower(Fraction(1), -Fraction(k, 2)), PolyForm(s.n, by_degree[k]))
            for k in sorted(by_degree)]


def from_cocycle(n: int, pieces: Cocycle) -> Section:
    """Inverse of to_cocycle: (2 pi)^{-k/2} omega maps back to r^{k/2} (x) omega."""
    out = Section(n)
    for power, form in pieces:
        for k in form.degrees():
            comp = form.degree_component(k)
            if power.exponent != -Fraction(k, 2):
                raise ValueError("two-pi bookkeeping does not match the form degree")
            out = out + power.coefficient * Section.from_form(n, comp, Fraction(k, 2))
    return out
