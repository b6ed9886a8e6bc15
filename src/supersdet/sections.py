"""The function-space model for sections over the classical vacua.

A section lives in C^inf(R_>0)[rho] tensor Omega^*(R^n).  Under the Koszul
sign rule that space is a supercommutative algebra, and a section is a plain
GrassmannElement: the even variables are the coordinates x1..xn and the
symbolic radius r, which carries half-integer exponents; the odd generators
are dx1..dxn and rho, with rho^2 = 0.  Coefficients are polynomial over Q(i),
and a form is a section without r and rho.  The supersymmetry generator is
the odd operator

    Q = -2i rho d/dr (x) id  -  id (x) d  +  i (rho/r) (x) deg

where d = sum_i dx_i d/dx_i is an odd derivation, so it anticommutes past
rho by the Grassmann sign rule.  The kernel of Q on rho-independent sections
is exactly the span of r^{k/2} (x) omega with omega closed of degree k, and
Q^2 = -(i/r) rho (x) d; both facts are exercised by the verification suites
rather than assumed.

The sign of the d/dr term relative to the degree term is forced by that
kernel: the conventions here normalize the odd radius coordinate so the two
derivative terms cancel precisely on r^{deg/2}.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Set, Tuple

from . import terms
from .gaussian import GaussianRational, I, ScalarLike
from .grassmann import EvenMono, GrassmannElement, TermKey, bit, even, odd, scalar, sign

R = "r"
RHO = "rho"


def _r_power(even_part: EvenMono) -> Fraction:
    # r sorts before every x_i, so it leads the even monomial when present
    return even_part[0][1] if even_part and even_part[0][0] == R else Fraction(0)


def _with_r_power(even_part: EvenMono, q: Fraction) -> EvenMono:
    rest = even_part[1:] if even_part and even_part[0][0] == R else even_part
    return ((R, Fraction(q)),) + rest if q else rest


# -- constructors

def coordinate(i: int) -> GrassmannElement:
    return even(f"x{i}")


def d_coordinate(i: int) -> GrassmannElement:
    return odd(f"dx{i}")


def monomial(exps: Sequence[int], idxs: Sequence[int],
             coeff: ScalarLike = 1) -> GrassmannElement:
    """coeff * x1^exps[0] ... xn^exps[n-1] dx_{idxs[0]} ... dx_{idxs[-1]}."""
    out = scalar(coeff)
    for i, e in enumerate(exps, 1):
        out = out * even(f"x{i}", e)
    for i in idxs:
        out = out * d_coordinate(i)
    return out


def section(form: GrassmannElement, r_power: Fraction = Fraction(0),
            rho: int = 0) -> GrassmannElement:
    """r^r_power * rho^rho * form."""
    if (2 * Fraction(r_power)).denominator != 1:
        raise ValueError("r-exponent must be half-integer")
    s = scale_r(form, r_power)
    return odd(RHO) * s if rho else s


# -- calculus and grading

def d(s: GrassmannElement) -> GrassmannElement:
    """The exterior derivative sum_i dx_i d/dx_i: an odd derivation that
    leaves r alone and anticommutes past rho."""
    out: Dict[TermKey, GaussianRational] = {}
    for (mask, even_part), c in s.terms.items():
        for pos, (name, e) in enumerate(even_part):
            if name == R:
                continue
            b = bit("d" + name)
            if mask & b:
                continue
            lowered = ((name, e - 1),) if e != 1 else ()
            terms.accumulate(out, (mask | b, even_part[:pos] + lowered + even_part[pos + 1:]),
                             c * (e * sign(b, mask)))
    return GrassmannElement._of(out)


def degrees(form: GrassmannElement) -> Set[int]:
    return {mask.bit_count() for (mask, _e) in form.terms}


def degree_component(form: GrassmannElement, k: int) -> GrassmannElement:
    return GrassmannElement._of({key: c for key, c in form.terms.items()
                                 if key[0].bit_count() == k})


# -- the supercharge

def apply_Q(s: GrassmannElement) -> GrassmannElement:
    """The supersymmetry generator Q = -2i rho d/dr - d + i (rho/r) deg.
    Q is odd and Q-closedness characterizes the supersymmetric sections."""
    out: Dict[TermKey, GaussianRational] = {}
    rho = bit(RHO)
    for (mask, even_part), c in s.terms.items():
        if mask & rho:
            continue  # rho^2 = 0
        # -2i rho d/dr + i (rho/r) deg sends r^q omega to i (deg - 2q) r^{q-1} rho omega;
        # the weight carries the sign of moving rho in front of omega's generators
        q = _r_power(even_part)
        weight = (mask.bit_count() - 2 * q) * sign(rho, mask)
        if weight:
            key = (mask | rho, _with_r_power(even_part, q - 1))
            out[key] = c * weight * I
    return GrassmannElement._of(out) - d(s)


def is_supersymmetric(s: GrassmannElement) -> bool:
    return apply_Q(s).is_zero()


def rho_d(s: GrassmannElement) -> GrassmannElement:
    """The operator rho (x) d (sending rho-terms to zero, as rho^2 = 0); Q^2
    equals -(i/r) times this, an identity the suite establishes on a spanning
    set."""
    return odd(RHO) * d(s)


def scale_r(s: GrassmannElement, power: Fraction) -> GrassmannElement:
    """Multiply by r^power."""
    return GrassmannElement._of({(o, _with_r_power(e, _r_power(e) + power)): c
                                 for (o, e), c in s.terms.items()})


def grade(s: GrassmannElement) -> Set[int]:
    """The set of line-bundle weights mod 4 carried by the terms: the count
    of odd generators, so a plain term of form degree k sits in weight k and
    a rho-term in deg + 1 (the odd radius coordinate carries one unit of the
    finite-group weight, which is what keeps Q acting homogeneously)."""
    return {mask.bit_count() % 4 for (mask, _e) in s.terms}


class TwoPiPower(terms.Record):
    """rational * (2 pi)^exponent, exponent half-integer, never evaluated."""

    __slots__ = ("coefficient", "exponent")

    def __init__(self, coefficient: Fraction, exponent: Fraction):
        self.coefficient, self.exponent = coefficient, exponent

    def __mul__(self, other: "TwoPiPower") -> "TwoPiPower":
        return TwoPiPower(self.coefficient * other.coefficient,
                          self.exponent + other.exponent)


Cocycle = List[Tuple[TwoPiPower, GrassmannElement]]


def to_cocycle(s: GrassmannElement) -> Cocycle:
    """The closed-form representative of a supersymmetric section: the
    degree-k piece r^{k/2} (x) omega maps to (2 pi)^{-k/2} omega.  Faults on
    rho-dependence (sections of the vacua stack are rho-independent) and on
    failing Q-closedness.  A term r^q omega of degree k != 2q fails Q: its
    weight term i (k - 2q) r^{q-1} rho omega has a key of its own, and d adds
    no rho."""
    if RHO in s.odd_generators():
        raise ValueError("sections over the vacua carry no rho-dependence")
    if not is_supersymmetric(s):
        raise ValueError("section is not supersymmetric")
    return [(TwoPiPower(Fraction(1), -Fraction(k, 2)),
             scale_r(degree_component(s, k), -Fraction(k, 2)))
            for k in sorted(degrees(s))]


def from_cocycle(pieces: Cocycle) -> GrassmannElement:
    """Inverse of to_cocycle: (2 pi)^{-k/2} omega maps back to r^{k/2} (x) omega."""
    out = GrassmannElement()
    for power, form in pieces:
        if any(power.exponent != -Fraction(k, 2) for k in degrees(form)):
            raise ValueError("two-pi bookkeeping does not match the form degree")
        out = out + power.coefficient * scale_r(form, -power.exponent)
    return out
