"""Zeta-regularized determinants and Pfaffians of the circle kinetic operators,
and their combination into the superdeterminant.

The three operators act on sections over a circle of symbolic radius r:

    D_a    = Id_n d^2/dt^2 - i R d/dt
    D_eta1 = Id_n d/dt
    D_eta2 = Id_n d/dt + i R

with R an antisymmetric matrix of even nilpotent entries.  PA_BOUNDARY holds
their boundary conditions; on periodic modes the constants are removed.
Every regularized value is an exact object: a rational power of r times the
exponential of a terminating series.  Free parts are assigned by the
zeta-function of the integer mode sequence {(2 pi k / r)^n} (exponent n/2 in
r, the 2 pi contribution cancelling identically); mode sums of inverse powers
collapse to Bernoulli rationals.  The curvature parts are Fredholm
determinants, which `sdet` combines in one formula.  They depend on the
curvature only through its scaled traces (i r)^{2k} Tr(R^{2k}), so `sdet`
reads the list of those.  The formal ones are _ph_scale(k) ph_k, in
Pontryagin-character generators; a concrete Grassmann matrix reads its own
off R^k.  Trace normalization is calibrated so that the formal variables
pair with classical Pontryagin classes under the Newton conversion (see
curvature_to_ph).
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import Sequence

from .gaussian import from_parts, parts
from .grassmann import GrassmannElement, _mul_even, even, odd, scalar, sign
from .series import (
    GradedPolynomial,
    l_class_in_ph,
    lambda_over_2pii,
    zeta_over_2pii,
)
from .terms import Record


class BoundaryCondition(Enum):
    PERIODIC = "periodic"
    ANTIPERIODIC = "antiperiodic"


# the boundary condition of each kinetic block on the PA super circle; the
# all-periodic (PP) variant makes eta2 periodic too
PA_BOUNDARY = {
    "a": BoundaryCondition.PERIODIC,
    "eta1": BoundaryCondition.PERIODIC,
    "eta2": BoundaryCondition.ANTIPERIODIC,
}


class RPower(Record):
    """An exact rational times an exact power of the symbolic radius r."""

    __slots__ = ("coefficient", "r_exponent")

    def __init__(self, coefficient: Fraction, r_exponent: Fraction):
        self.coefficient, self.r_exponent = coefficient, r_exponent


def regularized_product_power(n: int) -> RPower:
    """The zeta-regularized product of the sequence {(2 pi k / r)^n}_{k>=1}.

    The sequence zeta-function is (r/2pi)^{ns} zeta(ns); differentiating at
    s = 0 with zeta(0) = -1/2 and zeta'(0) = -log(2pi)/2 leaves r^{n/2}: the
    log(2pi) coefficient is n zeta(0) + n/2 = 0 for every n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    zeta_at_0 = Fraction(-1, 2)
    # -zeta_seq'(0) = -(n log r) zeta(0) + (n log 2pi) zeta(0) - n zeta'(0)
    return RPower(Fraction(1), -n * zeta_at_0)


def free_r_exponent(n: int) -> Fraction:
    """The radius exponent of the free parts of pf(D_eta1) pf(D_eta2) /
    det(D_a)^{1/2} in fiber dimension n.  A first-order block has the paired
    modes' product r^n, and its Pfaffian is det^{1/2}; the second-order block
    has the squared product r^{2n}.  The sum vanishes for every n, which the
    verify suite's radius cancellation check witnesses."""
    pf = n * regularized_product_power(2).r_exponent / 2
    det = n * regularized_product_power(4).r_exponent
    return 2 * pf - det / 2


# typed, because the key (bc, 4.0) equals (bc, 4): a float two_k must fail
# as it does uncached, not receive the record built for the int
@lru_cache(maxsize=None, typed=True)
def trace_inv_power(bc: BoundaryCondition, two_k: int) -> RPower:
    """Exact trace of (d/dt)^{-2k} on the given mode set, as rational * r^{2k}.
    Built once per (bc, two_k) for the process; callers share the record.

    Periodic (nonzero integer modes): 2 r^{2k} zeta(2k)/(2 pi i)^{2k};
    antiperiodic (half-integer modes): the same times (2^{2k} - 1).
    """
    if two_k <= 0 or two_k % 2 != 0:
        raise ValueError("two_k must be a positive even integer")
    base = 2 * zeta_over_2pii(two_k)
    if bc is BoundaryCondition.ANTIPERIODIC:
        base = 2 * lambda_over_2pii(two_k)
    return RPower(base, Fraction(two_k))


# ---------------------------------------------------------------------------
# curvature traces
# ---------------------------------------------------------------------------

class CurvatureMatrix:
    """Concrete antisymmetric matrix with even nilpotent Grassmann entries.

    The powers of R are built in a kernel private to this class, on the
    keys of the GrassmannElement entries and with their sign rule, and a
    trace of R^m reads the powers up to R^{ceil(m/2)} only.  The kernel
    crosses into and out of Q(i) only through gaussian's two boundary
    helpers: `parts` reads each coefficient as (a + b i)/d, the
    denominators are cleared once, R = R_int / d over their lcm d, so an
    entry is a dict {(mask, even monomial): (re, im)} over the Gaussian
    integers; a trace coefficient leaves through `from_parts`, over d^m.
    The entries are checked in this form: antisymmetric, nilpotent (no key
    has mask 0) and even (every mask has an even bit count).
    """

    def __init__(self, entries: Sequence[Sequence[GrassmannElement]]):
        n = len(entries)
        rows = [[{key: parts(c) for key, c in GrassmannElement.coerce(e).terms.items()}
                 for e in row] for row in entries]
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        d = math.lcm(*(den for row in rows for e in row for _re, _im, den in e.values()))
        R = tuple(tuple({key: (re * (d // den), im * (d // den))
                         for key, (re, im, den) in e.items()} for e in row) for row in rows)
        union = 0
        for i, row in enumerate(R):
            for j, entry in enumerate(row):
                if entry != {key: (-re, -im) for key, (re, im) in R[j][i].items()}:
                    raise ValueError(f"matrix not antisymmetric at ({i},{j})")
                if any(not mask for mask, _even in entry):
                    raise ValueError(f"entry ({i},{j}) is not nilpotent")
                if any(mask.bit_count() & 1 for mask, _even in entry):
                    raise ValueError(f"entry ({i},{j}) is not even")
                for mask, _even in entry:
                    union |= mask
        self.n = n
        self._generators = union.bit_count()
        self._denominator = d
        self._columns = tuple(zip(*R))
        self._signs = {}
        # R_int^0, R_int, R_int^2, ...: built on demand and shared by every
        # trace; the scaled traces are kept per k
        one = {(0, ()): (1, 0)}
        self._powers = [tuple(tuple(one if i == j else {} for j in range(n))
                              for i in range(n)), R]
        self._scaled = {}

    def matrix_power_trace(self, m: int) -> GrassmannElement:
        """Tr(R^m) = Tr(R^a R^b) with a = ceil(m/2) and b = floor(m/2), so
        only the powers up to R^a are built.  An entry term holds at least
        two odd generators, so R^m = 0 once 2m exceeds their count g, and
        past that bound no power is built.  Below it the powers of R are
        built once per matrix, one product at a time, as traces need them."""
        if m < 1:
            raise ValueError("m must be >= 1")
        # m > g is correct too, only slower: it builds the zero powers past g/2
        if 2 * m > self._generators:
            return GrassmannElement()
        a, b = (m + 1) // 2, m // 2
        powers = self._powers
        while len(powers) <= a:
            powers.append(_matmul(powers[-1], self._columns, len(powers) & 1, self._signs))
        # (R^b)^T = (-1)^b R^b, so Tr(R^a R^b) = (-1)^b sum_{i,k} (R^a)_{ik} (R^b)_{ik};
        # for a = b the entries commute, the pairs i < k count twice, and
        # only i <= k is multiplied
        if a == b:
            half = [(powers[b][i][k], i < k) for i in range(self.n) for k in range(i, self.n)]
            acc = _entry([{key: (2 * re, 2 * im) for key, (re, im) in x.items()} if twice else x
                          for x, twice in half], [x for x, _twice in half], self._signs)
        else:
            acc = _entry(chain(*powers[a]), chain(*powers[b]), self._signs)
        scale = (-1) ** b * self._denominator ** m
        return GrassmannElement._of({key: from_parts(re, im, scale)
                                     for key, (re, im) in acc.items()})

    def scaled_trace(self, k: int) -> GrassmannElement:
        """(i r)^{2k} Tr(R^{2k}), an even Grassmann element with r-powers.
        Built once per k; every caller shares the (immutable) element."""
        scaled = self._scaled.get(k)
        if scaled is None:
            tr = self.matrix_power_trace(2 * k)
            scaled = self._scaled[k] = (-1) ** k * even("r", 2 * k) * tr
        return scaled

    def max_relevant_k(self) -> int:
        """The largest k with Tr(R^{2k}) possibly nonzero; caps the sums."""
        # each R factor contributes at least two odd generators, so a term
        # of Tr(R^{2k}) holds 4k of them
        return max(1, self._generators // 4)


def _entry(row, column, signs):
    """sum_k row[k] column[k] in CurvatureMatrix's kernel form: one entry of
    a matrix product.  signs caches the reordering sign per pair of masks."""
    acc = {}
    for x, y in zip(row, column):
        if not x or not y:
            continue
        y = y.items()
        for (m1, e1), (r1, i1) in x.items():
            for (m2, e2), (r2, i2) in y:
                if m1 & m2:
                    continue
                flip = signs.get((m1, m2))
                if flip is None:
                    flip = signs[(m1, m2)] = sign(m1, m2) < 0
                re = r1 * r2 - i1 * i2
                im = r1 * i2 + i1 * r2
                if flip:
                    re, im = -re, -im
                key = (m1 | m2, _mul_even(e1, e2) if e1 and e2 else e1 or e2)
                old = acc.get(key)
                acc[key] = (re + old[0], im + old[1]) if old else (re, im)
    return {key: c for key, c in acc.items() if c[0] or c[1]}


def _matmul(power, columns, odd_power, signs):
    """R^m = R^{m-1} R in CurvatureMatrix's kernel form, from R's columns.
    The entries commute, so (R^m)^T = (-1)^m R^m: only the entries i <= j
    are built (i < j for odd m, whose diagonal vanishes), and the others are
    mirrored with that sign."""
    n = len(power)
    out = [[{}] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + odd_power, n):
            entry = out[i][j] = _entry(power[i], columns[j], signs)
            out[j][i] = {key: (-re, -im) for key, (re, im) in entry.items()} if odd_power else entry
    return out


def _ph_scale(k: int) -> int:
    """The ph dictionary: (i r)^{2k} Tr(R^{2k}) = 2 (2k)! 4^k ph_k.  The 4^k
    is the square of the classical-root rescaling (the classical root is half
    the spectral root)."""
    return 2 * math.factorial(2 * k) * 4 ** k


def curvature_to_ph(matrix: CurvatureMatrix, k: int) -> GrassmannElement:
    """The Pontryagin-character value of a concrete curvature matrix: its
    scaled trace read through the formal dictionary, (i r / 2)^{2k} (1/2)
    Tr(R^{2k}) / (2k)!.

    The /2^{2k} relative to the spectral normalization converts to classical
    root units, so that substituting these values for ph_k in a formal result
    reproduces the concrete pipeline exactly.
    """
    return matrix.scaled_trace(k) * Fraction(1, _ph_scale(k))


# ---------------------------------------------------------------------------
# the superdeterminant
# ---------------------------------------------------------------------------

def fredholm_log_det(traces: Sequence, bc: BoundaryCondition):
    """log of the Fredholm determinant det(Id - i R (d/dt)^{-1}) on the given
    mode set: -sum_{k>=1} Tr((iR)^{2k}) Tr((d/dt)^{-2k}) / (2k), from the
    scaled traces traces[k-1] = (i r)^{2k} Tr(R^{2k}).  The odd orders
    vanish: the entries are even, so they commute, and antisymmetry gives
    Tr(R^m) = Tr((R^m)^T) = (-1)^m Tr(R^m)."""
    acc = 0 * traces[0]
    for k, trace in enumerate(traces, 1):
        if trace.is_zero():
            # a zero trace does not end the sum: Tr(R^2) can vanish while
            # Tr(R^4) does not; past the generator bound the traces are free
            continue
        tau = trace_inv_power(bc, 2 * k)
        # (i r)^{2k} Tr(R^{2k}) carries r^{+2k}; tau's rational part carries the
        # matching r^{-2k} once the mode trace 2 r^{2k} Z_k is divided by r^{2k}
        acc = acc + trace * Fraction(-1, 2 * k) * tau.coefficient
    return acc


def sdet(traces: Sequence, pp: bool = False):
    """The zeta-superdeterminant pf(D_eta1) pf(D_eta2) / det(D_a)^{1/2}, with
    the boundary conditions of PA_BOUNDARY (eta2 periodic too when pp), from
    the scaled traces of the curvature (see fredholm_log_det).

    A Pfaffian is det^{1/2}, D_eta1 carries no curvature, and D_a =
    (d/dt)(d/dt - i R) has the Fredholm factor of a first-order block, so
    the value is exp((1/2)(log det_F(D_eta2) - log det_F(D_a))).  The radius
    powers of the free parts cancel (free_r_exponent).
    """
    eta2 = BoundaryCondition.PERIODIC if pp else PA_BOUNDARY["eta2"]
    log_total = (fredholm_log_det(traces, eta2)
                 - fredholm_log_det(traces, PA_BOUNDARY["a"])) * Fraction(1, 2)
    return log_total.exp()


def sdet_formal(n: int, K: int, pp: bool = False) -> GradedPolynomial:
    """Formal-mode superdeterminant as a graded polynomial in ph_1..ph_K.  The
    fiber dimension n enters only the free parts, which cancel."""
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    return sdet([_ph_scale(k) * GradedPolynomial.generator(k, K, "ph")
                 for k in range(1, K + 1)], pp)


def sdet_concrete(matrix: CurvatureMatrix, pp: bool = False) -> GrassmannElement:
    """Concrete-mode superdeterminant for a Grassmann curvature matrix."""
    return sdet([matrix.scaled_trace(k) for k in range(1, matrix.max_relevant_k() + 1)], pp)


def demo_curvature() -> CurvatureMatrix:
    """A fixed 4x4 antisymmetric curvature matrix over four odd generators;
    entries mix the two generator pairs so that Tr(R^2) is a nonzero multiple
    of the top Grassmann monomial."""
    psi = [odd(f"psi{i}") for i in range(1, 5)]
    w12 = 2 * psi[0] * psi[1] + psi[2] * psi[3]
    w34 = psi[0] * psi[1] + 3 * psi[2] * psi[3]
    w13 = psi[0] * psi[3] + psi[1] * psi[2]
    w24 = psi[1] * psi[2] - psi[0] * psi[3]
    zero = scalar(0)
    rows = [
        [zero, w12, w13, zero],
        [-w12, zero, zero, w24],
        [-w13, zero, zero, w34],
        [zero, -w24, -w34, zero],
    ]
    return CurvatureMatrix(rows)


def substitute_ph(poly: GradedPolynomial, values: Sequence[GrassmannElement]) -> GrassmannElement:
    """Evaluate a ph-basis polynomial at concrete Grassmann values."""
    if poly.basis != "ph":
        raise ValueError("expected a ph-basis polynomial")
    return poly.evaluate([GrassmannElement.coerce(v) for v in values])


def sdet_report(n: int, K: int, mode: str = "formal", pp: bool = False) -> dict:
    """Machine-readable superdeterminant report."""
    l_cls = l_class_in_ph(K)
    if mode == "formal":
        value = sdet_formal(n, K, pp=pp)
        if pp:
            equal = value == GradedPolynomial.one(K, "ph")
        else:
            equal = value == l_cls
        value_json = value.to_json()
    elif mode == "concrete":
        matrix = demo_curvature()
        if n != matrix.n:
            raise ValueError(f"concrete mode ships a dimension-{matrix.n} instance")
        value = sdet_concrete(matrix, pp=pp)
        if pp:
            equal = (value - scalar(1)).is_zero()
        else:
            # the paper's statement: sdet equals the signature class, as
            # polynomials and at the concrete values of ph_1..ph_K
            phs = [curvature_to_ph(matrix, k) for k in range(1, K + 1)]
            equal = sdet_formal(n, K) == l_cls \
                and (value - substitute_ph(l_cls, phs)).is_zero()
        value_json = str(value)
    else:
        raise ValueError("mode must be formal or concrete")
    return {
        "n": n,
        "K": K,
        "mode": mode,
        "sector": "PP" if pp else "PA",
        "sdet": value_json,
        "l_class": l_cls.to_json(),
        "equal": bool(equal),
    }
