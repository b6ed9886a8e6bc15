"""Exact power-series engine: Bernoulli numbers, even zeta values, the
hyperbolic characteristic series, and the multiplicative sequences
exp(sum_k c_k s_k) in the power sums s_k of the squared roots, written in the
Pontryagin classes p or the Pontryagin-character variables ph: the signature
class in either basis and the Newton conversions between the two.

All arithmetic is exact.  Coefficients are rationals; GradedPolynomial.exp
clears them to integer numerators over one denominator per weight piece,
with packed int monomial keys, and divides back once per result
coefficient.  pi never enters: the regularized determinants need only the
rationals zeta(2k)/(2 pi i)^{2k} = -B_{2k}/(2 (2k)!) and their odd-mode
counterparts, which come from the Bernoulli numbers.  Only ints and
Fractions build a series or a polynomial or combine with one by + or *; a
float or a string is a TypeError.

Tables that depend on the order alone are built once per process and shared:
the Bernoulli numbers, the Newton images, the coefficients of log(x/tanh x)
(`_l_log_coefficients`, a tuple), the signature class in ph (`l_class_in_ph`,
the comparison target of the superdeterminant) and the key packing of each
number of generators (`_packing`, whose unpack keeps one exponent tuple per
key).  Every caller receives the same object and must not mutate it.  The
caches are typed: a float order fails as it does uncached, never receiving the
table of its int twin.  A process that asks for the same order again reuses
them; a one-shot CLI call gains nothing from them.

Root-variable convention.  `l_series` expands (x/2)/tanh(x/2), the form
matched by the exponential product formulas; the signature class takes the
same series with the root doubled, x/tanh(x), so that evaluation against
integral Pontryagin numbers returns the signature (L_1 = p_1/3 and so on).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import terms

# ---------------------------------------------------------------------------
# Bernoulli numbers and even zeta values
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None, typed=True)
def bernoulli(m: int) -> Fraction:
    """Bernoulli number B_m (first convention, B_1 = -1/2), via the binomial
    recurrence sum_j C(m+1, j) B_j = 0.  Odd m > 1 returns 0."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 0:
        return Fraction(1)
    if m == 1:
        return Fraction(-1, 2)
    if m % 2 == 1:
        return Fraction(0)
    acc = Fraction(0)
    for j in range(m):
        acc += math.comb(m + 1, j) * bernoulli(j)
    return -acc / (m + 1)


def zeta_over_2pii(two_k: int) -> Fraction:
    """The exactly rational combination zeta(2k)/(2 pi i)^{2k} = -B_{2k}/(2 (2k)!)."""
    if two_k <= 0 or two_k % 2 != 0:
        raise ValueError("argument must be a positive even integer")
    return -bernoulli(two_k) / (2 * math.factorial(two_k))


def lambda_over_2pii(two_k: int) -> Fraction:
    """The odd-mode sum sum_{n>=1} (n - 1/2)^{-2k} = (2^{2k} - 1) zeta(2k) over
    (2 pi i)^{2k}, exactly rational."""
    return (Fraction(2) ** two_k - 1) * zeta_over_2pii(two_k)


# ---------------------------------------------------------------------------
# truncated univariate series
# ---------------------------------------------------------------------------

def _rational(c) -> Fraction:
    """c as an exact rational: an int becomes a Fraction, and anything but an
    int or a Fraction, a float or a string among them, is a TypeError."""
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"cannot coerce {c!r} into Q")


class TruncatedSeries:
    """A univariate power series over Q, truncated at a fixed order.

    coefficient(k) is the coefficient of x^k for 0 <= k <= order; all
    operations are exact and close over the truncation.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Fraction]):
        self.coeffs: Tuple[Fraction, ...] = tuple(_rational(c) for c in coeffs)
        if not self.coeffs:
            raise ValueError("series needs at least the constant term")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @staticmethod
    def from_function(term: Callable[[int], Fraction], order: int) -> "TruncatedSeries":
        return TruncatedSeries([term(k) for k in range(order + 1)])

    def coefficient(self, k: int) -> Fraction:
        if k < 0 or k > self.order:
            raise IndexError(f"coefficient {k} beyond truncation {self.order}")
        return self.coeffs[k]

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries([c * other for c in self.coeffs])
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(self.order, other.order)
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if not a:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return TruncatedSeries(out)

    __rmul__ = __mul__

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse; needs a nonzero constant term."""
        if self.coeffs[0] == 0:
            raise ValueError("no inverse: zero constant term")
        first = 1 / self.coeffs[0]
        return TruncatedSeries(terms.graded_series(self.coeffs, first, lambda j, w: -first))

    def log(self) -> "TruncatedSeries":
        """Logarithm of a series with constant term 1, via f'/f integration."""
        if self.coeffs[0] != 1:
            raise ValueError("log needs constant term 1")
        # f' is known to one order less than f; a constant f has f' = 0
        deriv = TruncatedSeries([k * c for k, c in enumerate(self.coeffs)][1:] or [0])
        quotient = deriv * self.inverse()
        return TruncatedSeries([0] + [c / k for k, c in
                                      enumerate(quotient.coeffs[:self.order], start=1)])

    def exp(self) -> "TruncatedSeries":
        """Exponential of a series with zero constant term."""
        if self.coeffs[0] != 0:
            raise ValueError("exp needs zero constant term")
        return TruncatedSeries(terms.graded_series(self.coeffs, Fraction(1), terms.exp_coefficient))

    def rescale_root(self, c: Fraction) -> "TruncatedSeries":
        """Substitute x -> c x."""
        c = _rational(c)
        return TruncatedSeries([self.coeffs[k] * c ** k for k in range(self.order + 1)])


def series_sinh_half(order: int) -> TruncatedSeries:
    """sinh(x/2)/(x/2) as an exact series."""
    def term(k: int) -> Fraction:
        if k % 2 == 1:
            return Fraction(0)
        return Fraction(1, 2 ** k * math.factorial(k + 1))
    return TruncatedSeries.from_function(term, order)


def series_cosh_half(order: int) -> TruncatedSeries:
    """cosh(x/2) as an exact series."""
    def term(k: int) -> Fraction:
        if k % 2 == 1:
            return Fraction(0)
        return Fraction(1, 2 ** k * math.factorial(k))
    return TruncatedSeries.from_function(term, order)


def l_series(order: int) -> TruncatedSeries:
    """(x/2)/tanh(x/2) = cosh(x/2) / (sinh(x/2)/(x/2)), starting 1 + x^2/12 - x^4/720."""
    return series_cosh_half(order) * series_sinh_half(order).inverse()


def l_series_doubled_root(order: int) -> TruncatedSeries:
    """x/tanh(x): the same genus with the root variable doubled; this is the
    normalization under which evaluation on Pontryagin numbers gives the
    signature."""
    return l_series(order).rescale_root(Fraction(2))


# ---------------------------------------------------------------------------
# graded polynomials in Pontryagin-type generators
# ---------------------------------------------------------------------------

class GradedPolynomial:
    """A polynomial in graded generators g_1..g_K, generator g_i of weight i
    (cohomological degree 4i), truncated above total weight K.

    The basis label records which generators the exponent vectors refer to:
    "p" for Pontryagin classes, "ph" for Pontryagin-character components.
    Conversions between the two bases are explicit maps, substitutions of
    the generators.  coeffs maps exponent tuples of nonnegative ints to
    nonzero Fractions.
    """

    __slots__ = ("nvars", "basis", "coeffs")

    def __init__(self, nvars: int, basis: str,
                 coeffs: Optional[Dict[Tuple[int, ...], Fraction]] = None):
        self.nvars = nvars
        self.basis = basis
        clean: Dict[Tuple[int, ...], Fraction] = {}
        if coeffs:
            for exps, c in coeffs.items():
                if len(exps) != nvars:
                    raise ValueError("exponent vector length mismatch")
                if any(type(e) is not int or e < 0 for e in exps):
                    raise ValueError(f"exponents must be nonnegative ints, got {exps!r}")
                c = _rational(c)
                if c and self.weight_of(exps) <= nvars:
                    clean[tuple(exps)] = c
        self.coeffs = clean

    @staticmethod
    def _of(nvars: int, basis: str, clean: Dict[Tuple[int, ...], Fraction]) -> "GradedPolynomial":
        """Wrap a dict the term core returned: no zeros, no weight above nvars."""
        out = GradedPolynomial.__new__(GradedPolynomial)
        out.nvars, out.basis, out.coeffs = nvars, basis, clean
        return out

    @staticmethod
    def weight_of(exps: Tuple[int, ...]) -> int:
        return sum((i + 1) * e for i, e in enumerate(exps))

    @staticmethod
    def one(nvars: int, basis: str) -> "GradedPolynomial":
        return GradedPolynomial(nvars, basis, {tuple([0] * nvars): Fraction(1)})

    @staticmethod
    def generator(i: int, nvars: int, basis: str) -> "GradedPolynomial":
        if not 1 <= i <= nvars:
            raise ValueError(f"generator index {i} out of range")
        exps = [0] * nvars
        exps[i - 1] = 1
        return GradedPolynomial(nvars, basis, {tuple(exps): Fraction(1)})

    def _check(self, other: "GradedPolynomial"):
        if self.nvars != other.nvars or self.basis != other.basis:
            raise ValueError("mixed graded-polynomial contexts")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Fraction(other) * GradedPolynomial.one(self.nvars, self.basis)
        elif not isinstance(other, GradedPolynomial):
            return NotImplemented
        self._check(other)
        return GradedPolynomial._of(self.nvars, self.basis, terms.add(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return GradedPolynomial._of(self.nvars, self.basis, terms.negate(self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return GradedPolynomial._of(self.nvars, self.basis, terms.scale(self.coeffs, other))
        if not isinstance(other, GradedPolynomial):
            return NotImplemented
        self._check(other)
        nvars, weight = self.nvars, self.weight_of

        # keys carry their weight, computed once per operand term
        def combine(a, b):
            if a[1] + b[1] > nvars:
                return None
            return tuple(map(operator.add, a[0], b[0])), 1

        return GradedPolynomial._of(nvars, self.basis, terms.product(
            [((e, weight(e)), c) for e, c in self.coeffs.items()],
            [((e, weight(e)), c) for e, c in other.coeffs.items()],
            combine))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, GradedPolynomial):
            return (self.nvars == other.nvars and self.basis == other.basis
                    and self.coeffs == other.coeffs)
        return NotImplemented

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def weight_component(self, w: int) -> "GradedPolynomial":
        return GradedPolynomial._of(self.nvars, self.basis,
                                    {e: c for e, c in self.coeffs.items()
                                     if self.weight_of(e) == w})

    def exp(self) -> "GradedPolynomial":
        """Exponential of a polynomial with zero constant term, weight by
        weight through the grading recurrence of terms.graded_series, summed
        in one loop on integers: with B the lcm of the denominators and
        X_j = B^j x_j the weight-j piece, H_w = w! B^w F_w obeys H_0 = 1 and
        H_w = sum_j j (w-1)!/(w-j)! X_j H_{w-j}.  A piece maps packed keys,
        which add as the monomials multiply, to numerators; products never
        truncate, and the zeros of a weight piece are dropped once, when it is
        complete."""
        nvars, weight = self.nvars, self.weight_of
        pack, unpack = _packing(nvars)
        B = math.lcm(*(c.denominator for c in self.coeffs.values()))
        X: List[Dict[int, int]] = [{} for _ in range(nvars + 1)]
        for e, c in self.coeffs.items():
            w = weight(e)
            X[w][pack(e)] = c.numerator * (B ** w // c.denominator)
        if X[0]:
            raise ValueError("exp needs zero constant term")
        H = [{0: 1}]
        for w in range(1, nvars + 1):
            acc: Dict[int, int] = {}
            for j in range(1, w + 1):
                if not (X[j] and H[w - j]):
                    continue
                cj = j * math.perm(w - 1, j - 1)
                for kx, cx in X[j].items():
                    f = cj * cx
                    for kh, ch in H[w - j].items():
                        key = kx + kh
                        acc[key] = acc.get(key, 0) + f * ch
            H.append({key: c for key, c in acc.items() if c})
        dens = [math.factorial(w) * B ** w for w in range(nvars + 1)]
        return GradedPolynomial._of(nvars, self.basis, {unpack(key): Fraction(n, dens[w])
                                                        for w, piece in enumerate(H)
                                                        for key, n in piece.items()})

    def substitute(self, images: Sequence["GradedPolynomial"]) -> "GradedPolynomial":
        """Replace generator g_i by images[i-1], homogeneous of weight i: the
        value at the images.  The images share one context, the context of
        the result."""
        if len(images) != self.nvars:
            raise ValueError("need one image per generator")
        for i, image in enumerate(images, 1):
            images[0]._check(image)
            if any(image.weight_of(e) != i for e in image.coeffs):
                raise ValueError(f"image of generator {i} is not homogeneous of weight {i}")
        return self.evaluate(images)

    def evaluate(self, values: Sequence) -> object:
        """Evaluate at given generator values (anything with ring operations,
        e.g. Fractions or even Grassmann elements); the result has the type
        of the values.  A monomial with a positive exponent on a zero value
        is skipped; the others walk _prefix_products, coefficient last."""
        if len(values) != self.nvars:
            raise ValueError("need one value per generator")
        zeros = [i for i, v in enumerate(values) if not v]
        monomials = [(e, c) for e, c in self.coeffs.items() if not any(e[i] for i in zeros)]
        return sum((c * product for c, product in _prefix_products(monomials, values, 1)),
                   0 * values[0])

    def to_json(self) -> List[dict]:
        out = []
        for exps in sorted(self.coeffs):
            c = self.coeffs[exps]
            out.append({"monomial": list(exps),
                        "num": c.numerator, "den": c.denominator})
        return out

    @staticmethod
    def from_json(nvars: int, basis: str, records: List[dict]) -> "GradedPolynomial":
        """Inverse of to_json."""
        return GradedPolynomial(nvars, basis, {tuple(r["monomial"]): Fraction(r["num"], r["den"])
                                               for r in records})

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        bits = []
        for exps in sorted(self.coeffs):
            c = self.coeffs[exps]
            mono = "*".join(f"{self.basis}{i + 1}" + (f"^{e}" if e > 1 else "")
                            for i, e in enumerate(exps) if e)
            bits.append(f"({c})" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)

    __repr__ = __str__


def _prefix_products(monomials, values, one):
    """(payload, product of values[i] ** e[i]) for each (e, payload) of
    monomials.  The monomials are walked in sorted order of their factor
    lists, largest generator first, so a product that several share, a
    common prefix, is built once and only the current path is held."""
    path, products = (), [one]
    for factors, payload in sorted((tuple(i for i in range(len(e) - 1, -1, -1) for _ in range(e[i])),
                                    payload) for e, payload in monomials):
        shared = next((k for k, (a, b) in enumerate(zip(path, factors)) if a != b),
                      min(len(path), len(factors)))
        del products[shared + 1:]
        for i in factors[shared:]:
            products.append(products[-1] * values[i])
        path = factors
        yield payload, products[-1]


@lru_cache(maxsize=None, typed=True)
def _packing(nvars: int):
    """(pack, unpack) between exponent vectors and int keys, nvars.bit_length()
    bits per generator: no exponent at weight <= nvars exceeds nvars.  One
    pair per nvars for the process; unpack keeps the tuple of each key it
    has read, at most one per monomial of weight <= nvars, and hands the
    same tuple out again."""
    shift = nvars.bit_length()
    mask = (1 << shift) - 1
    table: Dict[int, Tuple[int, ...]] = {}

    def unpack(key: int) -> Tuple[int, ...]:
        exps = table.get(key)
        if exps is None:
            exps = table[key] = tuple((key >> (shift * i)) & mask for i in range(nvars))
        return exps

    return lambda exps: sum(e << (shift * i) for i, e in enumerate(exps)), unpack


# ---------------------------------------------------------------------------
# multiplicative sequences exp(sum_k c_k s_k), s_k the k-th power sum of the
# squared roots: (2k)! ph_k, or Newton's polynomial in the p_i
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None, typed=True)
def power_sum_in_elementary(k: int, nvars: int) -> GradedPolynomial:
    """The k-th power sum written in the elementary symmetric generators
    (basis "p"), via s_k = sum_{i<k} (-1)^{i-1} p_i s_{k-i} + (-1)^{k-1} k p_k."""
    if k < 1 or k > nvars:
        raise ValueError("k out of range")
    acc = Fraction((-1) ** (k - 1) * k) * GradedPolynomial.generator(k, nvars, "p")
    for i in range(1, k):
        term = GradedPolynomial.generator(i, nvars, "p") * power_sum_in_elementary(k - i, nvars)
        acc = acc + Fraction((-1) ** (i - 1)) * term
    return acc


def _power_sums_in_ph(K: int) -> List[GradedPolynomial]:
    return [math.factorial(2 * k) * GradedPolynomial.generator(k, K, "ph") for k in range(1, K + 1)]


def _exp_of_power_sums(coefficients: Sequence[Fraction],
                       power_sums: Sequence[GradedPolynomial]) -> GradedPolynomial:
    """The multiplicative sequence exp(sum_k c_k s_k), c_k = coefficients[k-1]
    and s_k = power_sums[k-1] in the basis of the result (Hirzebruch;
    Milnor-Stasheff, Characteristic Classes, 19)."""
    return sum((c * s for c, s in zip(coefficients, power_sums)),
               GradedPolynomial(power_sums[0].nvars, power_sums[0].basis)).exp()


@lru_cache(maxsize=None, typed=True)
def _elementary_in_ph(K: int) -> Tuple[GradedPolynomial, ...]:
    """e_1..e_K in the basis "ph": the weight parts of prod_j (1 + y_j)."""
    total = _exp_of_power_sums([Fraction((-1) ** (k - 1), k) for k in range(1, K + 1)],
                               _power_sums_in_ph(K))
    return tuple(total.weight_component(k) for k in range(1, K + 1))


def pontryagin_to_powersums(poly: GradedPolynomial) -> GradedPolynomial:
    """Map a p-basis polynomial to the ph-basis, substituting each p_i by its
    Newton expression e_i in the scaled power sums s_k = (2k)! ph_k."""
    if poly.basis != "p":
        raise ValueError("expected a p-basis polynomial")
    return poly.substitute(_elementary_in_ph(poly.nvars))


@lru_cache(maxsize=None, typed=True)
def _ph_in_elementary(K: int) -> Tuple[GradedPolynomial, ...]:
    """ph_1..ph_K in the elementary symmetric generators: s_k/(2k)!."""
    return tuple(Fraction(1, math.factorial(2 * k)) * power_sum_in_elementary(k, K)
                 for k in range(1, K + 1))


def powersums_to_pontryagin(poly: GradedPolynomial) -> GradedPolynomial:
    """Map a ph-basis polynomial to the p-basis via ph_k = s_k/(2k)! and the
    Newton expression of s_k in elementary symmetric functions."""
    if poly.basis != "ph":
        raise ValueError("expected a ph-basis polynomial")
    return poly.substitute(_ph_in_elementary(poly.nvars))


@lru_cache(maxsize=None, typed=True)
def _l_log_coefficients(K: int) -> Tuple[Fraction, ...]:
    """c_1..c_K, c_k the x^{2k}-coefficient of log(x/tanh x)."""
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    return tuple(l_series_doubled_root(2 * K).log().coeffs[2::2])


def l_class(K: int) -> GradedPolynomial:
    """The total signature class 1 + L_1 + ... + L_K in the p-basis: the
    product of x_j/tanh(x_j) over the roots, with s_k in the p_i."""
    return _exp_of_power_sums(_l_log_coefficients(K),
                              [power_sum_in_elementary(k, K) for k in range(1, K + 1)])


def l_polynomials(K: int) -> List[GradedPolynomial]:
    """The signature-genus polynomials L_1..L_K in the Pontryagin classes,
    the weight parts of `l_class`: p1/3, (7 p2 - p1^2)/45,
    (62 p3 - 13 p1 p2 + 2 p1^3)/945, ..."""
    total = l_class(K)
    return [total.weight_component(k) for k in range(1, K + 1)]


@lru_cache(maxsize=None, typed=True)
def l_class_in_ph(K: int) -> GradedPolynomial:
    """The total signature class with s_k = (2k)! ph_k: an exp of a linear form
    in ph, as the superdeterminant is, and the comparison target for it.
    Built once per K for the process; callers share it and must not mutate it."""
    return _exp_of_power_sums(_l_log_coefficients(K), _power_sums_in_ph(K))
