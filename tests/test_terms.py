"""Property tests of the sparse term core and of the exterior algebras built
on it, at random sizes the fixed tests do not reach."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from supersdet import terms
from supersdet.gaussian import GaussianRational
from supersdet.grassmann import GrassmannElement, even, odd, scalar, sign
from supersdet.sections import monomial
from supersdet.series import GradedPolynomial, TruncatedSeries

CORE = settings(derandomize=True, max_examples=25, deadline=None, database=None)

ODD = ("a", "b", "c", "d", "e")
N = 3  # ambient dimension of the random forms

labels = st.lists(st.integers(0, 7), unique=True, max_size=5).map(lambda xs: tuple(sorted(xs)))
small = st.integers(-3, 3)
coeffs = st.builds(GaussianRational, small, small).filter(bool)


def sorted_subset(pool, sizes):
    return st.sampled_from(sizes).flatmap(
        lambda k: st.lists(st.sampled_from(pool), unique=True, min_size=k, max_size=k)
    ).map(lambda xs: tuple(sorted(xs)))


def grassmann_terms(parity):
    """{(odd names in name order, even powers): coefficient}, a description
    that from_products turns into an element."""
    odd_names = sorted_subset(ODD, range(5) if parity is None else (parity, parity + 2))
    even_powers = st.dictionaries(st.sampled_from(("r", "t")), st.integers(-2, 2).filter(bool),
                                  max_size=2).map(lambda d: tuple(sorted(d.items())))
    return st.dictionaries(st.tuples(odd_names, even_powers), coeffs, max_size=4)


def from_products(terms):
    """The sum of c * (odd generators in name order) * (even powers)."""
    return sum((math.prod([scalar(c), *map(odd, o), *(even(n, e) for n, e in ev)])
                for (o, ev), c in terms.items()), GrassmannElement())


def grassmann(parity=None):
    return grassmann_terms(parity).map(from_products)


def forms(degree=None):
    exps = st.tuples(*[st.integers(0, 2)] * N)
    idxs = sorted_subset(range(1, N + 1), range(N + 1) if degree is None else (degree,))
    return st.dictionaries(st.tuples(exps, idxs), coeffs, max_size=4).map(
        lambda d: sum((monomial(e, i, c) for (e, i), c in d.items()), GrassmannElement()))


def _permutation_sign(idxs):
    """The sign of the permutation sorting idxs, or 0 on a repeated label:
    the quadratic-time reference that sign is checked against."""
    if len(set(idxs)) < len(idxs):
        return 0
    out = 1
    for i in range(len(idxs)):
        for j in range(i + 1, len(idxs)):
            if idxs[i] > idxs[j]:
                out = -out
    return out


def rational_terms():
    return st.dictionaries(st.integers(0, 5), st.fractions(max_denominator=4), max_size=6)


def no_zero(d):
    return all(c for c in d.values())


@CORE
@given(labels, labels)
def test_merge_signed_is_the_sorting_sign(a, b):
    # the labels are bit positions: m1 * m2 = sign(m1, m2) * (m1 | m2)
    m1, m2 = (sum(1 << i for i in xs) for xs in (a, b))
    expected = _permutation_sign(a + b)
    if expected == 0:
        assert m1 & m2
    else:
        assert sign(m1, m2) == expected


@CORE
@given(grassmann(), grassmann(), grassmann())
def test_grassmann_product_is_associative(x, y, z):
    assert (x * y) * z == x * (y * z)


@CORE
@given(st.integers(0, 1), st.integers(0, 1), st.data())
def test_grassmann_product_is_graded_commutative(p, q, data):
    x, y = data.draw(grassmann(p)), data.draw(grassmann(q))
    assert x * y == (-1) ** (p * q) * (y * x)


@CORE
@given(forms(), forms(), forms())
def test_wedge_is_associative(x, y, z):
    assert (x * y) * z == x * (y * z)


@CORE
@given(st.integers(0, 2), st.integers(0, 2), st.data())
def test_wedge_is_graded_commutative(p, q, data):
    x, y = data.draw(forms(p)), data.draw(forms(q))
    assert x * y == (-1) ** (p * q) * (y * x)


@CORE
@given(rational_terms(), rational_terms(), st.fractions(max_denominator=3))
def test_core_never_stores_zero(a, b, c):
    a = {k: v for k, v in a.items() if v}
    b = {k: v for k, v in b.items() if v}
    assert no_zero(terms.add(a, b))
    assert no_zero(terms.add(a, terms.negate(a))) and not terms.add(a, terms.negate(a))
    assert no_zero(terms.scale(a, c))
    assert no_zero(terms.product(a.items(), b.items(), lambda x, y: ((x + y) % 3, 1 - 2 * (x & 1))))
    out = dict(a)
    for key, v in b.items():
        terms.accumulate(out, key, v)
        terms.accumulate(out, key, Fraction(0))
    assert no_zero(out) and out == terms.add(a, b)


@CORE
@given(grassmann(), grassmann())
def test_grassmann_results_hold_no_zero(x, y):
    for z in (x + y, x - x, x * y, -x, x * Fraction(0), x.derivative_odd("a")):
        assert no_zero(z.terms)
        assert bool(z) is not z.is_zero()


@CORE
@given(coeffs, st.integers(-2, 2), grassmann_terms(0))
def test_invert_unit_is_an_inverse(c, e, soul):
    unit = scalar(c) * even("r", e)
    x = unit + from_products({k: v for k, v in soul.items() if k[0]})
    assert x * x.invert_unit() == 1


def power_sum(x, one, coefficient):
    """sum_j coefficient(j) x^j for a nilpotent x, summed until the power
    vanishes: the power loop the grading recurrence replaced, kept as the
    reference."""
    acc = power = one
    j = 0
    while True:
        j += 1
        power = power * x
        if power.is_zero():
            return acc
        acc = acc + power * coefficient(j)


def power_sum_exp(x, one):
    return power_sum(x, one, lambda j: Fraction(1, math.factorial(j)))


def graded_polynomials(K):
    """Random p-basis polynomials without constant term: each monomial is a
    product of one to three generators, and the weight truncation drops the
    ones above K."""
    def vector(indices):
        exps = [0] * K
        for i in indices:
            exps[i - 1] += 1
        return tuple(exps)
    monomials = st.lists(st.integers(1, K), min_size=1, max_size=3).map(vector)
    return st.dictionaries(monomials, st.fractions(max_denominator=4).filter(bool),
                           max_size=4).map(lambda d: GradedPolynomial(K, "p", d))


def even_souls(names=("a", "b", "c", "d", "e", "f")):
    """Even Grassmann elements without body, over six generators."""
    odd_names = sorted_subset(names, (2, 4))
    even_powers = st.sampled_from(((), (("r", 1),), (("r", -2),)))
    return st.dictionaries(st.tuples(odd_names, even_powers), coeffs, max_size=4).map(from_products)


@CORE
@given(st.integers(1, 8).flatmap(lambda K: st.tuples(graded_polynomials(K), graded_polynomials(K))))
def test_graded_polynomial_exp_is_a_homomorphism(pair):
    a, b = pair
    one = GradedPolynomial.one(a.nvars, "p")
    assert (a + b).exp() == a.exp() * b.exp()
    assert a.exp() == power_sum_exp(a, one)


@CORE
@given(even_souls(), even_souls())
def test_grassmann_exp_is_a_homomorphism(a, b):
    one = scalar(1)
    assert (a + b).exp() == a.exp() * b.exp()
    assert a.exp() == power_sum_exp(a, one)


@CORE
@given(grassmann(1).filter(bool), even_souls(), coeffs)
def test_grassmann_exp_rejects_odd_and_bodied_input(odd_part, soul, c):
    with pytest.raises(ValueError):
        (odd_part + soul).exp()
    with pytest.raises(ValueError):
        (soul + c).exp()


@CORE
@given(st.integers(1, 12).flatmap(
    lambda n: st.lists(st.fractions(max_denominator=5), min_size=n + 1, max_size=n + 1)))
def test_truncated_series_inverse_exp_log_round_trip(coeffs):
    n = len(coeffs) - 1
    unit = TruncatedSeries([Fraction(1)] + coeffs[1:])
    soul = TruncatedSeries([Fraction(0)] + coeffs[1:])
    identity = (Fraction(1),) + (Fraction(0),) * n
    assert unit.log().exp().coeffs == unit.coeffs
    assert soul.exp().log().coeffs == soul.coeffs
    assert (unit * unit.inverse()).coeffs == identity
    if coeffs[0]:
        scaled = unit * coeffs[0]
        assert (scaled.inverse() * scaled).coeffs == identity


@CORE
@given(st.lists(st.tuples(sorted_subset("abcdef", (2,)), coeffs), min_size=1, max_size=5))
@example([(("a", "b"), GaussianRational(1)), (("c", "d"), GaussianRational(1))])
def test_invert_unit_soul_reaches_odd_count_four(pieces):
    # a soul of pair terms only: (1 + s)^{-1} = 1 - s + s^2 - ..., whose
    # count-4 piece is s^2 although no input term has four generators
    soul = from_products({(odd_names, ()): c for odd_names, c in pieces})
    inverse = (1 + soul).invert_unit()
    assert inverse == power_sum(soul, scalar(1), lambda j: (-1) ** j)
    assert (1 + soul) * inverse == 1
    top = GrassmannElement({k: c for k, c in inverse.terms.items() if k[0].bit_count() == 4})
    assert top == soul * soul
