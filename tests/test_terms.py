"""Property tests of the sparse term core and of the exterior algebras built
on it, at random sizes the fixed tests do not reach."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from supersdet import terms
from supersdet.gaussian import GaussianRational
from supersdet.grassmann import GrassmannElement
from supersdet.sections import monomial

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
    odd = sorted_subset(ODD, range(5) if parity is None else (parity, parity + 2))
    even = st.dictionaries(st.sampled_from(("r", "t")), st.integers(-2, 2).filter(bool),
                           max_size=2).map(lambda d: tuple(sorted(d.items())))
    return st.dictionaries(st.tuples(odd, even), coeffs, max_size=4)


def grassmann(parity=None):
    return grassmann_terms(parity).map(GrassmannElement)


def forms(degree=None):
    exps = st.tuples(*[st.integers(0, 2)] * N)
    idxs = sorted_subset(range(1, N + 1), range(N + 1) if degree is None else (degree,))
    return st.dictionaries(st.tuples(exps, idxs), coeffs, max_size=4).map(
        lambda d: sum((monomial(e, i, c) for (e, i), c in d.items()), GrassmannElement()))


def _permutation_sign(idxs):
    """The sign of the permutation sorting idxs, or 0 on a repeated label:
    the quadratic-time reference that merge_signed is checked against."""
    if len(set(idxs)) < len(idxs):
        return 0
    sign = 1
    for i in range(len(idxs)):
        for j in range(i + 1, len(idxs)):
            if idxs[i] > idxs[j]:
                sign = -sign
    return sign


def rational_terms():
    return st.dictionaries(st.integers(0, 5), st.fractions(max_denominator=4), max_size=6)


def no_zero(d):
    return all(c for c in d.values())


@CORE
@given(labels, labels)
def test_merge_signed_is_the_sorting_sign(a, b):
    merged = terms.merge_signed(a, b)
    sign = _permutation_sign(a + b)
    if sign == 0:
        assert merged is None
    else:
        assert merged == (tuple(sorted(a + b)), sign)


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


@CORE
@given(coeffs, st.integers(-2, 2), grassmann_terms(0))
def test_invert_unit_is_an_inverse(c, e, soul):
    unit = GrassmannElement({((), (("r", e),) if e else ()): c})
    x = unit + GrassmannElement({k: v for k, v in soul.items() if k[0]})
    assert x * x.invert_unit() == 1
