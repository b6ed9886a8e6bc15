import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from supersdet.gaussian import GaussianRational, I, from_parts, parts
from supersdet.grassmann import GrassmannElement, scalar


def test_field_operations():
    a = GaussianRational(Fraction(1, 2), Fraction(3))
    b = GaussianRational(2, -1)
    assert a + b == GaussianRational(Fraction(5, 2), 2)
    assert a - b == GaussianRational(Fraction(-3, 2), 4)
    assert a * b == GaussianRational(4, Fraction(11, 2))
    assert (a / b) * b == a
    assert -a == GaussianRational(Fraction(-1, 2), -3)


def test_i_squares_to_minus_one():
    assert I * I == -1
    assert I * I * I * I == 1
    assert GaussianRational(1) / I == -I


def test_mixed_scalar_coercion():
    assert 2 + I == GaussianRational(2, 1)
    assert Fraction(1, 3) * I == GaussianRational(0, Fraction(1, 3))
    assert (1 - I) * (1 + I) == 2


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1) / GaussianRational(0)


def test_conjugate_and_predicates():
    z = GaussianRational(2, 5)
    conjugate = GaussianRational(z.re, -z.im)
    assert z * conjugate == 29
    assert (z * conjugate).is_rational() and not z.is_rational()
    assert bool(GaussianRational(0)) is False and bool(I) is True


def test_repr_is_exact():
    assert repr(GaussianRational(Fraction(1, 3))) == "1/3"
    assert repr(GaussianRational(0, Fraction(-2, 7))) == "-2/7i"
    assert repr(GaussianRational(1, 1)) == "1+1i"


def test_results_are_canonical():
    # (a + b i)/d with d > 0 and gcd(a, b, d) = 1, whatever the operation
    half = GaussianRational(Fraction(1, 2))
    assert parts(half + Fraction(1, 2)) == (1, 0, 1)  # one denominator
    assert parts(half + half) == (1, 0, 1)
    assert half + half == 1 and hash(half + half) == hash(1)
    assert parts(GaussianRational(Fraction(1, 3), Fraction(1, 6)) * 6) == (2, 1, 1)
    assert parts(GaussianRational(2, 4) / 2) == (1, 2, 1)
    assert parts(GaussianRational(Fraction(3, 4), Fraction(-5, 6))) == (9, -10, 12)
    assert parts(from_parts(2, -4, -6)) == (-1, 2, 3)
    assert parts(from_parts(0, 0, 7)) == (0, 0, 1) == parts(GaussianRational())


def test_zero_denominator_is_refused():
    with pytest.raises(ZeroDivisionError):
        from_parts(1, 1, 0)


@pytest.mark.parametrize("bad", [0.1, "1/3", Decimal("0.5"), 1j, None], ids=repr)
def test_only_ints_and_fractions_enter(bad):
    # no float, string or Decimal becomes an exact value by conversion
    for args in ((bad,), (0, bad), (bad, 1)):
        with pytest.raises(TypeError, match=r"into Q\(i\)"):
            GaussianRational(*args)
    with pytest.raises(TypeError, match=r"into Q\(i\)"):
        GaussianRational.coerce(bad)
    for op in (lambda z: z + bad, lambda z: bad * z, lambda z: z / bad):
        with pytest.raises(TypeError):
            op(GaussianRational(1, 1))
    with pytest.raises(TypeError):
        GrassmannElement() * bad  # even an empty element takes no float
    with pytest.raises(TypeError):
        bad * scalar(I)


def _assert_canonical(z):
    a, b, d = parts(z)
    assert type(a) is int and type(b) is int and type(d) is int
    assert d > 0 and math.gcd(a, b, d) == 1
    assert (Fraction(a, d), Fraction(b, d)) == (z.re, z.im)


# small parts, which cancel often, and wide ones, whose products are long ints
rationals = st.one_of(
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
    st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 15)),
)
zero = st.just(Fraction(0))
operands = st.one_of(
    st.builds(GaussianRational, rationals, zero),      # real
    st.builds(GaussianRational, zero, rationals),      # imaginary
    st.builds(GaussianRational, rationals, rationals),  # mixed
)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(operands, st.one_of(operands, st.integers(-3, 3), rationals))
def test_product_matches_the_formula(a, b):
    # b is a Q(i) value, an int or a Fraction, on either side of the product
    c = GaussianRational.coerce(b)
    re, im = a.re * c.re - a.im * c.im, a.re * c.im + a.im * c.re
    expected = GaussianRational(re, im)
    for p in (a * b, b * a):
        assert type(p.re) is Fraction and type(p.im) is Fraction
        assert (p.re, p.im) == (re, im)
        _assert_canonical(p)
        # the same value as one built through __init__, in every respect
        assert p == expected and expected == p
        assert hash(p) == hash(expected) and repr(p) == repr(expected)
        if p.im == 0:
            assert p == p.re and p.re == p
            assert hash(p) == hash(p.re)
            assert repr(p) == str(p.re)
            if p.re.denominator == 1:
                assert p == int(p.re) and hash(p) == hash(int(p.re))


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(operands, st.one_of(operands, st.integers(-3, 3), rationals))
def test_sums_and_negation_keep_fraction_parts(a, b):
    c = GaussianRational.coerce(b)
    cases = [(a + b, a.re + c.re, a.im + c.im), (b + a, a.re + c.re, a.im + c.im),
             (a - b, a.re - c.re, a.im - c.im), (b - a, c.re - a.re, c.im - a.im),
             (-a, -a.re, -a.im)]
    for value, re, im in cases:
        assert type(value.re) is Fraction and type(value.im) is Fraction
        _assert_canonical(value)
        # the same value as one built through __init__, in every respect
        expected = GaussianRational(re, im)
        assert value == expected and expected == value
        assert hash(value) == hash(expected)
        assert repr(value) == repr(expected)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(operands, st.one_of(operands, st.integers(-3, 3), rationals).filter(bool))
def test_quotient_matches_the_formula(a, b):
    # the Fraction-pair reference: a times the conjugate of b over its norm
    c = GaussianRational.coerce(b)
    norm = c.re * c.re + c.im * c.im
    re, im = (a.re * c.re + a.im * c.im) / norm, (a.im * c.re - a.re * c.im) / norm
    q = a / b
    assert type(q.re) is Fraction and type(q.im) is Fraction
    assert (q.re, q.im) == (re, im)
    _assert_canonical(q)
    expected = GaussianRational(re, im)
    assert q == expected and hash(q) == hash(expected) and repr(q) == repr(expected)
    assert q * b == a
