from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from supersdet.gaussian import GaussianRational, I


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


rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
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
        # the same value as one built through __init__, in every respect
        expected = GaussianRational(re, im)
        assert value == expected and expected == value
        assert hash(value) == hash(expected)
        assert repr(value) == repr(expected)
