import functools
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from supersdet import series as cs
from supersdet import verify as vf
from supersdet.grassmann import GrassmannElement, even, odd
from supersdet.series import GradedPolynomial, TruncatedSeries


def test_bernoulli_values():
    values = {0: 1, 1: Fraction(-1, 2), 2: Fraction(1, 6), 4: Fraction(-1, 30),
              6: Fraction(1, 42), 8: Fraction(-1, 30), 10: Fraction(5, 66),
              12: Fraction(-691, 2730)}
    for m, b in values.items():
        assert cs.bernoulli(m) == b
    assert cs.bernoulli(3) == 0 and cs.bernoulli(11) == 0
    with pytest.raises(ValueError):
        cs.bernoulli(-2)


def test_even_zeta_and_half_integer_sums():
    # zeta(2), zeta(4), zeta(6) = pi^2/6, pi^4/90, pi^6/945 over (2 pi i)^{2k}
    assert cs.zeta_over_2pii(2) == Fraction(-1, 24)
    assert cs.zeta_over_2pii(4) == Fraction(1, 1440)
    assert cs.zeta_over_2pii(6) == Fraction(-1, 60480)
    for k in range(1, 7):
        assert cs.zeta_over_2pii(2 * k) == -cs.bernoulli(2 * k) / (2 * math.factorial(2 * k))
    # the half-integer mode sums pi^2/2 and pi^4/6 over (2 pi i)^{2k}
    assert cs.lambda_over_2pii(2) == Fraction(-1, 8)
    assert cs.lambda_over_2pii(4) == Fraction(1, 96)
    assert cs.lambda_over_2pii(2) == 3 * cs.zeta_over_2pii(2)


def test_zeta_numeric_cross_check():
    # float sanity only; the exact identities above are the real content
    zeta_2 = cs.zeta_over_2pii(2) * (2j * math.pi) ** 2
    assert abs(zeta_2 - 1.6449340668482264) < 1e-12


def test_truncated_series_ring():
    a = TruncatedSeries([Fraction(1), Fraction(2), Fraction(3)])
    b = TruncatedSeries([Fraction(1), Fraction(-1), Fraction(0)])
    assert (a * b).coeffs == (Fraction(1), Fraction(1), Fraction(1))
    assert (a * b.inverse() * b).coeffs == a.coeffs
    assert a.log().exp().coeffs == a.coeffs
    geom = TruncatedSeries([Fraction(1)] * 6)
    assert geom.inverse().coeffs == (1, -1, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        a.exp()
    with pytest.raises(ValueError):
        TruncatedSeries([Fraction(0), Fraction(1)]).log()


@pytest.mark.parametrize("bad", [0.5, "1/3", 1j, None])
def test_truncated_series_takes_only_exact_rationals(bad):
    with pytest.raises(TypeError):
        TruncatedSeries([1, bad])
    with pytest.raises(TypeError):
        TruncatedSeries.from_function(lambda k: bad if k else 1, 2)
    with pytest.raises(TypeError):
        TruncatedSeries([1, 1]).rescale_root(bad)


def test_truncated_series_converts_ints():
    series = TruncatedSeries([1, Fraction(1, 2), -3])
    assert series.coeffs == (1, Fraction(1, 2), -3)
    assert all(type(c) is Fraction for c in series.coeffs)
    assert TruncatedSeries.from_function(lambda k: k, 2).coeffs == (0, 1, 2)
    assert type(TruncatedSeries([1, 1]).rescale_root(2).coeffs[1]) is Fraction


def test_characteristic_series_coefficients():
    ls = cs.l_series(8)
    assert ls.coefficient(0) == 1
    assert ls.coefficient(2) == Fraction(1, 12)
    assert ls.coefficient(4) == Fraction(-1, 720)
    assert ls.coefficient(6) == Fraction(1, 30240)
    assert all(ls.coefficient(k) == 0 for k in range(1, 9, 2))
    doubled = cs.l_series_doubled_root(8)
    assert doubled.coefficient(2) == Fraction(1, 3)
    assert doubled.coefficient(4) == Fraction(-1, 45)
    assert doubled.coefficient(6) == Fraction(2, 945)
    # the closed form of the coefficients: B_{2k} 2^{2k} / (2k)!
    for k in range(1, 5):
        expected = cs.bernoulli(2 * k) * Fraction(2) ** (2 * k) / math.factorial(2 * k)
        assert doubled.coefficient(2 * k) == expected


def test_log_l_series_two_routes():
    log_l = cs.l_series(10).log()
    assert log_l.coefficient(2) == Fraction(1, 12)
    assert log_l.coefficient(4) == Fraction(-7, 1440)
    for k in range(1, 5):
        combo = Fraction(1, k) * (cs.zeta_over_2pii(2 * k) - cs.lambda_over_2pii(2 * k))
        assert log_l.coefficient(2 * k) == combo


def test_exponential_forms_report():
    sinh_candidate, cosh_candidate = vf._exponential_candidates(8)
    assert sinh_candidate.coeffs == cs.series_sinh_half(8).coeffs
    assert cosh_candidate.coeffs == cs.series_cosh_half(8).coeffs
    cosh_full = cs.series_cosh_half(8).rescale_root(2).coeffs
    assert [k for k in range(9) if cosh_candidate.coeffs[k] != cosh_full[k]][0] == 2
    vacuous = vf._exponential_candidates(0)
    assert [c.coeffs for c in vacuous] == [(1,), (1,)]
    assert "fails at x^2" in vf._check_exponential_forms()


def test_l_polynomials_frozen_values():
    K = 4
    L = cs.l_polynomials(K)
    p = [GradedPolynomial.generator(i, K, "p") for i in range(1, K + 1)]
    assert L[0] == Fraction(1, 3) * p[0]
    assert L[1] == Fraction(1, 45) * (7 * p[1] - p[0] * p[0])
    assert L[2] == Fraction(1, 945) * (62 * p[2] - 13 * p[0] * p[1] + 2 * p[0] * p[0] * p[0])
    assert L[3] == Fraction(1, 14175) * (381 * p[3] - 71 * p[2] * p[0] - 19 * p[1] * p[1]
                                         + 22 * p[1] * p[0] * p[0]
                                         - 3 * p[0] * p[0] * p[0] * p[0])


def _product_at_roots(series, ys, K):
    """e_1..e_K of the squared roots ys, and the weight-1..K parts of
    prod_j Q(x_j) with x_j^2 = y_j, through a graded epsilon parameter."""
    es = [Fraction(1)] + [Fraction(0)] * K
    for y in ys:
        for i in range(K, 0, -1):
            es[i] = es[i] + y * es[i - 1]
    eps = [Fraction(1)] + [Fraction(0)] * K
    for y in ys:
        factor = [series.coefficient(2 * k) * y ** k for k in range(K + 1)]
        eps = [sum(eps[i] * factor[j - i] for i in range(j + 1)) for j in range(K + 1)]
    return es[1:], eps[1:]


def test_multiplicative_sequence_against_evaluation_oracle():
    # evaluate prod_j Q(x_j) at random rational roots and compare against the
    # polynomial route, degree by degree
    rng = random.Random(23)
    K = 4
    series = cs.l_series_doubled_root(2 * K)
    polys = cs.l_polynomials(K)
    for _ in range(8):
        ys = [Fraction(rng.randrange(1, 8), rng.randrange(1, 6)) for _ in range(2 * K)]
        es, eps = _product_at_roots(series, ys, K)
        assert [poly.evaluate(es) for poly in polys] == eps


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(st.integers(1, 6), st.data())
def test_l_polynomials_match_the_product_at_random_roots(K, data):
    ys = data.draw(st.lists(st.fractions(-5, 5, max_denominator=7), min_size=K, max_size=2 * K))
    es, eps = _product_at_roots(cs.l_series_doubled_root(2 * K), ys, K)
    assert [poly.evaluate(es) for poly in cs.l_polynomials(K)] == eps


def test_newton_conversions():
    K = 4
    to_ph = cs.pontryagin_to_powersums
    to_p = cs.powersums_to_pontryagin
    p1 = GradedPolynomial.generator(1, K, "p")
    p2 = GradedPolynomial.generator(2, K, "p")
    ph1 = GradedPolynomial.generator(1, K, "ph")
    ph2 = GradedPolynomial.generator(2, K, "ph")
    assert to_p(ph1) == Fraction(1, 2) * p1
    assert to_p(ph2) == Fraction(1, 24) * (p1 * p1 - 2 * p2)
    # p1 = s1 = 2 ph1 and p2 = (s1^2 - s2)/2 with s2 = 24 ph2
    assert to_ph(p1) == 2 * ph1
    assert to_ph(p2) == 2 * ph1 * ph1 - 12 * ph2
    mono = p1 * p2
    assert to_p(to_ph(mono)) == mono
    assert to_ph(to_p(ph1 * ph2)) == ph1 * ph2
    with pytest.raises(ValueError):
        to_p(p1)


@st.composite
def graded_polynomials(draw, K, basis):
    """Up to six monomials of mixed weight <= K, each a multiset of generator
    indices, with coefficients of assorted denominators."""
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        exps, budget = [0] * K, K
        for i in draw(st.lists(st.integers(1, K), max_size=K)):
            if i <= budget:
                exps[i - 1] += 1
                budget -= i
        terms[tuple(exps)] = draw(st.fractions(-40, 40, max_denominator=90).filter(bool))
    return GradedPolynomial(K, basis, terms)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(st.integers(1, 10), st.data())
def test_newton_round_trip_at_random_k(K, data):
    to_ph, to_p = cs.pontryagin_to_powersums, cs.powersums_to_pontryagin
    P = data.draw(graded_polynomials(K, "p"))
    Q = data.draw(graded_polynomials(K, "ph"))
    assert to_p(to_ph(P)) == P
    assert to_ph(to_p(Q)) == Q
    # no Newton code here: p_i = e_i(y) and ph_k = sum_j y_j^k / (2k)! at
    # random rational y, through the definitions alone
    ys = data.draw(st.lists(st.fractions(-4, 4, max_denominator=6), min_size=1, max_size=K + 2))
    es, _ = _product_at_roots(cs.l_series_doubled_root(2 * K), ys, K)
    phs = [sum(y ** k for y in ys) / math.factorial(2 * k) for k in range(1, K + 1)]
    assert P.evaluate(es) == to_ph(P).evaluate(phs)


def _evaluate_every_monomial(poly, values):
    """The value of poly with every monomial multiplied out, none skipped."""
    total = 0 * values[0]
    for exps, c in poly.coeffs.items():
        factors = [v for v, e in zip(values, exps) for _ in range(e)]
        total = total + functools.reduce(operator.mul, factors, c)
    return total


_ZERO_OR_RATIONAL = st.one_of(st.just(Fraction(0)), st.fractions(-3, 3, max_denominator=4))


@st.composite
def _even_grassmann_values(draw):
    """Zero, or c x^e + c' psi_a psi_b: an even Grassmann element."""
    if draw(st.booleans()):
        return GrassmannElement()
    c, c2 = draw(_ZERO_OR_RATIONAL), draw(_ZERO_OR_RATIONAL)
    a, b = draw(st.permutations(range(4)))[:2]
    return c * even("x", draw(st.integers(0, 2))) + c2 * odd(f"psi{a}") * odd(f"psi{b}")


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(st.integers(1, 6), st.data())
def test_evaluate_skips_only_monomials_on_zero_values(K, data):
    poly = data.draw(graded_polynomials(K, "ph")) + GradedPolynomial.one(K, "ph")
    rationals = data.draw(st.lists(_ZERO_OR_RATIONAL, min_size=K, max_size=K))
    grassmann = data.draw(st.lists(_even_grassmann_values(), min_size=K, max_size=K))
    for values in (rationals, grassmann, [GrassmannElement()] * K):
        assert poly.evaluate(values) == _evaluate_every_monomial(poly, values)


def test_evaluate_keeps_monomials_off_the_zero_values():
    K = 3
    ph = [GradedPolynomial.generator(i, K, "ph") for i in range(1, K + 1)]
    poly = 2 * GradedPolynomial.one(K, "ph") + ph[0] * ph[1] + 3 * ph[2]
    assert poly.evaluate([Fraction(0), Fraction(5), Fraction(7)]) == 23
    assert poly.evaluate([Fraction(0)] * K) == 2
    x = even("x")
    assert poly.evaluate([GrassmannElement(), x, x * x]) == 2 + 3 * x * x


def test_evaluate_walks_past_a_vanishing_prefix():
    # ph_3^2 = 0 is a prefix that ph_3^2 ph_1 and ph_3^2 ph_1^2 share, and
    # ph_2 = 0 is skipped: the prefix walk against every monomial multiplied out
    K = 8
    poly = cs.l_class_in_ph(K)
    psi = [odd(f"psi{a}") for a in range(8)]
    x = even("x")
    grassmann = [x + psi[0] * psi[1], GrassmannElement(), psi[2] * psi[3], x * x,
                 psi[4] * psi[5] + psi[6] * psi[7], 3 * x, GrassmannElement(), x]
    rationals = [Fraction(1, 2), Fraction(0), Fraction(-2, 3), Fraction(5), Fraction(1, 7),
                 Fraction(3), Fraction(0), Fraction(-1)]
    for values, kind in ((grassmann, GrassmannElement), (rationals, Fraction)):
        value = poly.evaluate(values)
        assert type(value) is kind
        assert value == _evaluate_every_monomial(poly, values)
    assert not (psi[2] * psi[3]) * (psi[2] * psi[3])


def test_substitute_needs_homogeneous_images():
    K = 3
    p = [GradedPolynomial.generator(i, K, "p") for i in range(1, K + 1)]
    ph = [GradedPolynomial.generator(i, K, "ph") for i in range(1, K + 1)]
    poly = p[0] * p[1] + p[2]
    assert poly.substitute(ph) == ph[0] * ph[1] + ph[2]
    # an image of the wrong weight, or of mixed weight, is rejected, not truncated
    for images in ([ph[0], ph[0], ph[2]], [ph[0] + ph[1], ph[1], ph[2]],
                   [ph[0], ph[1], ph[2] + GradedPolynomial.one(K, "ph")]):
        with pytest.raises(ValueError, match="not homogeneous"):
            poly.substitute(images)
    with pytest.raises(ValueError):
        poly.substitute(ph[:2])


def test_evaluate_over_zero_generators_is_the_constant():
    for poly, constant in ((GradedPolynomial.one(0, "p"), 1), (GradedPolynomial(0, "p"), 0),
                           (GradedPolynomial(0, "ph", {(): Fraction(-3, 7)}), Fraction(-3, 7))):
        value = poly.evaluate([])
        assert type(value) is Fraction and value == constant
        # with no image there is no context for the result to take
        with pytest.raises(ValueError, match="no context"):
            poly.substitute([])


def test_substitute_needs_images_of_one_context():
    # a ph image beside p images, or an image with another nvars, is refused,
    # not relabelled or packed with the wrong width
    poly = GradedPolynomial(2, "p", {(1, 0): 1, (0, 1): 1})
    for images in ([GradedPolynomial.generator(1, 2, "ph"), GradedPolynomial.generator(2, 2, "p")],
                   [GradedPolynomial.generator(1, 2, "p"), GradedPolynomial.generator(2, 3, "p")]):
        with pytest.raises(ValueError, match="mixed"):
            poly.substitute(images)


def test_graded_polynomial_truncation_and_exp():
    K = 3
    p1 = GradedPolynomial.generator(1, K, "p")
    p3 = GradedPolynomial.generator(3, K, "p")
    assert (p1 * p3).is_zero()  # weight 4 > 3 truncates
    assert p1 and not p1 * p3
    e = (Fraction(1, 3) * p1).exp()
    assert e.weight_component(0) == GradedPolynomial.one(K, "p")
    assert e.weight_component(1) == Fraction(1, 3) * p1
    assert e.weight_component(2) == Fraction(1, 18) * p1 * p1
    with pytest.raises(ValueError):
        GradedPolynomial.one(K, "p").exp()


@pytest.mark.parametrize("bad", [0.1, "1/3", 1j])
def test_graded_polynomial_takes_only_exact_rationals(bad):
    with pytest.raises(TypeError):
        GradedPolynomial(1, "p", {(1,): bad})


@pytest.mark.parametrize("bad", [0.5, "x", 1j])
def test_operators_refuse_foreign_operands(bad):
    # NotImplemented on both sides gives Python's own TypeError
    poly = GradedPolynomial.generator(1, 2, "p")
    for op in (operator.add, operator.mul):
        with pytest.raises(TypeError):
            op(poly, bad)
        with pytest.raises(TypeError):
            op(bad, poly)
    series = TruncatedSeries([1, 2, 3])
    with pytest.raises(TypeError):
        series * bad
    with pytest.raises(TypeError):
        bad * series


def test_mixed_contexts_stay_a_value_error():
    poly = GradedPolynomial.generator(1, 2, "p")
    for other in (GradedPolynomial.generator(1, 3, "p"), GradedPolynomial.generator(1, 2, "ph")):
        for op in (operator.add, operator.mul):
            with pytest.raises(ValueError, match="mixed"):
                op(poly, other)


@st.composite
def polynomials_without_constant_term(draw):
    """nvars in 1..8 and up to three monomials of each weight 1..nvars, with
    coefficients of assorted denominators."""
    nvars = draw(st.integers(1, 8))
    terms = {}
    for w in range(1, nvars + 1):
        for _ in range(draw(st.integers(0, 3))):
            exps, left = [0] * nvars, w
            while left:
                i = draw(st.integers(1, left))
                exps[i - 1] += 1
                left -= i
            terms[tuple(exps)] = draw(st.fractions(-20, 20, max_denominator=12).filter(bool))
    return GradedPolynomial(nvars, "p", terms)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(polynomials_without_constant_term())
def test_exp_is_the_truncated_power_series(x):
    # exp(x) = sum_{n <= nvars} x^n / n!: x^n has weight >= n, so the sum stops
    expected = GradedPolynomial.one(x.nvars, x.basis)
    power = expected
    for n in range(1, x.nvars + 1):
        power = power * x
        expected = expected + Fraction(1, math.factorial(n)) * power
    assert x.exp() == expected


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(polynomials_without_constant_term(), st.data())
def test_exp_tells_apart_arguments_one_monomial_apart(x, data):
    # the weight-w part of exp(x) is x_w plus a polynomial in x_1..x_{w-1}, so
    # exp is injective on polynomials with no constant term: the superdeterminant
    # report decides its identity on the logs for that reason
    nvars = x.nvars
    exps, left = [0] * nvars, data.draw(st.integers(1, nvars))
    while left:
        i = data.draw(st.integers(1, left))
        exps[i - 1] += 1
        left -= i
    delta = data.draw(st.fractions(-20, 20, max_denominator=12).filter(bool))
    assert (x + GradedPolynomial(nvars, x.basis, {tuple(exps): delta})).exp() != x.exp()


@pytest.mark.parametrize("exps", [(-1, 0), (0, -2), (0.5, 0), (Fraction(1), 0), ("1", 0), (True, 0)])
def test_graded_polynomial_needs_nonnegative_int_exponents(exps):
    with pytest.raises(ValueError, match="nonnegative ints"):
        GradedPolynomial(2, "p", {exps: 1})
    with pytest.raises(ValueError, match="nonnegative ints"):
        GradedPolynomial.from_json(2, "p", [{"monomial": list(exps), "num": 1, "den": 1}])


def test_graded_polynomial_converts_ints():
    poly = GradedPolynomial(2, "p", {(1, 0): 3, (0, 1): Fraction(1, 2), (2, 0): 0})
    assert poly.coeffs == {(1, 0): 3, (0, 1): Fraction(1, 2)}
    assert all(type(c) is Fraction for c in poly.coeffs.values())


def test_power_sums_in_elementary():
    # s2 = p1^2 - 2 p2, s3 = p1^3 - 3 p1 p2 + 3 p3
    K = 3
    p1 = GradedPolynomial.generator(1, K, "p")
    p2 = GradedPolynomial.generator(2, K, "p")
    p3 = GradedPolynomial.generator(3, K, "p")
    assert cs.power_sum_in_elementary(1, K) == p1
    assert cs.power_sum_in_elementary(2, K) == p1 * p1 - 2 * p2
    assert cs.power_sum_in_elementary(3, K) == p1 * p1 * p1 - 3 * p1 * p2 + 3 * p3
    # and back: e_1 = s_1, e_2 = (s_1^2 - s_2)/2, e_3 = (s_1^3 - 3 s_1 s_2 + 2 s_3)/6
    # at s_k = (2k)! ph_k
    ph1, ph2, ph3 = (GradedPolynomial.generator(i, K, "ph") for i in range(1, K + 1))
    to_ph = cs.pontryagin_to_powersums
    assert to_ph(p1) == 2 * ph1
    assert to_ph(p2) == 2 * ph1 * ph1 - 12 * ph2
    assert to_ph(p3) == Fraction(4, 3) * ph1 * ph1 * ph1 - 24 * ph1 * ph2 + 240 * ph3


@pytest.mark.parametrize("K", range(1, 13))
def test_the_two_bases_agree(K):
    # l_class and l_class_in_ph exponentiate their own power sums; Newton
    # carries each to the other
    assert cs.pontryagin_to_powersums(cs.l_class(K)) == cs.l_class_in_ph(K)
    assert cs.powersums_to_pontryagin(cs.l_class_in_ph(K)) == cs.l_class(K)


@pytest.mark.parametrize("K", [0, -1])
def test_signature_class_needs_a_positive_k(K):
    # twice over: a raising call leaves nothing cached to be returned later
    for build in 2 * (cs._l_log_coefficients, cs.l_class, cs.l_polynomials, cs.l_class_in_ph):
        with pytest.raises(ValueError, match=f"K must be >= 1, got {K}"):
            build(K)


def test_l_polynomial_p_k_coefficient_closed_form():
    # Hirzebruch's closed form, independent of the exp and Newton code
    # (Milnor-Stasheff, Characteristic Classes, 19)
    K = 16
    for k, L_k in enumerate(cs.l_polynomials(K), start=1):
        p_k = tuple(1 if i == k - 1 else 0 for i in range(K))
        expected = Fraction(2) ** (2 * k) * (2 ** (2 * k - 1) - 1) * abs(cs.bernoulli(2 * k)) \
            / math.factorial(2 * k)
        assert L_k.coeffs[p_k] == expected, k


# ---------------------------------------------------------------------------
# the per-process tables
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("K", range(1, 17))
def test_l_log_coefficients_are_one_shared_tuple(K):
    coefficients = cs._l_log_coefficients(K)
    assert isinstance(coefficients, tuple)
    assert coefficients == cs.l_series_doubled_root(2 * K).log().coeffs[2::2]
    assert cs._l_log_coefficients(K) is coefficients


@pytest.mark.parametrize("K", range(1, 13))
def test_l_class_in_ph_is_one_shared_polynomial(K):
    cls = cs.l_class_in_ph(K)
    assert cs.l_class_in_ph(K) is cls
    assert cls == cs._exp_of_power_sums(cs._l_log_coefficients(K), cs._power_sums_in_ph(K))


@pytest.mark.parametrize("K", range(1, 13))
def test_l_class_in_ph_is_the_exp_of_the_shared_log(K):
    log = cs.l_log_in_ph(K)
    assert cs.l_log_in_ph(K) is log
    assert log == sum((c * math.factorial(2 * k) * GradedPolynomial.generator(k, K, "ph")
                       for k, c in enumerate(cs._l_log_coefficients(K), 1)),
                      GradedPolynomial(K, "ph"))
    assert cs.l_class_in_ph(K) == log.exp()
    assert cs.l_log_in_ph.cache_parameters()["typed"]
    with pytest.raises(TypeError):
        cs.l_log_in_ph(float(K))


def test_every_table_is_typed():
    tables = [f for f in vars(cs).values() if hasattr(f, "cache_parameters")]
    assert cs.l_class_in_ph in tables and cs.power_sum_in_elementary in tables
    assert all(f.cache_parameters()["typed"] for f in tables)


@pytest.mark.parametrize("build, args", [(cs.power_sum_in_elementary, (2, 3)),
                                         (cs.l_class_in_ph, (2,))])
def test_a_float_order_fails_cold_and_warm(build, args):
    # the key (2.0, 3) equals (2, 3): an untyped cache would hand the float
    # the int's table once that was built
    floated = (float(args[0]),) + args[1:]
    build.cache_clear()
    with pytest.raises(TypeError):
        build(*floated)
    build(*args)
    with pytest.raises(TypeError):
        build(*floated)


@pytest.mark.parametrize("nvars", [1, 2, 7, 8, 16])
def test_packing_is_one_pair_per_nvars(nvars):
    assert cs._packing(nvars) is cs._packing(nvars)


@st.composite
def exponent_vectors(draw):
    """(nvars, e) with nvars in 1..24 and e of weight sum_i i e_i <= nvars."""
    nvars = draw(st.integers(1, 24))
    left, exps = nvars, []
    for i in draw(st.permutations(range(1, nvars + 1))):
        e = draw(st.integers(0, left // i))
        left -= i * e
        exps.append((i, e))
    return nvars, tuple(e for _i, e in sorted(exps))


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(exponent_vectors())
def test_packed_keys_round_trip(case):
    nvars, exps = case
    assert GradedPolynomial.weight_of(exps) <= nvars
    pack, unpack = cs._packing(nvars)
    assert unpack(pack(exps)) == exps
    # the table hands out the tuple it kept
    assert unpack(pack(exps)) is unpack(pack(list(exps)))
