import functools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from supersdet import series as cs
from supersdet import zeta as zs
from supersdet.gaussian import GaussianRational
from supersdet.grassmann import GrassmannElement, even, odd, scalar
from supersdet.zeta import BoundaryCondition as BC


# ---------------------------------------------------------------------------
# regularized free products
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 9))
def test_regularized_product_power(n):
    power = zs.regularized_product_power(n)
    assert power.coefficient == 1
    assert power.r_exponent == Fraction(n, 2)


def test_regularized_product_additivity():
    # the same sequence squared doubles the exponent
    assert zs.regularized_product_power(4).r_exponent \
        == 2 * zs.regularized_product_power(2).r_exponent


# ---------------------------------------------------------------------------
# inverse-power traces: exact values and convergent mode sums
# ---------------------------------------------------------------------------

def test_trace_values_exact():
    per = zs.trace_inv_power(BC.PERIODIC, 2)
    assert per.coefficient == Fraction(-1, 12) and per.r_exponent == 2
    anti = zs.trace_inv_power(BC.ANTIPERIODIC, 2)
    assert anti.coefficient == Fraction(-1, 4)
    for k in range(1, 5):
        value = zs.trace_inv_power(BC.PERIODIC, 2 * k).coefficient
        assert value == -cs.bernoulli(2 * k) / math.factorial(2 * k)
        assert value.denominator > 0  # real rational
        anti_k = zs.trace_inv_power(BC.ANTIPERIODIC, 2 * k).coefficient
        assert anti_k == (Fraction(2) ** (2 * k) - 1) * value


def _mode_sum_periodic(two_k: int, modes: int) -> float:
    """Direct sum over the nonzero integer modes at r = 1, with the
    Euler-Maclaurin tail of the convergent series appended:
    sum_{l>N} l^{-s} = N^{1-s}/(s-1) - N^{-s}/2 + s N^{-s-1}/12 - O(N^{-s-3})."""
    s = two_k
    l = np.arange(modes, 0, -1, dtype=np.float64)  # ascending magnitudes
    partial = float(np.sum(l ** (-s)))
    N = float(modes)
    tail = N ** (1 - s) / (s - 1) - N ** (-s) / 2 + s * N ** (-s - 1) / 12
    # Tr = 2 sum (1/(2 pi i l))^{2k} = 2 (-1)^k (2 pi)^{-2k} sum l^{-2k}
    return 2.0 * (-1.0) ** (s // 2) * (2 * math.pi) ** (-s) * (partial + tail)


def _mode_sum_antiperiodic(two_k: int, modes: int) -> float:
    s = two_k
    l = np.arange(modes, 0, -1, dtype=np.float64)
    half = l - 0.5
    partial = float(np.sum(half ** (-s)))
    edge = float(modes) + 0.5
    tail = edge ** (1 - s) / (s - 1) + edge ** (-s) / 2 + s * edge ** (-s - 1) / 12
    return 2.0 * (-1.0) ** (s // 2) * (2 * math.pi) ** (-s) * (partial + tail)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_trace_matches_mode_sums(k):
    modes = 10 ** 5
    per = zs.trace_inv_power(BC.PERIODIC, 2 * k)
    assert abs(float(per.coefficient) - _mode_sum_periodic(2 * k, modes)) < 1e-8
    anti = zs.trace_inv_power(BC.ANTIPERIODIC, 2 * k)
    assert abs(float(anti.coefficient) - _mode_sum_antiperiodic(2 * k, modes)) < 1e-8


def test_trace_argument_validation():
    # 3 twice over: a raising call leaves nothing cached to be returned later
    for two_k in (3, 0, -2, 3):
        for bc in BC:
            with pytest.raises(ValueError, match="two_k"):
                zs.trace_inv_power(bc, two_k)
    with pytest.raises(ValueError):
        zs.regularized_product_power(0)


def test_trace_record_is_built_once():
    for bc in BC:
        assert zs.trace_inv_power(bc, 6) is zs.trace_inv_power(bc, 6)
        # a float order fails whether or not its int twin was built
        with pytest.raises(TypeError):
            zs.trace_inv_power(bc, 6.0)


# ---------------------------------------------------------------------------
# Fredholm factors
# ---------------------------------------------------------------------------

def test_fredholm_zero_curvature():
    matrix = zs.CurvatureMatrix([[scalar(0), scalar(0)], [scalar(0), scalar(0)]])
    traces = [matrix.scaled_trace(k) for k in range(1, matrix.max_relevant_k() + 1)]
    assert zs.fredholm_log_det(traces, BC.PERIODIC).is_zero()


def _formal_traces(K):
    """The formal scaled traces (i r)^{2k} Tr(R^{2k}) = 2 (2k)! 4^k ph_k."""
    return [2 * math.factorial(2 * k) * 4 ** k * cs.GradedPolynomial.generator(k, K, "ph")
            for k in range(1, K + 1)]


def test_formal_log_det_exponent():
    # -sum_k Tr((iR)^{2k}) Tr((d/dt)^{-2k}) / (2k) with the formal dictionary:
    # coefficient of ph_k is -(2/k) 4^k (2k)! zeta_over_2pii(2k), nonzero for
    # every k: the sum runs to the top order K however large K is
    for K in (3, 17):
        log_det = zs.fredholm_log_det(_formal_traces(K), BC.PERIODIC)
        for k in range(1, K + 1):
            coeff = -Fraction(2, k) * Fraction(4) ** k * math.factorial(2 * k) \
                * cs.zeta_over_2pii(2 * k)
            expected = coeff * cs.GradedPolynomial.generator(k, K, "ph")
            assert log_det.weight_component(k) == expected


# ---------------------------------------------------------------------------
# the superdeterminant
# ---------------------------------------------------------------------------

def test_free_r_exponent_values(monkeypatch):
    # pf(D_eta1) and pf(D_eta2) are r^{n/2} each, det(D_a)^{1/2} is r^n
    assert zs.free_r_exponent(4) == 0
    # the exponents come from the regularized products: a first-order
    # product of r^{n} (exponent doubled) leaves r^{n} uncancelled
    real = zs.regularized_product_power
    monkeypatch.setattr(zs, "regularized_product_power",
                        lambda n: zs.RPower(1, 2 * real(n).r_exponent) if n == 2 else real(n))
    assert zs.free_r_exponent(4) == 4


def test_sdet_flat_case_is_one():
    flat = zs.CurvatureMatrix([[scalar(0), scalar(0)], [scalar(0), scalar(0)]])
    assert zs.sdet_concrete(flat) == 1
    assert zs.free_r_exponent(5) == 0


@functools.lru_cache(maxsize=None)
def _signature_class(K):
    return cs.l_class_in_ph(K)


@pytest.mark.parametrize("n", [1, 2, 4, 8])
@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_sdet_equals_signature_class(n, K):
    # the oracle is computed once per K; sdet_formal reads no n
    assert zs.sdet_formal(n, K) == _signature_class(K)


def test_sdet_degree_parts_in_p():
    converted = cs.powersums_to_pontryagin(zs.sdet_formal(4, 2))
    p1 = cs.GradedPolynomial.generator(1, 2, "p")
    p2 = cs.GradedPolynomial.generator(2, 2, "p")
    assert converted.weight_component(1) == Fraction(1, 3) * p1
    assert converted.weight_component(2) == Fraction(1, 45) * (7 * p2 - p1 * p1)


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(st.integers(1, 16), st.integers(1, 8))
def test_sdet_formal_is_the_signature_class(n, K):
    assert zs.sdet_formal(n, K) == cs.l_class_in_ph(K)
    assert zs.sdet_formal(n, K, pp=True) == cs.GradedPolynomial.one(K, "ph")


def test_k_zero_is_rejected():
    # K = 0 leaves no ph variable to evaluate at; it is an error, not 1, on
    # every call
    for _ in range(2):
        with pytest.raises(ValueError, match="K"):
            cs.l_class_in_ph(0)
        with pytest.raises(ValueError, match="K"):
            zs.sdet_report(4, 0)
        with pytest.raises(ValueError, match="K"):
            zs.sdet_formal(4, 0)


def _canonical(report) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("K", range(10, 14))
def test_cold_and_warm_reports_agree(K):
    # a caller that changed a shared table would change the warm report
    for table in (cs._l_log_coefficients, cs._packing, cs.l_class_in_ph, zs.trace_inv_power):
        table.cache_clear()
    cold = _canonical(zs.sdet_report(4, K))
    warm = _canonical(zs.sdet_report(4, K))
    assert warm == cold
    assert json.loads(cold)["equal"] is True


@pytest.mark.parametrize("K", [1, 4, 10])
def test_reports_agree_across_n_and_repeated_calls(K):
    # the shared signature class is read, never changed, by every report
    first = zs.sdet_report(1, K)
    for n in (1, 2, 4, 8, 1):
        report = zs.sdet_report(n, K)
        assert report["n"] == n
        assert dict(report, n=1) == first
    assert first["equal"] is True


def _exp_level_report(n, K, pp):
    """The formal report as built from the exp: sdet_formal's JSON, and the
    verdict of the polynomial comparison."""
    value = zs.sdet_formal(n, K, pp)
    return {"n": n, "K": K, "mode": "formal", "sector": "PP" if pp else "PA",
            "sdet": value.to_json(), "l_class": cs.l_class_in_ph(K).to_json(),
            "equal": value == (cs.GradedPolynomial.one(K, "ph") if pp else cs.l_class_in_ph(K))}


@pytest.mark.parametrize("pp", [False, True])
@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("K", range(1, 15))
def test_log_level_report_is_the_exp_level_report(K, n, pp):
    report = zs.sdet_report(n, K, pp=pp)
    assert _canonical(report) == _canonical(_exp_level_report(n, K, pp))
    assert report["equal"] is True


def _one_ph_off(poly):
    return poly + Fraction(1, 7) * cs.GradedPolynomial.generator(poly.nvars, poly.nvars, "ph")


@pytest.mark.parametrize("K", [1, 3, 6])
def test_unequal_logs_report_the_exp_of_their_own_log(monkeypatch, K):
    # a target off by ph_K: the verdict is false, and the value is the report's
    # own log exponentiated
    monkeypatch.setattr(zs, "l_log_in_ph", lambda K: _one_ph_off(cs.l_log_in_ph(K)))
    report = zs.sdet_report(4, K)
    assert report["equal"] is False
    assert report["sdet"] == zs.sdet_log(zs._formal_traces(K)).exp().to_json()
    # a log off by ph_K, in either sector: its exp is the value, not the class
    # or one
    monkeypatch.undo()
    real = zs.sdet_log
    monkeypatch.setattr(zs, "sdet_log", lambda traces, pp=False: _one_ph_off(real(traces, pp)))
    for pp in (False, True):
        report = zs.sdet_report(4, K, pp=pp)
        assert report["equal"] is False
        assert report["sdet"] == _one_ph_off(real(zs._formal_traces(K), pp)).exp().to_json()
        assert report["sdet"] != report["l_class"]


@pytest.mark.parametrize("n, K", [(0, 4), (-3, 4), (True, 4), (1, True), (1, 0), (1, False),
                                  (4.0, 4), (4, 4.0)])
def test_report_and_formal_refuse_a_bad_n_or_k(monkeypatch, n, K):
    built = []
    monkeypatch.setattr(zs, "l_class_in_ph", lambda K: built.append(K))
    for mode in ("formal", "concrete"):
        with pytest.raises(ValueError, match=r"(n|K) must be an int >= 1"):
            zs.sdet_report(n, K, mode)
    with pytest.raises(ValueError, match=r"(n|K) must be an int >= 1"):
        zs.sdet_formal(n, K)
    # nothing was built, and no table was keyed by the bad order
    assert built == []


def test_report_checks_its_mode_first(monkeypatch):
    built = []
    monkeypatch.setattr(zs, "l_class_in_ph", lambda K: built.append(K))
    for n, K in ((4, 4), (0, True)):
        with pytest.raises(ValueError, match="mode"):
            zs.sdet_report(n, K, "nonsense")
    assert built == []


@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_pp_sector_is_one(K):
    assert zs.sdet_formal(4, K, pp=True) == cs.GradedPolynomial.one(K, "ph")


def test_r_powers_cancel_for_all_dimensions():
    for n in range(1, 9):
        assert zs.free_r_exponent(n) == 0


# ---------------------------------------------------------------------------
# the concrete Grassmann instance
# ---------------------------------------------------------------------------

def test_demo_curvature_is_wellformed():
    matrix = zs.demo_curvature()
    assert matrix.n == 4
    assert all(matrix.matrix_power_trace(m).is_zero() for m in range(1, 8, 2))
    tr2 = matrix.matrix_power_trace(2)
    assert not tr2.is_zero()
    # top Grassmann degree: four generators, so Tr(R^4) and beyond vanish
    assert matrix.matrix_power_trace(4).is_zero()


def test_curvature_matrix_validation():
    pq = odd("p") * odd("q")
    with pytest.raises(ValueError, match=r"matrix must be square"):
        zs.CurvatureMatrix([[scalar(0), pq]])
    with pytest.raises(ValueError, match=r"entry \(0,1\) is not nilpotent"):
        zs.CurvatureMatrix([[scalar(0), scalar(1)], [scalar(-1), scalar(0)]])  # body
    with pytest.raises(ValueError, match=r"matrix not antisymmetric at \(0,1\)"):
        zs.CurvatureMatrix([[scalar(0), pq], [pq, scalar(0)]])
    with pytest.raises(ValueError, match=r"entry \(0,1\) is not even"):
        zs.CurvatureMatrix([[scalar(0), odd("p")], [-odd("p"), scalar(0)]])  # odd entry
    mixed = pq + odd("s")
    with pytest.raises(ValueError, match=r"entry \(0,1\) is not even"):
        zs.CurvatureMatrix([[scalar(0), mixed], [-mixed, scalar(0)]])
    # an odd term listed before the body term: the body is still reported
    souled = odd("p") + 1
    with pytest.raises(ValueError, match=r"entry \(0,1\) is not nilpotent"):
        zs.CurvatureMatrix([[scalar(0), souled], [-souled, scalar(0)]])


def test_curvature_matrix_with_denominators_loads():
    psi = [odd(f"psi{a}") for a in range(10)]
    w = GaussianRational(1, 2) / 3 * psi[0] * psi[1] + Fraction(1, 5) * psi[2] * psi[3]
    v = GaussianRational(0, Fraction(-2, 7)) * psi[4] * psi[5] * psi[6] * psi[7] * even("x") \
        + psi[8] * psi[9]
    zero = scalar(0)
    matrix = zs.CurvatureMatrix([[zero, w, v], [-w, zero, w], [-v, -w, zero]])
    g = 10
    assert matrix.max_relevant_k() == max(1, g // 4) == 2
    assert matrix.matrix_power_trace(2 * matrix.max_relevant_k() + 2).is_zero()
    K = matrix.max_relevant_k()
    phs = [zs.curvature_to_ph(matrix, k) for k in range(1, K + 1)]
    assert zs.sdet_concrete(matrix) == zs.substitute_ph(zs.sdet_formal(3, K), phs)


def test_concrete_equals_formal_under_substitution():
    matrix = zs.demo_curvature()
    concrete = zs.sdet_concrete(matrix)
    phs = [zs.curvature_to_ph(matrix, k) for k in (1, 2)]
    formal = zs.substitute_ph(zs.sdet_formal(4, 2), phs)
    assert (concrete - formal).is_zero()
    assert not (concrete - scalar(1)).is_zero()


def _four_cycle():
    """A 4-cycle of generator pairs: every entry squares to zero, so Tr(R^2)
    vanishes while Tr(R^4) = 8 psi0...psi7 does not."""
    psi = [odd(f"psi{a}") for a in range(8)]
    rows = [[scalar(0)] * 4 for _ in range(4)]
    for i, a in enumerate(range(0, 8, 2)):
        j = (i + 1) % 4
        rows[i][j], rows[j][i] = psi[a] * psi[a + 1], -psi[a] * psi[a + 1]
    return rows


def test_concrete_sum_continues_past_a_zero_trace():
    matrix = zs.CurvatureMatrix(_four_cycle())
    assert matrix.matrix_power_trace(2).is_zero()
    assert not matrix.matrix_power_trace(4).is_zero()
    top = scalar(1)
    for a in range(8):
        top = top * odd(f"psi{a}")
    expected = 1 - Fraction(7, 360) * top * even("r", 4)
    assert zs.sdet_concrete(matrix) == expected
    phs = [zs.curvature_to_ph(matrix, k) for k in range(1, 5)]
    assert zs.substitute_ph(zs.sdet_formal(4, 4), phs) == expected


def _seeded_curvature(n, g, seed):
    """An n x n curvature over g generators: each upper entry holds one or
    two generator pairs, with coefficients in +-{1, 2}."""
    rng = random.Random(seed)
    psi = [odd(f"psi{a}") for a in range(g)]
    rows = [[scalar(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w = scalar(0)
            for _ in range(1 + rng.randrange(2)):
                a, b = rng.sample(range(g), 2)
                w = w + rng.choice((-2, -1, 1, 2)) * psi[a] * psi[b]
            rows[i][j], rows[j][i] = w, -w
    return rows


def test_traces_past_the_generator_bound_build_no_power(monkeypatch):
    # an 8x8 curvature over 10 generators: a term of R^m holds 2m of them,
    # so Tr(R^6), Tr(R^8) and Tr(R^10) vanish without a matrix product
    matrix = zs.CurvatureMatrix(_seeded_curvature(8, 10, 8))
    zs.sdet_concrete(matrix)
    calls = []
    original = zs._matmul
    monkeypatch.setattr(zs, "_matmul", lambda *args: calls.append(None) or original(*args))
    assert all(zs.curvature_to_ph(matrix, k).is_zero() for k in range(3, 6))
    assert not calls


def test_an_even_trace_builds_half_its_powers():
    # Tr(R^{2k}) = Tr(R^k R^k): the powers R^0..R^k are built, not R^{2k-1}
    rows = _seeded_curvature(6, 12, 7)
    for k in (1, 2, 3):
        matrix = zs.CurvatureMatrix(rows)
        assert matrix._generators == 12
        assert not matrix.scaled_trace(k).is_zero()
        assert len(matrix._powers) == k + 1


def test_concrete_pp_sector():
    matrix = zs.demo_curvature()
    assert (zs.sdet_concrete(matrix, pp=True) - scalar(1)).is_zero()


def test_curvature_to_ph_values():
    matrix = zs.demo_curvature()
    assert zs.curvature_to_ph(matrix, 2).is_zero()  # trace terminates
    ph1 = zs.curvature_to_ph(matrix, 1)
    # (i r / 2)^2 (1/2) Tr(R^2) / 2! carries r^2 and the top monomial
    expected = Fraction(-1, 16) * even("r", 2) * matrix.matrix_power_trace(2)
    assert (ph1 - expected).is_zero()


def test_sdet_report_shapes():
    report = zs.sdet_report(4, 2, "formal")
    assert report["equal"] is True
    assert report["sector"] == "PA"
    assert isinstance(report["sdet"], list)
    report_c = zs.sdet_report(4, 2, "concrete")
    assert report_c["equal"] is True
    with pytest.raises(ValueError):
        zs.sdet_report(5, 2, "concrete")
    with pytest.raises(ValueError):
        zs.sdet_report(4, 2, "nonsense")


def test_concrete_verdict_checks_the_signature_class(monkeypatch):
    # the concrete sdet still equals the formal sdet at the curvature's ph
    # values; only the comparison with the signature class can catch this
    wrong = cs.l_class_in_ph(2) + cs.GradedPolynomial.generator(1, 2, "ph")
    monkeypatch.setattr(zs, "l_class_in_ph", lambda K: wrong)
    assert zs.sdet_report(4, 2, "concrete")["equal"] is False


def test_concrete_verdict_compares_the_formal_polynomial(monkeypatch):
    # ph_2 vanishes at the 4-generator demo's values, so only a comparison of
    # the polynomials themselves can catch a formal sdet off by ph_2
    wrong = cs.l_class_in_ph(2) + cs.GradedPolynomial.generator(2, 2, "ph")
    monkeypatch.setattr(zs, "sdet_formal", lambda n, K, pp=False: wrong)
    assert zs.sdet_report(4, 2, "concrete")["equal"] is False


def test_formal_log_det_antiperiodic_exponent():
    # the determinant exponent over half-integer modes: coefficient of ph_k is
    # -(2/k) 4^k (2k)! lambda_over_2pii(2k)
    K = 3
    log_det = zs.fredholm_log_det(_formal_traces(K), BC.ANTIPERIODIC)
    for k in range(1, K + 1):
        coeff = -Fraction(2, k) * Fraction(4) ** k * math.factorial(2 * k) \
            * cs.lambda_over_2pii(2 * k)
        expected = coeff * cs.GradedPolynomial.generator(k, K, "ph")
        assert log_det.weight_component(k) == expected


# ---------------------------------------------------------------------------
# shared matrix powers, against powers built here
# ---------------------------------------------------------------------------

# Q(i) coefficients, some with denominators, and optional even factors
_COEFFICIENTS = [-3, -2, -1, 1, 2, 3, Fraction(1, 2), GaussianRational(0, Fraction(1, 3)),
                 GaussianRational(1, Fraction(2, 3)), GaussianRational(Fraction(1, 3), Fraction(2, 3))]
_EVEN_FACTORS = [scalar(1), even("x"), even("x", 2), even("y", -1)]


@st.composite
def curvatures(draw):
    """An antisymmetric n x n matrix (n <= 5) over g <= 12 odd generators
    whose entries are sums of c e psi_a psi_b (c in Q(i), e an even monomial
    or 1), and a shuffled list of the orders 1..g+2 followed by a few of them
    again.  Past ten generators the name order (psi10 < psi2) differs from
    the index order."""
    n = draw(st.integers(1, 5))
    g = draw(st.integers(2, 12))
    psi = [odd(f"psi{a}") for a in range(g)]
    # entries over one fixed pairing of the generators commute, so that high
    # powers survive; entries over arbitrary pairs do not
    pairing = [(a, a + 1) for a in range(0, g - 1, 2)]
    pairs = st.sampled_from(pairing) if draw(st.booleans()) else \
        st.tuples(st.integers(0, g - 1), st.integers(0, g - 1)).filter(lambda p: p[0] != p[1])
    factors = st.sampled_from(_EVEN_FACTORS if draw(st.booleans()) else [scalar(1)])
    rows = [[scalar(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            entry = scalar(0)
            terms = st.tuples(pairs, st.sampled_from(_COEFFICIENTS), factors)
            for (a, b), c, e in draw(st.lists(terms, min_size=1, max_size=4)):
                entry = entry + c * e * psi[a] * psi[b]
            rows[i][j], rows[j][i] = entry, -entry
    orders = draw(st.permutations(range(1, g + 3)))
    orders += draw(st.lists(st.sampled_from(orders), max_size=4))
    return rows, g, orders


def _four_pair_block():
    # w = psi0 psi1 + ... + psi6 psi7 has w^4 = 24 psi0...psi7: Tr(R^4) = 2 w^4
    w = sum((odd(f"psi{a}") * odd(f"psi{a + 1}") for a in range(0, 8, 2)), scalar(0))
    return [[scalar(0), w], [-w, scalar(0)]], 8, list(range(10, 0, -1))


def _sixteen_generator_triangle():
    # a 3x3 over the pairing of 16 generators, each entry a sum of all eight
    # pairs: R^8 survives, so the traces read the odd power R^3 and fold R^4
    pairs = [odd(f"psi{a}") * odd(f"psi{a + 1}") for a in range(0, 16, 2)]
    x, y, z = (sum((c * p for c, p in zip(coefficients, pairs)), scalar(0))
               for coefficients in ([1] * 8, range(1, 9), [(-1) ** a for a in range(8)]))
    return [[scalar(0), x, y], [-x, scalar(0), z], [-y, -z, scalar(0)]], 16, list(range(1, 19))


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(curvatures())
@example(_four_pair_block())
@example(_sixteen_generator_triangle())
@example((_four_cycle(), 8, list(range(1, 11))))
def test_matrix_power_trace_matches_repeated_products(case):
    rows, g, orders = case
    n = len(rows)
    traces, power = [], rows
    for _ in range(g + 2):
        traces.append(sum((power[i][i] for i in range(n)), GrassmannElement()))
        power = [[sum((power[i][k] * rows[k][j] for k in range(n)), GrassmannElement())
                  for j in range(n)] for i in range(n)]
    matrix = zs.CurvatureMatrix(rows)
    for m in orders:
        trace = matrix.matrix_power_trace(m)
        assert trace == traces[m - 1]
        if 2 * m > g:
            assert trace.is_zero()
        if m % 2 == 0:
            assert matrix.scaled_trace(m // 2) == (-1) ** (m // 2) * even("r", m) * traces[m - 1]
    # the concrete pipeline against the formal route at the same ph values;
    # the ph values past max_relevant_k() vanish, so the formal polynomial in
    # ph_1..ph_{g/2} gives the same value
    K = matrix.max_relevant_k()
    phs = [zs.curvature_to_ph(matrix, k) for k in range(1, g // 2 + 1)]
    value = zs.substitute_ph(zs.sdet_formal(n, K), phs[:K])
    assert zs.sdet_concrete(matrix) == value
    assert zs.substitute_ph(zs.sdet_formal(n, g // 2), phs) == value


def test_traces_handed_out_are_not_the_kept_ones():
    # matrix_power_trace and curvature_to_ph build a new element per call;
    # scaled_trace hands every caller the one element it keeps per k
    matrix = zs.CurvatureMatrix(_four_cycle())
    for read in (matrix.matrix_power_trace, lambda m: zs.curvature_to_ph(matrix, m // 2)):
        first = read(4)
        kept = GrassmannElement(first.terms)
        first.terms.clear()
        assert not read(4).is_zero() and read(4) == kept
