"""Named verification suites: every identity the library is built on, run as
executable checks.  The CLI `verify` subcommand and the test suite both drive
these; each check either passes or raises, and the runner collects one
pass/fail record per named identity.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .gaussian import GaussianRational, I
from .grassmann import GrassmannElement, even, odd, scalar
from . import superspace as ss
from . import linearization as lin
from . import sections as sec
from . import series as cs
from . import zeta as zs
from .terms import Record


class CheckResult(Record):
    __slots__ = ("suite", "name", "passed", "detail")

    def __init__(self, suite: str, name: str, passed: bool, detail: str = ""):
        self.suite, self.name, self.passed, self.detail = suite, name, passed, detail


Check = Tuple[str, Callable[[], Optional[str]]]


class IdentityFailure(AssertionError):
    """A check found its identity false."""


def check(cond, *detail) -> None:
    """Raise IdentityFailure(*detail) unless cond holds.  Unlike a bare
    assert, this still runs under ``python -O``."""
    if not cond:
        raise IdentityFailure(*detail)


def _generic_points(tags=("", "p", "q")):
    return [ss.point_r12(even(f"t{tag}"), odd(f"th1{tag}"), odd(f"th2{tag}"))
            for tag in tags]


# ---------------------------------------------------------------------------
# suite: grassmann
# ---------------------------------------------------------------------------

def _check_group_law() -> str:
    p, q, w = _generic_points()
    e = ss.identity_r12()
    check((ss.multiply_r12(e, p) - p).is_zero())
    check((ss.multiply_r12(p, e) - p).is_zero())
    # a right inverse; the inverse is the negation, and at (-p, p) each
    # degree-d part of the law is (-1)^d times its part at (p, -p), so it is
    # a left inverse too
    check(ss.multiply_r12(p, ss.inverse_r12(p)).is_zero())
    lhs = ss.multiply_r12(ss.multiply_r12(p, q), w)
    rhs = ss.multiply_r12(p, ss.multiply_r12(q, w))
    check((lhs - rhs).is_zero())
    # D_1 and D_2 commute with left translation: on the coordinates of
    # q = g p they act as on those of p, D_i t = -i theta_i, D_i theta_j = delta_ij
    g = ss.point_r12(even("s"), odd("nu1"), odd("nu2"))
    q = ss.multiply_r12(g, ss.point_r12(even("t"), odd("theta1"), odd("theta2")))
    for i in (1, 2):
        images = [ss.apply_D(i, c) for c in (q.even_part, *q.odd_parts)]
        expected = [-I * q.odd_parts[i - 1]] + [scalar(int(i == j)) for j in (1, 2)]
        check(images == expected, f"D_{i} is not invariant under left translation")
    return "identity, two-sided inverses, associativity on generic points"


def _check_time_reversal_automorphism() -> str:
    p, q, _ = _generic_points()
    for g in (ss.RP, ss.RM, ss.PA_HOLONOMY):
        a = ss.act_time_reversal(g, ss.multiply_r12(p, q))
        b = ss.multiply_r12(ss.act_time_reversal(g, p), ss.act_time_reversal(g, q))
        check((a - b).is_zero(), f"{g} is not an automorphism")

    # the candidate fixing t is NOT an automorphism: this pins t -> -t
    def fixed_t(pt):
        return ss.point_r12(pt.even_part, I * pt.odd_parts[0], I * pt.odd_parts[1])

    broken = fixed_t(ss.multiply_r12(p, q)) - ss.multiply_r12(fixed_t(p), fixed_t(q))
    check(not broken.is_zero(), "the t-fixing candidate would also be an automorphism")
    return "generators act by automorphisms only with t -> -t"


def _check_time_reversal_relations() -> str:
    p, _, _ = _generic_points()
    pa = ss.act_time_reversal(ss.PA_HOLONOMY, p)
    expected = ss.point_r12(p.even_part, p.odd_parts[0], -p.odd_parts[1])
    check((pa - expected).is_zero(), "holonomy is not (t, o1, -o2)")
    # the product of T is the composite of the actions; with the holonomy
    # this gives rp^4 = id, rp^2 = rm^2 and rp rm = rm rp on R^{1|2}
    for g, h in ((ss.RP, ss.RP), (ss.RP, ss.RM), (ss.RM, ss.RP), (ss.RM, ss.RM)):
        composite = ss.act_time_reversal(g, ss.act_time_reversal(h, p))
        check(ss.act_time_reversal(g * h, p) == composite)
    # T acts faithfully: its 8 normal forms move p pairwise differently
    images = [ss.act_time_reversal(ss.TimeReversal(a_, b_), p) for a_ in range(4) for b_ in range(2)]
    check(all(images[i] != images[j] for i in range(8) for j in range(i)),
          "two normal forms of T act alike")
    return "order 4, commutativity, rp^2 = rm^2, holonomy flips the second odd"


def _check_d_operators() -> str:
    th1, th2 = odd("theta1"), odd("theta2")
    for a in range(1, 5):
        check(ss.d_t(even("t", a)) == a * even("t", a - 1))
    for a in range(5):
        for b in (0, 1):
            for c in (0, 1):
                mono = even("t", a) if a else scalar(1)
                if b:
                    mono = mono * th1
                if c:
                    mono = mono * th2
                D1D1 = ss.apply_D(1, ss.apply_D(1, mono))
                D2D2 = ss.apply_D(2, ss.apply_D(2, mono))
                anti = ss.apply_D(1, ss.apply_D(2, mono)) + ss.apply_D(2, ss.apply_D(1, mono))
                check((D1D1 + I * ss.d_t(mono)).is_zero())
                check((D2D2 + I * ss.d_t(mono)).is_zero())
                check(anti.is_zero())
    return "D_i^2 = -i d/dt and [D_1, D_2] = 0 on monomials through t^4"


def _check_left_invariant_sign() -> str:
    th1 = odd("theta1")
    for a in range(5):
        for b in (0, 1):
            mono = even("t", a) if a else scalar(1)
            if b:
                mono = mono * th1
            LL = ss.apply_left_D(1, ss.apply_left_D(1, mono))
            check((LL - I * ss.d_t(mono)).is_zero())
    return "the left-invariant counterpart squares to +i d/dt"


def _check_projection_invariance() -> str:
    p, _, _ = _generic_points()
    R = (even("r"), odd("rho1"))
    check((ss.proj_R(ss.mu_R(p, R), R) - ss.proj_R(p, R)).is_zero())
    flat = (even("r"), scalar(0))
    check((ss.proj_R(p, flat) - p.odd_parts[0]).is_zero())
    return "proj o mu = proj identically; rho = 0 reduces to the plain projection"


def _check_r11_inclusion() -> str:
    u, v = even("u"), odd("nu")
    up, vp = even("up"), odd("nup")
    prod = ss.multiply_r11((u, v), (up, vp))
    included = ss.multiply_r12(ss.include_r11((u, v)), ss.include_r11((up, vp)))
    # a homomorphism; the law without the i, off by (1 - i) v v', is then not
    check((ss.include_r11(prod) - included).is_zero())
    # semidirect compatibility of the T-action through the inclusion
    for g in (ss.RP, ss.RM):
        acted = ss.act_time_reversal_r11(g, (u, v))
        check((ss.include_r11(acted) - ss.act_time_reversal(g, ss.include_r11((u, v)))).is_zero())
    return "the 1|1 law carries the i; inclusion and T-action are compatible"


def _check_descent() -> str:
    r, rho1 = even("r"), odd("rho1")
    u, nu1, nu2 = even("u"), odd("nu1"), odd("nu2")
    R = (r, rho1)
    res = ss.descend_check((u, nu1, scalar(0)), ss.TimeReversal(), R)
    check(res.descends)
    check(res.generator == (r + 2 * I * nu1 * rho1, rho1), res.generator)
    # a translation that does not descend comes with its nonzero residual
    res2 = ss.descend_check((u, nu1, nu2), ss.TimeReversal(), R)
    check(not res2.descends)
    for comp in [res2.residual.even_part] + list(res2.residual.odd_parts):
        check(comp.substitute_odd("nu2", scalar(0)).is_zero(), "residual survives nu2 = 0")
    return "translations descend iff nu2 = 0; image radius r + 2i nu1 rho1"


def _check_descent_time_reversal() -> str:
    r, rho1 = even("r"), odd("rho1")
    R = (r, rho1)
    for tw, sgn in ((ss.RP, -1), (ss.RM, 1)):
        res = ss.descend_check(None, tw, R)
        check(res.descends, f"{tw} does not descend")
        check(res.generator == (r, sgn * I * rho1), tw, res.generator)
    res = ss.descend_check(None, ss.PA_HOLONOMY, R)
    check(res.descends and (res.generator[1] - rho1).is_zero())
    return "time reversals descend with image generator (r, -+ i rho1)"


def _check_induced_base_map() -> str:
    r, rho1 = even("r"), odd("rho1")
    u, nu1 = even("u"), odd("nu1")
    m, _ = ss.induced_base_map((u, nu1), ss.TimeReversal(), (r, rho1))
    r_inv = r.invert_unit()
    # every step is polynomial in u and nu1, so u = nu1 = 0 gives the identity
    check((m.alpha, m.beta) == (nu1 - rho1 * u * r_inv, scalar(1) - I * rho1 * nu1 * r_inv))
    # the time reversals scale the odd line by +-i; the inverse map divides
    # by beta through invert_unit, with a body that is not real
    for tw, beta in ((ss.RP, I), (ss.RM, -I)):
        twisted, _ = ss.induced_base_map((scalar(0), scalar(0)), tw, (r, scalar(0)))
        check(twisted.alpha.is_zero() and twisted.beta == beta
              and twisted.inverse().beta * beta == 1, tw, twisted.beta)
    return "square closes; identity, translation and time-reversal cases agree"


def _check_field_action() -> str:
    r, rho1 = even("r"), odd("rho1")
    u, nu1 = even("u"), odd("nu1")
    x, psi = even("x"), odd("psi")
    state = (r, rho1, x, psi)
    out = ss.action_on_fields(u, nu1, state)
    r_inv = r.invert_unit()
    # polynomial in u and nu1, so u = nu1 = 0 leaves the fields alone
    check(out == (r + 2 * I * nu1 * rho1, rho1, x - (nu1 - rho1 * u * r_inv) * psi,
                  (scalar(1) + I * rho1 * nu1 * r_inv) * psi))
    u2, nu2 = even("u2"), odd("nu1b")
    sequential = ss.action_on_fields(u2, nu2, out)
    combined = ss.multiply_r11((u2, nu2), (u, nu1))
    direct = ss.action_on_fields(combined[0], combined[1], state)
    for a, b in zip(sequential, direct):
        check((a - b).is_zero(), "group law broken on field data")
    return "closed form equals the composite route; 1|1 group law compatible"


def _check_berezin() -> str:
    th1, th2 = odd("theta1"), odd("theta2")
    check(lin.berezin_integrate(th1 * th2) == scalar(1))
    # a term without theta1 or without theta2 fails the same filter of the
    # odd derivative, and the signs (-1)^|g| of an odd coefficient g cancel
    check(lin.berezin_integrate(scalar(5)).is_zero())
    f = 3 * th1 * th2 + even("t") * th1 * th2
    check((lin.berezin_integrate(f) - (scalar(3) + even("t"))).is_zero())
    return "normalization +1 on the ordered top pair; linear; kills lower terms"


def _check_linearized_action() -> str:
    for n in (1, 2):
        lagrangian = lin.expand_linearized_action(n)
        display = lin.normal_form_dt(lin.displayed_lagrangian(n))
        check((lagrangian - display).is_zero())
        check((lagrangian - lin.normal_form_dt(lin.quadratic_form(n))).is_zero())
    bcs = lin.derive_boundary_conditions()
    check(bcs == {**zs.PA_BOUNDARY, "G": zs.BoundaryCondition.ANTIPERIODIC}, bcs)
    return "component Lagrangian, operator blocks and boundary conditions extracted"


# ---------------------------------------------------------------------------
# suite: susy
# ---------------------------------------------------------------------------

def _random_form(rng: random.Random, n: int, degree: int, closed: bool,
                 replay: str) -> GrassmannElement:
    """A random polynomial form; closed ones arise as d(something) plus a
    constant-coefficient form, non-closed ones are rejected until d != 0."""
    def random_monomial(deg_form: int) -> GrassmannElement:
        exps = [rng.randrange(0, 3) for _ in range(n)]
        idxs = rng.sample(range(1, n + 1), deg_form)
        coeff = GaussianRational(rng.randrange(-3, 4) or 1, rng.randrange(-2, 3))
        return sec.monomial(exps, idxs, coeff)

    if closed:
        if degree == 0:
            return scalar(Fraction(rng.randrange(1, 5)))
        acc = sec.d(random_monomial(degree - 1))
        const = sec.monomial([0] * n, sorted(rng.sample(range(1, n + 1), degree)),
                             GaussianRational(rng.randrange(1, 4)))
        out = acc + const
        check(sec.d(out).is_zero(), f"{replay}: d of this closed form is nonzero", out)
        return out
    # a monomial form with a coefficient depending on a variable outside the
    # index set is never closed; this needs 1 <= degree < n
    if not 1 <= degree < n:
        raise ValueError("non-closed forms need 1 <= degree < n")
    idxs = rng.sample(range(1, n + 1), degree)
    outside = rng.choice([i for i in range(1, n + 1) if i not in idxs])
    exps = [rng.randrange(0, 3) for _ in range(n)]
    exps[outside - 1] = rng.randrange(1, 3)
    coeff = GaussianRational(rng.randrange(-3, 4) or 1, rng.randrange(-2, 3))
    candidate = sec.monomial(exps, idxs, coeff)
    check(not sec.d(candidate).is_zero(), f"{replay}: d of this form is zero", candidate)
    return candidate


def _check_q_kernel_randomized() -> str:
    seed = 20260809
    rng = random.Random(seed)
    trials = 0
    for trial in range(120):
        n = rng.randrange(1, 6)
        degree = rng.randrange(0, n + 1)
        closed = rng.random() < 0.5
        if not 1 <= degree < n:
            closed = True  # degree-0 and top/overflow degrees are always closed
        replay = f"seed {seed}, trial {trial}"
        form = _random_form(rng, n, degree, closed, replay)
        right_power = rng.random() < 0.5
        q = Fraction(degree, 2) if right_power else Fraction(degree, 2) + rng.choice([1, -1, Fraction(1, 2)])
        s = sec.section(form, q)
        if s.is_zero():
            continue
        expected = closed and q == Fraction(degree, 2)
        check(sec.is_supersymmetric(s) == expected,
              f"{replay}: n {n}, degree {degree}, closed {closed}, q {q}", form)
        trials += 1
    check(trials >= 100, f"seed {seed}: only {trials} of 120 sections are nonzero")
    return f"{trials} randomized sections: Q-closed iff closed form and r-exponent deg/2"


def _check_q_squared() -> str:
    # the monomials below are pinned against explicit products first, so a
    # sign they carry shows here; the identity itself is linear in them
    for idxs in ((2,), (2, 1), (3, 1, 2)):
        explicit = 3 * sec.coordinate(1) * sec.coordinate(1) * sec.coordinate(3)
        for i in idxs:
            explicit = explicit * sec.d_coordinate(i)
        check(sec.monomial([2, 0, 1], idxs, 3) == explicit, idxs)
    count = 0
    for n in (1, 2, 3, 4, 5):
        forms = [scalar(1)]
        forms.append(sec.coordinate(1) * sec.coordinate(1))
        # one monomial form in every exterior degree up to the top
        for degree in range(1, n + 1):
            exps = [0] * n
            exps[0] = 1
            forms.append(sec.monomial(exps, range(1, degree + 1)))
        if n >= 2:
            forms.append(sec.coordinate(1) * sec.d_coordinate(2))
        if n >= 3:
            forms.append(sec.coordinate(2) * sec.d_coordinate(2) * sec.d_coordinate(3))
        for double_q in range(-4, 5):
            q = Fraction(double_q, 2)
            for form in forms:
                for rho in (0, 1):
                    s = sec.section(form, q, rho)
                    lhs = sec.apply_Q(sec.apply_Q(s))
                    rhs = -1 * I * sec.scale_r(sec.rho_d(s), Fraction(-1))
                    check((lhs - rhs).is_zero(), (n, q, rho, form))
                    count += 1
    return f"Q^2 = -(i/r) rho d on {count} spanning monomial sections"


def _check_grading() -> str:
    top = sec.d_coordinate(1)
    for i in range(2, 6):
        top = top * sec.d_coordinate(i)
    four = sec.d_coordinate(1)
    for i in range(2, 5):
        four = four * sec.d_coordinate(i)
    # a weight is read term by term, so a sum of these has the union of theirs
    sections = (sec.section(sec.d_coordinate(1), Fraction(1, 2)), sec.section(top, Fraction(5, 2)),
                sec.section(four, Fraction(2)))
    weights = [sec.grade(s) for s in sections]
    check(weights == [{1}, {1}, {0}], f"4-periodicity broken: degrees 1, 5, 4 weigh {weights}")
    a = sec.section(sec.d_coordinate(1), Fraction(1, 2))
    b = sec.section(sec.d_coordinate(2), Fraction(1, 2))
    check(sec.grade(a * b) == {2})
    # Q sends a weight-homogeneous section to a weight-homogeneous image
    beta = sec.coordinate(1) * sec.d_coordinate(2)
    s = sec.section(beta, Fraction(1))
    qs = sec.apply_Q(s)
    check(len(sec.grade(qs)) == 1)
    return "weights multiply mod 4; rho counts one unit; Q image homogeneous"


def _check_cocycles() -> str:
    omega = sec.d_coordinate(1) * sec.d_coordinate(2)
    s = sec.section(omega, Fraction(1))
    coc = sec.to_cocycle(s)
    check([p.exponent for p, _f in coc] == [Fraction(-1)])
    back = sec.from_cocycle(coc)
    check((back - s).is_zero())
    a = sec.section(sec.d_coordinate(1), Fraction(1, 2))
    b = sec.section(sec.d_coordinate(2), Fraction(1, 2))
    ca, cb, cab = sec.to_cocycle(a), sec.to_cocycle(b), sec.to_cocycle(a * b)
    power = ca[0][0] * cb[0][0]
    check(power.exponent == cab[0][0].exponent)
    wedge = ca[0][1] * cb[0][1] * power.coefficient
    check((wedge - cab[0][1] * cab[0][0].coefficient).is_zero())
    # the unit's piece carries (2 pi)^0
    pieces = sec.to_cocycle(s + scalar(1))
    check([p.exponent for p, _f in pieces] == [Fraction(0), Fraction(-1)])
    try:
        sec.to_cocycle(sec.section(omega, Fraction(2)))
        accepted = True
    except ValueError:
        accepted = False
    check(not accepted, "to_cocycle accepted r^2 dx1 dx2, which is not Q-closed")
    return "roundtrip, cup compatibility, exact 2 pi bookkeeping"


# ---------------------------------------------------------------------------
# suite: series
# ---------------------------------------------------------------------------

def _check_bernoulli_zeta() -> str:
    # B_4 reads B_3 through the recurrence, and B_3 = 0 is the branch every
    # odd m > 1 takes
    values = [cs.bernoulli(m) for m in (0, 2, 4)]
    check(values == [1, Fraction(1, 6), Fraction(-1, 30)], f"B_0, B_2, B_4 = {values}")
    # with B_2 and B_4 this gives zeta(2) = pi^2/6 and zeta(4) = pi^4/90
    for k in range(1, 7):
        check(cs.zeta_over_2pii(2 * k) == -cs.bernoulli(2 * k) / (2 * math.factorial(2 * k)), k)
    # the half-integer mode sums pi^2/2 and pi^4/6 over (2 pi i)^{2k}
    values = [cs.lambda_over_2pii(2), cs.lambda_over_2pii(4)]
    check(values == [Fraction(-1, 8), Fraction(1, 96)], f"lambda(2), lambda(4) = {values}")
    return "Bernoulli recurrence, even zeta collapse, half-integer mode sums"


def _exponential_candidates(order: int) -> Tuple[cs.TruncatedSeries, cs.TruncatedSeries]:
    """The right-hand sides, to the given order, of

        sinh(x/2)/(x/2) = exp(-sum_k x^{2k} * 2 zeta(2k) / (2k (2 pi i)^{2k}))
        cosh(x/2)       = exp(-sum_k x^{2k} * 2 lambda(2k) / (2k (2 pi i)^{2k}))

    where lambda(2k) is the half-integer mode sum."""
    def exponent(weights: Callable[[int], Fraction]) -> cs.TruncatedSeries:
        coeffs = [Fraction(0)] * (order + 1)
        for two_k in range(2, order + 1, 2):
            coeffs[two_k] = -Fraction(2, two_k) * weights(two_k)
        return cs.TruncatedSeries(coeffs)

    return exponent(cs.zeta_over_2pii).exp(), exponent(cs.lambda_over_2pii).exp()


def _check_exponential_forms() -> str:
    for order in (0, 8):  # order 0 holds vacuously
        sinh_candidate, cosh_candidate = _exponential_candidates(order)
        check(sinh_candidate.coeffs == cs.series_sinh_half(order).coeffs, order)
        check(cosh_candidate.coeffs == cs.series_cosh_half(order).coeffs, order)
    # the half-argument reading only: the cosh(x) candidate first fails at x^2
    cosh_full = cs.series_cosh_half(8).rescale_root(Fraction(2))
    mismatches = [k for k, (a, b) in enumerate(zip(cosh_candidate.coeffs, cosh_full.coeffs))
                  if a != b]
    check(mismatches[:1] == [2], mismatches[:1])
    return "sinh and cosh(x/2) identities hold to x^8; the cosh(x) reading fails at x^2"


def _check_log_l_series() -> str:
    log_l = cs.l_series(8).log()
    leading = [log_l.coefficient(2), log_l.coefficient(4)]
    check(leading == [Fraction(1, 12), Fraction(-7, 1440)], f"x^2, x^4 coefficients {leading}")
    for k in range(1, 5):
        combo = Fraction(2, 2 * k) * (cs.zeta_over_2pii(2 * k) - cs.lambda_over_2pii(2 * k))
        check(log_l.coefficient(2 * k) == combo, k)
    return "log of the characteristic series equals the zeta-lambda combination, k <= 4"


def _product_at_roots(coefficients: Sequence[Fraction], ys: List[Fraction],
                      K: int) -> List[Fraction]:
    """The weight-0..K parts of prod_j f(y_j), f(y) = sum_k coefficients[k] y^k
    with y^k of weight k, through a graded epsilon parameter: no exp, no
    Newton.  f = 1 + y gives the elementary symmetric values e_0..e_K of the
    ys; the coefficients of _l_at_y(K) give prod_j x_j/tanh x_j at the
    squared roots x_j^2 = y_j."""
    eps = [Fraction(1)] + [Fraction(0)] * K
    for y in ys:
        factor = [c * y ** k for k, c in enumerate(coefficients)]
        eps = [sum(e * f for e, f in zip(eps[j::-1], factor)) for j in range(K + 1)]
    return eps


def _l_at_y(K: int) -> List[Fraction]:
    """The coefficients of y^0..y^K in x/tanh x, y = x^2."""
    series = cs.l_series_doubled_root(2 * K)
    return [series.coefficient(2 * k) for k in range(K + 1)]


def _check_l_polynomials_oracle() -> str:
    seed = 11
    rng = random.Random(seed)
    K = 4
    polys = cs.l_polynomials(K)
    ell = _l_at_y(K)
    for trial in range(6):
        m = 2 * K
        ys = [Fraction(rng.randrange(1, 7), rng.randrange(1, 5)) for _ in range(m)]
        es = _product_at_roots((1, 1), ys, K)
        eps = _product_at_roots(ell, ys, K)
        for k in range(1, K + 1):
            value = polys[k - 1].evaluate(es[1:])
            check(value == eps[k], f"seed {seed}, trial {trial}: L_{k} {value}, product {eps[k]}")
    return "L_1..L_4 match the brute-force product expansion at random roots"


def _check_newton_roundtrip() -> str:
    K = 4
    to_ph, to_p = cs.pontryagin_to_powersums, cs.powersums_to_pontryagin
    # both are substitutions, so ring maps between spaces of equal dimension;
    # inverse in this order on the monomials in p1 and p2, they are inverse in
    # both orders there.  The degree parts in Pontryagin classes pin the
    # normalization 2 ph_1 = p_1 that a consistent rescaling of both would move
    seed = 5
    rng = random.Random(seed)
    for trial in range(10):
        exps = [0] * K
        budget = K
        for i in range(K):
            if budget <= i:
                break
            e = rng.randrange(0, (budget // (i + 1)) + 1)
            exps[i] = e
            budget -= (i + 1) * e
        poly = cs.GradedPolynomial(K, "p", {tuple(exps): Fraction(3, 2)})
        check(to_p(to_ph(poly)) == poly, f"seed {seed}, trial {trial}: p exponents {exps}")
    return "power-sum and Pontryagin conversions are mutually inverse to weight 4"


def _check_whitney() -> str:
    seed = 7
    rng = random.Random(seed)
    K = 3
    polys = cs.l_polynomials(K)
    for trial in range(4):
        ys = [Fraction(rng.randrange(1, 5), rng.randrange(1, 4)) for _ in range(3)]
        zs_ = [Fraction(rng.randrange(1, 5), rng.randrange(1, 4)) for _ in range(3)]
        e_total = _product_at_roots((1, 1), ys + zs_, K)[1:]
        e_left = _product_at_roots((1, 1), ys, K)[1:]
        e_right = _product_at_roots((1, 1), zs_, K)[1:]
        for k in range(1, K + 1):
            lhs = polys[k - 1].evaluate(e_total)
            rhs = Fraction(0)
            for i in range(k + 1):
                left = Fraction(1) if i == 0 else polys[i - 1].evaluate(e_left)
                right = Fraction(1) if k - i == 0 else polys[k - i - 1].evaluate(e_right)
                rhs += left * right
            check(lhs == rhs, f"seed {seed}, trial {trial}: weight {k}")
    return "Whitney product rule for the L-sequence in 3 + 3 variables"


# ---------------------------------------------------------------------------
# suite: zeta
# ---------------------------------------------------------------------------

def _check_regularized_products() -> str:
    for n in range(1, 9):
        rp = zs.regularized_product_power(n)
        check(rp.coefficient == 1 and rp.r_exponent == Fraction(n, 2), n)
    return "exp(-zeta'(0)) = r^{n/2} for n <= 8; the 2 pi term cancels; exponents add"


def _check_trace_values() -> str:
    per = zs.trace_inv_power(zs.BoundaryCondition.PERIODIC, 2)
    anti = zs.trace_inv_power(zs.BoundaryCondition.ANTIPERIODIC, 2)
    check(per.coefficient == Fraction(-1, 12) and per.r_exponent == 2)
    check(anti.coefficient == Fraction(-1, 4))
    for k in range(1, 5):
        value = zs.trace_inv_power(zs.BoundaryCondition.PERIODIC, 2 * k)
        check(value.coefficient == -cs.bernoulli(2 * k) / math.factorial(2 * k))
        ratio = zs.trace_inv_power(zs.BoundaryCondition.ANTIPERIODIC, 2 * k).coefficient \
            / value.coefficient
        check(ratio == Fraction(2) ** (2 * k) - 1)
    return "periodic -r^2/12 at k=1, antiperiodic x(2^{2k}-1), rational for k <= 4"


def _check_sdet_identity() -> str:
    seed = 13
    rng = random.Random(seed)
    for K in (1, 2, 3, 4):
        # the fiber dimension enters only the free parts, which cancel, so
        # one n stands for every n
        sdet = zs.sdet_formal(8, K)
        check(sdet == cs.l_class_in_ph(K), K)
        # the same value, without the exp both sides share: at ph_k =
        # sum_j y_j^k/(2k)! the weight-w part of sdet is the weight-w part of
        # the product of x/tanh x over the roots x_j^2 = y_j
        ys = [Fraction(rng.randrange(1, 7), rng.randrange(1, 5)) for _ in range(2 * K)]
        phs = [sum(y ** k for y in ys) / math.factorial(2 * k) for k in range(1, K + 1)]
        eps = _product_at_roots(_l_at_y(K), ys, K)
        for w in range(1, K + 1):
            check(sdet.weight_component(w).evaluate(phs) == eps[w],
                  f"seed {seed}, K {K}: the roots disagree at weight {w}")
    return "formal superdeterminant equals the signature class, n <= 8, K <= 4"


def _check_sdet_degree_parts() -> str:
    converted = cs.powersums_to_pontryagin(zs.sdet_formal(4, 2))
    p1 = cs.GradedPolynomial.generator(1, 2, "p")
    p2 = cs.GradedPolynomial.generator(2, 2, "p")
    check(converted.weight_component(1) == Fraction(1, 3) * p1)
    check(converted.weight_component(2) == Fraction(1, 45) * (7 * p2 - p1 * p1))
    return "degree-4 and degree-8 parts convert to p1/3 and (7 p2 - p1^2)/45"


def _check_pp_sector() -> str:
    for K in (1, 2, 3, 4):
        check(zs.sdet_formal(4, K, pp=True) == cs.GradedPolynomial.one(K, "ph"))
    matrix = zs.demo_curvature()
    check((zs.sdet_concrete(matrix, pp=True) - scalar(1)).is_zero())
    return "all-periodic sector gives exactly 1, formal and concrete"


def _check_concrete_instance() -> str:
    matrix = zs.demo_curvature()
    concrete = zs.sdet_concrete(matrix)
    phs = [zs.curvature_to_ph(matrix, k) for k in (1, 2)]
    formal = zs.substitute_ph(zs.sdet_formal(4, 2), phs)
    check((concrete - formal).is_zero())
    check(not (concrete - scalar(1)).is_zero(), "instance should be nontrivial")
    # a 4-cycle of generator pairs: its odd powers are nonzero, Tr(R^2) = 0
    # and Tr(R^4) = 8 psi0...psi7, so by hand sdet = 1 - 7/360 psi0...psi7 r^4
    psi = [odd(f"psi{a}") for a in range(8)]
    rows = [[scalar(0)] * 4 for _ in range(4)]
    for i in range(4):
        j = (i + 1) % 4
        rows[i][j], rows[j][i] = psi[2 * i] * psi[2 * i + 1], -psi[2 * i] * psi[2 * i + 1]
    top = math.prod(psi, start=scalar(1))
    cycle = zs.sdet_concrete(zs.CurvatureMatrix(rows))
    # term dicts compare their Q(i) coefficients field by field
    check(cycle.terms == (1 - Fraction(7, 360) * top * even("r", 4)).terms, f"4-cycle sdet {cycle}")
    # the same cycle with sums of two generator pairs, the two edges at each
    # vertex disjoint: Tr(R^2) and the nonzero square of R^2's diagonal,
    # which Tr(R^4) reads, against explicit products
    pairs = [psi[2 * a] * psi[2 * a + 1] for a in range(4)]
    for i in range(4):
        j = (i + 1) % 4
        w = pairs[2 * (i % 2)] + pairs[2 * (i % 2) + 1]
        rows[i][j], rows[j][i] = w, -w
    square = [[sum((rows[i][k] * rows[k][j] for k in range(4)), scalar(0))
               for j in range(4)] for i in range(4)]
    explicit = [sum((square[i][i] for i in range(4)), scalar(0)),
                sum((square[i][j] * square[j][i] for i in range(4) for j in range(4)), scalar(0))]
    traces = [zs.CurvatureMatrix(rows).matrix_power_trace(m) for m in (2, 4)]
    check(traces == explicit, f"Tr(R^2), Tr(R^4) {traces}, explicit products {explicit}")
    return "dimension-4 Grassmann instance: concrete pipeline equals formal substitution"


def _check_trace_termination() -> str:
    # besides the demo, a seeded 4x4 over the pairing of 12 generators, two
    # pairs per entry: its Tr(R^5) = Tr(R^3 R^2) reads the mirrored half of R^3
    seed = 0
    rng = random.Random(seed)
    pairs = [odd(f"psi{a}") * odd(f"psi{a + 1}") for a in range(0, 12, 2)]
    upper = {(i, j): sum((rng.choice((-2, -1, 1, 2)) * pair for pair in rng.sample(pairs, 2)),
                         scalar(0)) for i in range(4) for j in range(i + 1, 4)}
    rows = [[upper[i, j] if i < j else -upper[j, i] if j < i else scalar(0)
             for j in range(4)] for i in range(4)]
    matrix = zs.demo_curvature()
    for traced in (matrix, zs.CurvatureMatrix(rows)):
        for m in range(1, 8, 2):
            check(traced.matrix_power_trace(m).is_zero(),
                  f"odd-power trace Tr(R^{m}) is nonzero (seed {seed} for the 4x4)")
    # Tr(R^m) past the generator bound takes the branch of Tr(R^5) and Tr(R^7)
    # of the demo's four generators above
    check(not matrix.matrix_power_trace(2).is_zero())
    return "odd traces vanish; powers beyond the generator count terminate"


def _check_r_cancellation() -> str:
    for n in range(1, 9):
        check(zs.free_r_exponent(n) == 0, n)
    return "r-powers cancel identically in the superdeterminant, n <= 8"


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

SUITES: Dict[str, List[Check]] = {
    "grassmann": [
        ("super translation group law", _check_group_law),
        ("time reversal acts by automorphisms (t -> -t pinned)", _check_time_reversal_automorphism),
        ("time reversal group relations", _check_time_reversal_relations),
        ("odd derivations square to -i d/dt", _check_d_operators),
        ("left-invariant sign flip", _check_left_invariant_sign),
        ("projection invariance under the lattice", _check_projection_invariance),
        ("1|1 inclusion homomorphism (i-convention pinned)", _check_r11_inclusion),
        ("descent of translations", _check_descent),
        ("descent of time reversals", _check_descent_time_reversal),
        ("induced map on the odd line", _check_induced_base_map),
        ("action on field data", _check_field_action),
        ("Berezin integral normalization", _check_berezin),
        ("linearized action expansion", _check_linearized_action),
    ],
    "susy": [
        ("kernel of the supercharge (randomized)", _check_q_kernel_randomized),
        ("square of the supercharge", _check_q_squared),
        ("line bundle weights", _check_grading),
        ("cocycle map", _check_cocycles),
    ],
    "series": [
        ("Bernoulli and even zeta values", _check_bernoulli_zeta),
        ("exponential product identities", _check_exponential_forms),
        ("log of the characteristic series", _check_log_l_series),
        ("L-polynomials against brute force", _check_l_polynomials_oracle),
        ("Newton conversions invertible", _check_newton_roundtrip),
        ("Whitney multiplicativity", _check_whitney),
    ],
    "zeta": [
        ("regularized free products", _check_regularized_products),
        ("inverse-power mode traces", _check_trace_values),
        ("superdeterminant equals the signature class", _check_sdet_identity),
        ("degree parts in Pontryagin classes", _check_sdet_degree_parts),
        ("periodic-periodic sector", _check_pp_sector),
        ("concrete curvature cross-check", _check_concrete_instance),
        ("trace termination and antisymmetry", _check_trace_termination),
        ("radius cancellation", _check_r_cancellation),
    ],
}


def run_suite(name: str) -> List[CheckResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; available: {', '.join(SUITES)}")
    results = []
    for check_name, func in SUITES[name]:
        try:
            detail = func() or ""
            results.append(CheckResult(name, check_name, True, detail))
        except IdentityFailure as exc:
            results.append(CheckResult(name, check_name, False, str(exc)))
        except Exception as exc:  # a crashed check is a failed check, not a usage error
            results.append(CheckResult(name, check_name, False,
                                       f"{type(exc).__name__}: {exc}"))
    return results
