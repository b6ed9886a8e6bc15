"""A catalogue of planted faults: measured evidence that `verify` cannot pass
by accident, site by site.

Each entry names a library file, an exact source snippet, its replacement,
and, exactly, the verify checks that then read FAIL, each with its first
failing site: a killer lost or gained among several shows as a mismatch.  A
site is a `check(...)` call in verify.py, keyed by the function that holds
it and the call's ordinal, in source order, among that function's `check`
calls (see verify_sites.py); a check that fails by a crash rather than by a
`check` has the site None.

The mutant is a temporary copy of src/ with that one replacement, and
`python -O tests/verify_sites.py` runs every suite on it in a subprocess,
with `verify.check` wrapped to record where each check first failed; the
mutants run together, at most one per CPU.  A snippet must occur exactly
once in its file, which a static test asserts without planting it.

Every site in verify.py must be the first failing site of some entry.  A
site that no entry reaches is either dead, repeating other sites of its
check, and is deleted, or unmeasured, and gains an entry.  UNSEEN_SITES
lists the sites that are neither yet; it may only shrink.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, NamedTuple, Optional

import pytest

from supersdet.verify import SUITES
from verify_sites import Site, check_calls

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class Fault(NamedTuple):
    file: str
    snippet: str
    replacement: str
    killed_by: Dict[str, Optional[Site]]  # check name -> first failing site


FAULTS = {
    # the even partial with the exponent dropped: d/dt t^a = t^{a-1}
    "even-partial-factor": Fault(
        "grassmann.py",
        "= coeff * exp",
        "= coeff",
        {"odd derivations square to -i d/dt": ("_check_d_operators", 0)}),
    # the even partial of an odd generator is zero: the abstract time
    # derivative no longer moves the odd components
    "derive-even-odd-partial": Fault(
        "grassmann.py",
        """(self.derivative_odd(name) if name in odd_names
                             else self.derivative_even(name))""",
        "self.derivative_even(name)",
        {"linearized action expansion": ("_check_linearized_action", 0)}),
    # a twist that fixes theta2 makes every component periodic
    "boundary-twist-sign": Fault(
        "linearization.py",
        'substitute_odd("theta2", -odd("theta2"))',
        'substitute_odd("theta2", odd("theta2"))',
        {"linearized action expansion": ("_check_linearized_action", 2)}),
    "berezin-derivative-order": Fault(
        "linearization.py",
        'return f.derivative_odd("theta1").derivative_odd("theta2")',
        'return f.derivative_odd("theta2").derivative_odd("theta1")',
        {"Berezin integral normalization": ("_check_berezin", 0),
         "linearized action expansion": ("_check_linearized_action", 0)}),
    # the log(x/tanh x) coefficients, which the signature class reads in
    # either basis
    "l-class-log-sign": Fault(
        "series.py",
        "return tuple(l_series_doubled_root(2 * K).log().coeffs[2::2])",
        "return tuple(-c for c in l_series_doubled_root(2 * K).log().coeffs[2::2])",
        {"L-polynomials against brute force": ("_check_l_polynomials_oracle", 0),
         "superdeterminant equals the signature class": ("_check_sdet_identity", 0)}),
    # exp is shared by sdet and the oracle, so an exp with a wrong recurrence
    # coefficient keeps sdet == L: the checks against a brute-force product
    # see it, among them sdet at random roots, and the Newton round trip,
    # since the images e_i(ph) are weight parts of an exp and the inverse
    # images ph_k(p) are not
    "exp-recurrence-scale": Fault(
        "series.py",
        "cj = j * math.perm(w - 1, j - 1)",
        "cj = math.perm(w - 1, j - 1)",
        {"L-polynomials against brute force": ("_check_l_polynomials_oracle", 0),
         "Newton conversions invertible": ("_check_newton_roundtrip", 0),
         "degree parts in Pontryagin classes": ("_check_sdet_degree_parts", 1),
         "superdeterminant equals the signature class": ("_check_sdet_identity", 1)}),
    "exp-piece-denominator": Fault(
        "series.py",
        "[math.factorial(w) * B ** w for w",
        "[math.factorial(w) * B for w",
        {"L-polynomials against brute force": ("_check_l_polynomials_oracle", 0),
         "Whitney multiplicativity": ("_check_whitney", 0),
         "concrete curvature cross-check": ("_check_concrete_instance", 0),
         "degree parts in Pontryagin classes": ("_check_sdet_degree_parts", 1),
         "superdeterminant equals the signature class": ("_check_sdet_identity", 1)}),
    "substitute-prefix-reuse": Fault(
        "series.py",
        "del products[shared + 1:]",
        "del products[shared:]",
        {"L-polynomials against brute force": None,
         "Newton conversions invertible": None,
         "Whitney multiplicativity": None,
         "concrete curvature cross-check": None,
         "degree parts in Pontryagin classes": None,
         "superdeterminant equals the signature class": None}),
    "packed-key-shift": Fault(
        "series.py",
        "shift = nvars.bit_length()",
        "shift = nvars.bit_length() - 1",
        {"L-polynomials against brute force": ("_check_l_polynomials_oracle", 0),
         "Newton conversions invertible": ("_check_newton_roundtrip", 0),
         "Whitney multiplicativity": ("_check_whitney", 0),
         "degree parts in Pontryagin classes": ("_check_sdet_degree_parts", 1),
         "superdeterminant equals the signature class": ("_check_sdet_identity", 1)}),
    "cosh-root-scale": Fault(
        "verify.py",
        "cosh_full = cs.series_cosh_half(8).rescale_root(Fraction(2))",
        "cosh_full = cs.series_cosh_half(8).rescale_root(Fraction(1))",
        {"exponential product identities": ("_check_exponential_forms", 2)}),
    # one sign per dx factor: closedness, the kernel of Q and Q^2 are linear
    # in a monomial, so only its pin against explicit products sees it (with
    # 1 and 3 factors; with 2 the signs cancel)
    "monomial-sign": Fault(
        "sections.py",
        "out = out * d_coordinate(i)",
        "out = -(out * d_coordinate(i))",
        {"square of the supercharge": ("_check_q_squared", 0)}),
    # an odd power mirrored without its sign: the traces read R^3 first in
    # Tr(R^5) = Tr(R^3 R^2), which only the seeded 4x4 over 12 generators
    # reaches; the fault makes that odd trace nonzero
    "odd-power-mirror-sign": Fault(
        "zeta.py",
        "{key: (-re, -im) for key, (re, im) in entry.items()} if odd_power else entry",
        "entry",
        {"trace termination and antisymmetry": ("_check_trace_termination", 0)}),
    # Tr(R^{2b}) = (-1)^b [sum_i (R^b)_ii^2 + 2 sum_{i<k} (R^b)_ik^2]: the
    # off-diagonal pairs counted once, and the sign (-1)^b dropped; concrete
    # and formal read the same traces, so only the hand values see them (the
    # sign only in the two-pair cycle's Tr(R^2) against explicit products)
    "trace-fold-doubling": Fault(
        "zeta.py",
        "(2 * re, 2 * im)",
        "(re, im)",
        {"concrete curvature cross-check": ("_check_concrete_instance", 2)}),
    # the sign rides on the denominator each trace coefficient leaves the
    # kernel over, through gaussian.from_parts
    "trace-fold-sign": Fault(
        "zeta.py",
        "(-1) ** b * self._denominator ** m",
        "self._denominator ** m",
        {"concrete curvature cross-check": ("_check_concrete_instance", 3)}),
    # the diagonal of an even power left unbuilt: the demo's R^3 is zero and
    # the 4-cycle's R^2 has a zero diagonal, so only the cycle with two
    # generator pairs per entry, against explicit products, sees it
    "even-power-diagonal-skipped": Fault(
        "zeta.py",
        "range(i + odd_power, n)",
        "range(i + 1, n)",
        {"concrete curvature cross-check": ("_check_concrete_instance", 3)}),
    # past the generator bound every trace is zero, not Tr(R^2)
    "trace-past-zero-power": Fault(
        "zeta.py",
        "return GrassmannElement()",
        "return self.matrix_power_trace(2)",
        {"concrete curvature cross-check": ("_check_concrete_instance", 0),
         "trace termination and antisymmetry": ("_check_trace_termination", 0)}),
    # a bound that drops Tr(R^m) at 2m = g, where its terms hold every
    # generator; 2 * m > read as m > is equivalent, and only slower
    "trace-generator-bound": Fault(
        "zeta.py",
        "if 2 * m > self._generators:",
        "if 2 * m >= self._generators:",
        {"concrete curvature cross-check": ("_check_concrete_instance", 1),
         "trace termination and antisymmetry": ("_check_trace_termination", 1)}),
    # a term of Tr(R^{2k}) holds 4k generators; with g // 8 the 4-cycle over
    # 8 generators drops its Tr(R^4) term, the demo over 4 keeps k = 1
    "trace-bound": Fault(
        "zeta.py",
        "self._generators // 4",
        "self._generators // 8",
        {"concrete curvature cross-check": ("_check_concrete_instance", 2)}),
    # Q(i) on (a + b i)/d.  A result left unreduced keeps its value, so only
    # the field-by-field comparison of term dicts sees it; the conjugate's sign
    # drops out of a real divisor, so only the inverse of a unit with the
    # non-real body i sees it
    "gaussian-gcd-skipped": Fault(
        "gaussian.py",
        "g = gcd(a, b, d)",
        "g = 1",
        {"concrete curvature cross-check": ("_check_concrete_instance", 2)}),
    "gaussian-conjugate-sign": Fault(
        "gaussian.py",
        "(b1 * a2 - a1 * b2)",
        "(b1 * a2 + a1 * b2)",
        {"induced map on the odd line": ("_check_induced_base_map", 1)}),
    # a/d + c/d read as (a + c)/(d + d), on one denominator only
    "gaussian-add-same-denominator": Fault(
        "gaussian.py",
        "return _reduced(self._real + a, self._imag + b, d)",
        "return _reduced(self._real + a, self._imag + b, d + d)",
        {"action on field data": ("_check_field_action", 0),
         "concrete curvature cross-check": ("_check_concrete_instance", 3),
         "descent of translations": ("_check_descent", 1),
         "square of the supercharge": ("_check_q_squared", 1)}),
    # a Fraction factor that keeps only its numerator: the concrete route
    # scales its traces by proper Fractions (curvature_to_ph, fredholm_log_det)
    "gaussian-fraction-factor": Fault(
        "gaussian.py",
        "self._den * other.denominator",
        "self._den",
        {"concrete curvature cross-check": ("_check_concrete_instance", 0)}),
    # the inverse of the source projection, o1 = theta + rho1 t / r
    "base-map-sign": Fault(
        "superspace.py",
        "o1_sub = theta + rho1 * even(_FRESH[0]) * r_inv",
        "o1_sub = theta - rho1 * even(_FRESH[0]) * r_inv",
        {"action on field data": None, "induced map on the odd line": None}),
    "odd-mode-sum-sign": Fault(
        "series.py",
        "(Fraction(2) ** two_k - 1) * zeta_over_2pii(two_k)",
        "(Fraction(2) ** two_k + 1) * zeta_over_2pii(two_k)",
        {"Bernoulli and even zeta values": ("_check_bernoulli_zeta", 2),
         "concrete curvature cross-check": ("_check_concrete_instance", 2),
         "degree parts in Pontryagin classes": ("_check_sdet_degree_parts", 0),
         "exponential product identities": ("_check_exponential_forms", 1),
         "inverse-power mode traces": ("_check_trace_values", 1),
         "log of the characteristic series": ("_check_log_l_series", 1),
         "superdeterminant equals the signature class": ("_check_sdet_identity", 0)}),
    # s_k = (2k)! ph_k, read by l_class_in_ph and the images e_i(ph)
    "newton-power-sum-scale": Fault(
        "series.py",
        'math.factorial(2 * k) * GradedPolynomial.generator(k, K, "ph")',
        'math.factorial(2 * k - 1) * GradedPolynomial.generator(k, K, "ph")',
        {"Newton conversions invertible": ("_check_newton_roundtrip", 0),
         "superdeterminant equals the signature class": ("_check_sdet_identity", 0)}),
    # log(1 + y) read as -log(1 - y) turns the images e_i(ph) into the
    # complete symmetric h_i(ph); only the p -> ph direction reads them, and
    # the oracle converts nothing
    "elementary-log-sign": Fault(
        "series.py",
        "Fraction((-1) ** (k - 1), k)",
        "Fraction(1, k)",
        {"Newton conversions invertible": ("_check_newton_roundtrip", 0)}),
    # the demo has ph_2 = 0, so a skip that drops every monomial once any
    # value is zero loses the whole formal substitution
    "zero-skip-everything": Fault(
        "series.py",
        "if not any(e[i] for i in zeros)]",
        "if not zeros]",
        {"concrete curvature cross-check": ("_check_concrete_instance", 0)}),
    # the boundary table the superdeterminant and the linearization read
    "pa-boundary-eta2": Fault(
        "zeta.py",
        '"eta2": BoundaryCondition.ANTIPERIODIC,',
        '"eta2": BoundaryCondition.PERIODIC,',
        {"concrete curvature cross-check": ("_check_concrete_instance", 1),
         "degree parts in Pontryagin classes": ("_check_sdet_degree_parts", 0),
         "linearized action expansion": ("_check_linearized_action", 2),
         "superdeterminant equals the signature class": ("_check_sdet_identity", 0)}),
    "ph-scale-power": Fault(
        "zeta.py",
        "* 4 ** k",
        "* 2 ** k",
        {"degree parts in Pontryagin classes": ("_check_sdet_degree_parts", 0),
         "superdeterminant equals the signature class": ("_check_sdet_identity", 0)}),
    "free-r-exponent-order": Fault(
        "zeta.py",
        "det = n * regularized_product_power(4).r_exponent",
        "det = n * regularized_product_power(2).r_exponent",
        {"radius cancellation": ("_check_r_cancellation", 0)}),
    "zeta-at-zero": Fault(
        "zeta.py",
        "zeta_at_0 = Fraction(-1, 2)",
        "zeta_at_0 = Fraction(-1, 3)",
        {"regularized free products": ("_check_regularized_products", 0)}),
    "pp-eta2": Fault(
        "zeta.py",
        "eta2 = BoundaryCondition.PERIODIC if pp",
        "eta2 = BoundaryCondition.ANTIPERIODIC if pp",
        {"periodic-periodic sector": ("_check_pp_sector", 0)}),
    "supercharge-d-sign": Fault(
        "sections.py",
        "return GrassmannElement._of(out) - d(s)",
        "return GrassmannElement._of(out) + d(s)",
        {"square of the supercharge": ("_check_q_squared", 1)}),
    # i * weight * c read as -i * weight * c
    "supercharge-i-sign": Fault(
        "sections.py",
        "c * weight * I",
        "c * weight * -I",
        {"square of the supercharge": ("_check_q_squared", 1)}),
    "supercharge-weight-q": Fault(
        "sections.py",
        "weight = (mask.bit_count() - 2 * q)",
        "weight = (mask.bit_count() - q)",
        {"cocycle map": None,
         "kernel of the supercharge (randomized)": ("_check_q_kernel_randomized", 0)}),
    "grade-mod-2": Fault(
        "sections.py",
        "{mask.bit_count() % 4 for",
        "{mask.bit_count() % 2 for",
        {"line bundle weights": ("_check_grading", 1)}),
    "cocycle-two-pi-sign": Fault(
        "sections.py",
        "TwoPiPower(Fraction(1), -Fraction(k, 2))",
        "TwoPiPower(Fraction(1), Fraction(k, 2))",
        {"cocycle map": ("_check_cocycles", 0)}),
    # the law with -i o2 o2' is still a group on which T acts by
    # automorphisms, and nu2 still blocks descent; what it breaks is that
    # D_2 = d/dtheta2 - i theta2 d/dt commutes with left translation
    "group-law-sign": Fault(
        "superspace.py",
        "+ I * o2 * u2",
        "- I * o2 * u2",
        {"super translation group law": ("_check_group_law", 4)}),
    "inverse-keeps-t": Fault(
        "superspace.py",
        "return point_r12(-p.even_part, -p.odd_parts[0], -p.odd_parts[1])",
        "return point_r12(p.even_part, -p.odd_parts[0], -p.odd_parts[1])",
        {"action on field data": None,
         "descent of translations": ("_check_descent", 0),
         "induced map on the odd line": None,
         "super translation group law": ("_check_group_law", 2)}),
    "r11-without-i": Fault(
        "superspace.py",
        "return (u + up + I * v * vp, v + vp)",
        "return (u + up + v * vp, v + vp)",
        {"1|1 inclusion homomorphism (i-convention pinned)": ("_check_r11_inclusion", 0),
         "action on field data": ("_check_field_action", 1)}),
    "rp-keeps-t": Fault(
        "superspace.py",
        "(-1) ** (g.plus + g.minus) * p.even_part,",
        "p.even_part,",
        {"1|1 inclusion homomorphism (i-convention pinned)": ("_check_r11_inclusion", 1),
         "descent of time reversals": ("_check_descent_time_reversal", 0),
         "time reversal acts by automorphisms (t -> -t pinned)": ("_check_time_reversal_automorphism", 0)}),
    # i^{a+b+2} on the second odd coordinate: rp and rm negate it where
    # they should multiply it by i
    "rp-second-odd-sign": Fault(
        "superspace.py",
        "_I_POWERS[(g.plus + g.minus) % 4] * p.odd_parts[1]",
        "_I_POWERS[(g.plus + g.minus + 2) % 4] * p.odd_parts[1]",
        {"descent of translations": ("_check_descent", 2),
         "time reversal group relations": ("_check_time_reversal_relations", 0)}),
    # without the fold rm^2 = rp^2 the product rm * rm is the identity
    "rm-squared-fold": Fault(
        "superspace.py",
        "(plus + minus - minus % 2) % 4",
        "plus % 4",
        {"time reversal group relations": ("_check_time_reversal_relations", 1)}),
    # TimeReversal(3, b) folded to TimeReversal(0, b): no product of two
    # generators reaches plus = 3, so only the faithfulness of T sees it
    "normal-form-modulus": Fault(
        "superspace.py",
        "minus % 2) % 4, minus % 2",
        "minus % 2) % 3, minus % 2",
        {"time reversal group relations": ("_check_time_reversal_relations", 2)}),
    "right-d-sign": Fault(
        "superspace.py",
        "return f.derivative_odd(name) - I * odd(name) * d_t(f)",
        "return f.derivative_odd(name) + I * odd(name) * d_t(f)",
        {"odd derivations square to -i d/dt": ("_check_d_operators", 1),
         "super translation group law": ("_check_group_law", 4)}),
    "left-d-sign": Fault(
        "superspace.py",
        "return f.derivative_odd(name) + I * odd(name) * d_t(f)",
        "return f.derivative_odd(name) - I * odd(name) * d_t(f)",
        {"left-invariant sign flip": ("_check_left_invariant_sign", 0)}),
    "projection-sign": Fault(
        "superspace.py",
        "return p.odd_parts[0] - rho1 * p.even_part * r.invert_unit()",
        "return p.odd_parts[0] + rho1 * p.even_part * r.invert_unit()",
        {"action on field data": None,
         "induced map on the odd line": None,
         "projection invariance under the lattice": ("_check_projection_invariance", 0)}),
    # each step of the descent generator: the image is iso(L) with the
    # base-point-preserving iso, the equation is tested with iso(L) itself,
    # and the reported generator is iso(L) times the sign of its r-coefficient
    "descent-image-not-conjugated": Fault(
        "superspace.py",
        "point_r12(r, rho1, 0), True)",
        "point_r12(r, rho1, 0), False)",
        {"action on field data": None,
         "descent of translations": ("_check_descent", 0),
         "induced map on the odd line": None}),
    "descent-generator-unoriented": Fault(
        "superspace.py",
        "(orientation * t, orientation * o1)",
        "(t, o1)",
        {"descent of time reversals": ("_check_descent_time_reversal", 1)}),
    "descent-equation-oriented": Fault(
        "superspace.py",
        "twist, p, True), (t, o1))",
        "twist, p, True), (orientation * t, orientation * o1))",
        {"descent of time reversals": ("_check_descent_time_reversal", 0),
         "induced map on the odd line": None}),
    "orientation-sign": Fault(
        "superspace.py",
        "return 1 if coeff.re > 0 else -1",
        "return -1 if coeff.re > 0 else 1",
        {"action on field data": ("_check_field_action", 0),
         "descent of time reversals": ("_check_descent_time_reversal", 1),
         "descent of translations": ("_check_descent", 1)}),
    # o2 + o2' read as o2' - o2: e p is still p, p e negates p's second odd
    # coordinate
    "odd-law-order": Fault(
        "superspace.py",
        "o1 + u1, o2 + u2)",
        "o1 + u1, u2 - o2)",
        {"descent of translations": ("_check_descent", 2),
         "super translation group law": ("_check_group_law", 1)}),
    # the identity moved to (1, 0, 0)
    "identity-shifted": Fault(
        "superspace.py",
        "return point_r12(0, 0, 0)",
        "return point_r12(1, 0, 0)",
        {"super translation group law": ("_check_group_law", 0)}),
    # a cubic cocycle term i o2 o2' t: it vanishes at e and at (p, -p), so the
    # identity and the inverse hold and only associativity sees it
    "cocycle-cubic": Fault(
        "superspace.py",
        "I * o2 * u2, o1 + u1",
        "I * o2 * u2 * (1 + t), o1 + u1",
        {"super translation group law": ("_check_group_law", 3),
         "time reversal acts by automorphisms (t -> -t pinned)": ("_check_time_reversal_automorphism", 0)}),
    # the law without its cocycle i (o1 o1' + o2 o2') is abelian, and every
    # linear map is an automorphism of it, the t-fixing candidate too
    "cocycle-dropped": Fault(
        "superspace.py",
        "t + s + I * o1 * u1 + I * o2 * u2",
        "t + s",
        {"1|1 inclusion homomorphism (i-convention pinned)": ("_check_r11_inclusion", 0),
         "action on field data": ("_check_field_action", 0),
         "descent of translations": ("_check_descent", 1),
         "induced map on the odd line": ("_check_induced_base_map", 0),
         "super translation group law": ("_check_group_law", 4),
         "time reversal acts by automorphisms (t -> -t pinned)": ("_check_time_reversal_automorphism", 1)}),
    # D_2 copied from D_1: d/dtheta2 - i theta1 d/dt.  D_1 still squares to
    # -i d/dt; D_2 fails first at t
    "d2-copied-from-d1": Fault(
        "superspace.py",
        "return f.derivative_odd(name) - I * odd(name) * d_t(f)",
        "return f.derivative_odd(name) - I * odd(\"theta1\") * d_t(f)",
        {"odd derivations square to -i d/dt": ("_check_d_operators", 2),
         "super translation group law": ("_check_group_law", 4)}),
    # the left derivative without its sign: D_i^2 = -i d/dt still holds on
    # the monomials t^a theta1^b theta2^c, and D_1 D_2 + D_2 D_1 sends
    # theta1 theta2 to 2
    "derivative-odd-unsigned": Fault(
        "grassmann.py",
        "{(mask ^ b, even): coeff * sign(b, mask ^ b)",
        "{(mask ^ b, even): coeff",
        {"linearized action expansion": ("_check_linearized_action", 0),
         "odd derivations square to -i d/dt": ("_check_d_operators", 3),
         "super translation group law": ("_check_group_law", 4)}),
    # i times the projection is still lattice invariant; only rho = 0,
    # against the plain projection, sees the factor
    "projection-scaled-by-i": Fault(
        "superspace.py",
        "return p.odd_parts[0] - rho1 * p.even_part * r.invert_unit()",
        "return I * (p.odd_parts[0] - rho1 * p.even_part * r.invert_unit())",
        {"action on field data": None,
         "induced map on the odd line": None,
         "projection invariance under the lattice": ("_check_projection_invariance", 1)}),
    # a substitution that keeps the terms holding the generator: nu2 = 0
    # leaves the residual standing
    "substitute-odd-keeps": Fault(
        "grassmann.py",
        "kept = GrassmannElement._of({k: c for k, c in self.terms.items() if not k[0] & b})",
        "kept = GrassmannElement._of(self.terms)",
        {"action on field data": None,
         "descent of translations": ("_check_descent", 3),
         "induced map on the odd line": None,
         "linearized action expansion": None}),
    # the holonomy rp^2 for rp rm: rp and rm still descend, with their
    # generators, and the holonomy's own generator negates rho1
    "holonomy-rp-squared": Fault(
        "superspace.py",
        "PA_HOLONOMY = RP * RM",
        "PA_HOLONOMY = RP * RP",
        {"action on field data": None,
         "descent of time reversals": ("_check_descent_time_reversal", 2),
         "descent of translations": ("_check_descent", 0),
         "induced map on the odd line": None,
         "projection invariance under the lattice": ("_check_projection_invariance", 0),
         "time reversal group relations": ("_check_time_reversal_relations", 0)}),
    # the square's vertical arrow conjugated by g, as the descent's isometry
    # is: the square still closes, with alpha = 0
    "induced-vertical-conjugated": Fault(
        "superspace.py",
        "twist, p, base_point_preserving=False)",
        "twist, p, base_point_preserving=True)",
        {"action on field data": ("_check_field_action", 0),
         "induced map on the odd line": ("_check_induced_base_map", 0)}),
    # the square's vertical arrow without the time reversal: the square
    # closes, with beta = 1 for rp and rm
    "induced-vertical-untwisted": Fault(
        "superspace.py",
        "_apply_isometry(triple, twist, p, base_point_preserving=False)",
        "_apply_isometry(triple, TimeReversal(), p, base_point_preserving=False)",
        {"induced map on the odd line": ("_check_induced_base_map", 1)}),
    # the odd derivative taken of terms without the generator too: theta1
    # theta2 still integrates to 1, a constant no longer to 0
    "derivative-odd-filter": Fault(
        "grassmann.py",
        "if mask & b})",
        "})",
        {"Berezin integral normalization": ("_check_berezin", 1),
         "action on field data": None,
         "induced map on the odd line": None,
         "left-invariant sign flip": ("_check_left_invariant_sign", 0),
         "linearized action expansion": None,
         "odd derivations square to -i d/dt": ("_check_d_operators", 1),
         "super translation group law": ("_check_group_law", 4)}),
    # the odd derivative drops the even part of each monomial, so
    # t theta1 theta2 and theta1 theta2 collide
    "derivative-odd-drops-even": Fault(
        "grassmann.py",
        "{(mask ^ b, even): coeff",
        "{(mask ^ b, ()): coeff",
        {"Berezin integral normalization": ("_check_berezin", 2),
         "action on field data": None,
         "induced map on the odd line": None,
         "left-invariant sign flip": ("_check_left_invariant_sign", 0),
         "linearized action expansion": None,
         "odd derivations square to -i d/dt": ("_check_d_operators", 2)}),
    # only the comparison with the quadratic form reads its eta2 block
    "quadratic-form-eta2-sign": Fault(
        "linearization.py",
        "- I * pairing(e20, d_e2)",
        "+ I * pairing(e20, d_e2)",
        {"linearized action expansion": ("_check_linearized_action", 1)}),
    # the randomized kernel check skips its non-closed forms: every trial it
    # runs passes, and only the count of trials sees it
    "kernel-trials-skipped": Fault(
        "verify.py",
        "if s.is_zero():",
        "if s.is_zero() or not closed:",
        {"kernel of the supercharge (randomized)": ("_check_q_kernel_randomized", 1)}),
    # d without dx_i dx_i = 0 does not square to zero, so the random closed
    # forms are not closed
    "d-squares-nonzero": Fault(
        "sections.py",
        "            if mask & b:\n                continue\n",
        "",
        {"kernel of the supercharge (randomized)": ("_random_form", 0),
         "square of the supercharge": ("_check_q_squared", 1)}),
    # d x^e = (e - 1) x^{e-1} dx still squares to zero, but it kills x_i,
    # so a random non-closed form linear in its outside variable is closed
    "d-exponent-off-by-one": Fault(
        "sections.py",
        "c * (e * sign(b, mask))",
        "c * ((e - 1) * sign(b, mask))",
        {"kernel of the supercharge (randomized)": ("_random_form", 1)}),
    # weights mod 8: degree 5 no longer weighs as degree 1
    "grade-mod-8": Fault(
        "sections.py",
        "{mask.bit_count() % 4 for",
        "{mask.bit_count() % 8 for",
        {"line bundle weights": ("_check_grading", 0)}),
    # Q's weight term without rho: the image of a weight-homogeneous section
    # mixes two weights
    "supercharge-drops-rho": Fault(
        "sections.py",
        "key = (mask | rho, _with_r_power(even_part, q - 1))",
        "key = (mask, _with_r_power(even_part, q - 1))",
        {"line bundle weights": ("_check_grading", 2),
         "square of the supercharge": ("_check_q_squared", 1)}),
    # from_cocycle scales by r^{-k/2}, not r^{k/2}
    "from-cocycle-scale-sign": Fault(
        "sections.py",
        "scale_r(form, -power.exponent)",
        "scale_r(form, power.exponent)",
        {"cocycle map": ("_check_cocycles", 1)}),
    # (2 pi)^a (2 pi)^b read as (2 pi)^{ab}
    "two-pi-exponent-product": Fault(
        "sections.py",
        "self.exponent + other.exponent",
        "self.exponent * other.exponent",
        {"cocycle map": ("_check_cocycles", 2)}),
    # the rational factors of two (2 pi)-powers added, not multiplied
    "two-pi-coefficient-sum": Fault(
        "sections.py",
        "self.coefficient * other.coefficient",
        "self.coefficient + other.coefficient",
        {"cocycle map": ("_check_cocycles", 3)}),
    # the cocycle's pieces in decreasing degree
    "cocycle-degree-order": Fault(
        "sections.py",
        "for k in sorted(degrees(s))]",
        "for k in sorted(degrees(s), reverse=True)]",
        {"cocycle map": ("_check_cocycles", 4)}),
    # to_cocycle without its Q-closedness guard accepts r^2 dx1 dx2
    "cocycle-kernel-unchecked": Fault(
        "sections.py",
        "raise ValueError(\"section is not supersymmetric\")",
        "pass",
        {"cocycle map": ("_check_cocycles", 5)}),
    # the Bernoulli recurrence on the row C(m, j): B_2 = 0
    "bernoulli-binomial-row": Fault(
        "series.py",
        "math.comb(m + 1, j)",
        "math.comb(m, j)",
        {"Bernoulli and even zeta values": ("_check_bernoulli_zeta", 0),
         "concrete curvature cross-check": ("_check_concrete_instance", 1),
         "degree parts in Pontryagin classes": ("_check_sdet_degree_parts", 0),
         "exponential product identities": ("_check_exponential_forms", 0),
         "inverse-power mode traces": ("_check_trace_values", 0),
         "log of the characteristic series": ("_check_log_l_series", 1),
         "superdeterminant equals the signature class": ("_check_sdet_identity", 0)}),
    # zeta(2k)/(2 pi i)^{2k} over 2 (2k - 1)!
    "zeta-factorial": Fault(
        "series.py",
        "-bernoulli(two_k) / (2 * math.factorial(two_k))",
        "-bernoulli(two_k) / (2 * math.factorial(two_k - 1))",
        {"Bernoulli and even zeta values": ("_check_bernoulli_zeta", 1),
         "concrete curvature cross-check": ("_check_concrete_instance", 2),
         "degree parts in Pontryagin classes": ("_check_sdet_degree_parts", 0),
         "exponential product identities": ("_check_exponential_forms", 0),
         "inverse-power mode traces": ("_check_trace_values", 0),
         "log of the characteristic series": ("_check_log_l_series", 1),
         "superdeterminant equals the signature class": ("_check_sdet_identity", 0)}),
    # sinh(x/2)/(x/2) with the factorials of cosh(x/2)
    "sinh-half-factorial": Fault(
        "series.py",
        "return Fraction(1, 2 ** k * math.factorial(k + 1))",
        "return Fraction(1, 2 ** k * math.factorial(k))",
        {"exponential product identities": ("_check_exponential_forms", 0),
         "log of the characteristic series": ("_check_log_l_series", 0),
         "superdeterminant equals the signature class": ("_check_sdet_identity", 0)}),
    # log reads f' as the shifted coefficients, without their factors k
    "log-derivative-shift": Fault(
        "series.py",
        "[k * c for k, c in enumerate(self.coeffs)][1:]",
        "list(self.coeffs[1:])",
        {"L-polynomials against brute force": ("_check_l_polynomials_oracle", 0),
         "log of the characteristic series": ("_check_log_l_series", 0),
         "superdeterminant equals the signature class": ("_check_sdet_identity", 0)}),
    # sdet_concrete does not pass pp on, so its all-periodic sector is the
    # PA one; the formal route is untouched
    "concrete-pp-dropped": Fault(
        "zeta.py",
        "for k in range(1, matrix.max_relevant_k() + 1)], pp)",
        "for k in range(1, matrix.max_relevant_k() + 1)])",
        {"periodic-periodic sector": ("_check_pp_sector", 1)}),
    # the mode trace carries r^k, not r^{2k}
    "trace-r-exponent": Fault(
        "zeta.py",
        "return RPower(base, Fraction(two_k))",
        "return RPower(base, Fraction(two_k // 2))",
        {"inverse-power mode traces": ("_check_trace_values", 0)}),
    # 2k zeta(2k) for 2 zeta(2k), which agree at k = 1 only
    "trace-mode-factor": Fault(
        "zeta.py",
        "base = 2 * zeta_over_2pii(two_k)",
        "base = two_k * zeta_over_2pii(two_k)",
        {"concrete curvature cross-check": ("_check_concrete_instance", 2),
         "degree parts in Pontryagin classes": ("_check_sdet_degree_parts", 1),
         "inverse-power mode traces": ("_check_trace_values", 2),
         "superdeterminant equals the signature class": ("_check_sdet_identity", 0)}),
    # 2^{2k} - 1 read as 2 * 2k - 1, which agree at k = 1 only
    "odd-mode-power-as-product": Fault(
        "series.py",
        "(Fraction(2) ** two_k - 1)",
        "(Fraction(2) * two_k - 1)",
        {"Bernoulli and even zeta values": ("_check_bernoulli_zeta", 2),
         "concrete curvature cross-check": ("_check_concrete_instance", 2),
         "degree parts in Pontryagin classes": ("_check_sdet_degree_parts", 1),
         "exponential product identities": ("_check_exponential_forms", 1),
         "inverse-power mode traces": ("_check_trace_values", 3),
         "log of the characteristic series": ("_check_log_l_series", 1),
         "superdeterminant equals the signature class": ("_check_sdet_identity", 0)}),
}


# the sites that no entry's killed_by names: coverage can only grow, and a
# site that a new entry fails first leaves this set
UNSEEN_SITES = frozenset()


def test_unseen_sites_only_shrink():
    checks = {name for suite in SUITES.values() for name, _func in suite}
    killed = {name for fault in FAULTS.values() for name in fault.killed_by}
    assert killed == checks, sorted(checks ^ killed)
    declared = {site for fault in FAULTS.values() for site in fault.killed_by.values()} - {None}
    sites = {site for site, _call in check_calls((SRC / "supersdet" / "verify.py").read_text())}
    assert declared <= sites, sorted(declared - sites)
    assert sites - declared == UNSEEN_SITES, sorted(sites - declared)


def test_snippets_occur_once():
    wrong = {name: count for name, fault in FAULTS.items()
             if (count := (SRC / "supersdet" / fault.file).read_text(encoding="utf-8")
                 .count(fault.snippet)) != 1}
    assert not wrong, f"entries whose snippet does not occur exactly once: {wrong}"
    assert all(fault.snippet != fault.replacement for fault in FAULTS.values())


def _readme_table() -> Dict[str, set]:
    """The README's catalogue table: check name -> the entries that kill it."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| .+? \| `([^`]+)` \| (`.+) \|$", text, flags=re.M)
    return {check.replace("\\|", "|"): set(re.findall(r"`([\w-]+)`", entries))
            for check, entries in rows}


def test_readme_table_matches_catalogue():
    killers = {name: set() for suite in SUITES.values() for name, _func in suite}
    for entry, fault in FAULTS.items():
        for name in fault.killed_by:
            killers[name].add(entry)
    assert _readme_table() == killers


def _copy_src(tmp_path: Path) -> Path:
    src = tmp_path / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def _python(src: Path, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, *args], cwd=src.parent, env=env,
                          capture_output=True, text=True, timeout=300)


def test_unmutated_copy_passes(tmp_path):
    run = _python(_copy_src(tmp_path), "-O", "-m", "supersdet.cli", "verify", "--format", "json")
    assert run.returncode == 0, run.stderr
    assert all(c["passed"] for c in json.loads(run.stdout)["checks"])


def _run_mutant(tmp_path: Path, fault: Fault) -> Dict[str, Optional[Site]]:
    """Plant the fault in a copy of src/ and run every verify suite on it:
    each failed check with its first failing site."""
    src = _copy_src(tmp_path)
    target = src / "supersdet" / fault.file
    text = target.read_text(encoding="utf-8")
    target.write_text(text.replace(fault.snippet, fault.replacement), encoding="utf-8")
    run = _python(src, "-O", str(Path(__file__).with_name("verify_sites.py")))
    assert run.returncode == 0, run.stderr
    return {name: tuple(site) if site else None for name, site in json.loads(run.stdout).items()}


@pytest.fixture(scope="module")
def mutant_runs(request, tmp_path_factory):
    """The runs of every selected entry, started together on a pool of at
    most cpu_count workers; each test waits for its own."""
    names = [item.callspec.params["name"] for item in request.session.items
             if getattr(item, "originalname", None) == "test_planted_fault"]
    pool = ThreadPoolExecutor(max_workers=os.cpu_count() or 1)
    try:
        yield {name: pool.submit(_run_mutant, tmp_path_factory.mktemp(name), FAULTS[name])
               for name in names}
    finally:
        pool.shutdown(cancel_futures=True)


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_planted_fault(mutant_runs, name):
    killed = mutant_runs[name].result()
    assert killed and killed == FAULTS[name].killed_by, killed
