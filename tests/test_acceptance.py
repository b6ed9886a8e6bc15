"""Acceptance criteria, one test per criterion, each printing a pass/fail
line with its runtime.  Tolerances and budgets are stated inline; everything
not explicitly numeric is exact."""

import json
import math
import time
from fractions import Fraction

import numpy as np

from supersdet import cli
from supersdet import linearization as lin
from supersdet import manifolds as mf
from supersdet import series as cs
from supersdet import verify as vf
from supersdet import zeta as zs
from supersdet.gaussian import I
from supersdet.grassmann import even, odd, scalar
from supersdet import superspace as ss


class _Criterion:
    def __init__(self, number: int, description: str, budget_seconds: float):
        self.number = number
        self.description = description
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"[{verdict}] criterion {self.number}: {self.description} "
              f"({elapsed:.2f}s, budget {self.budget:.0f}s)")
        if exc_type is None:
            assert elapsed < self.budget, \
                f"criterion {self.number} exceeded its {self.budget}s budget: {elapsed:.2f}s"
        return False


def test_criterion_1_superalgebra_suite():
    with _Criterion(1, "superalgebra identities and descent", 1.0):
        th1, th2 = odd("theta1"), odd("theta2")
        for a in range(5):
            for b in (0, 1):
                for c in (0, 1):
                    mono = even("t", a) if a else scalar(1)
                    if b:
                        mono = mono * th1
                    if c:
                        mono = mono * th2
                    assert (ss.apply_D(1, ss.apply_D(1, mono)) + I * ss.d_t(mono)).is_zero()
                    assert (ss.apply_D(2, ss.apply_D(2, mono)) + I * ss.d_t(mono)).is_zero()
                    anti = ss.apply_D(1, ss.apply_D(2, mono)) \
                        + ss.apply_D(2, ss.apply_D(1, mono))
                    assert anti.is_zero()

        p = ss.point_r12(even("t"), th1, th2)
        R = (even("r"), odd("rho1"))
        assert (ss.proj_R(ss.mu_R(p, R), R) - ss.proj_R(p, R)).is_zero()

        u, nu1, nu2 = even("u"), odd("nu1"), odd("nu2")
        assert ss.descend_check((u, nu1, scalar(0)), ss.TimeReversal(), R).descends
        rejected = ss.descend_check((u, nu1, nu2), ss.TimeReversal(), R)
        assert not rejected.descends
        comps = [rejected.residual.even_part] + list(rejected.residual.odd_parts)
        for comp in comps:
            assert comp.substitute_odd("nu2", scalar(0)).is_zero()

        # the closed-form field action agrees with the composite-route oracle
        # (action_on_fields recomputes and compares internally, raising on drift)
        state = (even("r"), odd("rho1"), even("x"), odd("psi"))
        out = ss.action_on_fields(u, nu1, state)
        r_inv = even("r").invert_unit()
        assert (out[0] - (even("r") + 2 * I * nu1 * odd("rho1"))).is_zero()
        assert (out[2] - (even("x") - (nu1 - odd("rho1") * u * r_inv) * odd("psi"))).is_zero()
        assert (out[3] - (scalar(1) + I * odd("rho1") * nu1 * r_inv) * odd("psi")).is_zero()


def test_criterion_2_berezin_expansion():
    with _Criterion(2, "linearized action: component Lagrangian and operators", 1.0):
        for n in (1, 2):
            lagrangian = lin.expand_linearized_action(n)
            display = lin.normal_form_dt(lin.displayed_lagrangian(n))
            assert (lagrangian - display).is_zero()
        bcs = lin.derive_boundary_conditions()
        assert {block: bcs[block] for block in zs.PA_BOUNDARY} == zs.PA_BOUNDARY
        assert zs.PA_BOUNDARY["eta2"] == zs.BoundaryCondition.ANTIPERIODIC
        assert bcs["G"] == zs.BoundaryCondition.ANTIPERIODIC


def test_criterion_3_kernel_characterization():
    with _Criterion(3, "supercharge kernel on randomized sections", 5.0):
        detail = vf._check_q_kernel_randomized()
        assert "randomized sections" in detail


def test_criterion_4_series_identities():
    with _Criterion(4, "series identities, exact and numeric to 1e-12", 5.0):
        sinh_candidate, cosh_candidate = vf._exponential_candidates(8)
        assert sinh_candidate.coeffs == cs.series_sinh_half(8).coeffs
        assert cosh_candidate.coeffs == cs.series_cosh_half(8).coeffs
        cosh_full = cs.series_cosh_half(8).rescale_root(2)
        assert cosh_candidate.coefficient(2) != cosh_full.coefficient(2)
        assert cosh_candidate.coeffs[:2] == cosh_full.coeffs[:2]

        log_l = cs.l_series(8).log()
        for k in range(1, 5):
            combo = Fraction(2, 2 * k) * (cs.zeta_over_2pii(2 * k)
                                          - cs.lambda_over_2pii(2 * k))
            assert log_l.coefficient(2 * k) == combo

        for k in range(1, 7):
            assert cs.zeta_over_2pii(2 * k) == \
                -cs.bernoulli(2 * k) / (2 * math.factorial(2 * k))

        # numeric cross-check: direct million-term summation (smallest terms
        # first) plus the analytic tail of the convergent series
        n_terms = 10 ** 6
        grid = np.arange(n_terms, 0, -1, dtype=np.float64)
        for k in range(1, 7):
            s = 2 * k
            partial = float(np.sum(grid ** (-s)))
            N = float(n_terms)
            tail = N ** (1 - s) / (s - 1) - N ** (-s) / 2 + s * N ** (-s - 1) / 12
            numeric = (-1.0) ** k * (partial + tail) / (2 * math.pi) ** s
            exact = float(cs.zeta_over_2pii(s))
            assert abs(numeric - exact) < 1e-12, (k, numeric, exact)


def test_criterion_5_regularization():
    with _Criterion(5, "regularized products and mode-sum cross-checks", 5.0):
        for n in range(1, 9):
            power = zs.regularized_product_power(n)
            assert power.coefficient == 1 and power.r_exponent == Fraction(n, 2)

        modes = 10 ** 5
        grid = np.arange(modes, 0, -1, dtype=np.float64)
        for k in (1, 2, 3):
            s = 2 * k
            # periodic: nonzero integer modes
            partial = float(np.sum(grid ** (-s)))
            N = float(modes)
            tail = N ** (1 - s) / (s - 1) - N ** (-s) / 2 + s * N ** (-s - 1) / 12
            numeric = 2.0 * (-1.0) ** k * (partial + tail) / (2 * math.pi) ** s
            exact = float(zs.trace_inv_power(zs.BoundaryCondition.PERIODIC, s).coefficient)
            assert abs(numeric - exact) < 1e-8, ("periodic", k)
            # antiperiodic: half-integer modes
            partial_h = float(np.sum((grid - 0.5) ** (-s)))
            edge = N + 0.5
            tail_h = edge ** (1 - s) / (s - 1) + edge ** (-s) / 2 + s * edge ** (-s - 1) / 12
            numeric_h = 2.0 * (-1.0) ** k * (partial_h + tail_h) / (2 * math.pi) ** s
            exact_h = float(zs.trace_inv_power(zs.BoundaryCondition.ANTIPERIODIC, s).coefficient)
            assert abs(numeric_h - exact_h) < 1e-8, ("antiperiodic", k)


def test_criterion_6_superdeterminant_core():
    with _Criterion(6, "superdeterminant equals the signature class", 5.0):
        for K in (1, 2, 3, 4):
            target = cs.l_class_in_ph(K)
            for n in range(1, 9):
                assert zs.sdet_formal(n, K) == target, (n, K)
            assert zs.sdet_formal(4, K, pp=True) == cs.GradedPolynomial.one(K, "ph")
        converted = cs.powersums_to_pontryagin(zs.sdet_formal(4, 2))
        p1 = cs.GradedPolynomial.generator(1, 2, "p")
        p2 = cs.GradedPolynomial.generator(2, 2, "p")
        assert converted.weight_component(1) == Fraction(1, 3) * p1
        assert converted.weight_component(2) == Fraction(1, 45) * (7 * p2 - p1 * p1)


def test_criterion_7_concrete_curvature():
    with _Criterion(7, "concrete Grassmann curvature equals formal substitution", 5.0):
        matrix = zs.demo_curvature()
        concrete = zs.sdet_concrete(matrix)
        phs = [zs.curvature_to_ph(matrix, k) for k in (1, 2)]
        formal = zs.substitute_ph(zs.sdet_formal(4, 2), phs)
        assert (concrete - formal).is_zero()
        assert not (concrete - scalar(1)).is_zero()


def test_criterion_8_signature_checks():
    with _Criterion(8, "signature genus on the builtin manifolds", 5.0):
        expected = {"cp2": 1, "cp4": 1, "hp2": 1, "k3": -16,
                    "cp2xcp2": 1, "k3xcp2": -16}
        for name, signature in expected.items():
            genus = mf.l_genus(mf.builtin(name))
            assert genus == signature, name
            assert genus.denominator == 1  # integer-exact
        for name in ("cp2", "cp4", "hp2", "k3", "cp2xcp2"):
            model = mf.builtin(name)
            assert mf.pushforward(model.one(), model) == mf.l_genus(model)


def test_criterion_9_cli_determinism(capsys):
    with _Criterion(9, "byte-identical JSON over repeated runs", 5.0):
        blobs = []
        for _ in range(2):
            code = cli.main(["sdet", "--n", "4", "--k", "4", "--format", "json"])
            assert code == 0
            blobs.append(capsys.readouterr().out.encode())
        assert blobs[0] == blobs[1]
        for _ in range(2):
            code = cli.main(["verify", "--format", "json"])
            assert code == 0
            blobs.append(capsys.readouterr().out.encode())
        assert blobs[2] == blobs[3]
        payload = json.loads(blobs[2])
        assert payload["passed"] is True
