"""A catalogue of planted faults: measured evidence that `verify` cannot pass
by accident.

Each entry names a library file, an exact source snippet, its replacement,
and the verify checks that then read FAIL, exactly: a killer lost among
several shows as a mismatch.  The mutant is a temporary copy of src/ with
that one replacement, and `python -O -m supersdet.cli verify --format json`
runs on it in a subprocess; the mutants run together, at most one per CPU.  A snippet must occur exactly once, so the catalogue
breaks loudly when the code moves.

A mutant that no verify check kills is a known survivor: its entry names no
check, says in a comment why verify cannot see it, and names the unit test
that does kill it.  The catalogue asserts that verify still passes on it and
that the unit test fails; once verify gains a check that kills it, the entry
must name that check instead.
"""

import json
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import FrozenSet, NamedTuple, Optional, Tuple

import pytest

from supersdet.verify import SUITES

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class Fault(NamedTuple):
    file: str
    snippet: str
    replacement: str
    killed_by: FrozenSet[str]
    survivor_test: str = ""  # "module::function" of the unit test that kills a survivor


FAULTS = {
    # the even partial with the exponent dropped: d/dt t^a = t^{a-1}
    "even-partial-factor": Fault(
        "grassmann.py",
        "= coeff * exp",
        "= coeff",
        frozenset({"odd derivations square to -i d/dt"})),
    # the even partial of an odd generator is zero: the abstract time
    # derivative no longer moves the odd components
    "derive-even-odd-partial": Fault(
        "grassmann.py",
        """(self.derivative_odd(name) if name in odd_names
                             else self.derivative_even(name))""",
        "self.derivative_even(name)",
        frozenset({"linearized action expansion"})),
    # a twist that fixes theta2 makes every component periodic
    "boundary-twist-sign": Fault(
        "linearization.py",
        'substitute_odd("theta2", -odd("theta2"))',
        'substitute_odd("theta2", odd("theta2"))',
        frozenset({"linearized action expansion"})),
    "berezin-derivative-order": Fault(
        "linearization.py",
        'return f.derivative_odd("theta1").derivative_odd("theta2")',
        'return f.derivative_odd("theta2").derivative_odd("theta1")',
        frozenset({"Berezin integral normalization", "linearized action expansion"})),
    # the log(x/tanh x) coefficients, which the signature class reads in
    # either basis
    "l-class-log-sign": Fault(
        "series.py",
        "return list(l_series_doubled_root(2 * K).log().coeffs[2::2])",
        "return [-c for c in l_series_doubled_root(2 * K).log().coeffs[2::2]]",
        frozenset({"L-polynomials against brute force",
                   "superdeterminant equals the signature class"})),
    # exp is shared by sdet and the oracle, so an exp with a wrong recurrence
    # coefficient keeps sdet == L: the checks against a brute-force product
    # see it, among them sdet at random roots, and the Newton round trip,
    # since the images e_i(ph) are weight parts of an exp and the inverse
    # images ph_k(p) are not
    "exp-recurrence-scale": Fault(
        "series.py",
        "lambda j, w: j * math.perm(w - 1, j - 1)",
        "lambda j, w: math.perm(w - 1, j - 1)",
        frozenset({"L-polynomials against brute force", "Newton conversions invertible",
                   "degree parts in Pontryagin classes",
                   "superdeterminant equals the signature class"})),
    "exp-piece-denominator": Fault(
        "series.py",
        "[math.factorial(w) * B ** w for w",
        "[math.factorial(w) * B for w",
        frozenset({"L-polynomials against brute force", "Whitney multiplicativity",
                   "superdeterminant equals the signature class",
                   "degree parts in Pontryagin classes", "concrete curvature cross-check"})),
    # the oracle substitutes nothing, so sdet == L cannot see it
    "substitute-image-scale": Fault(
        "series.py",
        "[d * D ** w for w",
        "[d * D for w",
        frozenset({"Newton conversions invertible", "degree parts in Pontryagin classes"})),
    "substitute-prefix-reuse": Fault(
        "series.py",
        "del products[shared + 1:]",
        "del products[shared:]",
        frozenset({"L-polynomials against brute force", "Newton conversions invertible",
                   "Whitney multiplicativity", "superdeterminant equals the signature class",
                   "degree parts in Pontryagin classes", "concrete curvature cross-check"})),
    "packed-key-shift": Fault(
        "series.py",
        "shift = nvars.bit_length()",
        "shift = nvars.bit_length() - 1",
        frozenset({"L-polynomials against brute force", "Newton conversions invertible",
                   "superdeterminant equals the signature class",
                   "Whitney multiplicativity", "degree parts in Pontryagin classes"})),
    "cosh-root-scale": Fault(
        "verify.py",
        "cosh_full = cs.series_cosh_half(8).rescale_root(Fraction(2))",
        "cosh_full = cs.series_cosh_half(8).rescale_root(Fraction(1))",
        frozenset({"exponential product identities"})),
    # one sign per dx factor: closedness, the kernel of Q and Q^2 are linear
    # in a monomial, so only its pin against explicit products sees it (with
    # 1 and 3 factors; with 2 the signs cancel)
    "monomial-sign": Fault(
        "sections.py",
        "out = out * d_coordinate(i)",
        "out = -(out * d_coordinate(i))",
        frozenset({"square of the supercharge"})),
    # an odd power mirrored without its sign: the traces read R^3 first in
    # Tr(R^5) = Tr(R^3 R^2), which only the seeded 4x4 over 12 generators
    # reaches; the fault makes that odd trace nonzero
    "odd-power-mirror-sign": Fault(
        "zeta.py",
        "{key: (-re, -im) for key, (re, im) in entry.items()} if odd_power else entry",
        "entry",
        frozenset({"trace termination and antisymmetry"})),
    # Tr(R^{2b}) = (-1)^b [sum_i (R^b)_ii^2 + 2 sum_{i<k} (R^b)_ik^2]: the
    # off-diagonal pairs counted once, and the sign (-1)^b dropped; concrete
    # and formal read the same traces, so only the hand values see them (the
    # sign only in the two-pair cycle's Tr(R^2) against explicit products)
    "trace-fold-doubling": Fault(
        "zeta.py",
        "(2 * re, 2 * im)",
        "(re, im)",
        frozenset({"concrete curvature cross-check"})),
    # the sign rides on the denominator each trace coefficient leaves the
    # kernel over, through gaussian.from_parts
    "trace-fold-sign": Fault(
        "zeta.py",
        "(-1) ** b * self._denominator ** m",
        "self._denominator ** m",
        frozenset({"concrete curvature cross-check"})),
    # the diagonal of an even power left unbuilt: the demo's R^3 is zero and
    # the 4-cycle's R^2 has a zero diagonal, so only the cycle with two
    # generator pairs per entry, against explicit products, sees it
    "even-power-diagonal-skipped": Fault(
        "zeta.py",
        "range(i + odd_power, n)",
        "range(i + 1, n)",
        frozenset({"concrete curvature cross-check"})),
    # past the generator bound every trace is zero, not Tr(R^2)
    "trace-past-zero-power": Fault(
        "zeta.py",
        "return GrassmannElement()",
        "return self.matrix_power_trace(2)",
        frozenset({"trace termination and antisymmetry", "concrete curvature cross-check"})),
    # a bound that drops Tr(R^m) at 2m = g, where its terms hold every
    # generator; 2 * m > read as m > is equivalent, and only slower
    "trace-generator-bound": Fault(
        "zeta.py",
        "if 2 * m > self._generators:",
        "if 2 * m >= self._generators:",
        frozenset({"concrete curvature cross-check", "trace termination and antisymmetry"})),
    # a term of Tr(R^{2k}) holds 4k generators; with g // 8 the 4-cycle over
    # 8 generators drops its Tr(R^4) term, the demo over 4 keeps k = 1
    "trace-bound": Fault(
        "zeta.py",
        "self._generators // 4",
        "self._generators // 8",
        frozenset({"concrete curvature cross-check"})),
    # Q(i) on (a + b i)/d.  Two known survivors (CHANGES.md, the FOUND on the
    # Q(i) faults verify cannot see).  A result left unreduced keeps its
    # value: verify decides every identity by subtraction and is_zero, which
    # reads any (a, b, d) with d > 0 correctly, and prints through .re and
    # .im, which reduce; only GaussianRational's == and hash read the fields.
    # Verify divides in Q(i) only by the real body coefficient of
    # invert_unit, where the conjugate's sign drops out.
    "gaussian-gcd-skipped": Fault(
        "gaussian.py",
        "g = gcd(a, b, d)",
        "g = 1",
        frozenset(),
        "test_gaussian::test_results_are_canonical"),
    "gaussian-conjugate-sign": Fault(
        "gaussian.py",
        "(b1 * a2 - a1 * b2)",
        "(b1 * a2 + a1 * b2)",
        frozenset(),
        "test_gaussian::test_i_squares_to_minus_one"),
    # a/d + c/d read as (a + c)/(d + d), on one denominator only
    "gaussian-add-same-denominator": Fault(
        "gaussian.py",
        "return _reduced(self._real + a, self._imag + b, d)",
        "return _reduced(self._real + a, self._imag + b, d + d)",
        frozenset({"action on field data", "concrete curvature cross-check",
                   "descent of translations", "square of the supercharge"})),
    # a Fraction factor that keeps only its numerator: the concrete route
    # scales its traces by proper Fractions (curvature_to_ph, fredholm_log_det)
    "gaussian-fraction-factor": Fault(
        "gaussian.py",
        "self._den * other.denominator",
        "self._den",
        frozenset({"concrete curvature cross-check"})),
    # the inverse of the source projection, o1 = theta + rho1 t / r
    "base-map-sign": Fault(
        "superspace.py",
        "o1_sub = theta + rho1 * even(_FRESH[0]) * r_inv",
        "o1_sub = theta - rho1 * even(_FRESH[0]) * r_inv",
        frozenset({"induced map on the odd line", "action on field data"})),
    "odd-mode-sum-sign": Fault(
        "series.py",
        "(Fraction(2) ** two_k - 1) * zeta_over_2pii(two_k)",
        "(Fraction(2) ** two_k + 1) * zeta_over_2pii(two_k)",
        frozenset({"Bernoulli and even zeta values", "exponential product identities",
                   "log of the characteristic series", "inverse-power mode traces",
                   "superdeterminant equals the signature class",
                   "degree parts in Pontryagin classes", "concrete curvature cross-check"})),
    # s_k = (2k)! ph_k, read by l_class_in_ph and the images e_i(ph)
    "newton-power-sum-scale": Fault(
        "series.py",
        'math.factorial(2 * k) * GradedPolynomial.generator(k, K, "ph")',
        'math.factorial(2 * k - 1) * GradedPolynomial.generator(k, K, "ph")',
        frozenset({"Newton conversions invertible",
                   "superdeterminant equals the signature class"})),
    # log(1 + y) read as -log(1 - y) turns the images e_i(ph) into the
    # complete symmetric h_i(ph); only the p -> ph direction reads them, and
    # the oracle converts nothing
    "elementary-log-sign": Fault(
        "series.py",
        "Fraction((-1) ** (k - 1), k)",
        "Fraction(1, k)",
        frozenset({"Newton conversions invertible"})),
    # the demo has ph_2 = 0, so a skip that drops every monomial once any
    # value is zero loses the whole formal substitution
    "zero-skip-everything": Fault(
        "series.py",
        "if not any(e[i] for i in zeros)]",
        "if not zeros]",
        frozenset({"concrete curvature cross-check"})),
    # the boundary table the superdeterminant and the linearization read
    "pa-boundary-eta2": Fault(
        "zeta.py",
        '"eta2": BoundaryCondition.ANTIPERIODIC,',
        '"eta2": BoundaryCondition.PERIODIC,',
        frozenset({"linearized action expansion", "superdeterminant equals the signature class",
                   "degree parts in Pontryagin classes", "concrete curvature cross-check"})),
    "ph-scale-power": Fault(
        "zeta.py",
        "* 4 ** k",
        "* 2 ** k",
        frozenset({"superdeterminant equals the signature class",
                   "degree parts in Pontryagin classes"})),
    "free-r-exponent-order": Fault(
        "zeta.py",
        "det = n * regularized_product_power(4).r_exponent",
        "det = n * regularized_product_power(2).r_exponent",
        frozenset({"radius cancellation"})),
    "zeta-at-zero": Fault(
        "zeta.py",
        "zeta_at_0 = Fraction(-1, 2)",
        "zeta_at_0 = Fraction(-1, 3)",
        frozenset({"regularized free products"})),
    "pp-eta2": Fault(
        "zeta.py",
        "eta2 = BoundaryCondition.PERIODIC if pp",
        "eta2 = BoundaryCondition.ANTIPERIODIC if pp",
        frozenset({"periodic-periodic sector"})),
    "supercharge-d-sign": Fault(
        "sections.py",
        "return GrassmannElement._of(out) - d(s)",
        "return GrassmannElement._of(out) + d(s)",
        frozenset({"square of the supercharge"})),
    # i * weight * c read as -i * weight * c
    "supercharge-i-sign": Fault(
        "sections.py",
        "c * weight * I",
        "c * weight * -I",
        frozenset({"square of the supercharge"})),
    "supercharge-weight-q": Fault(
        "sections.py",
        "weight = (mask.bit_count() - 2 * q)",
        "weight = (mask.bit_count() - q)",
        frozenset({"kernel of the supercharge (randomized)", "cocycle map"})),
    "grade-mod-2": Fault(
        "sections.py",
        "{mask.bit_count() % 4 for",
        "{mask.bit_count() % 2 for",
        frozenset({"line bundle weights"})),
    "cocycle-two-pi-sign": Fault(
        "sections.py",
        "TwoPiPower(Fraction(1), -Fraction(k, 2))",
        "TwoPiPower(Fraction(1), Fraction(k, 2))",
        frozenset({"cocycle map"})),
    # the law with -i o2 o2' is still a group on which T acts by
    # automorphisms, and nu2 still blocks descent; what it breaks is that
    # D_2 = d/dtheta2 - i theta2 d/dt commutes with left translation
    "group-law-sign": Fault(
        "superspace.py",
        "+ I * o2 * u2",
        "- I * o2 * u2",
        frozenset({"super translation group law"})),
    "inverse-keeps-t": Fault(
        "superspace.py",
        "return point_r12(-p.even_part, -p.odd_parts[0], -p.odd_parts[1])",
        "return point_r12(p.even_part, -p.odd_parts[0], -p.odd_parts[1])",
        frozenset({"super translation group law", "descent of translations",
                   "induced map on the odd line", "action on field data"})),
    "r11-without-i": Fault(
        "superspace.py",
        "return (u + up + I * v * vp, v + vp)",
        "return (u + up + v * vp, v + vp)",
        frozenset({"1|1 inclusion homomorphism (i-convention pinned)", "action on field data"})),
    "rp-keeps-t": Fault(
        "superspace.py",
        "(-1) ** (g.plus + g.minus) * p.even_part,",
        "p.even_part,",
        frozenset({"time reversal acts by automorphisms (t -> -t pinned)",
                   "descent of time reversals",
                   "1|1 inclusion homomorphism (i-convention pinned)"})),
    # i^{a+b+2} on the second odd coordinate: rp and rm negate it where
    # they should multiply it by i
    "rp-second-odd-sign": Fault(
        "superspace.py",
        "_I_POWERS[(g.plus + g.minus) % 4] * p.odd_parts[1]",
        "_I_POWERS[(g.plus + g.minus + 2) % 4] * p.odd_parts[1]",
        frozenset({"time reversal group relations", "descent of translations"})),
    # without the fold rm^2 = rp^2 the product rm * rm is the identity
    "rm-squared-fold": Fault(
        "superspace.py",
        "(plus + minus - minus % 2) % 4",
        "plus % 4",
        frozenset({"time reversal group relations"})),
    # TimeReversal(3, b) folded to TimeReversal(0, b): no product of two
    # generators reaches plus = 3, so only the faithfulness of T sees it
    "normal-form-modulus": Fault(
        "superspace.py",
        "minus % 2) % 4, minus % 2",
        "minus % 2) % 3, minus % 2",
        frozenset({"time reversal group relations"})),
    "right-d-sign": Fault(
        "superspace.py",
        "return f.derivative_odd(name) - I * odd(name) * d_t(f)",
        "return f.derivative_odd(name) + I * odd(name) * d_t(f)",
        frozenset({"odd derivations square to -i d/dt", "super translation group law"})),
    "left-d-sign": Fault(
        "superspace.py",
        "return f.derivative_odd(name) + I * odd(name) * d_t(f)",
        "return f.derivative_odd(name) - I * odd(name) * d_t(f)",
        frozenset({"left-invariant sign flip"})),
    "projection-sign": Fault(
        "superspace.py",
        "return p.odd_parts[0] - rho1 * p.even_part * r.invert_unit()",
        "return p.odd_parts[0] + rho1 * p.even_part * r.invert_unit()",
        frozenset({"projection invariance under the lattice", "induced map on the odd line",
                   "action on field data"})),
    # each step of the descent generator: the image is iso(L) with the
    # base-point-preserving iso, the equation is tested with iso(L) itself,
    # and the reported generator is iso(L) times the sign of its r-coefficient
    "descent-image-not-conjugated": Fault(
        "superspace.py",
        "point_r12(r, rho1, 0), True)",
        "point_r12(r, rho1, 0), False)",
        frozenset({"descent of translations", "induced map on the odd line",
                   "action on field data"})),
    "descent-generator-unoriented": Fault(
        "superspace.py",
        "(orientation * t, orientation * o1)",
        "(t, o1)",
        frozenset({"descent of time reversals"})),
    "descent-equation-oriented": Fault(
        "superspace.py",
        "twist, p, True), (t, o1))",
        "twist, p, True), (orientation * t, orientation * o1))",
        frozenset({"descent of time reversals", "induced map on the odd line"})),
    "orientation-sign": Fault(
        "superspace.py",
        "return 1 if coeff.re > 0 else -1",
        "return -1 if coeff.re > 0 else 1",
        frozenset({"descent of translations", "descent of time reversals",
                   "action on field data"})),
}


# the verify checks that no entry's killed_by names: coverage can only grow,
# and a check that a new entry kills leaves this set
UNCOVERED = frozenset()


def test_uncovered_checks_only_shrink():
    checks = {name for suite in SUITES.values() for name, _func in suite}
    covered = set().union(*(fault.killed_by for fault in FAULTS.values()))
    assert covered <= checks, sorted(covered - checks)
    assert checks - covered == UNCOVERED, sorted(checks - covered)


def _copy_src(tmp_path: Path) -> Path:
    src = tmp_path / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def _python(src: Path, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, *args], cwd=src.parent, env=env,
                          capture_output=True, text=True, timeout=300)


def _failed_checks(src: Path) -> set:
    run = _python(src, "-O", "-m", "supersdet.cli", "verify", "--format", "json")
    assert run.returncode in (0, 1), run.stderr
    failed = {c["name"] for c in json.loads(run.stdout)["checks"] if not c["passed"]}
    assert (run.returncode == 1) == bool(failed)
    return failed


def test_unmutated_copy_passes(tmp_path):
    assert _failed_checks(_copy_src(tmp_path)) == set()


def _run_mutant(tmp_path: Path, fault: Fault) -> Tuple[set, Optional[subprocess.CompletedProcess]]:
    """Plant the fault in a copy of src/ and run verify on it; for a survivor
    that verify passes, run its unit test there too."""
    src = _copy_src(tmp_path)
    target = src / "supersdet" / fault.file
    text = target.read_text(encoding="utf-8")
    assert text.count(fault.snippet) == 1, f"{fault.file} must hold the snippet exactly once"
    target.write_text(text.replace(fault.snippet, fault.replacement), encoding="utf-8")

    failed = _failed_checks(src)
    if not fault.survivor_test or failed:
        return failed, None
    module, function = fault.survivor_test.split("::")
    probe = _python(src, "-c", f"import sys; sys.path.insert(0, {str(ROOT / 'tests')!r}); "
                               f"import {module}; {module}.{function}()")
    return failed, probe


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
    fault = FAULTS[name]
    failed, probe = mutant_runs[name].result()
    if not fault.survivor_test:
        assert fault.killed_by and fault.killed_by == failed, sorted(failed)
        return
    assert not failed, f"verify kills this survivor now, by {sorted(failed)}"
    assert probe.returncode != 0 and "AssertionError" in probe.stderr, probe.stderr
