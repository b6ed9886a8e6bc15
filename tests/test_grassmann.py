import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from supersdet.gaussian import GaussianRational, I
from supersdet.grassmann import GrassmannElement, even, odd, scalar


def random_element(rng, odd_names, even_names, terms=3):
    acc = GrassmannElement()
    for _ in range(terms):
        coeff = GaussianRational(rng.randrange(-4, 5), rng.randrange(-2, 3))
        factor = scalar(coeff)
        for name in rng.sample(odd_names, rng.randrange(0, len(odd_names) + 1)):
            factor = factor * odd(name)
        for name in even_names:
            factor = factor * even(name, rng.randrange(0, 3))
        acc = acc + factor
    return acc


def test_odd_generators_anticommute_and_square_to_zero():
    a, b = odd("a"), odd("b")
    assert (a * b + b * a).is_zero()
    assert (a * a).is_zero()
    assert (a * b) == -(b * a)


def test_even_variables_commute_with_everything():
    t, th = even("t"), odd("th")
    assert (t * th - th * t).is_zero()
    assert even("r", 1) * even("r", -1) == scalar(1)


def test_ring_axioms_on_random_elements():
    rng = random.Random(42)
    names_o = ["p", "q", "s"]
    names_e = ["t", "u"]
    for _ in range(25):
        x = random_element(rng, names_o, names_e)
        y = random_element(rng, names_o, names_e)
        z = random_element(rng, names_o, names_e)
        assert ((x * y) * z - x * (y * z)).is_zero()
        assert (x * (y + z) - (x * y + x * z)).is_zero()
        assert ((x + y) * z - (x * z + y * z)).is_zero()


def test_parity_of_homogeneous_products():
    a, b = odd("a"), odd("b")
    assert a.parity() == 1
    assert (a * b).parity() == 0
    assert (scalar(2) + a * b).parity() == 0
    assert (a + a * b).parity() is None


def test_odd_derivative_is_an_odd_derivation():
    a, b, c = odd("a"), odd("b"), odd("c")
    f = a * b
    g = b * c
    lhs = (f * g).derivative_odd("b")
    # Leibniz with sign: d(fg) = df g + (-1)^{|f|} f dg
    rhs = f.derivative_odd("b") * g + f * g.derivative_odd("b")  # f even
    assert (lhs - rhs).is_zero()
    assert (a * b).derivative_odd("b") == -a
    assert (b * a).derivative_odd("b") == a


def test_even_derivation_leibniz():
    t = even("t")
    f = t * t * odd("a")
    images = {"t": scalar(1)}
    assert (f.derive_even(images) - 2 * t * odd("a")).is_zero()
    # negative exponents differentiate correctly
    g = even("r", -1)
    assert (g.derive_even({"r": scalar(1)}) + even("r", -2)).is_zero()
    # generator renaming acts in place without Koszul signs
    h = odd("a") * odd("b")
    bumped = h.derive_even({"a": odd("a2")})
    assert (bumped - odd("a2") * odd("b")).is_zero()
    assert h.derive_even({"b": odd("b2")}) == odd("a") * odd("b2")
    # d/dt t^a = a t^(a-1), also beside odd factors and other variables
    for a in range(1, 5):
        f = odd("a") * even("t", a) * even("x")
        assert f.derivative_even("t") == a * odd("a") * even("t", a - 1) * even("x")


def test_substitute_odd():
    a, b, c = odd("a"), odd("b"), odd("c")
    f = a * b + b * c
    out = f.substitute_odd("b", c)
    assert (out - a * c).is_zero()  # c*c dies
    killed = f.substitute_odd("b", scalar(0))
    assert killed.is_zero()
    with pytest.raises(ValueError):
        f.substitute_odd("b", even("t"))


def test_top_pair_extraction():
    # the coefficient g of f = ... + g*theta1*theta2 is d/dtheta2 d/dtheta1 f
    th1, th2, w = odd("theta1"), odd("theta2"), odd("w")
    assert (th1 * th2).derivative_odd("theta1").derivative_odd("theta2") == scalar(1)
    assert (th2 * th1).derivative_odd("theta1").derivative_odd("theta2") == scalar(-1)
    f = w * th1 * th2
    assert (f.derivative_odd("theta1").derivative_odd("theta2") - w).is_zero()
    assert scalar(7).derivative_odd("theta1").derivative_odd("theta2").is_zero()
    assert f.derivative_odd("theta1").derivative_odd("theta1").is_zero()  # theta1^2 = 0


def test_invert_unit():
    r = even("r")
    x = 2 * r * (scalar(1) + odd("a") * odd("b") * even("r", -1))
    assert (x * x.invert_unit() - scalar(1)).is_zero()
    with pytest.raises(ValueError):
        (r + even("t")).invert_unit()


def test_canonical_rendering_is_stable():
    f = even("t", 2) * odd("b") * odd("a") + scalar(Fraction(1, 2))
    # sorted generators with the permutation sign absorbed
    assert str(f) == "(1/2) + (-1)*a*b*t^2"
    assert str(GrassmannElement()) == "0"
    g = I * odd("a") * odd("b")
    assert str(g) == "(1i)*a*b"


def test_elements_are_unhashable():
    # scalar(1) == 1, so no hash could agree with equality
    assert scalar(1) == 1
    with pytest.raises(TypeError):
        hash(scalar(1))


# Runs the CLI and concrete superdeterminants after interning the names
# given in argv[1], and prints the output and the generator table as JSON.
INTERNING_RUN = r"""
import contextlib, io, json, random, sys
from fractions import Fraction
from supersdet import cli, grassmann, zeta
from supersdet.gaussian import GaussianRational

for name in json.loads(sys.argv[1]):
    grassmann.odd(name)
out = io.StringIO()
with contextlib.redirect_stdout(out):
    cli.main(["verify", "--format", "json"])
    cli.main(["sdet", "--n", "4", "--k", "4", "--mode", "concrete"])
    cli.main(["sdet", "--n", "4", "--k", "4", "--mode", "concrete", "--pp"])
    for seed in range(4):
        rng = random.Random(seed)
        n, g = 4 + seed % 2, 12
        psi = [grassmann.odd(f"psi{a}") for a in rng.sample(range(g), g)]
        coeffs = [-2, 1, Fraction(1, 2), GaussianRational(1, Fraction(2, 3))]
        rows = [[grassmann.scalar(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                a, b, c, d = rng.sample(range(g), 4)
                e = rng.choice(coeffs) * psi[a] * psi[b] + rng.choice(coeffs) * psi[c] * psi[d]
                rows[i][j], rows[j][i] = e, -e
        print(zeta.sdet_concrete(zeta.CurvatureMatrix(rows)))
print(json.dumps({"output": out.getvalue(), "names": grassmann._NAMES}))
"""


def _interning_run(names):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", INTERNING_RUN, json.dumps(names)],
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout)


def test_output_does_not_depend_on_interning_order():
    plain = _interning_run([])
    reverse = sorted(plain["names"], reverse=True)
    assert plain["names"] != reverse
    interned = _interning_run(reverse)
    # every generator the run used had its bit before the run began
    assert interned["names"] == reverse
    assert interned["output"] == plain["output"]
    assert '"passed":true' in plain["output"] and "psi" in plain["output"]
