import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from supersdet.gaussian import GaussianRational
from supersdet.grassmann import GrassmannElement, even, odd, scalar
from supersdet import linearization as lin
from supersdet.zeta import BoundaryCondition as BC, PA_BOUNDARY


def test_berezin_normalization_and_linearity():
    th1, th2 = odd("theta1"), odd("theta2")
    assert lin.berezin_integrate(th1 * th2) == scalar(1)
    assert lin.berezin_integrate(scalar(4) + th1 * odd("w")).is_zero()
    f = 2 * th1 * th2 + even("t") * th1 * th2 + th1
    assert (lin.berezin_integrate(f) - (scalar(2) + even("t"))).is_zero()
    g = odd("w") * th1 * th2
    assert (lin.berezin_integrate(g) - odd("w")).is_zero()


SPECTATORS = tuple(f"s{i}" for i in range(8))


def grassmann_elements(generators, keep=lambda names: True):
    """Random sums of c * (distinct generators, in drawn order) * t^e."""
    term = st.tuples(st.builds(GaussianRational, st.integers(-4, 4), st.integers(-4, 4)),
                     st.lists(st.sampled_from(generators), unique=True).filter(keep),
                     st.integers(0, 2))
    return st.lists(term, max_size=12).map(lambda ts: sum(
        (math.prod(map(odd, names), start=c * even("t", e)) for c, names, e in ts),
        GrassmannElement()))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(grassmann_elements(SPECTATORS),
       grassmann_elements(SPECTATORS + ("theta1", "theta2"),
                          lambda names: not {"theta1", "theta2"} <= set(names)))
def test_berezin_integral_reads_the_top_pair_coefficient(g, h):
    th1, th2 = odd("theta1"), odd("theta2")
    assert lin.berezin_integrate(g * th1 * th2 + h) == g


def test_time_derivative_bumps_orders():
    a0 = lin.component("a", 1, 0)
    assert (lin.time_derivative(a0) - lin.component("a", 1, 1)).is_zero()
    prod = lin.component("eta1", 1, 0) * lin.component("eta1", 2, 0)
    dprod = lin.time_derivative(prod)
    expected = lin.component("eta1", 1, 1) * lin.component("eta1", 2, 0) \
        + lin.component("eta1", 1, 0) * lin.component("eta1", 2, 1)
    assert (dprod - expected).is_zero()
    # curvature entries are constant in time
    assert lin.time_derivative(lin.curvature_entry(1, 2)).is_zero()


def test_normal_form_integration_by_parts():
    # |a'|^2 == -<a, a''> modulo total derivatives
    sq = lin.component("a", 1, 1) * lin.component("a", 1, 1)
    target = -1 * lin.component("a", 1, 0) * lin.component("a", 1, 2)
    assert (lin.normal_form_dt(sq) - lin.normal_form_dt(target)).is_zero()
    # <eta', eta> == -<eta, eta'> for odd components
    lhs = lin.component("eta2", 1, 1) * lin.component("eta2", 1, 0)
    rhs = -1 * lin.component("eta2", 1, 0) * lin.component("eta2", 1, 1)
    assert (lin.normal_form_dt(lhs) - lin.normal_form_dt(rhs)).is_zero()
    # a total derivative reduces to zero... d/dt(a a') = a'a' + a a''
    total = lin.component("a", 1, 1) * lin.component("a", 1, 1) \
        + lin.component("a", 1, 0) * lin.component("a", 1, 2)
    assert lin.normal_form_dt(total).is_zero()


# Normal forms after the odd component names are interned in reverse-sorted
# order, so the eta2 slots hold lower bits than the eta1 slots.
NORMAL_FORMS_RUN = r"""
import json
from supersdet import grassmann
from supersdet import linearization as lin

order = ["eta201.1", "eta201.0", "eta101.1", "eta101.0"]
for name in order:
    grassmann.odd(name)
c = lin.component
cases = [
    (c("eta1", 1, 1) * c("eta2", 1, 0), -1 * c("eta1", 1, 0) * c("eta2", 1, 1)),
    (c("eta2", 1, 0) * c("eta1", 1, 1), c("eta1", 1, 0) * c("eta2", 1, 1)),
    (c("a", 2, 0) * c("a", 1, 1), -1 * c("a", 1, 0) * c("a", 2, 1)),
]
print(json.dumps({"interned": grassmann._NAMES[:len(order)] == order,
                  "forms": [[str(lin.normal_form_dt(term)), str(want)] for term, want in cases]}))
"""


def test_normal_form_orders_the_pair_by_component_not_by_bit():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", NORMAL_FORMS_RUN],
                          capture_output=True, text=True, env=env, check=True)
    result = json.loads(proc.stdout)
    assert result["interned"]
    for got, want in result["forms"]:
        assert got == want


def test_normal_form_rejects_odd_spectator():
    term = odd("theta1") * odd("theta2") \
        * lin.component("a", 1, 0) * lin.component("a", 1, 1)
    with pytest.raises(ValueError, match="odd spectator"):
        lin.normal_form_dt(term)


def test_curvature_entry_antisymmetry():
    assert (lin.curvature_entry(1, 2) + lin.curvature_entry(2, 1)).is_zero()
    assert lin.curvature_entry(3, 3).is_zero()


def test_boundary_conditions_from_the_holonomy():
    bcs = lin.derive_boundary_conditions()
    assert bcs == {
        "a": BC.PERIODIC,
        "eta1": BC.PERIODIC,
        "eta2": BC.ANTIPERIODIC,
        "G": BC.ANTIPERIODIC,
    }


def _flat_part(element):
    """The terms free of curvature symbols: the Lagrangian at R = 0."""
    return GrassmannElement({key: c for key, c in element.terms.items()
                             if not any(name.startswith("Rc") for name, _ in key[1])})


@pytest.mark.parametrize("n", [1, 2, 3])
def test_flat_expansion_matches_free_lagrangian(n):
    lagrangian = lin.expand_linearized_action(n)
    display = lin.normal_form_dt(lin.displayed_lagrangian(n))
    assert (_flat_part(lagrangian) - _flat_part(display)).is_zero()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_curved_expansion_matches_displayed_lagrangian(n):
    lagrangian = lin.expand_linearized_action(n)
    display = lin.normal_form_dt(lin.displayed_lagrangian(n))
    assert (lagrangian - display).is_zero()
    assert (lagrangian - lin.normal_form_dt(lin.quadratic_form(n))).is_zero()


def test_emitted_operators_and_boundary_conditions():
    bcs = lin.derive_boundary_conditions()
    assert {block: bcs[block] for block in PA_BOUNDARY} == PA_BOUNDARY
    assert PA_BOUNDARY == {"a": BC.PERIODIC, "eta1": BC.PERIODIC, "eta2": BC.ANTIPERIODIC}


def test_lagrangian_is_quadratic_normal_form():
    lagrangian = lin.expand_linearized_action(2)
    # every term carries exactly two component symbols, the first without
    # derivatives; reapplying the normal form is idempotent
    again = lin.normal_form_dt(lagrangian)
    assert (again - lagrangian).is_zero()
