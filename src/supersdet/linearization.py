"""Berezin expansion of the linearized sigma-model action on PA super circles.

The fluctuation superfield on the 1|2 cover is

    dnu = a + theta1 eta1 + theta2 eta2 + i theta1 theta2 G

with n-component coefficients: a, G even, eta1, eta2 odd, each carrying an
abstract time derivative (a formal symbol index, no relations beyond
Leibniz).  The covariant super derivatives are

    Dc_1 = d/dtheta1 - i theta1 d/dt - theta1 R        (connection term)
    Dc_2 = d/dtheta2 - i theta2 d/dt

with R an antisymmetric constant matrix of even symbols.  Expanding
< Dc_1 dnu, Dc_2 dnu >, extracting the theta-top coefficient and reducing
modulo total time derivatives yields the component Lagrangian.  The flat
Lagrangian is its part free of R.

The verify suite compares that Lagrangian with two targets: the displayed
shape

    |a'|^2 + i <eta2', eta2> - i <R a, a'> + <R eta2, eta2>
           - i <eta1, eta1'> + <G, G>

and the quadratic form of the three kinetic blocks with both curvature
couplings -i (see `quadratic_form`).  This pins the sign of the connection
term (equivalently, the sign convention of the curvature contraction R) and
the overall fiber orientation of the odd integral.  G enters quadratically,
so the Lagrangian fixes the coefficient of the top component only up to the
sign of G.  None of these conventions influence regularized determinants,
which only see even powers of R.

The boundary condition of each component is read off the holonomy of the PA
circle, which fixes theta1 and flips theta2; verify compares the result with
zeta.PA_BOUNDARY, the one table the superdeterminant reads.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Tuple

from .gaussian import I
from .grassmann import GrassmannElement, bit, even, names, odd, scalar, sign
from .zeta import BoundaryCondition

G = GrassmannElement

_COMPONENT = re.compile(r"^(a|G|eta1|eta2)(\d{2})\.(\d+)$")
_ODD_BASES = ("eta1", "eta2")


def component(base: str, index: int, order: int = 0) -> G:
    """The order-th time derivative of component `base`, fiber slot `index`."""
    name = f"{base}{index:02d}.{order}"
    if base in _ODD_BASES:
        return odd(name)
    return even(name)


def _vector(base: str, n: int, order: int = 0) -> List[G]:
    """The n fiber slots of one component at one derivative order."""
    return [component(base, i, order) for i in range(1, n + 1)]


def _parse_component(name: str) -> Optional[Tuple[str, int, int]]:
    m = _COMPONENT.match(name)
    if not m:
        return None
    return (m.group(1), int(m.group(2)), int(m.group(3)))


def curvature_entry(i: int, j: int) -> G:
    """Antisymmetric matrix of even symbols: entry (i, j), 1-based."""
    if i == j:
        return scalar(0)
    if i < j:
        return even(f"Rc{i:02d}_{j:02d}")
    return -even(f"Rc{j:02d}_{i:02d}")


def time_derivative(element: G) -> G:
    """The abstract d/dt: bumps the derivative order of every component
    symbol; thetas and curvature entries are constant."""
    images: Dict[str, G] = {}
    for name in element.even_variables() | element.odd_generators():
        parsed = _parse_component(name)
        if parsed:
            base, idx, order = parsed
            images[name] = component(base, idx, order + 1)
    return element.derive_even(images)


def berezin_integrate(f: G) -> G:
    """Fiberwise odd integration: the coefficient g in f = ... +
    g*theta1*theta2, normalized so the integral of theta1*theta2 is 1.  The
    theta1-derivative of g*theta1*theta2 is (-1)^|g| g*theta2, whose
    theta2-derivative is g; terms without both thetas contribute nothing."""
    return f.derivative_odd("theta1").derivative_odd("theta2")


def fluctuation_field(n: int) -> List[G]:
    th1, th2 = odd("theta1"), odd("theta2")
    return [a + th1 * e1 + th2 * e2 + I * th1 * th2 * g
            for a, e1, e2, g in zip(_vector("a", n), _vector("eta1", n),
                                    _vector("eta2", n), _vector("G", n))]


def _matrix_action(vec: Sequence[G]) -> List[G]:
    n = len(vec)
    return [sum((curvature_entry(i, j) * vec[j - 1] for j in range(1, n + 1)),
                start=scalar(0)) for i in range(1, n + 1)]


def covariant_D1(vec: Sequence[G]) -> List[G]:
    th1 = odd("theta1")
    return [entry.derivative_odd("theta1")
            - I * th1 * time_derivative(entry)
            - th1 * coupled
            for entry, coupled in zip(vec, _matrix_action(vec))]


def covariant_D2(vec: Sequence[G]) -> List[G]:
    th2 = odd("theta2")
    return [entry.derivative_odd("theta2") - I * th2 * time_derivative(entry)
            for entry in vec]


def pairing(a: Sequence[G], b: Sequence[G]) -> G:
    return sum((x * y for x, y in zip(a, b)), start=scalar(0))


# ---------------------------------------------------------------------------
# normal form modulo total time derivatives
# ---------------------------------------------------------------------------

def normal_form_dt(element: G) -> G:
    """Canonical representative modulo total time derivatives for expressions
    quadratic in the component symbols, with even spectators only (the
    curvature entries).  In every term the component factor first in
    (base, slot, order) order carries no derivatives: integration by parts
    moves its d derivatives onto the second factor, with sign (-1)^d.  An
    odd pair is put in that order by the Grassmann reordering sign.
    """
    out = GrassmannElement()
    for (mask, even_mono), coeff in element.terms.items():
        # (component, bit): the bit of an odd factor, 0 for an even one
        comps = [(_parse_component(name), bit(name)) for name in names(mask)]
        if any(parsed is None for parsed, _ in comps):
            raise ValueError(f"odd spectator in {names(mask)}")
        spectators = []
        for name, exp in even_mono:
            parsed = _parse_component(name)
            if parsed is None:
                spectators.append((name, exp))
            elif exp in (1, 2):
                comps.extend([(parsed, 0)] * exp)
            else:
                raise ValueError("component exponent beyond quadratic order")
        if len(comps) != 2:
            raise ValueError(f"term is not quadratic in components: {names(mask)}, {even_mono}")
        if mask.bit_count() == 1:
            raise ValueError("component pair of mixed parity")
        ((b1, i1, d1), m1), ((b2, i2, d2), m2) = sorted(comps)
        # the term's odd monomial is sign(m1, m2) times the ordered pair
        flip = sign(m1, m2) * (-1) ** d1
        spectator = GrassmannElement({(0, tuple(spectators)): coeff * flip})
        out = out + spectator * component(b1, i1) * component(b2, i2, d1 + d2)
    return out


# ---------------------------------------------------------------------------
# boundary conditions from the holonomy
# ---------------------------------------------------------------------------

def derive_boundary_conditions() -> Dict[str, BoundaryCondition]:
    """Periodicity of each component under one loop of the PA circle: the
    holonomy fixes theta1 and flips theta2.  Each component sits in one term
    of the superfield, and the twist keeps or negates that term's
    coefficient, so X(t) = s X(t + r) with s = +1 (periodic) or s = -1
    (antiperiodic)."""
    entry = fluctuation_field(1)[0]
    twisted = entry.substitute_odd("theta2", -odd("theta2")).terms
    out: Dict[str, BoundaryCondition] = {}
    for key, coeff in entry.terms.items():
        # the term's one component symbol names its block
        ((base, _slot, _order),) = [parsed for name in names(key[0]) + [v for v, _ in key[1]]
                                    if (parsed := _parse_component(name))]
        bc = {coeff: BoundaryCondition.PERIODIC,
              -coeff: BoundaryCondition.ANTIPERIODIC}.get(twisted.get(key))
        if bc is None:
            raise RuntimeError(f"holonomy acts on {base} by neither +1 nor -1")
        out[base] = bc
    return out


# ---------------------------------------------------------------------------
# the expansion
# ---------------------------------------------------------------------------

def quadratic_form(n: int) -> G:
    """- <a, D_a a> - i <eta1, D_eta1 eta1> - i <eta2, D_eta2 eta2> + <G, G>
    with D_a = d^2/dt^2 - i R d/dt, D_eta1 = d/dt and D_eta2 = d/dt - i R.

    In the eta2 slot ordering the coupling reads conjugated: R is
    antisymmetric and eta2 odd, so -i <eta2, -i R eta2> = <R eta2, eta2>."""
    a0, e20, g0 = _vector("a", n), _vector("eta2", n), _vector("G", n)
    ra1 = _matrix_action(_vector("a", n, 1))
    re20 = _matrix_action(e20)
    d_a = [a2 - I * r for a2, r in zip(_vector("a", n, 2), ra1)]
    d_e2 = [e21 - I * r for e21, r in zip(_vector("eta2", n, 1), re20)]
    return (-pairing(a0, d_a)
            - I * pairing(_vector("eta1", n), _vector("eta1", n, 1))
            - I * pairing(e20, d_e2)
            + pairing(g0, g0))


def expand_linearized_action(n: int) -> G:
    """The component Lagrangian of the linearized action: the Berezin
    integral of < Dc_1 dnu, Dc_2 dnu >, reduced to its total-derivative
    normal form, whose kinetic blocks are those of `quadratic_form`.  That it
    equals both the displayed shape and that quadratic form, and that the
    boundary conditions read off the holonomy (`derive_boundary_conditions`)
    agree with the table zeta.PA_BOUNDARY the superdeterminant reads, is the
    verify suite's "linearized action expansion" check.
    """
    if n < 1:
        raise ValueError("fiber dimension must be positive")
    dnu = fluctuation_field(n)
    integrand = pairing(covariant_D1(dnu), covariant_D2(dnu))
    # fiber orientation of the odd integral: the sign making the bosonic
    # kinetic term positive (the theta-measure is ordered accordingly)
    return normal_form_dt(-berezin_integrate(integrand))


def displayed_lagrangian(n: int) -> G:
    """The component Lagrangian assembled directly in its displayed shape:

        |a'|^2 + i <eta2', eta2> - i <R a, a'> + <R eta2, eta2>
               - i <eta1, eta1'> + <G, G>

    Used as the frozen target the Berezin route must reproduce modulo total
    derivatives."""
    a1, e20, g0 = _vector("a", n, 1), _vector("eta2", n), _vector("G", n)
    return (pairing(a1, a1)
            + I * pairing(_vector("eta2", n, 1), e20)
            - I * pairing(_matrix_action(_vector("a", n)), a1)
            + pairing(_matrix_action(e20), e20)
            - I * pairing(_vector("eta1", n), _vector("eta1", n, 1))
            + pairing(g0, g0))
