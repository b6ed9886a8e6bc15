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
modulo total time derivatives yields the component Lagrangian, from which the
three kinetic blocks and their boundary conditions are read off and verified
against the quadratic form they generate.

Three conventions are pinned here and guarded by the verify suite:
the i on the top component, the sign of the connection term (equivalently,
the sign convention of the curvature contraction R), and the overall fiber
orientation of the odd integral.  All three are fixed by requiring the
component Lagrangian to come out in the shape

    |a'|^2 + i <eta2', eta2> - i <R a, a'> + <R eta2, eta2>
           - i <eta1, eta1'> + <G, G>

with a positive bosonic kinetic term.  None of them influence regularized
determinants, which only see even powers of R.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .gaussian import GaussianRational, I
from .grassmann import GrassmannElement, even, odd, scalar
from .zeta import BoundaryCondition, KineticOperator

G = GrassmannElement

_COMPONENT = re.compile(r"^(a|G|eta1|eta2)(\d{2})\.(\d+)$")
_ODD_BASES = ("eta1", "eta2")


def component(base: str, index: int, order: int = 0) -> G:
    """The order-th time derivative of component `base`, fiber slot `index`."""
    name = f"{base}{index:02d}.{order}"
    if base in _ODD_BASES:
        return odd(name)
    return even(name)


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
        m = _COMPONENT.match(name)
        if m:
            base, idx, order = m.group(1), int(m.group(2)), int(m.group(3))
            images[name] = component(base, idx, order + 1)
    return element.derive_even(images)


def berezin_integrate(f: G, variables: Tuple[str, str] = ("theta1", "theta2")) -> G:
    """Fiberwise odd integration: the coefficient of the ordered top monomial
    variables[0]*variables[1], normalized so the integral of that monomial is 1."""
    return f.coefficient_of_odd_pair(variables[0], variables[1])


def fluctuation_field(n: int) -> List[G]:
    th1, th2 = odd("theta1"), odd("theta2")
    out = []
    for i in range(1, n + 1):
        out.append(component("a", i)
                   + th1 * component("eta1", i)
                   + th2 * component("eta2", i)
                   + I * th1 * th2 * component("G", i))
    return out


def _matrix_action(vec: Sequence[G], n: int) -> List[G]:
    return [sum((curvature_entry(i, j) * vec[j - 1] for j in range(1, n + 1)),
                start=scalar(0)) for i in range(1, n + 1)]


def covariant_D1(vec: Sequence[G], n: int, with_curvature: bool = True) -> List[G]:
    th1 = odd("theta1")
    out = []
    coupled = _matrix_action(vec, n) if with_curvature else [scalar(0)] * n
    for i, entry in enumerate(vec):
        out.append(entry.derivative_odd("theta1")
                   - I * th1 * time_derivative(entry)
                   - th1 * coupled[i])
    return out


def covariant_D2(vec: Sequence[G], n: int) -> List[G]:
    th2 = odd("theta2")
    return [entry.derivative_odd("theta2") - I * th2 * time_derivative(entry)
            for entry in vec]


def pairing(a: Sequence[G], b: Sequence[G]) -> G:
    return sum((x * y for x, y in zip(a, b)), start=scalar(0))


# ---------------------------------------------------------------------------
# normal form modulo total time derivatives
# ---------------------------------------------------------------------------

def _parse_component(name: str) -> Optional[Tuple[str, int, int]]:
    m = _COMPONENT.match(name)
    if not m:
        return None
    return (m.group(1), int(m.group(2)), int(m.group(3)))


def normal_form_dt(element: G) -> G:
    """Canonical representative modulo total time derivatives for expressions
    quadratic in the component symbols: in every term the lexicographically
    first component factor carries no derivatives (integration by parts moves
    them onto the second factor, one flip of sign per move)."""
    out = GrassmannElement()
    for (odd_mono, even_mono), coeff in element.terms.items():
        comps: List[Tuple[str, int, int, int]] = []  # (base, idx, order, parity)
        spectator_odd: List[str] = []
        spectator_even: List[Tuple[str, int]] = []
        for name in odd_mono:
            parsed = _parse_component(name)
            if parsed:
                comps.append((*parsed, 1))
            else:
                spectator_odd.append(name)
        for name, exp in even_mono:
            parsed = _parse_component(name)
            if parsed:
                if exp not in (1, 2):
                    raise ValueError("component exponent beyond quadratic order")
                comps.extend([(*parsed, 0)] * exp)
            else:
                spectator_even.append((name, exp))
        if len(comps) != 2:
            raise ValueError(f"term is not quadratic in components: {odd_mono}, {even_mono}")
        if comps[0][3] != comps[1][3]:
            raise ValueError("component pair of mixed parity")

        # base coefficient: original term rewritten as spectators * c1 * c2
        spectator = GrassmannElement(
            {(tuple(spectator_odd), tuple(sorted(spectator_even))): coeff})
        c1, c2 = comps
        if comps[0][3] == 1:
            # the two odd factors appear in odd_mono in tuple order; rebuild
            # with them moved to the right and compensate the sign
            names = [f"{b}{i:02d}.{d}" for (b, i, d, _p) in comps]
            probe = spectator * odd(names[0]) * odd(names[1])
            ref = GrassmannElement({(odd_mono, even_mono): coeff})
            if (probe - ref).is_zero():
                sign = 1
            elif (probe + ref).is_zero():
                sign = -1
            else:
                raise AssertionError("odd factor bookkeeping failed")
        else:
            sign = 1

        # canonical order of the pair, then shift derivatives off the first slot
        if (c2[0], c2[1], c2[2]) < (c1[0], c1[1], c1[2]):
            c1, c2 = c2, c1
            if c1[3] == 1:
                sign = -sign  # odd factors anticommute under the swap
        d1, d2 = c1[2], c2[2]
        while d1 > 0:
            d1 -= 1
            d2 += 1
            sign = -sign

        def factor(base: str, idx: int, order: int, parity: int) -> G:
            return odd(f"{base}{idx:02d}.{order}") if parity else even(f"{base}{idx:02d}.{order}")

        rebuilt = (Fraction(sign) * spectator
                   * factor(c1[0], c1[1], d1, c1[3])
                   * factor(c2[0], c2[1], d2, c2[3]))
        out = out + rebuilt
    return out


# ---------------------------------------------------------------------------
# boundary conditions from the holonomy
# ---------------------------------------------------------------------------

def derive_boundary_conditions() -> Dict[str, BoundaryCondition]:
    """Periodicity of each component under one loop of the PA circle: the
    holonomy fixes theta1 and flips theta2; matching coefficients of the
    twisted superfield against the original gives X(t) = s X(t + r) with
    s = +1 (periodic) or s = -1 (antiperiodic)."""
    entry = fluctuation_field(1)[0]
    twisted = entry.substitute_odd("theta2", -odd("theta2"))

    def theta_coefficient(element: G, base: str) -> G:
        if base == "a":
            return element.substitute_odd("theta1", scalar(0)) \
                          .substitute_odd("theta2", scalar(0))
        if base == "eta1":
            return element.derivative_odd("theta1").substitute_odd("theta2", scalar(0))
        if base == "eta2":
            return element.derivative_odd("theta2").substitute_odd("theta1", scalar(0))
        return element.coefficient_of_odd_pair("theta1", "theta2")

    out: Dict[str, BoundaryCondition] = {}
    for base in ("a", "eta1", "eta2", "G"):
        original = theta_coefficient(entry, base)
        shifted = theta_coefficient(twisted, base)
        if (shifted - original).is_zero():
            out[base] = BoundaryCondition.PERIODIC
        elif (shifted + original).is_zero():
            out[base] = BoundaryCondition.ANTIPERIODIC
        else:
            raise AssertionError(f"holonomy acts on {base} by neither +1 nor -1")
    return out


# ---------------------------------------------------------------------------
# the expansion
# ---------------------------------------------------------------------------

@dataclass
class LinearizedAction:
    dim: int
    lagrangian: G                      # normal form modulo total dt
    operators: Tuple[KineticOperator, KineticOperator, KineticOperator]
    boundary_conditions: Dict[str, BoundaryCondition]
    # couplings realized by the quadratic form -<a, D_a a> - i<eta1, .> - i<eta2, .>:
    # the eta2 slot ordering conjugates the visible coupling; recorded verbatim
    realized_couplings: Dict[str, GaussianRational]


def _quadratic_form(n: int, c_a: GaussianRational, c_2: GaussianRational,
                    with_curvature: bool) -> G:
    """- <a, D_a a> - i <eta1, D_eta1 eta1> - i <eta2, D_eta2 eta2> + <G, G>
    with D_a = d^2/dt^2 + c_a R d/dt and D_eta2 = d/dt + c_2 R."""
    a0 = [component("a", i, 0) for i in range(1, n + 1)]
    a1 = [component("a", i, 1) for i in range(1, n + 1)]
    a2 = [component("a", i, 2) for i in range(1, n + 1)]
    e10 = [component("eta1", i, 0) for i in range(1, n + 1)]
    e11 = [component("eta1", i, 1) for i in range(1, n + 1)]
    e20 = [component("eta2", i, 0) for i in range(1, n + 1)]
    e21 = [component("eta2", i, 1) for i in range(1, n + 1)]
    g0 = [component("G", i, 0) for i in range(1, n + 1)]

    if with_curvature:
        ra1 = _matrix_action(a1, n)
        re20 = _matrix_action(e20, n)
    else:
        ra1 = [scalar(0)] * n
        re20 = [scalar(0)] * n

    d_a = [a2[i] + c_a * ra1[i] for i in range(n)]
    d_e1 = e11
    d_e2 = [e21[i] + c_2 * re20[i] for i in range(n)]

    return (-pairing(a0, d_a)
            - I * pairing(e10, d_e1)
            - I * pairing(e20, d_e2)
            + pairing(g0, g0))


def expand_linearized_action(n: int, with_curvature: bool = True) -> LinearizedAction:
    """Expand the linearized action in components and identify the kinetic
    operators.

    The Berezin integral of < Dc_1 dnu, Dc_2 dnu > is reduced to its total-
    derivative normal form and matched, by trying each sign convention, to the
    quadratic form of the blocks D_a = d^2/dt^2 - i R d/dt (periodic),
    D_eta1 = d/dt (periodic) and D_eta2 = d/dt + i R (antiperiodic).  A
    mismatch with every convention raises, as it signals a broken convention
    upstream.  That the result has the displayed component shape, with the
    bosonic coupling -i, is the verify suite's "linearized action expansion"
    check.
    """
    if n < 1:
        raise ValueError("fiber dimension must be positive")
    dnu = fluctuation_field(n)
    integrand = pairing(covariant_D1(dnu, n, with_curvature), covariant_D2(dnu, n))
    # fiber orientation of the odd integral: the sign making the bosonic
    # kinetic term positive (the theta-measure is ordered accordingly)
    lagrangian = normal_form_dt(-berezin_integrate(integrand))

    matched: Optional[Tuple[GaussianRational, GaussianRational]] = None
    for c_a in (-I, I):
        for c_2 in (-I, I):
            candidate = normal_form_dt(_quadratic_form(n, c_a, c_2, with_curvature))
            if (lagrangian - candidate).is_zero():
                matched = (c_a, c_2)
                break
        if matched:
            break
    if matched is None:
        raise AssertionError("component expansion does not match any quadratic form")
    c_a, c_2 = matched

    bcs = derive_boundary_conditions()
    ops = (
        KineticOperator("D_a", n, bcs["a"]),
        KineticOperator("D_eta1", n, bcs["eta1"]),
        KineticOperator("D_eta2", n, bcs["eta2"]),
    )
    return LinearizedAction(n, lagrangian, ops, bcs,
                            {"D_a": c_a, "D_eta2": c_2})


def displayed_lagrangian(n: int, with_curvature: bool = True) -> G:
    """The component Lagrangian assembled directly in its displayed shape:

        |a'|^2 + i <eta2', eta2> - i <R a, a'> + <R eta2, eta2>
               - i <eta1, eta1'> + <G, G>

    (curvature terms dropped in the flat variant).  Used as the frozen target
    the Berezin route must reproduce modulo total derivatives."""
    a0 = [component("a", i, 0) for i in range(1, n + 1)]
    a1 = [component("a", i, 1) for i in range(1, n + 1)]
    e10 = [component("eta1", i, 0) for i in range(1, n + 1)]
    e11 = [component("eta1", i, 1) for i in range(1, n + 1)]
    e20 = [component("eta2", i, 0) for i in range(1, n + 1)]
    e21 = [component("eta2", i, 1) for i in range(1, n + 1)]
    g0 = [component("G", i, 0) for i in range(1, n + 1)]

    lag = (pairing(a1, a1)
           + I * pairing(e21, e20)
           - I * pairing(e10, e11)
           + pairing(g0, g0))
    if with_curvature:
        lag = lag - I * pairing(_matrix_action(a0, n), a1) \
                  + pairing(_matrix_action(e20, n), e20)
    return lag
