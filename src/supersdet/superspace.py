"""Super Euclidean geometry in dimension 1|2.

Points of R^{1|2} are triples (t, theta1, theta2) of Grassmann elements with
even t and odd thetas.  The group law, the finite time-reversal group T, the
odd derivations D_1, D_2, the lattice generator of super circles, and the
descent analysis for isometries between super circles all live here.

Conventions fixed by internal consistency checks (see the verification
suites): the time-reversal generators flip t (they must act by group
automorphisms), and the 1|1-dimensional translation law carries the same
i as the 1|2-dimensional one (so the evident inclusion is a homomorphism).
In closed form, rp^a rm^b sends (t, theta1, theta2) to
((-1)^{a+b} t, i^{a-b} theta1, i^{a+b} theta2).
"""

from __future__ import annotations

from typing import Optional, Tuple

from .gaussian import I
from .grassmann import GrassmannElement, even, odd, scalar
from .terms import Record

G = GrassmannElement


# ---------------------------------------------------------------------------
# points and translations
# ---------------------------------------------------------------------------

class SuperPoint(Record):
    """A point of R^{1|2}: one even coordinate and two odd ones."""

    __slots__ = ("even_part", "odd_parts")

    def __init__(self, even_part: GrassmannElement,
                 odd_parts: Tuple[GrassmannElement, GrassmannElement]):
        self.even_part, self.odd_parts = even_part, odd_parts
        if even_part.parity() != 0:
            raise ValueError("even coordinate has odd terms")
        for component in odd_parts:
            if not component.is_zero() and component.parity() != 1:
                raise ValueError("odd coordinate has even terms")

    def __sub__(self, other: "SuperPoint") -> "SuperPoint":
        return SuperPoint(self.even_part - other.even_part,
                          tuple(a - b for a, b in zip(self.odd_parts, other.odd_parts)))

    def is_zero(self) -> bool:
        return self.even_part.is_zero() and all(c.is_zero() for c in self.odd_parts)


def point_r12(t, theta1, theta2) -> SuperPoint:
    return SuperPoint(G.coerce(t), (G.coerce(theta1), G.coerce(theta2)))


def identity_r12() -> SuperPoint:
    return point_r12(0, 0, 0)


def multiply_r12(p: SuperPoint, q: SuperPoint) -> SuperPoint:
    """Group law (t,o1,o2)*(t',o1',o2') = (t+t'+i o1 o1'+i o2 o2', o1+o1', o2+o2')."""
    t, o1, o2 = p.even_part, p.odd_parts[0], p.odd_parts[1]
    s, u1, u2 = q.even_part, q.odd_parts[0], q.odd_parts[1]
    return point_r12(t + s + I * o1 * u1 + I * o2 * u2, o1 + u1, o2 + u2)


def inverse_r12(p: SuperPoint) -> SuperPoint:
    # (-t,-o1,-o2) works because each theta squares to zero
    return point_r12(-p.even_part, -p.odd_parts[0], -p.odd_parts[1])


def multiply_r11(a: Tuple[G, G], b: Tuple[G, G]) -> Tuple[G, G]:
    """1|1-dimensional translation law (u,v)*(u',v') = (u+u'+i v v', v+v')."""
    u, v = a
    up, vp = b
    return (u + up + I * v * vp, v + vp)


# ---------------------------------------------------------------------------
# the time-reversal group T
# ---------------------------------------------------------------------------

class TimeReversal(Record):
    """rp^plus * rm^minus in the order-8 abelian group generated by the two
    time reversals rp, rm with rp^4 = e and rp^2 = rm^2."""

    __slots__ = ("plus", "minus")

    def __init__(self, plus: int = 0, minus: int = 0):
        # the normal form: minus mod 2, with rm^2 = rp^2 folded into plus mod 4
        self.plus, self.minus = (plus + minus - minus % 2) % 4, minus % 2

    def __mul__(self, other: "TimeReversal") -> "TimeReversal":
        return TimeReversal(self.plus + other.plus, self.minus + other.minus)


RP = TimeReversal(1, 0)
RM = TimeReversal(0, 1)
PA_HOLONOMY = RP * RM

_I_POWERS = (1, I, -1, -I)  # i^k, indexed by k mod 4


def act_time_reversal(g: TimeReversal, p: SuperPoint) -> SuperPoint:
    """Action of T on R^{1|2}: rp^a rm^b sends (t, o1, o2) to
    ((-1)^{a+b} t, i^{a-b} o1, i^{a+b} o2)."""
    return point_r12((-1) ** (g.plus + g.minus) * p.even_part,
                     _I_POWERS[(g.plus - g.minus) % 4] * p.odd_parts[0],
                     _I_POWERS[(g.plus + g.minus) % 4] * p.odd_parts[1])


def act_time_reversal_r11(g: TimeReversal, a: Tuple[G, G]) -> Tuple[G, G]:
    """Action of T on R^{1|1}: rp^a rm^b sends (u, v) to ((-1)^{a+b} u, i^{a-b} v)."""
    u, v = a
    return ((-1) ** (g.plus + g.minus) * u, _I_POWERS[(g.plus - g.minus) % 4] * v)


def include_r11(a: Tuple[G, G]) -> SuperPoint:
    """The inclusion (u, v) -> (u, v, 0) of the 1|1 into the 1|2 translations."""
    return point_r12(a[0], a[1], 0)


# ---------------------------------------------------------------------------
# invariant vector fields
# ---------------------------------------------------------------------------

def d_t(f: G) -> G:
    return f.derivative_even("t")


def apply_D(i: int, f: G) -> G:
    """Right-invariant odd vector field D_i = d/dtheta_i - i theta_i d/dt."""
    if i not in (1, 2):
        raise ValueError("i must be 1 or 2")
    name = f"theta{i}"
    return f.derivative_odd(name) - I * odd(name) * d_t(f)


def apply_left_D(i: int, f: G) -> G:
    """Left-invariant counterpart d/dtheta_i + i theta_i d/dt (opposite sign)."""
    if i not in (1, 2):
        raise ValueError("i must be 1 or 2")
    name = f"theta{i}"
    return f.derivative_odd(name) + I * odd(name) * d_t(f)


# ---------------------------------------------------------------------------
# super circles: lattice generator and projection
# ---------------------------------------------------------------------------

Radius = Tuple[G, G]  # (r, rho1) with r an invertible even element, rho1 odd


def mu_R(p: SuperPoint, R: Radius) -> SuperPoint:
    """One step of the lattice action defining the PA circle of super radius R:
    right translation by (r, rho1, 0) followed by the PA holonomy."""
    r, rho1 = G.coerce(R[0]), G.coerce(R[1])
    shifted = multiply_r12(p, point_r12(r, rho1, 0))
    return act_time_reversal(PA_HOLONOMY, shifted)


def proj_R(p: SuperPoint, R: Radius) -> G:
    """The lattice-invariant projection (t,o1,o2) -> o1 - rho1 * t / r, the
    odd coordinate of the super circle."""
    r, rho1 = G.coerce(R[0]), G.coerce(R[1])
    return p.odd_parts[0] - rho1 * p.even_part * r.invert_unit()


# ---------------------------------------------------------------------------
# descent of isometries to super circles
# ---------------------------------------------------------------------------

Translation = Tuple[G, G, G]  # (u, nu1, nu2)


class DescentResult(Record):
    __slots__ = ("descends", "generator", "residual")

    def __init__(self, descends: bool, generator: Optional[Radius],
                 residual: Optional[SuperPoint]):
        self.descends = descends
        self.generator = generator  # positive generator of the image lattice
        self.residual = residual    # difference of the two sides when not descending


_FRESH = ("_pt_t", "_pt_th1", "_pt_th2")
_THETA = "_base_theta"  # the odd coordinate of the induced base map


def _fresh_point(*elements: G) -> SuperPoint:
    used = set()
    for e in elements:
        used |= e.odd_generators() | e.even_variables()
    for name in (*_FRESH, _THETA):
        if name in used:
            raise ValueError(f"reserved coordinate name {name!r} used in input")
    return point_r12(even(_FRESH[0]), odd(_FRESH[1]), odd(_FRESH[2]))


def _apply_isometry(translation: Optional[Translation], twist: TimeReversal,
                    p: SuperPoint, base_point_preserving: bool) -> SuperPoint:
    out = act_time_reversal(twist, p)
    if translation is not None:
        g = point_r12(*translation)
        out = multiply_r12(g, out)
        if base_point_preserving:
            out = multiply_r12(out, inverse_r12(g))
    return out


def _r_orientation(r_component: G) -> int:
    """Sign of the leading r-coefficient of the even slot of a generator."""
    (r_key,) = even("r").terms
    coeff = r_component.terms.get(r_key)
    if coeff is None or not coeff.is_rational():
        raise ValueError("cannot orient a lattice generator without a +-r leading term")
    return 1 if coeff.re > 0 else -1


def descend_check(translation: Optional[Translation], twist: TimeReversal,
                  R: Radius) -> DescentResult:
    """Decide whether the isometry (translation, twist) of the model space
    descends to the PA super circles of super radius R, and compute the image
    lattice generator.  `translation` is a triple (u, nu1, nu2), or None for
    a bare time reversal.

    The isometry attached to a translation g is the base-point-preserving map
    iso(p) = g twist(p) g^{-1}; a time reversal acts directly.  It descends
    when iso(mu_R(p)) = mu_{R'}(iso(p)) for some R'.  At the base point, where
    iso(e) = e, this reads hol(L') = iso(hol(L)) with L = (r, rho1, 0) and L'
    the translation part of R'.  The holonomy only negates the second odd
    slot, and that slot is 0 in L and in iso(L): twist scales it, and
    conjugation by g adds nu2 + 0 - nu2.  So the holonomy fixes both sides,
    L' = iso(L) is the only candidate, and the verdict is the equation itself
    on a generic point.  mu_{-L'} inverts mu_{L'}, so when the r-coefficient
    of iso(L) is negative the reported positive generator is -iso(L).
    """
    if translation is not None:
        translation = tuple(G.coerce(c) for c in translation)  # type: ignore[assignment]

    r, rho1 = G.coerce(R[0]), G.coerce(R[1])
    image = _apply_isometry(translation, twist, point_r12(r, rho1, 0), True)
    t, o1 = image.even_part, image.odd_parts[0]
    orientation = _r_orientation(t)

    p = _fresh_point(r, rho1, *(translation or ()))
    residual = (_apply_isometry(translation, twist, mu_R(p, R), True)
                - mu_R(_apply_isometry(translation, twist, p, True), (t, o1)))
    if residual.is_zero():
        return DescentResult(True, (orientation * t, orientation * o1), None)
    return DescentResult(False, None, residual)


# ---------------------------------------------------------------------------
# the induced map on the odd line, and the action on fields
# ---------------------------------------------------------------------------

class OddAffineMap(Record):
    """theta -> alpha + beta * theta with alpha odd and beta an even unit."""

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha: G, beta: G):
        self.alpha, self.beta = alpha, beta

    def __call__(self, theta: G) -> G:
        return self.alpha + self.beta * theta

    def inverse(self) -> "OddAffineMap":
        beta_inv = self.beta.invert_unit()
        return OddAffineMap(-beta_inv * self.alpha, beta_inv)


def induced_base_map(translation: Tuple[G, G], twist: TimeReversal,
                     R: Radius) -> Tuple[OddAffineMap, Radius]:
    """The unique odd-affine map closing the square between the projections of
    the source and image circles under a descending isometry, together with
    the image lattice generator that its descent analysis found.

    The isometry is a 1|1 translation (u, nu1) followed by a time reversal.
    The map is found by rewriting the image projection in the invariant
    coordinate theta = o1 - rho1 t / r and checking that all explicit
    t-dependence cancels; failure to cancel means no affine map closes the
    square and is raised as an error.
    """
    u, nu1 = G.coerce(translation[0]), G.coerce(translation[1])
    r, rho1 = G.coerce(R[0]), G.coerce(R[1])

    triple: Translation = (u, nu1, scalar(0))
    descent = descend_check(triple, twist, R)
    if not descent.descends:
        raise ValueError("isometry does not descend; no induced base map")

    p = _fresh_point(u, nu1, r, rho1)
    # the vertical arrow of the square: the plain left action p -> g . twist(p)
    moved = _apply_isometry(triple, twist, p, base_point_preserving=False)
    rhs = proj_R(moved, descent.generator)

    # invert the source projection: o1 = theta + rho1 t / r
    theta = odd(_THETA)
    r_inv = r.invert_unit()
    o1_sub = theta + rho1 * even(_FRESH[0]) * r_inv
    expr = rhs.substitute_odd(_FRESH[1], o1_sub)

    if _FRESH[2] in expr.odd_generators():
        raise ValueError("induced map depends on the second odd coordinate")
    if _FRESH[0] in expr.even_variables():
        raise ValueError("no odd-affine map closes the square: explicit t-dependence")

    beta = expr.derivative_odd(_THETA)
    alpha = expr.substitute_odd(_THETA, scalar(0))
    the_map = OddAffineMap(alpha, beta)

    # commutation of the square, verified on the generic point
    if not (the_map(proj_R(p, R)) - rhs).is_zero():
        raise RuntimeError("induced base map failed to close the square")
    return the_map, descent.generator


FieldState = Tuple[G, G, G, G]  # (r, rho1, x, psi)


def action_on_fields(u, nu1, state: FieldState) -> FieldState:
    """Action of a 1|1 super translation (u, nu1) on a linearized field datum
    (r, rho1, x, psi), computed by composing the Taylor expansion x + theta psi
    with the inverse induced base map over the image circle.  The new radius
    is the descent generator of the image lattice.

    The result equals the closed form (r + 2i nu1 rho1, rho1,
    x - (nu1 - rho1 u / r) psi, (1 + i rho1 nu1 / r) psi); the verify suite's
    "action on field data" check compares the two.
    """
    r, rho1, x, psi = (G.coerce(c) for c in state)

    base_map, (new_r, new_rho1) = induced_base_map((u, nu1), TimeReversal(), (r, rho1))
    inv = base_map.inverse()
    # phi0 = x + theta psi composed with theta -> inv.alpha + inv.beta theta
    x_new = x + inv.alpha * psi
    psi_new = inv.beta * psi
    return (new_r, new_rho1, x_new, psi_new)
