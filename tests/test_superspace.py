import pytest

from supersdet.gaussian import I
from supersdet.grassmann import even, odd, scalar
from supersdet import superspace as ss


def generic_point(tag=""):
    return ss.point_r12(even(f"t{tag}"), odd(f"th1{tag}"), odd(f"th2{tag}"))


def test_identity_and_group_product():
    p = generic_point()
    assert (ss.multiply_r12(ss.identity_r12(), p) - p).is_zero()
    q = generic_point("q")
    prod = ss.multiply_r12(p, q)
    expected_t = p.even_part + q.even_part \
        + I * p.odd_parts[0] * q.odd_parts[0] + I * p.odd_parts[1] * q.odd_parts[1]
    assert (prod.even_part - expected_t).is_zero()
    assert (prod.odd_parts[0] - (p.odd_parts[0] + q.odd_parts[0])).is_zero()


def test_conjugation_of_the_lattice_generator():
    # (u, nu1, 0) (r, rho1, 0) (u, nu1, 0)^{-1} = (r + 2i nu1 rho1, rho1, 0)
    u, nu1 = even("u"), odd("nu1")
    r, rho1 = even("r"), odd("rho1")
    g = ss.point_r12(u, nu1, 0)
    R = ss.point_r12(r, rho1, 0)
    conj = ss.multiply_r12(ss.multiply_r12(g, R), ss.inverse_r12(g))
    assert (conj.even_part - (r + 2 * I * nu1 * rho1)).is_zero()
    assert (conj.odd_parts[0] - rho1).is_zero()
    assert conj.odd_parts[1].is_zero()


def test_time_reversal_action_examples():
    p = generic_point()
    assert (ss.act_time_reversal(ss.TimeReversal(), p) - p).is_zero()
    rp = ss.act_time_reversal(ss.RP, p)
    assert (rp.even_part + p.even_part).is_zero()  # t -> -t
    assert (rp.odd_parts[0] - I * p.odd_parts[0]).is_zero()
    assert (rp.odd_parts[1] - I * p.odd_parts[1]).is_zero()
    pa = ss.act_time_reversal(ss.PA_HOLONOMY, p)
    assert (pa.even_part - p.even_part).is_zero()
    assert (pa.odd_parts[0] - p.odd_parts[0]).is_zero()
    assert (pa.odd_parts[1] + p.odd_parts[1]).is_zero()


def test_time_reversal_is_a_group_action():
    p = generic_point()
    for g in (ss.RP, ss.RM, ss.RP * ss.RM, ss.RP * ss.RP * ss.RM):
        for h in (ss.RP, ss.RM):
            lhs = ss.act_time_reversal(g * h, p)
            rhs = ss.act_time_reversal(g, ss.act_time_reversal(h, p))
            assert (lhs - rhs).is_zero()


def test_time_reversal_normal_form():
    e = ss.TimeReversal()
    assert (ss.RP * ss.RP * ss.RP * ss.RP) == e
    assert (ss.RM * ss.RM) == ss.RP * ss.RP == ss.TimeReversal(0, 2)
    assert ss.TimeReversal(-1) * ss.RP == e
    assert ss.TimeReversal(0, -1) * ss.RM == e
    elements = {ss.TimeReversal(a, b) for a in range(8) for b in range(4)}
    assert len(elements) == 8


def test_d_operator_examples():
    th1 = odd("theta1")
    assert ss.apply_D(1, th1) == scalar(1)
    f = even("t", 3) * th1
    lhs = ss.apply_D(1, ss.apply_D(1, f))
    assert (lhs + I * ss.d_t(f)).is_zero()


def test_mu_and_proj_examples():
    p = generic_point()
    r, rho1 = even("r"), odd("rho1")
    flat = ss.mu_R(p, (r, scalar(0)))
    assert (flat.even_part - (p.even_part + r)).is_zero()
    assert (flat.odd_parts[1] + p.odd_parts[1]).is_zero()
    moved = ss.mu_R(p, (r, rho1))
    expected = p.even_part + r + I * p.odd_parts[0] * rho1
    assert (moved.even_part - expected).is_zero()
    assert (moved.odd_parts[0] - (p.odd_parts[0] + rho1)).is_zero()
    # projection and its invariance
    proj = ss.proj_R(p, (r, rho1))
    assert (proj - (p.odd_parts[0] - rho1 * p.even_part * r.invert_unit())).is_zero()
    assert (ss.proj_R(moved, (r, rho1)) - proj).is_zero()


def test_descend_check_translation():
    r, rho1 = even("r"), odd("rho1")
    u, nu1, nu2 = even("u"), odd("nu1"), odd("nu2")
    res = ss.descend_check((u, nu1, scalar(0)), ss.TimeReversal(), (r, rho1))
    assert res.descends
    assert (res.generator[0] - (r + 2 * I * nu1 * rho1)).is_zero()
    bad = ss.descend_check((scalar(0), scalar(0), nu2), ss.TimeReversal(), (r, scalar(0)))
    assert not bad.descends
    comps = [bad.residual.even_part] + list(bad.residual.odd_parts)
    assert any(not c.is_zero() for c in comps)
    for comp in comps:
        assert comp.substitute_odd("nu2", scalar(0)).is_zero()


def test_descend_check_time_reversal():
    r, rho1 = even("r"), odd("rho1")
    res_p = ss.descend_check(None, ss.RP, (r, rho1))
    # rp sends r to -r, so the positive generator is -rp(L)
    assert res_p.descends and (res_p.generator[0] - r).is_zero()
    assert (res_p.generator[1] + I * rho1).is_zero()
    res_m = ss.descend_check(None, ss.RM, (r, rho1))
    assert (res_m.generator[1] - I * rho1).is_zero()


@pytest.mark.parametrize("plus, minus", [(a, b) for a in range(4) for b in range(2)])
def test_descent_over_all_of_t(plus, minus):
    # rp^a rm^b sends L = (r, rho1, 0) to (x, xi, 0) = ((-1)^(a+b) r, i^a (-i)^b rho1, 0)
    r, rho1 = even("r"), odd("rho1")
    u, nu1, nu2 = even("u"), odd("nu1"), odd("nu2")
    twist = ss.TimeReversal(plus, minus)
    s = (-1) ** (plus + minus)
    xi = (1, I, -1, -I)[(plus - minus) % 4] * rho1
    for translation, nu in ((None, scalar(0)), ((u, nu1, scalar(0)), nu1)):
        res = ss.descend_check(translation, twist, (r, rho1))
        assert res.descends and res.residual is None
        assert (res.generator[0] - s * (s * r + 2 * I * nu * xi)).is_zero()
        assert (res.generator[1] - s * xi).is_zero()
    res = ss.descend_check((u, nu1, nu2), twist, (r, rho1))
    assert not res.descends and res.generator is None
    comps = [res.residual.even_part] + list(res.residual.odd_parts)
    assert any(not c.is_zero() for c in comps)
    for comp in comps:
        assert comp.substitute_odd("nu2", scalar(0)).is_zero()


def test_induced_base_map_translation_and_twist():
    r, rho1, u, nu1 = even("r"), odd("rho1"), even("u"), odd("nu1")
    m, generator = ss.induced_base_map((u, nu1), ss.TimeReversal(), (r, rho1))
    r_inv = r.invert_unit()
    assert (m.alpha - (nu1 - rho1 * u * r_inv)).is_zero()
    assert (m.beta - (scalar(1) - I * rho1 * nu1 * r_inv)).is_zero()
    assert (generator[0] - (r + 2 * I * nu1 * rho1)).is_zero() and generator[1] == rho1
    ident, _ = ss.induced_base_map((scalar(0), scalar(0)), ss.TimeReversal(), (r, rho1))
    theta = odd("th")
    assert (ident(theta) - theta).is_zero()
    tw, _ = ss.induced_base_map((scalar(0), scalar(0)), ss.RP, (r, scalar(0)))
    assert (tw(theta) - I * theta).is_zero()
    inv = m.inverse()
    assert (m(inv(theta)) - theta).is_zero()


def test_action_on_fields_matches_closed_form_and_group_law():
    r, rho1 = even("r"), odd("rho1")
    x, psi = even("x"), odd("psi")
    u, nu1 = even("u"), odd("nu1")
    state = (r, rho1, x, psi)
    out = ss.action_on_fields(u, nu1, state)
    r_inv = r.invert_unit()
    assert (out[0] - (r + 2 * I * nu1 * rho1)).is_zero()
    assert (out[2] - (x - (nu1 - rho1 * u * r_inv) * psi)).is_zero()
    assert (out[3] - (scalar(1) + I * rho1 * nu1 * r_inv) * psi).is_zero()
    trivial = ss.action_on_fields(0, scalar(0), state)
    assert (trivial[2] - x).is_zero() and (trivial[3] - psi).is_zero()
    u2, nu2 = even("u2"), odd("nu1b")
    sequential = ss.action_on_fields(u2, nu2, out)
    combined = ss.multiply_r11((u2, nu2), (u, nu1))
    direct = ss.action_on_fields(combined[0], combined[1], state)
    for a, b in zip(sequential, direct):
        assert (a - b).is_zero()


def test_action_on_fields_runs_the_descent_analysis_once(monkeypatch):
    calls = []
    original = ss.descend_check

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(ss, "descend_check", counting)
    state = (even("r"), odd("rho1"), even("x"), odd("psi"))
    ss.action_on_fields(even("u"), odd("nu1"), state)
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["_pt_t", "_pt_th1", "_pt_th2", "_base_theta"])
def test_reserved_names_are_rejected(name):
    r, rho1, u = even("r"), odd("rho1"), even("u")
    nu1 = even(name) * odd("nu1") if name == "_pt_t" else odd(name)
    with pytest.raises(ValueError, match="reserved coordinate name"):
        ss.induced_base_map((u, nu1), ss.TimeReversal(), (r, rho1))
    with pytest.raises(ValueError, match="reserved coordinate name"):
        ss.action_on_fields(u, nu1, (r, rho1, even("x"), odd("psi")))


def test_r11_inclusion_needs_the_i():
    u, v, up, vp = even("u"), odd("nu"), even("up"), odd("nup")
    with_i = ss.multiply_r11((u, v), (up, vp))
    target = ss.multiply_r12(ss.include_r11((u, v)), ss.include_r11((up, vp)))
    assert (ss.include_r11(with_i) - target).is_zero()
    without_i = (u + up + v * vp, v + vp)
    assert not (ss.include_r11(without_i) - target).is_zero()


def test_mixed_translation_and_twist_descend():
    r, rho1, u, nu1 = even("r"), odd("rho1"), even("u"), odd("nu1")
    for twist in (ss.RP, ss.RM, ss.PA_HOLONOMY):
        res = ss.descend_check((u, nu1, scalar(0)), twist, (r, rho1))
        assert res.descends, str(twist)
        # the induced map exists and closes the square (verified internally)
        m, _ = ss.induced_base_map((u, nu1), twist, (r, rho1))
        assert m.beta.parity() == 0 and (m.alpha.is_zero() or m.alpha.parity() == 1)
    # a second-odd translation component blocks descent even with a twist
    res = ss.descend_check((u, nu1, odd("nu2")), ss.RP, (r, rho1))
    assert not res.descends
    for comp in [res.residual.even_part] + list(res.residual.odd_parts):
        assert comp.substitute_odd("nu2", scalar(0)).is_zero()
