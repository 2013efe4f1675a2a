import math

import numpy as np
import pytest

from biwind import core, integrate as itg, regions

SQRT6 = math.sqrt(6.0)


def test_boundary_curve_shape_and_continuity():
    assert regions.boundary_curve(0.0) == 0.0
    assert regions.boundary_curve(math.pi / 2) == pytest.approx(2 * SQRT6, abs=1e-15)
    assert regions.boundary_curve(2.0) == 2 * SQRT6
    assert regions.boundary_curve(math.pi) == 2 * SQRT6
    eps = 1e-9
    below = regions.boundary_curve(math.pi / 2 - eps)
    assert abs(below - 2 * SQRT6) < 1e-8
    assert regions.arc_height(0.7) == pytest.approx(2 * SQRT6 * math.sin(0.7), rel=1e-15)
    assert regions.arc_slope(0.7) == pytest.approx(2 * SQRT6 * math.cos(0.7), rel=1e-15)


def test_membership_examples():
    assert regions.in_region_C(math.pi / 2, 0.0) is regions.Membership.INSIDE
    # corner of the closure, not in the open set
    assert regions.in_region_C(0.0, 0.0) in (
        regions.Membership.BOUNDARY,
        regions.Membership.OUTSIDE,
    )
    arc = 2 * SQRT6 * math.sin(math.pi / 4)
    assert regions.in_region_C(math.pi / 4, arc) is regions.Membership.BOUNDARY
    assert regions.in_region_C(math.pi / 4, arc + 1.0) is regions.Membership.OUTSIDE
    assert regions.in_region_C(-0.3, 0.0) is regions.Membership.OUTSIDE


def test_minus_region_is_the_point_reflection():
    assert regions.in_minus_C(-math.pi / 2, 0.0) is regions.Membership.INSIDE
    rng = np.random.default_rng(17)
    for _ in range(300):
        x = rng.uniform(-4.0, 4.0)
        y = rng.uniform(-6.0, 6.0)
        assert regions.in_minus_C(x, y) is regions.in_region_C(-x, -y)


def test_region_gap_sign_matches_membership():
    rng = np.random.default_rng(23)
    for _ in range(300):
        x = rng.uniform(-0.5, math.pi + 0.5)
        y = rng.uniform(-6.0, 6.0)
        gap = regions.region_gap(x, y)
        cls = regions.in_region_C(x, y, tol=1e-12)
        if gap > 1e-12:
            assert cls is regions.Membership.INSIDE
        elif gap < -1e-12:
            assert cls is regions.Membership.OUTSIDE


def test_tangent_frame_reaches_the_cap():
    for phi0 in (0.0, 0.3, 1.0, math.pi / 2 - 1e-6):
        frame = regions.TangentFrame(phi0)
        assert frame.y0 == pytest.approx(2 * SQRT6 * math.sin(phi0), rel=1e-15, abs=1e-15)
        assert frame.y_line(frame.phi_max) == pytest.approx(2 * SQRT6, rel=1e-12)
        assert frame.phi_max > phi0
    top = regions.TangentFrame(math.pi / 2)
    assert top.phi_max == math.pi / 2
    with pytest.raises(ValueError):
        regions.TangentFrame(-0.1)
    with pytest.raises(ValueError):
        regions.TangentFrame(math.pi / 2 + 0.1)


def test_P_and_a_spot_values():
    assert regions.eval_P(0.0, 0.0, 1.0) == pytest.approx(16.0 - 4.0 * SQRT6, rel=1e-14)
    assert regions.eval_P(0.0, 0.0, 0.0) == 0.0
    assert regions.eval_a(0.0, 0.0, 0.0) == pytest.approx(13.0 - 2.0 * SQRT6, rel=1e-14)
    # P(0, 0, v) collapses to (14 - 4 sqrt 6) v + 2 v^3
    rng = np.random.default_rng(2)
    for _ in range(100):
        v = rng.uniform(-3.0, 3.0)
        want = (14.0 - 4.0 * SQRT6) * v + 2.0 * v ** 3
        assert regions.eval_P(0.0, 0.0, v) == pytest.approx(want, rel=1e-13, abs=1e-13)


def test_P_cubic_coefficients_reassemble_eval_P():
    rng = np.random.default_rng(31)
    phi0 = rng.uniform(0.0, math.pi / 2, 200)
    phi = rng.uniform(-1.0, 2.5, 200)
    v = rng.uniform(-3.0, 3.0, 200)
    c0, c1, c2, c3 = regions.P_cubic_coefficients(phi0, phi)
    assert np.all(c3 == 2.0)
    horner = c0 + (c1 + (c2 + c3 * v) * v) * v
    direct = regions.eval_P(phi0, phi, v)
    assert np.allclose(horner, direct, rtol=1e-12, atol=1e-12)


def test_a_lower_bound_spot_check():
    rng = np.random.default_rng(5)
    phi0 = rng.uniform(0.0, math.pi / 2, 100_000)
    phi = rng.uniform(0.0, math.pi, 100_000)
    v = rng.uniform(-3.0, 3.0, 100_000)
    a = regions.eval_a(phi0, phi, v)
    assert np.min(a) >= 0.1


def test_P_positive_between_frame_and_cap():
    rng = np.random.default_rng(7)
    n = 100_000
    phi0 = rng.uniform(0.0, math.pi / 2, n)
    phi_max = phi0 + np.cos(phi0) / (1.0 + np.sin(phi0))
    phi = phi0 + rng.uniform(0.0, 1.0, n) * (phi_max - phi0)
    v = rng.uniform(1e-6, 3.0, n)
    vals = regions.eval_P(phi0, phi, v)
    assert np.min(vals) > 0.0


def test_w_system_residual_zero_trajectory():
    traj = itg.integrate(5, np.zeros(4), cfg=itg.IntegrationConfig(max_span=1.0))
    assert regions.w_system_residual(0.0, traj) == 0.0


def test_w_system_residual_random_trajectories():
    rng = np.random.default_rng(3)
    cfg = itg.IntegrationConfig(max_span=2.0, blowup_norm=50.0)
    for _ in range(5):
        x0 = rng.uniform(-0.5, 0.5, 4)
        traj = itg.integrate(5, x0, cfg=cfg)
        assert regions.w_system_residual(0.3, traj) < 1e-8
        assert regions.w_system_residual(math.pi / 2, traj) < 1e-8


def test_w_system_residual_rejects_other_dimensions():
    traj = itg.integrate(6, 0.1 * np.ones(4), cfg=itg.IntegrationConfig(max_span=0.5))
    with pytest.raises(ValueError):
        regions.w_system_residual(0.3, traj)


def test_Q_spot_values_and_cubic():
    assert regions.eval_Q(0.0, 0.0) == 0.0
    assert regions.eval_Q(0.0, 1.0) == pytest.approx(10.0, rel=1e-14)
    rng = np.random.default_rng(13)
    phi = rng.uniform(-1.0, 4.0, 200)
    v = rng.uniform(-3.0, 3.0, 200)
    q0, q1, q2, q3 = regions.Q_cubic_coefficients(phi)
    assert np.all(q3 == 2.0)
    horner = q0 + (q1 + (q2 + q3 * v) * v) * v
    assert np.allclose(horner, regions.eval_Q(phi, v), rtol=1e-12, atol=1e-12)


def test_xi_system_residual_random_trajectories():
    rng = np.random.default_rng(29)
    cfg = itg.IntegrationConfig(max_span=2.0, blowup_norm=50.0)
    for _ in range(5):
        x0 = rng.uniform(-0.5, 0.5, 4)
        traj = itg.integrate(5, x0, cfg=cfg)
        assert regions.xi_system_residual(traj) < 1e-8
    traj6 = itg.integrate(6, 0.1 * np.ones(4), cfg=itg.IntegrationConfig(max_span=0.5))
    with pytest.raises(ValueError):
        regions.xi_system_residual(traj6)


def test_in_cone_matches_pairwise_set_definition():
    rng = np.random.default_rng(37)
    for _ in range(1000):
        x = rng.uniform(-1.0, 1.0, 4)
        phi, v, y, w = x
        pairwise = (phi >= 0 and y >= 3 * phi) and (v >= 0 and w >= 3 * v)
        assert regions.in_cone(x) == pairwise
    assert regions.in_cone(core.State(0.1, 0.1, 0.5, 0.5))
    assert not regions.in_cone(core.State(-0.1, 0.1, 0.5, 0.5))


def test_cone_orbits_stay_positive_and_reach_blowup_gate():
    # Forward invariance of the cone, plus the guarantee that every such
    # orbit crosses the second-derivative gate 2*sqrt(6) with positive
    # velocity and third derivative before it ends.
    rng = np.random.default_rng(41)
    cfg = itg.IntegrationConfig(max_span=5.0, blowup_norm=1e3)
    seeds = [rng.uniform(0.0, 0.5, 4) for _ in range(1000)]
    seeds.append(np.array([0.0, 0.3, 0.0, 0.9]))  # boundary start, xi = 0
    for draw in seeds:
        phi, v, xi, dxi = draw
        x0 = np.array([phi, v, xi + 3 * phi, dxi + 3 * v])
        traj = itg.integrate(5, x0, cfg=cfg)
        mids = traj.states[1:]
        assert np.all(mids[:, 0] > 0)
        assert np.all(mids[:, 1] > 0)
        assert np.all(mids[:, 2] - 3 * mids[:, 0] > 0)
        assert np.all(mids[:, 3] - 3 * mids[:, 1] > 0)
        gate = (
            (traj.states[:, 2] >= 2 * SQRT6)
            & (traj.states[:, 1] > 0)
            & (traj.states[:, 3] > 0)
        )
        assert np.any(gate)


def test_sos_identity_examples_and_random_sweep():
    assert regions.sos_identity_check(0.0, 0.0) == (0.0, 0.0)
    lhs, rhs = regions.sos_identity_check(1.0, 0.0)
    assert lhs == pytest.approx(1.0, abs=1e-15)
    assert rhs == pytest.approx(1.0, abs=1e-15)
    rng = np.random.default_rng(43)
    worst = 0.0
    for _ in range(10_000):
        y = rng.uniform(-4.0, 4.0)
        v = rng.uniform(-4.0, 4.0)
        lhs, rhs = regions.sos_identity_check(y, v)
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-12


def test_growth_sandwich_degenerate_point():
    for d in (5, 6, 7):
        c0 = core.c_star(d)
        lower, value, upper = regions.growth_bounds(d, 0.0, 0.0, c0)
        assert lower == 0.0
        assert lower <= value <= upper


def test_growth_bound_check_reports_no_violations():
    for d in (5, 6, 7):
        rep = regions.growth_bound_check(d, samples=100_000, seed=100 + d)
        assert rep.samples == 100_000
        assert rep.violations == 0
        assert rep.worst_lower_margin >= 0.0
        assert rep.worst_upper_margin >= 0.0


def test_growth_bounds_validates_the_cone():
    c0 = core.c_star(5)
    with pytest.raises(ValueError):
        regions.growth_bounds(5, 0.0, -0.1, c0)
    with pytest.raises(ValueError):
        regions.growth_bounds(5, 0.0, 1.0, c0 - 0.01)


@pytest.mark.parametrize("d", [3, 5, 7, 10])
def test_p_value_on_arrays_equals_its_scalar_calls(d):
    rng = np.random.default_rng(60 + d)
    n = 500
    xi0 = rng.uniform(-10.0, 10.0, n)
    xi1 = rng.uniform(0.0, 1e3, n) * 10.0 ** rng.integers(-6, 1, n)
    xi2 = rng.uniform(-50.0, 50.0, n)
    whole = regions.p_value(d, xi0, xi1, xi2)
    for j in range(n):
        one = regions.p_value(d, float(xi0[j]), float(xi1[j]), float(xi2[j]))
        assert type(one) is float
        assert one.hex() == float(whole[j]).hex(), j


def test_growth_constant_is_a_stored_power_of_two():
    c1 = regions.GROWTH_C1
    assert c1 >= 1.0
    assert math.log2(c1) == int(math.log2(c1))


def test_residuals_match_a_per_sample_loop():
    # reference: one scalar field call per sample.  Both are roundoff-sized
    # (about 1e-15), so they must agree to a few dozen ulps of 1.
    cfg = itg.IntegrationConfig(max_span=2.0)
    traj = itg.integrate(5, np.array([0.3, -0.2, 0.4, 0.1]), cfg=cfg)
    frame = regions.TangentFrame(0.3)
    worst_w = worst_xi = 0.0
    for x in traj.states:
        phi, v, y, z = x
        d4 = core.vector_field(5, x)[3]
        w, dw = y - frame.y_line(phi), z - frame.slope * v
        rhs_w = regions.eval_a(0.3, phi, v) * w - 2.0 * dw + regions.eval_P(0.3, phi, v)
        lhs_w = d4 - frame.slope * y
        rhs_xi = ((6.0 * v * v + 4.0 * math.cos(2.0 * phi) + 6.0) * (y - 3.0 * phi)
                  - 2.0 * (z - 3.0 * v) + regions.eval_Q(phi, v))
        lhs_xi = d4 - 3.0 * y
        worst_w = max(worst_w, abs(lhs_w - rhs_w) / max(1.0, abs(lhs_w), abs(rhs_w)))
        worst_xi = max(worst_xi, abs(lhs_xi - rhs_xi) / max(1.0, abs(lhs_xi), abs(rhs_xi)))
    assert regions.w_system_residual(0.3, traj) == pytest.approx(worst_w, rel=0.0, abs=1e-14)
    assert regions.xi_system_residual(traj) == pytest.approx(worst_xi, rel=0.0, abs=1e-14)
