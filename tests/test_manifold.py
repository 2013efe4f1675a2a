import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from biwind import config, core, integrate, manifold, regions

SQRT6 = math.sqrt(6.0)
EPS0 = 1e-3


def test_chart_directions_are_eigenvectors():
    lin = core.linearization(5, "even")
    exponents = (1.0, 3.0)
    v = lin.eigenvectors[:, [lin.eigenvalues.index(lam) for lam in exponents]]
    for j, lam in enumerate(exponents):
        assert np.array_equal(lin.matrix @ v[:, j], lam * v[:, j])
    # dw0 = W Z^-1 exactly: Z holds the (phi, phi'') rows, W the (phi', phi''') rows
    (a, b), (c, d) = [[Fraction(x) for x in v[r]] for r in (0, 2)]
    det = a * d - b * c
    z_inv = ((d / det, -b / det), (-c / det, a / det))
    w = [[Fraction(x) for x in v[r]] for r in (1, 3)]
    dw0 = tuple(tuple(sum(w[i][k] * z_inv[k][j] for k in range(2)) for j in range(2)) for i in range(2))
    assert dw0 == manifold.CHART.dw0 == ((0.75, 0.25), (-2.25, 3.25))


def test_seed_state_axis_examples():
    s = manifold.seed_state(manifold.SeedSpec(EPS0, 0.0))
    assert (s.phi, s.dphi, s.d2phi, s.d3phi) == (EPS0, 0.75 * EPS0, 0.0, -2.25 * EPS0)
    s = manifold.seed_state(manifold.SeedSpec(EPS0, math.pi / 2))
    assert abs(s.phi) < 1e-18
    assert s.d2phi == pytest.approx(EPS0, rel=1e-15)
    assert s.dphi == pytest.approx(0.25 * EPS0, rel=1e-12)
    assert s.d3phi == pytest.approx(3.25 * EPS0, rel=1e-12)


def test_seed_antipodal_symmetry():
    for theta in (-1.1, 0.0, 0.4, 1.3):
        a = manifold.seed_state(manifold.SeedSpec(EPS0, theta + math.pi)).as_array()
        b = manifold.seed_state(manifold.SeedSpec(EPS0, theta)).as_array()
        assert np.allclose(a, -b, atol=1e-15)


def test_seed_spec_validation():
    with pytest.raises(ValueError):
        manifold.SeedSpec(0.0, 0.0)
    with pytest.raises(ValueError):
        manifold.SeedSpec(0.2, 0.0)
    with pytest.raises(ValueError):
        manifold.SeedSpec(float("nan"), 0.0)
    with pytest.raises(ValueError):
        manifold.SeedSpec(EPS0, float("inf"))


def test_theta0_tends_to_arctan():
    limit = math.atan(2.0 * SQRT6)
    assert abs(manifold.theta0(1e-6) - limit) < 1e-12
    assert abs(manifold.theta0(1e-3) - limit) < 1e-7


def test_theta0_seed_sits_on_the_boundary_arc():
    for eps0 in (1e-3, 0.05):
        t0 = manifold.theta0(eps0)
        s = manifold.seed_state(manifold.SeedSpec(eps0, t0))
        assert abs(s.d2phi - 2.0 * SQRT6 * math.sin(s.phi)) < 1e-12
        above = manifold.seed_state(manifold.SeedSpec(eps0, t0 + 1e-3))
        below = manifold.seed_state(manifold.SeedSpec(eps0, t0 - 1e-3))
        assert regions.in_region_C(above.phi, above.d2phi) is regions.Membership.OUTSIDE
        assert regions.in_region_C(below.phi, below.d2phi) is regions.Membership.INSIDE


def test_theta0_is_the_least_double_on_the_arc():
    # bisection to adjacent doubles; brentq gave the same value at 1e-3
    t0 = manifold.theta0(1e-3)
    assert t0 == 1.3694384046981714

    def gap(th):
        return 2.0 * SQRT6 * math.sin(1e-3 * math.cos(th)) - 1e-3 * math.sin(th)

    assert gap(t0) <= 0.0 < gap(math.nextafter(t0, 0.0))


def test_theta0_validation():
    for bad in (0.0, -1e-3, 0.2, float("nan")):
        with pytest.raises(ValueError):
            manifold.theta0(bad)


def test_classification_reference_angles():
    t0 = manifold.theta0(EPS0)
    up = manifold.classify_orbit(manifold.SeedSpec(EPS0, t0 + 0.05))
    assert up.outcome is manifold.Outcome.BLOWUP_PLUS
    assert up.g == 1
    assert up.tau is not None and 0.0 < up.tau < 25.0
    assert up.end_state.d2phi == pytest.approx(2.0 * SQRT6, abs=1e-6)

    down = manifold.classify_orbit(manifold.SeedSpec(EPS0, -math.pi / 2))
    assert down.outcome is manifold.Outcome.BLOWUP_MINUS
    assert down.g == -1
    assert down.end_state.d2phi == pytest.approx(-2.0 * SQRT6, abs=1e-6)


def test_reflected_seed_flips_g():
    t0 = manifold.theta0(EPS0)
    up = manifold.classify_orbit(manifold.SeedSpec(EPS0, t0 + 0.05))
    refl = manifold.classify_orbit(manifold.SeedSpec(EPS0, t0 + 0.05 + math.pi))
    assert refl.outcome is manifold.Outcome.BLOWUP_MINUS
    assert refl.g == -up.g
    assert refl.tau == pytest.approx(up.tau, abs=1e-9)


def test_gate_persists_until_blowup():
    t0 = manifold.theta0(EPS0)
    res = manifold.classify_orbit(manifold.SeedSpec(EPS0, t0 + 0.05))
    cont = integrate.integrate(
        5, res.end_state.as_array(), s0=res.tau,
        cfg=integrate.IntegrationConfig(max_span=25.0),
    )
    assert cont.termination.kind is integrate.TerminationKind.BLOWUP_DETECTED
    assert float(np.min(cont.states[:, 2])) >= 2.0 * SQRT6 - 1e-9


def test_span_exhaustion_far_from_target_is_undecided():
    res = manifold.classify_orbit(
        manifold.SeedSpec(EPS0, 0.3), integrate.IntegrationConfig(max_span=2.0)
    )
    assert res.outcome is manifold.Outcome.UNDECIDED
    assert res.g is None and res.tau is None
    assert "span exhausted" in res.note


# The double connecting angle at the default tolerances.
_THETA_STAR = 0.7853979288946605
_T0 = manifold.theta0(EPS0)


@pytest.mark.parametrize(
    "theta, tau_tol",
    [(th, 1e-8) for th in (-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.2)]
    + [(_THETA_STAR + off, 1e-8) for off in (-1e-2, 1e-2)]
    + [(_T0 - off, 1e-8) for off in (1e-3, 1e-5, 1e-7, 0.0)]
    # Closer to theta* the orbit shadows the equator, whose unstable exponent
    # 2.499 amplifies the RK45 tolerance error: the two step caps then give
    # taus up to 2.2e-6 apart (at 1e-8 off) with identical event steps.
    + [(_THETA_STAR + off, 1e-5) for off in (-1e-4, 1e-4, -1e-6, 1e-6, -1e-8, 1e-8)],
)
def test_gate_events_are_not_missed_inside_a_step(theta, tau_tol):
    # A phi'' graze of +-c* that enters and leaves between two scan points of
    # one step is missed at the default step cap but seen at max_step/16; the
    # run then stops at a later gate or the other one.
    spec = manifold.SeedSpec(EPS0, theta)
    coarse = manifold.classify_orbit(spec)
    fine = manifold.classify_orbit(
        spec, integrate.IntegrationConfig(max_step=integrate.IntegrationConfig().max_step / 16)
    )
    assert fine.outcome is coarse.outcome
    assert fine.g == coarse.g
    assert fine.tau == pytest.approx(coarse.tau, abs=tau_tol)


def test_bisection_locates_the_connecting_angle():
    theta_star, res = manifold.find_heteroclinic(theta_tol=1e-10)
    assert abs(theta_star - math.pi / 4) < 1e-5
    assert res.outcome in (manifold.Outcome.BLOWUP_PLUS, manifold.Outcome.BLOWUP_MINUS)
    traj = integrate.integrate(
        5, manifold.seed_state(manifold.SeedSpec(EPS0, theta_star)),
        cfg=integrate.IntegrationConfig(max_span=25.0),
    )
    target = np.array([math.pi / 2, 0.0, 0.0, 0.0])
    dist = np.linalg.norm(traj.states - target, axis=1)
    assert float(dist.min()) < 0.5


_SHOOT_CFG = integrate.IntegrationConfig(max_span=config.SHOOT_SPAN)


@pytest.mark.parametrize("eps0, theta, cfg, watched", [
    (EPS0, 0.7853979288854969, _SHOOT_CFG, 0),  # shoot's theta*
    (EPS0, -0.5 * math.pi, _SHOOT_CFG, 0),
    (EPS0, manifold.theta0(EPS0) + 0.05, _SHOOT_CFG, 0),  # the default bracket
    (0.05, 0.784810845396603, integrate.IntegrationConfig(max_span=6.0), 1),  # span exhausted
])
def test_classified_orbit_reads_the_gate_from_the_unwatched_orbit(
        eps0, theta, cfg, watched, monkeypatch):
    spec = manifold.SeedSpec(eps0, theta)
    want = manifold.classify_orbit(spec, cfg)
    calls = []
    run = integrate.integrate

    def recording(*args, watch=(), **kwargs):
        calls.append(tuple(watch))
        return run(*args, watch=watch, **kwargs)

    monkeypatch.setattr(integrate, "integrate", recording)
    res, orbit = manifold._classified_orbit(spec, cfg)
    assert repr(res) == repr(want)
    assert calls == [()] + [manifold._GATES] * watched
    bare = run(5, manifold.seed_state(spec), cfg=cfg)
    assert np.array_equal(orbit.s, bare.s) and np.array_equal(orbit.states, bare.states)


def test_theta_star_stable_under_radius_halving():
    a, _ = manifold.find_heteroclinic(theta_tol=1e-10, eps0=1e-3)
    b, _ = manifold.find_heteroclinic(theta_tol=1e-10, eps0=5e-4)
    assert abs(a - b) < 1e-6


def test_bisection_narrows_through_undecided_midpoints():
    # with a short span the near-connecting midpoints exhaust the span deep
    # inside the region; the bracket must still collapse around theta*
    cfg = integrate.IntegrationConfig(max_span=12.0)
    theta_star, res = manifold.find_heteroclinic(theta_tol=1e-14, cfg=cfg, eps0=0.05)
    assert abs(theta_star - 0.7848110966) < 1e-8
    assert res.outcome is manifold.Outcome.UNDECIDED
    assert "span exhausted" in res.note


def test_bisection_rejects_bad_input():
    with pytest.raises(ValueError):
        manifold.find_heteroclinic(bracket=(-1.0, 0.0))
    with pytest.raises(ValueError):
        manifold.find_heteroclinic(theta_tol=0.0)
    with pytest.raises(ValueError):
        manifold.find_heteroclinic(bracket=(0.5, 0.2))
    with pytest.raises(ValueError, match="finite width"):
        manifold.find_heteroclinic(bracket=(-1.7e308, 1.7e308))


ROOT = 0.7853979288854969
BRACKET = (-0.5 * math.pi, 1.4194384046981714)  # the default shooting bracket


def _signed(magnitude):
    """An ordinate with the sign of x - ROOT (+ at ROOT) and the given size."""
    return lambda x: math.copysign(magnitude(abs(x - ROOT)), x - ROOT)


SYNTHETIC_ORDINATES = {
    "kink_100": lambda x: 100.0 * (x - ROOT) if x < ROOT else x - ROOT,
    "plateau_1e-9": _signed(lambda d: d if d >= 0.1 else 1e-9),
    "power_0.1": _signed(lambda d: d ** 0.1),
    "power_3": _signed(lambda d: d ** 3),
    "power_10_floored": _signed(lambda d: max(d ** 10, 1e-300)),
    "exp_50": lambda x: math.exp(50.0 * (x - ROOT)) - 1.0,
}


def _search(f, tol):
    """`_itp_search` on BRACKET, and the points at which it called f."""
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    lo, hi = BRACKET
    return manifold._itp_search(counted, lo, hi, f(lo), f(hi), tol), calls


@pytest.mark.parametrize("tol", [1e-3, 1e-10, 1e-13, 1e-300, math.ulp(0.0)])
@pytest.mark.parametrize("name", SYNTHETIC_ORDINATES)
def test_itp_search_keeps_the_bracket_and_the_bisection_bound(name, tol):
    f = SYNTHETIC_ORDINATES[name]
    lo, hi = BRACKET
    (a, b), calls = _search(f, tol)
    assert lo <= a <= ROOT <= b <= hi
    assert not f(a) > 0.0 and f(b) > 0.0
    assert b - a <= tol or b == math.nextafter(a, math.inf)
    assert all(lo < x < hi for x in calls)
    assert len(calls) <= math.ceil(math.log2(hi - lo) - math.log2(tol)) + 1


def test_itp_search_interpolates_a_linear_ordinate():
    (a, b), calls = _search(lambda x: x - ROOT, 1e-10)
    assert a < ROOT <= b and b - a <= 1e-10
    assert len(calls) <= 12


def test_itp_search_collapses_on_undecided_ordinates():
    # every trial reads +-1e-300 in turn, as an undecided orbit does
    undecided = itertools.cycle((-1e-300, 1e-300))
    (a, b), calls = _search(lambda x: next(undecided), 1e-10)
    assert b - a <= 1e-10
    assert len(calls) <= math.ceil(math.log2((BRACKET[1] - BRACKET[0]) / 1e-10)) + 1


def test_equator_exponent_is_the_largest_odd_eigenvalue():
    eigs = np.linalg.eigvals(core.linearization(manifold.D, "odd").matrix)
    assert manifold._EQUATOR_EXPONENT == pytest.approx(max(eigs.real), rel=1e-14)


def test_forward_growth_rates_match_the_exponents():
    # Near the origin a seeded orbit's projections onto the eigenvectors of
    # the exponents 1 and 3 grow like e^s and e^(3 s): fit log|projection|
    # against s while the orbit stays small.
    lin = core.linearization(5, "even")
    cfg = integrate.IntegrationConfig(max_span=3.0)
    for theta in (0.3, math.pi / 2):
        traj = integrate.integrate(5, manifold.seed_state(manifold.SeedSpec(EPS0, theta)), cfg=cfg)
        coords = np.linalg.solve(lin.eigenvectors, traj.states.T)
        small = np.max(np.abs(traj.states), axis=1) < 0.02
        assert small.sum() > 20
        for lam in (1.0, 3.0):
            row = coords[lin.eigenvalues.index(lam)][small]
            rate = np.polyfit(traj.s[small], np.log(np.abs(row)), 1)[0]
            assert abs(rate - lam) <= 1e-3, (theta, lam, rate)


def test_grid_changes_sign_once_and_is_worker_invariant(tmp_path):
    t0 = manifold.theta0(EPS0)
    grid = np.linspace(-math.pi / 2, t0, 21)
    seq = manifold.classification_grid(grid, workers=1)
    par = manifold.classification_grid(grid, workers=4)
    assert [(r.outcome, r.g, r.tau) for r in seq] == [(r.outcome, r.g, r.tau) for r in par]
    gs = [r.g for r in seq]
    assert all(g in (-1, 1) for g in gs)
    assert sum(1 for a, b in zip(gs, gs[1:]) if a * b < 0) == 1

    path = tmp_path / "grid.csv"
    manifold.write_grid_csv(seq, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "theta,outcome,g,tau,phi,dphi,d2phi,d3phi"
    assert len(lines) == 22
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(-math.pi / 2)
    assert first[1] == "blowup_minus"
    assert int(first[2]) == -1


def test_refine_rejects_bad_input():
    with pytest.raises(ValueError):
        manifold.refine_heteroclinic(math.nan)
    with pytest.raises(ValueError):
        manifold.refine_heteroclinic(0.7854, eps0=0.5)
    # far from the connecting angle a Newton iterate blows up
    with pytest.raises(ValueError, match="blew up"):
        manifold.refine_heteroclinic(1.0)


def test_grid_and_serial_agree_on_heteroclinic_candidates(monkeypatch):
    # a loose closeness makes short orbits near the equator candidates, so
    # the grid's lazy region check meets both of its answers
    monkeypatch.setattr(config, "HETEROCLINIC_TOL", 2.0)
    cfg = integrate.IntegrationConfig(max_span=1.0)
    thetas = list(np.linspace(-3.0, 3.0, 25))
    grid = manifold.classification_grid(thetas, cfg=cfg)
    outcomes = {r.outcome for r in grid}
    assert {manifold.Outcome.HETEROCLINIC_CANDIDATE, manifold.Outcome.UNDECIDED} <= outcomes
    for th, r in zip(thetas, grid):
        assert _fields(r) == _fields(manifold.classify_orbit(manifold.SeedSpec(EPS0, th), cfg))


def test_classification_grid_validation():
    with pytest.raises(ValueError):
        manifold.classification_grid([0.0], workers=0)
    # the seed radius is checked whether or not there are angles
    for thetas in ([0.0], []):
        for eps0 in (5.0, float("nan")):
            with pytest.raises(ValueError):
                manifold.classification_grid(thetas, eps0=eps0)


# Lanes of the lockstep grid integrator.

_GATE_CASES = (
    [(th, 1e-8) for th in (-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.2)]
    + [(_THETA_STAR + off, 1e-8) for off in (-1e-2, 1e-2)]
    + [(_T0 - off, 1e-8) for off in (1e-3, 1e-5, 1e-7, 0.0)]
    + [(_THETA_STAR + off, 1e-5) for off in (-1e-4, 1e-4, -1e-6, 1e-6, -1e-8, 1e-8)]
)


def _fields(r):
    return (r.theta, r.outcome, r.g, r.tau, r.end_state.as_array().tobytes())


def test_grid_lanes_do_not_depend_on_the_batch(monkeypatch):
    # criterion 10's angles: a lane's bits depend on its own seed only; with
    # no handoff, grids this small run in lockstep too
    monkeypatch.setattr(integrate, "_HANDOFF_LANES", 0)
    thetas = list(np.linspace(0.5, 1.2, 15))
    together = [_fields(r) for r in manifold.classification_grid(thetas)]
    alone = [_fields(manifold.classification_grid([th])[0]) for th in thetas]
    reversed_ = [_fields(r) for r in manifold.classification_grid(thetas[::-1])][::-1]
    serial = [_fields(manifold.classify_orbit(manifold.SeedSpec(EPS0, th))) for th in thetas]
    assert together == alone == reversed_ == serial


def test_grid_lanes_agree_with_classify_orbit():
    # one Dormand-Prince kernel: a lane ends bit for bit as the serial orbit
    thetas = list(np.linspace(-math.pi / 2, _T0, 200)) + [th for th, _ in _GATE_CASES]
    lanes = manifold.classification_grid(thetas)
    for th, lane in zip(thetas, lanes):
        assert _fields(lane) == _fields(manifold.classify_orbit(manifold.SeedSpec(EPS0, th))), th


def test_grid_lanes_do_not_miss_gate_events_inside_a_step():
    thetas = [th for th, _ in _GATE_CASES]
    fine_cfg = integrate.IntegrationConfig(max_step=integrate.IntegrationConfig().max_step / 16)
    coarse = manifold.classification_grid(thetas)
    fine = manifold.classification_grid(thetas, cfg=fine_cfg)
    for (th, tau_tol), c, f in zip(_GATE_CASES, coarse, fine):
        assert f.outcome is c.outcome, th
        assert f.g == c.g, th
        assert f.tau == pytest.approx(c.tau, abs=tau_tol), th


def test_grid_lanes_map_span_exhaustion_and_empty_input():
    assert manifold.classification_grid([]) == []
    cfg = integrate.IntegrationConfig(max_span=2.0)
    (lane,) = manifold.classification_grid([0.3], cfg=cfg)
    serial = manifold.classify_orbit(manifold.SeedSpec(EPS0, 0.3), cfg)
    assert lane.outcome is manifold.Outcome.UNDECIDED
    assert lane.g is None and lane.tau is None
    assert lane.note.split(" at distance")[0] == serial.note.split(" at distance")[0]
