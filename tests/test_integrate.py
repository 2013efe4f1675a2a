import csv
import dataclasses
import math
import subprocess
import sys

import numpy as np
import pytest

from biwind import config, core, integrate as itg, manifold


def _connection_jet(s, c=0.0, k=0, refl=False):
    """Jet of the explicit bounded d=4 orbit 2*arctan(exp(s-c)) + k*pi."""
    sech = 1.0 / math.cosh(s - c)
    th = math.tanh(s - c)
    x = np.array(
        [2.0 * math.atan(math.exp(s - c)), sech, -sech * th, sech * (th * th - sech * sech)]
    )
    if refl:
        x = -x
    x[0] += k * math.pi
    return x


@pytest.mark.parametrize("d", [4, 5, 6, 7])
def test_internal_rhs_agrees_with_public_field(d):
    fwd = itg._make_rhs(d, reverse=False)
    rev = itg._make_rhs(d, reverse=True)
    J = core.REVERSAL_SIGNS
    rng = np.random.default_rng(91 + d)
    for _ in range(50):
        x = rng.uniform(-2.5, 2.5, size=4)
        assert np.array_equal(fwd(0.0, x), core.vector_field(d, x))
        assert np.array_equal(rev(0.0, x), -J * core.vector_field(d, J * x))


@pytest.mark.parametrize("d", [5, 6, 7])
def test_lane_rhs_matches_public_field_column_by_column(d):
    # the lanes evaluate the same closure as the serial integrator, on (4, n) arrays
    rng = np.random.default_rng(17 + d)
    x = rng.uniform(-2.5, 2.5, size=(4, 500))
    got = np.array(itg._make_rhs(d, reverse=False, ctx=core.NUMPY)(0.0, x))
    scalar = itg._make_rhs(d, reverse=False)
    phi, v, y, w = x
    d1, k, c3, gk, a = core._field_constants(d)
    terms = np.abs([
        (d1 * np.cos(2.0 * phi) + k) * y,  # q phi''
        c3 * np.sin(2.0 * phi),  # f
        (6.0 * y - d1 * np.sin(2.0 * phi)) * v * v,
        a * (d1 * np.cos(2.0 * phi) + gk) * v,  # 2 (d-4) g phi'
        2.0 * a * v ** 3,
        2.0 * a * w,
    ]).max(axis=0)
    for j in range(x.shape[1]):
        want = core.vector_field(d, x[:, j])
        scale = np.maximum(np.abs(want), terms[j])
        assert np.all(np.abs(got[:, j] - want) <= 1e-14 * scale), j
        assert np.array_equal(got[:, j], scalar(0.0, x[:, j]))


def test_tableau_is_dormand_prince_as_in_scipy():
    rk45 = pytest.importorskip("scipy.integrate").RK45
    for s, row in enumerate(itg._A):
        assert np.array_equal(row, rk45.A[s, :s]), s
    assert np.array_equal(itg._B, rk45.B)
    assert np.array_equal(itg._E, rk45.E)
    assert np.array_equal(itg._P, rk45.P)


# ---------------------------------------------------------------------------
# The serial step generated from the tableau against `_combo`, component by
# component, compared bit for bit.


def _combo_step(rhs, y, f, h, atol, rtol):
    """The serial trial step and error norm written with `_combo`, one component at a time."""
    K = [f]
    for a in itg._A[1:]:
        K.append(rhs(0.0, [yc + itg._combo(kc, a) * h for yc, kc in zip(y, zip(*K))]))
    y_new = [yc + h * itg._combo(kc, itg._B) for yc, kc in zip(y, zip(*K))]
    K.append(rhs(0.0, y_new))
    err = itg._rms([
        itg._combo(kc, itg._E) * h / (atol + max(abs(a), abs(b)) * rtol)
        for kc, a, b in zip(zip(*K), y, y_new)
    ], math.sqrt)
    return y_new, K, err


def _combo_reach(y, K, h):
    return [abs(yc) + h * itg._combo([abs(k) for k in kc], itg._P_REACH)
            for yc, kc in zip(y, zip(*K))]


def _hex(x):
    return x.hex() if isinstance(x, float) else [_hex(v) for v in x]


def _run_step(kernel, rhs, y, f, h):
    """Hex of every stage input, then of (y_new, stages, error norm, reach), or
    the error's type, of one trial step by `kernel` = (trial step, reach)."""
    step, reach = kernel
    inputs = []

    def recording(s, x):
        inputs.append(_hex(list(x)))
        return rhs(s, x)

    try:
        y_new, K, err = step(recording, y, f, h, 1e-12, 1e-10)
    except ValueError as exc:
        return inputs, type(exc)
    return inputs, _hex([y_new, K, err, reach(y, K, h)])


_GENERATED, _COMBO = (itg._trial_step, itg._reach), (_combo_step, _combo_reach)


_SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-300, 1.0, -1.5, 1e300, -1e308,
            math.inf, -math.inf, math.nan)


def _field_jets():
    # Jets of mixed scale, then jets up to 1e110, where large steps overflow a stage.
    rng = np.random.default_rng(2024)
    for top in [3] * 300 + [110] * 100:
        y = (rng.choice([-1.0, 1.0], 4) * 10.0 ** rng.uniform(-3, top, 4)).tolist()
        yield y, float(10.0 ** rng.uniform(-300, 3))
    for y in ([0.0] * 4, [-0.0, 0.0, -0.0, -0.0], [5e-324, -2.5e-310, 1e-320, -5e-324]):
        for h in (1e-300, 1e-3, 1.0, 1e3):
            yield y, h


@pytest.mark.parametrize("reverse", [False, True])
def test_generated_step_matches_combo_on_the_field(reverse):
    rhs = itg._make_rhs(5, reverse)
    raised = 0
    for y, h in _field_jets():
        f = rhs(0.0, y)
        got = _run_step(_GENERATED, rhs, y, f, h)
        assert got == _run_step(_COMBO, rhs, y, f, h), (y, h)
        raised += got[1] is ValueError
    assert 0 < raised < 100


def test_generated_step_raises_at_the_stage_that_overflows():
    rhs = itg._make_rhs(5)
    y = [0.3, 1e100, -2.0, 1.0]
    f = rhs(0.0, y)
    got = _run_step(_GENERATED, rhs, y, f, 1e3)
    assert got == _run_step(_COMBO, rhs, y, f, 1e3)
    assert got[1] is ValueError and len(got[0]) == 4  # stage 4's phi is -inf


def test_generated_step_matches_combo_on_special_stages():
    # Scripted stages of -0.0, subnormals, huge values, inf and nan: a product
    # with a zero weight and the order of every sum show in the bits.
    rng = np.random.default_rng(7)
    for trial in range(3000):
        y = [float(v) for v in rng.choice(_SPECIAL, 4)]
        K = [tuple(float(v) for v in rng.choice(_SPECIAL, 4)) for _ in itg._E]
        if trial % 5 == 0:
            K[rng.integers(len(K))] = (0.0,) * 4
        h = float(10.0 ** rng.uniform(-300, 3))
        runs = []
        for kernel in (_GENERATED, _COMBO):
            stages = iter(K[1:])
            runs.append(_run_step(kernel, lambda s, x: next(stages), y, K[0], h))
        assert runs[0] == runs[1], (y, K, h)


def test_cli_import_does_not_load_scipy():
    code = "import biwind.cli, sys; assert not [m for m in sys.modules if m.startswith('scipy')]"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


def test_event_refinement_below_the_spacing_of_s_returns():
    # 1e-20 is far below the spacing of doubles near s ~ 1, so the bisection
    # must stop once its midpoint rounds onto an end of the bracket
    code = (
        "from biwind import integrate, manifold;"
        "cfg = integrate.IntegrationConfig(event_refine_tol=1e-20);"
        "res = manifold.classify_orbit(manifold.SeedSpec(1e-3, 0.5), cfg);"
        "assert res.g in (-1, 1), res"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


def test_bisect_ends_at_adjacent_doubles():
    third = 1.0 / 3.0
    assert itg.bisect(lambda t: t >= third, 0.0, 1.0) == (math.nextafter(third, 0.0), third)
    assert itg.bisect(lambda t: t >= 0.3, 0.0, 1.0, tol=0.25) == (0.25, 0.5)


_GATE_WATCH = [itg.EventKind.SECOND_DERIV_UP, itg.EventKind.SECOND_DERIV_DOWN]


@pytest.mark.parametrize("d", [5, 6])
@pytest.mark.parametrize("cfg", [
    itg.IntegrationConfig(max_span=3.0, blowup_norm=50.0),  # gate events
    itg.IntegrationConfig(max_span=1.5, blowup_norm=3.0),   # blowup and span ends
])
def test_lanes_end_as_the_serial_integrator(d, cfg):
    seeds = [
        [0.0, 0.0, 4.0, 0.0], [0.2, 0.5, 1.0, 1.0], [0.2, 0.5, 4.0, 5.0],
        [-0.2, -0.5, -4.0, -5.0], [1e-3, 7.5e-4, 0.0, -2.25e-3], [0.01, 0.0, 0.0, 0.0],
        [0.25, 0.1, 0.0, 0.0], [0.5, 2.0, 0.0, 0.0], [0.0, 0.0, 60.0, 0.0],
    ]
    lanes = itg.integrate_lanes(d, seeds, cfg, keep=lambda y: y[0] > -0.01)
    kinds = set()
    for x0, lane in zip(seeds, lanes):
        traj = itg.integrate(d, x0, cfg=cfg, watch=_GATE_WATCH)
        term = traj.termination
        assert (lane.end.kind, lane.end.event) == (term.kind, term.event)
        assert lane.end.s_last == term.s_last
        assert np.array_equal(lane.state.as_array(), traj.states[-1])
        if term.kind is itg.TerminationKind.SPAN_EXHAUSTED:
            assert lane.kept == bool(np.all(traj.states[:, 0] > -0.01))
        kinds.add(term.kind)
    assert len(kinds) >= 2


def test_lanes_take_the_earliest_crossing_of_a_long_step():
    # loose tolerances and a long step cap put the norm cap and the gate into
    # one step, often into different scan intervals; the first one must win
    cfg = itg.IntegrationConfig(blowup_norm=5.0, rel_tol=1e-6, abs_tol=1e-6, max_step=1.0)
    rng = np.random.default_rng(5)
    seeds = rng.uniform(-3.0, 3.0, size=(60, 4))
    seeds[:, 2] = rng.uniform(3.0, 4.8, size=60)
    lanes = itg.integrate_lanes(5, seeds, cfg)
    kinds = set()
    for x0, lane in zip(seeds, lanes):
        term = itg.integrate(5, x0, cfg=cfg, watch=_GATE_WATCH).termination
        assert (lane.end.kind, lane.end.event) == (term.kind, term.event)
        assert lane.end.s_last == term.s_last
        kinds.add(term.kind)
    assert kinds == {itg.TerminationKind.BLOWUP_DETECTED, itg.TerminationKind.EVENT_STOP}


def test_lane_step_underflow_retires_only_that_lane():
    # phi'' starts above c* and runs off to a singularity before the norm cap
    cfg = itg.IntegrationConfig(blowup_norm=1e300, max_span=3.0)
    seeds = [[0.2, 0.5, 6.0, 5.0], [1e-3, 7.5e-4, 0.0, -2.25e-3]]
    lanes = itg.integrate_lanes(5, seeds, cfg)
    with pytest.raises(itg.IntegrationError) as serial:
        itg.integrate(5, seeds[0], cfg=cfg, watch=_GATE_WATCH)
    err = lanes[0].end
    assert isinstance(err, itg.IntegrationError)
    assert str(err) == str(serial.value)
    assert err.s_last == serial.value.s_last
    assert lanes[0].state is err.state_last
    traj = itg.integrate(5, seeds[1], cfg=cfg, watch=_GATE_WATCH)
    assert lanes[1].end.event == traj.termination.event == "second_deriv_down"


def test_lanes_validate_their_seeds():
    assert itg.integrate_lanes(5, []) == []
    with pytest.raises(ValueError):
        itg.integrate_lanes(5, [[0.0, 0.0, float("nan"), 0.0]])
    with pytest.raises(ValueError):
        itg.integrate_lanes(11, [[0.1, 0.0, 0.0, 0.0]])


def test_tracks_explicit_connection_over_short_span():
    # Injected local error rides the lambda=3 mode, so the tolerance loosens
    # with exp(3*span); span 4 keeps it comfortably below 1e-5.
    traj = itg.integrate(4, _connection_jet(0.0), cfg=itg.IntegrationConfig(max_span=4.0))
    assert traj.termination.kind is itg.TerminationKind.SPAN_EXHAUSTED
    worst = max(
        float(np.max(np.abs(traj.states[k] - _connection_jet(traj.s[k]))))
        for k in range(len(traj.s))
    )
    assert worst < 1e-5


def test_span_exhausted_lands_exactly_on_the_bound():
    traj = itg.integrate(4, _connection_jet(0.0), cfg=itg.IntegrationConfig(max_span=3.0))
    assert traj.termination.kind is itg.TerminationKind.SPAN_EXHAUSTED
    assert traj.s[-1] == 3.0
    assert traj.termination.s_last == 3.0


def test_sample_grid_strictly_increasing():
    traj = itg.integrate(4, _connection_jet(0.0), cfg=itg.IntegrationConfig(max_span=3.0))
    assert np.all(np.diff(traj.s) > 0)
    x0 = np.array([0.4, 0.3, -0.2, 0.5])
    blown = itg.integrate(5, x0)
    assert np.all(np.diff(blown.s) > 0)


def test_round_trip_forward_then_reversed():
    # d=4 bounded orbit and a short d=5 arc both return to the start.
    f4 = itg.integrate(4, _connection_jet(0.0), cfg=itg.IntegrationConfig(max_span=3.0))
    b4 = itg.integrate_reversed(4, f4.states[-1], cfg=itg.IntegrationConfig(max_span=3.0))
    assert np.max(np.abs(b4.states[-1] - _connection_jet(0.0))) < 1e-5

    x0 = np.array([0.4, 0.3, -0.2, 0.5])
    f5 = itg.integrate(5, x0, cfg=itg.IntegrationConfig(max_span=1.2))
    assert f5.termination.kind is itg.TerminationKind.SPAN_EXHAUSTED
    b5 = itg.integrate_reversed(5, f5.states[-1], cfg=itg.IntegrationConfig(max_span=1.2))
    assert np.max(np.abs(b5.states[-1] - x0)) < 1e-5


def test_reversed_first_sample_is_the_seed():
    x0 = np.array([0.3, -0.4, 0.9, -1.1])
    traj = itg.integrate_reversed(5, x0, cfg=itg.IntegrationConfig(max_span=0.5))
    assert np.array_equal(traj.states[0], x0)


def test_reversed_matches_negated_arclength():
    # The state integrate_reversed reports at sigma equals the forward-orbit
    # state at -sigma: run forward from the backward endpoint to check.
    x0 = np.array([0.2, 0.1, -0.3, 0.4])
    back = itg.integrate_reversed(5, x0, cfg=itg.IntegrationConfig(max_span=1.0))
    fwd = itg.integrate(5, back.states[-1], cfg=itg.IntegrationConfig(max_span=1.0))
    assert np.max(np.abs(fwd.states[-1] - x0)) < 1e-6


def test_blowup_termination_records_threshold_crossing():
    x0 = np.array([0.4, 0.3, -0.2, 0.5])
    traj = itg.integrate(5, x0)
    term = traj.termination
    assert term.kind is itg.TerminationKind.BLOWUP_DETECTED
    assert term.s_last == traj.s[-1] < itg.IntegrationConfig().max_span
    final_sup = float(np.max(np.abs(traj.states[-1])))
    assert final_sup == term.norm
    assert final_sup > itg.IntegrationConfig().blowup_norm
    # refinement stops just past the threshold, not far beyond it
    assert final_sup < 1.01 * itg.IntegrationConfig().blowup_norm
    assert float(np.max(np.abs(traj.states[-2]))) <= itg.IntegrationConfig().blowup_norm


def test_blowup_immediate_when_seed_already_exceeds_threshold():
    x0 = np.array([0.0, 0.0, 2e8, 0.0])
    traj = itg.integrate(5, x0)
    assert traj.termination.kind is itg.TerminationKind.BLOWUP_DETECTED
    assert len(traj.s) == 1 and traj.s[0] == 0.0
    assert traj.termination.norm == 2e8


def test_second_deriv_up_event_stops_at_c_star():
    cs = core.c_star(5)
    x0 = np.array([0.2, 0.5, 4.0, 5.0])
    traj = itg.integrate(5, x0, watch=[itg.EventKind.SECOND_DERIV_UP])
    assert traj.termination.kind is itg.TerminationKind.EVENT_STOP
    assert traj.termination.event == "second_deriv_up"
    name, s_ev, state = traj.termination.event, traj.termination.s_last, traj.state_at_end()
    assert name == "second_deriv_up"
    assert s_ev == traj.s[-1]
    assert isinstance(state, core.State)
    assert state.d2phi >= cs
    assert abs(state.d2phi - cs) < 1e-6


def test_second_deriv_down_event_is_the_reflected_stop():
    # Reflection symmetry maps the upward crossing of +c_star to the
    # downward crossing of -c_star.
    cs = core.c_star(5)
    x0 = -np.array([0.2, 0.5, 4.0, 5.0])
    traj = itg.integrate(5, x0, watch=[itg.EventKind.SECOND_DERIV_DOWN])
    assert traj.termination.kind is itg.TerminationKind.EVENT_STOP
    assert traj.termination.event == "second_deriv_down"
    state = traj.state_at_end()
    assert state.d2phi <= -cs
    assert abs(state.d2phi + cs) < 1e-6


def test_watch_entries_validate_dimension():
    with pytest.raises(ValueError):
        itg.integrate(4, _connection_jet(0.0), watch=[itg.EventKind.SECOND_DERIV_UP])
    with pytest.raises(ValueError):
        itg.integrate(5, np.array([0.1, 0.1, 0.1, 0.1]), watch=["not-an-event"])


def test_sample_at_returns_stored_nodes_exactly():
    traj = itg.integrate(4, _connection_jet(0.0), cfg=itg.IntegrationConfig(max_span=3.0))
    for k in (0, len(traj.s) // 2, len(traj.s) - 1):
        got = itg.sample_at(traj, float(traj.s[k])).as_array()
        assert np.array_equal(got, traj.states[k])


def test_sample_at_dense_interior_matches_fresh_integration():
    traj = itg.integrate(4, _connection_jet(0.0), cfg=itg.IntegrationConfig(max_span=3.0))
    mid = 1.37
    dense = itg.sample_at(traj, mid).as_array()
    fresh = itg.integrate(4, _connection_jet(0.0), cfg=itg.IntegrationConfig(max_span=mid))
    assert np.max(np.abs(dense - fresh.states[-1])) < 1e-8


def test_sample_at_rejects_points_outside_the_run():
    traj = itg.integrate(4, _connection_jet(0.0), cfg=itg.IntegrationConfig(max_span=2.0))
    with pytest.raises(ValueError):
        itg.sample_at(traj, -0.1)
    with pytest.raises(ValueError):
        itg.sample_at(traj, 2.1)


def test_sample_at_on_reversed_trajectory():
    x0 = np.array([0.3, -0.4, 0.9, -1.1])
    traj = itg.integrate_reversed(5, x0, cfg=itg.IntegrationConfig(max_span=1.0))
    for k in (0, len(traj.s) - 1):
        got = itg.sample_at(traj, float(traj.s[k])).as_array()
        assert np.array_equal(got, traj.states[k])
    # dense point agrees with the nearest stored samples to interpolation order
    mid = 0.5 * (traj.s[3] + traj.s[4])
    dense = itg.sample_at(traj, float(mid)).as_array()
    assert np.max(np.abs(dense - traj.states[3])) < 0.1


def test_tolerance_and_step_cap_consistency():
    base = itg.integrate(4, _connection_jet(0.0), cfg=itg.IntegrationConfig(max_span=3.0))
    tight = itg.integrate(
        4,
        _connection_jet(0.0),
        cfg=itg.IntegrationConfig(max_span=3.0, rel_tol=1e-12, abs_tol=1e-14),
    )
    capped = itg.integrate(
        4, _connection_jet(0.0), cfg=itg.IntegrationConfig(max_span=3.0, max_step=0.01)
    )
    assert np.max(np.abs(base.states[-1] - tight.states[-1])) < 1e-4
    assert np.max(np.abs(base.states[-1] - capped.states[-1])) < 1e-4
    assert np.max(np.diff(capped.s)) <= 0.01 + 1e-12


def test_energy_conservation_on_connection_family():
    # The flow conserves energy at d=4; a moderation cap ends each run once
    # the state leaves the O(1) regime, where local error would swamp the
    # defect.  See test_acceptance for the 20-orbit version.
    rng = np.random.default_rng(5)
    cfg = itg.IntegrationConfig(max_span=10.0, blowup_norm=20.0)
    for _ in range(5):
        c = rng.uniform(-2, 2)
        k = int(rng.integers(-1, 3))
        refl = bool(rng.integers(0, 2))
        traj = itg.integrate(4, _connection_jet(0.0, c, k, refl), cfg=cfg)
        es = np.array([core.energy(4, x).total for x in traj.states])
        assert np.max(np.abs(es - es[0])) < 1e-7


def test_energy_monotone_on_supercritical_orbits():
    rng = np.random.default_rng(11)
    cfg = itg.IntegrationConfig(max_span=10.0, blowup_norm=1e3)
    for _ in range(5):
        x0 = rng.uniform(-0.5, 0.5, size=4)
        traj = itg.integrate(5, x0, cfg=cfg)
        es = np.array([core.energy(5, x).total for x in traj.states])
        assert np.min(np.diff(es)) > -1e-8


def test_config_validation():
    with pytest.raises(ValueError):
        itg.IntegrationConfig(rel_tol=-1e-10)
    with pytest.raises(ValueError):
        itg.IntegrationConfig(rel_tol=1e-3)
    with pytest.raises(ValueError):
        itg.IntegrationConfig(abs_tol=0.0)
    with pytest.raises(ValueError):
        itg.IntegrationConfig(max_span=math.inf)
    with pytest.raises(ValueError):
        itg.IntegrationConfig(blowup_norm=float("nan"))


def test_seed_state_validation():
    with pytest.raises(ValueError):
        itg.integrate(5, np.array([math.nan, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        itg.integrate(12, np.zeros(4))
    with pytest.raises(TypeError):
        itg.integrate(5.0, np.zeros(4))


def test_integration_error_carries_last_state():
    err = itg.IntegrationError("step underflow", 1.5, core.state(0.1, 0.2, 0.3, 0.4))
    assert isinstance(err, RuntimeError)
    assert err.s_last == 1.5
    assert err.state_last.phi == 0.1
    assert "underflow" in str(err)


def test_write_csv_schema_and_values(tmp_path):
    traj = itg.integrate(4, _connection_jet(0.0), cfg=itg.IntegrationConfig(max_span=1.0))
    path = tmp_path / "orbit.csv"
    itg.write_csv(traj, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["s", "phi", "dphi", "d2phi", "d3phi", "energy_total", "energy_rate"]
    assert len(rows) - 1 == len(traj.s)
    k = len(traj.s) // 2
    row = rows[1 + k]
    assert float(row[0]) == traj.s[k]
    assert [float(v) for v in row[1:5]] == list(traj.states[k])
    eb = core.energy(4, traj.states[k])
    assert float(row[5]) == eb.total
    assert float(row[6]) == eb.rate


def test_trajectory_samples_iterator_and_end_state():
    traj = itg.integrate(4, _connection_jet(0.0), cfg=itg.IntegrationConfig(max_span=1.0))
    pairs = list(traj.samples)
    assert len(pairs) == len(traj.s)
    s0, x0 = pairs[0]
    assert s0 == 0.0 and isinstance(x0, core.State)
    end = traj.state_at_end()
    assert np.array_equal(end.as_array(), traj.states[-1])


# ---------------------------------------------------------------------------
# The per-step reach bound that lets a serial step skip its event scan.

_GATE_SEED = np.array([0.2, 0.5, 4.0, 5.0])
_BLOWUP_SEED = np.array([0.4, 0.3, -0.2, 0.5])


def _near_underflow() -> itg.Trajectory:
    # At blowup norm 1e38 the wind seed's step underflows near s = 3.2577.
    # Ending the span at the last accepted point keeps every step of that run.
    spec = manifold.SeedSpec(
        config.WIND_EPS0, manifold.theta0(config.WIND_EPS0) + config.WIND_THETA_OFFSET
    )
    cfg = itg.IntegrationConfig(blowup_norm=1e38)
    with pytest.raises(itg.IntegrationError) as err:
        itg.integrate(5, manifold.seed_state(spec), cfg=cfg)
    cfg = dataclasses.replace(cfg, max_span=err.value.s_last)
    return itg.integrate(5, manifold.seed_state(spec), cfg=cfg)


_RUNS = {
    "up_gate": lambda: itg.integrate(5, _GATE_SEED, watch=[itg.EventKind.SECOND_DERIV_UP]),
    "down_gate": lambda: itg.integrate(
        5, -_GATE_SEED, watch=[itg.EventKind.SECOND_DERIV_DOWN]),
    "blowup_1e3": lambda: itg.integrate(
        5, _BLOWUP_SEED, cfg=itg.IntegrationConfig(blowup_norm=1e3)),
    "blowup_1e8": lambda: itg.integrate(5, _BLOWUP_SEED),
    "span": lambda: itg.integrate(
        4, _connection_jet(0.0), cfg=itg.IntegrationConfig(max_span=3.0)),
    # steps of up to 10, so the factor h of the bound is above 1
    "long_steps": lambda: itg.integrate(5, [1e-9] * 4, cfg=itg.IntegrationConfig(
        max_span=60.0, max_step=20.0, rel_tol=1e-6, abs_tol=1e-6, blowup_norm=1e3)),
    "reversed": lambda: itg.integrate_reversed(
        5, [0.3, -0.4, 0.9, -1.1], cfg=itg.IntegrationConfig(max_span=1.0)),
    "near_underflow": _near_underflow,
}


def _step_scans(traj: itg.Trajectory):
    """(reach, scanned jets) of each accepted step of `traj`, as `_drive` has them."""
    mirror = core.REVERSAL_SIGNS if traj._mirror else np.ones(4)
    ended_inside = traj.termination.kind is not itg.TerminationKind.SPAN_EXHAUSTED
    for k, (K, h) in enumerate(traj._steps):
        t = float(traj.s[k])
        y = (mirror * traj.states[k]).tolist()
        # an event or a blowup ends the run inside its last step
        last = ended_inside and k == len(traj._steps) - 1
        t_new = t + h if last else float(traj.s[k + 1])
        yield itg._reach(y, K, h), itg._scan(itg._dense(K), h, t, t_new, y)[1]


@pytest.mark.parametrize("run", _RUNS.values(), ids=_RUNS.keys())
def test_reach_bounds_every_scanned_jet(run):
    traj = run()
    assert len(traj._steps) == len(traj.s) - 1 > 0
    for reach, jets in _step_scans(traj):
        for jet in jets:
            assert all(abs(v) <= r for v, r in zip(jet, reach)), (jet, reach)


@pytest.mark.parametrize("h", [1e-3, 1.0, 1e3])
def test_reach_bounds_the_interpolant_of_each_stage(h):
    # One nonzero stage at a time: a bound without that stage, or (at h = 1e3)
    # without the factor h, falls below a scanned jet.
    zero = [0.0] * 4
    for j, row in enumerate(itg._P):
        for c in range(4):
            for sign in (1.0, -1.0):
                K = [list(zero) for _ in itg._P]
                K[j][c] = sign
                reach = itg._reach(zero, K, h)
                _, jets = itg._scan(itg._dense(K), h, 0.0, h, zero)
                top = max(abs(jet[c]) for jet in jets)
                assert top <= reach[c], (j, c, sign)
                assert (top > 0.0) == any(row), (j, c, sign)


def test_shooting_orbits_skip_most_scans(monkeypatch):
    trajs = []
    run = itg.integrate

    def recording(*args, **kwargs):
        trajs.append(run(*args, **kwargs))
        return trajs[-1]

    monkeypatch.setattr(itg, "integrate", recording)
    manifold.find_heteroclinic()
    assert len(trajs) > 30
    for traj in trajs:
        st = traj.stats
        assert st.accepted == len(traj.s) - 1 == st.scanned + st.skipped
        assert st.field_evals == 2 + 6 * (st.accepted + st.rejected)
        assert (st.bisections > 0) == (traj.termination.kind is itg.TerminationKind.EVENT_STOP)
    skipped = sum(t.stats.skipped for t in trajs)
    assert skipped >= 0.8 * sum(t.stats.accepted for t in trajs)


@pytest.mark.parametrize("run", _RUNS.values(), ids=_RUNS.keys())
def test_skipping_scans_changes_no_bit(run, monkeypatch):
    fast = run()
    monkeypatch.setattr(itg, "_REACH_MARGIN", math.inf)  # every step scans
    slow = run()
    assert fast.stats.skipped > 0 and slow.stats.skipped == 0
    assert np.array_equal(fast.s, slow.s)
    assert np.array_equal(fast.states, slow.states)
    assert fast.termination == slow.termination
    for s in (0.5 * (fast.s[:-1] + fast.s[1:]))[:: max(1, len(fast.s) // 50)]:
        assert np.array_equal(
            itg.sample_at(fast, float(s)).as_array(), itg.sample_at(slow, float(s)).as_array()
        )
