import csv
import dataclasses
import io
import math
import signal
import subprocess
import sys
import types
from fractions import Fraction

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
    rhs = itg._make_rhs(d)
    rng = np.random.default_rng(91 + d)
    for _ in range(50):
        x = rng.uniform(-2.5, 2.5, size=4)
        assert np.array_equal(rhs(0.0, x), core.vector_field(d, x))


@pytest.mark.parametrize("d", [5, 6, 7])
def test_lane_rhs_matches_public_field_column_by_column(d):
    # the lanes evaluate the same closure as the serial integrator, on (4, n) arrays
    rng = np.random.default_rng(17 + d)
    x = rng.uniform(-2.5, 2.5, size=(4, 500))
    got = np.array(itg._make_rhs(d, ctx=core.NUMPY)(0.0, x))
    scalar = itg._make_rhs(d)
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
# The serial loop generated from the tableau, with the field inlined, against
# `_combo` and the field of `_make_rhs`, component by component, compared bit
# for bit: one trial step of the loop that `_drive` runs, its error norm, and
# for an accepted step its new jet, its stages and the gate's two bounds.


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


def _combo_tight_reach(y, K, h):
    weights = (*itg._P_REACH[1:], itg._R)
    return [max(abs(yc), abs(yc + h * kc[0]))
            + h * itg._combo([abs(k - kc[0]) for k in kc[1:]] + [abs(kc[0])], weights)
            for yc, kc in zip(y, zip(*K))]


def _hex(x):
    if x is None:
        return None
    return x.hex() if isinstance(x, float) else [_hex(v) for v in x]


def _recording(fn, inputs):
    """fn, which records its first argument in `inputs`."""
    def recorded(*args):
        inputs.append(args[0])
        return fn(*args)
    return recorded


def _with(fn, code=None, scope=None, **names):
    """`fn`, a function bound by `itg._serial_loop` or `core._make_rhs`, with
    its code replaced by `code` and the names in `names` bound in place of its
    own: for the loop they are the defaults of its last parameters, for the
    field its globals."""
    code = code or fn.__code__
    if fn.__defaults__ is None:
        return types.FunctionType(code, {**fn.__globals__, **names})
    params = code.co_varnames[code.co_argcount - len(fn.__defaults__):code.co_argcount]
    return types.FunctionType(code, scope or {}, fn.__name__,
                              tuple(names.get(p, v) for p, v in zip(params, fn.__defaults__)))


class _Rejected(Exception):
    """Ends a run of the loop at its first rejected trial step."""


def _loop_trial(d, y, f, h, abs_tol=1e-12, code=None, scope=None, store=True):
    """(sin arguments, error norm, rest) of the first trial step, of size h
    from the jet y with field f at s = 0, of the loop that `_drive` runs (or
    of `code` bound as it binds the loop): rest is (new jet, stages, loose
    and tight bound) for an accepted step and None for a rejected one.  The
    span ends at h, so the step is taken as it is, and the margin is inf, so
    that an accepted step stops the loop at its gate.  Without `store`, of
    the loop that `_drive_end` runs: rest is (new jet, stages, jet before
    the step, steps accepted)."""
    inputs, errs = [], []

    def power(err, p):
        errs.append(err)
        if not err < 1.0:
            raise _Rejected
        return core.power(err, p)

    cfg = itg.IntegrationConfig(rel_tol=1e-10, abs_tol=abs_tol)
    loop = _with(itg._serial_loop(d, cfg, math.inf, h, store), code, scope,
                 sin=_recording(math.sin, inputs), power=power, margin=math.inf)
    steps = []
    try:
        if not store:
            _, _, y_new, _, _, accepted, (K, _, y_old) = loop(y, f, 0.0, 0.0, h, True)
            return inputs, errs[0], [y_new, K, y_old, accepted]
        _, _, y_new, _, _, bounds = loop(y, f, 0.0, 0.0, h, True, steps, [0.0], [y])
    except _Rejected:
        return inputs, errs[0], None
    return inputs, errs[0], [y_new, steps[0][0], *bounds]


def _combo_trial(rhs, inputs, y, f, h, abs_tol=1e-12):
    """`_loop_trial` of `_combo_step` on the field rhs, which records its sin arguments in `inputs`."""
    try:
        y_new, K, err = _combo_step(rhs, y, f, h, abs_tol, 1e-10)
    except ValueError:
        return inputs, math.nan, None
    if not err < 1.0:
        return inputs, err, None
    return inputs, err, [y_new, K, _combo_reach(y, K, h), _combo_tight_reach(y, K, h)]


def _field_trials(d, y, f, h, abs_tol=1e-12):
    """(loop, reference): `_loop_trial` and `_combo_trial` on the field of
    dimension d, in hex."""
    inputs = []
    rhs = _with(itg._make_rhs(d), sin=_recording(math.sin, inputs))
    return (_hex(_loop_trial(d, y, f, h, abs_tol)),
            _hex(_combo_trial(rhs, inputs, y, f, h, abs_tol)))


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


_DIMS = range(core.DIM_LO, core.DIM_HI + 1)


def test_generated_step_matches_combo_on_the_field():
    # At an abs_tol of 1e300 nearly every finite step is accepted.
    for d in _DIMS:
        rhs = itg._make_rhs(d)
        raised = accepted = 0
        for y, h in _field_jets():
            f = rhs(0.0, y)
            got, want = _field_trials(d, y, f, h)
            assert got == want, (d, y, h)
            raised += got[0][-1] in ("inf", "-inf")  # math.sin raised there
            got, want = _field_trials(d, y, f, h, abs_tol=1e300)
            assert got == want, (d, y, h)
            accepted += got[2] is not None
        assert 0 < raised < 100, d
        assert accepted > 300, d


def test_generated_step_raises_at_the_stage_that_overflows():
    y = [0.3, 1e100, -2.0, 1.0]
    f = itg._make_rhs(5)(0.0, y)
    got, want = _field_trials(5, y, f, 1e3)
    assert got == want
    assert got[1:] == ["nan", None] and len(got[0]) == 4 and got[0][3] == "-inf"  # stage 4's 2 phi


def test_generated_step_matches_combo_on_special_jets():
    # Jets and first stages of -0.0, subnormals, huge values, inf and nan,
    # through the field of every dimension.
    rng = np.random.default_rng(11)
    for d in _DIMS:
        for _ in range(400):
            y, f = ([float(v) for v in rng.choice(_SPECIAL, 4)] for _ in range(2))
            h = float(10.0 ** rng.uniform(-300, 3))
            got, want = _field_trials(d, y, f, h)
            assert got == want, (d, y, f, h)


def _scripted(stages, inputs):
    """A field that records each stage's jet in `inputs` and returns the next
    of `stages` as the stage."""
    stages = iter(stages)

    def script(*x):
        inputs.append(_hex(list(x)))
        return next(stages)
    return script


def _scripted_loop(monkeypatch, store=True):
    """The loop generated as the module generates it, from a field whose four
    components are scripted by `script`, a name bound as a global."""
    monkeypatch.setattr(core, "FIELD_SOURCE", "v, w2, w3, acc = script(phi, v, w2, w3)")
    return core._function_code(itg._loop_source(store), "<scripted>")


def _scripted_trial(code, y, K, h, abs_tol):
    """(loop, reference): `_loop_trial` of the scripted loop and `_combo_trial`
    on stages K, each with the jets the script saw, in hex."""
    seen, want = [], []
    got = _loop_trial(5, y, K[0], h, abs_tol, code, {"script": _scripted(K[1:], seen)})
    script = _scripted(K[1:], want)
    ref = _combo_trial(lambda s, x: script(*x), [], y, K[0], h, abs_tol)
    return [seen, *_hex(got)], [want, *_hex(ref)]


def test_generated_step_matches_combo_on_special_stages(monkeypatch):
    # Scripted stages of -0.0, subnormals, huge values, inf and nan: a product
    # with a zero weight and the order of every sum show in the bits.  Every
    # other trial draws finite entries only and takes an abs_tol of 1e300,
    # so that most of those steps are accepted and pass the gate's bounds.
    code = _scripted_loop(monkeypatch)
    finite = [v for v in _SPECIAL if math.isfinite(v)]
    rng = np.random.default_rng(7)
    accepted = 0
    for trial in range(3000):
        entries = finite if trial % 2 else _SPECIAL
        y = [float(v) for v in rng.choice(entries, 4)]
        K = [tuple(float(v) for v in rng.choice(entries, 4)) for _ in itg._E]
        if trial % 5 == 0:
            K[rng.integers(len(K))] = (0.0,) * 4
        h = float(10.0 ** rng.uniform(-300, 3))
        got, want = _scripted_trial(code, y, K, h, 1e300 if trial % 2 else 1e-12)
        assert got == want, (y, K, h)
        assert len(got[0]) == len(K) - 1
        accepted += got[3] is not None
    assert accepted > 500


def test_the_loop_that_keeps_nothing_takes_the_storing_loops_step(monkeypatch):
    # On scripted stages of every kind, the two forms of the loop see the
    # same stage jets, reject alike, and accept with the same new jet and
    # stages; the form that keeps nothing hands back the jet before the step.
    stored, free = _scripted_loop(monkeypatch), _scripted_loop(monkeypatch, store=False)
    rng = np.random.default_rng(29)
    accepted = 0
    for trial in range(1000):
        entries = [v for v in _SPECIAL if math.isfinite(v)] if trial % 2 else _SPECIAL
        y = [float(v) for v in rng.choice(entries, 4)]
        K = [tuple(float(v) for v in rng.choice(entries, 4)) for _ in itg._E]
        h = float(10.0 ** rng.uniform(-300, 3))
        abs_tol = 1e300 if trial % 2 else 1e-12
        runs = []
        for code, store in ((stored, True), (free, False)):
            seen = []
            inputs, err, rest = _loop_trial(5, y, K[0], h, abs_tol, code,
                                            {"script": _scripted(K[1:], seen)}, store)
            runs.append((seen, _hex(inputs), _hex(err), rest and _hex(rest[:3])))
            if rest is not None and not store:
                assert rest[3] == 1
        (seen, inputs, err, rest), (free_seen, free_inputs, free_err, free_rest) = runs
        assert (seen, inputs, err) == (free_seen, free_inputs, free_err), (y, K, h)
        assert (rest is None) == (free_rest is None), (y, K, h)
        if rest is not None:
            assert free_rest == [rest[0], rest[1], _hex(y)], (y, K, h)
            accepted += 1
    assert accepted > 200


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


# A handoff threshold of 0 keeps every lane in the lockstep loop to its end;
# the module's default hands these few-lane runs to `_drive_end` at the start.
_LOCKSTEP = 0


@pytest.mark.parametrize(("d", "handoff"), [
    (5, itg._HANDOFF_LANES), (6, itg._HANDOFF_LANES), (5, _LOCKSTEP), (6, _LOCKSTEP),
], ids=["5", "6", "5-lockstep", "6-lockstep"])
@pytest.mark.parametrize("cfg", [
    itg.IntegrationConfig(max_span=3.0, blowup_norm=50.0),  # gate events
    itg.IntegrationConfig(max_span=1.5, blowup_norm=3.0),   # blowup and span ends
])
def test_lanes_end_as_the_serial_integrator(d, handoff, cfg, monkeypatch):
    seeds = [
        [0.0, 0.0, 4.0, 0.0], [0.2, 0.5, 1.0, 1.0], [0.2, 0.5, 4.0, 5.0],
        [-0.2, -0.5, -4.0, -5.0], [1e-3, 7.5e-4, 0.0, -2.25e-3], [0.01, 0.0, 0.0, 0.0],
        [0.25, 0.1, 0.0, 0.0], [0.5, 2.0, 0.0, 0.0], [0.0, 0.0, 60.0, 0.0],
        # exact zeros of both signs, for the carried |y| and the conditional max
        [-0.0, 0.5, -0.0, 0.0], [0.25, -0.0, 0.0, -0.0], [-0.0, -0.0, 4.0, -0.0],
    ]
    monkeypatch.setattr(itg, "_HANDOFF_LANES", handoff)
    lanes = itg.integrate_lanes(d, seeds, cfg)
    kinds = set()
    for x0, lane in zip(seeds, lanes):
        traj = itg.integrate(d, x0, cfg=cfg, gates=True)
        term = traj.termination
        assert (lane.end.kind, lane.end.g) == (term.kind, term.g)
        assert lane.end.s_last == term.s_last
        assert np.array_equal(lane.state.as_array(), traj.states[-1])
        kinds.add(term.kind)
    assert len(kinds) >= 2


def _long_step_lanes() -> tuple[itg.IntegrationConfig, np.ndarray]:
    """60 seeds at loose tolerances and a long step cap, which reject steps
    and put the norm cap and the gate into one step, often into different
    scan intervals."""
    cfg = itg.IntegrationConfig(blowup_norm=5.0, rel_tol=1e-6, abs_tol=1e-6, max_step=1.0)
    rng = np.random.default_rng(5)
    seeds = rng.uniform(-3.0, 3.0, size=(60, 4))
    seeds[:, 2] = rng.uniform(3.0, 4.8, size=60)
    return cfg, seeds


def test_lanes_take_the_earliest_crossing_of_a_long_step():
    # the first crossing of a step must win
    cfg, seeds = _long_step_lanes()
    lanes = itg.integrate_lanes(5, seeds, cfg)
    kinds = set()
    for x0, lane in zip(seeds, lanes):
        term = itg.integrate(5, x0, cfg=cfg, gates=True).termination
        assert (lane.end.kind, lane.end.g) == (term.kind, term.g)
        assert lane.end.s_last == term.s_last
        kinds.add(term.kind)
    assert kinds == {itg.TerminationKind.BLOWUP_DETECTED, itg.TerminationKind.EVENT_STOP}


@pytest.mark.parametrize("handoff", [itg._HANDOFF_LANES, _LOCKSTEP], ids=["default", "lockstep"])
def test_lane_step_underflow_retires_only_that_lane(handoff, monkeypatch):
    # phi'' starts above c* and runs off to a singularity before the norm cap
    cfg = itg.IntegrationConfig(blowup_norm=1e300, max_span=3.0)
    seeds = [[0.2, 0.5, 6.0, 5.0], [1e-3, 7.5e-4, 0.0, -2.25e-3]]
    monkeypatch.setattr(itg, "_HANDOFF_LANES", handoff)
    lanes = itg.integrate_lanes(5, seeds, cfg)
    with pytest.raises(itg.IntegrationError) as serial:
        itg.integrate(5, seeds[0], cfg=cfg, gates=True)
    err = lanes[0].end
    assert isinstance(err, itg.IntegrationError)
    assert str(err) == str(serial.value)
    assert err.s_last == serial.value.s_last
    assert lanes[0].state is err.state_last
    traj = itg.integrate(5, seeds[1], cfg=cfg, gates=True)
    assert lanes[1].end.g == traj.termination.g == -1


@pytest.mark.parametrize("handoff", [itg._HANDOFF_LANES, _LOCKSTEP], ids=["default", "lockstep"])
def test_lanes_whose_stages_overflow_end_as_the_serial_integrator(handoff, monkeypatch):
    # These seeds lie about 1e-70 before their blowup, so near it the field
    # of a trial stage overflows and the error norm is nan, several times per
    # orbit, until the step underflows.
    cfg = itg.IntegrationConfig(blowup_norm=1e300, max_span=1.0)
    seeds = [[0.0, 1e70, 1e140, 2e210], [-0.0, -1e70, 1e140, -2e210]]
    errs = []
    monkeypatch.setattr(itg, "power", _recording(core.power, errs))
    serial = [_serial_key(5, x0, cfg) for x0 in seeds]
    assert sum(math.isnan(e) for e in errs) >= 2
    assert all(key[0] is itg.IntegrationError for key in serial)
    monkeypatch.setattr(itg, "_HANDOFF_LANES", handoff)
    assert [_lane_key(lane) for lane in itg.integrate_lanes(5, seeds, cfg)] == serial


def test_a_nan_first_step_ends_in_step_underflow():
    # The field at this seed overflows the first step's RMS, so the first
    # step is nan; both loops end the orbit there with step underflow.  The
    # alarm turns an orbit that never ends into a failure.
    cfg = itg.IntegrationConfig(blowup_norm=1e300, max_span=3.0)
    seeds = np.random.default_rng(7).uniform(-1.0, 1.0, size=(26, 4))
    seeds[11] = [0.0, 1e50, 0.0, 0.0]

    def never_ends(signum, frame):
        raise TimeoutError("the orbit did not end")

    handler = signal.signal(signal.SIGALRM, never_ends)
    signal.alarm(5)
    try:
        with pytest.raises(itg.IntegrationError) as serial:
            itg.integrate(5, seeds[11], cfg=cfg, gates=True)
        lanes = itg.integrate_lanes(5, seeds, cfg)
        want = [_serial_key(5, x0, cfg) for x0 in seeds]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
    assert serial.value.s_last == 0.0
    assert np.array_equal(serial.value.state_last.as_array(), seeds[11])
    assert isinstance(lanes[11].end, itg.IntegrationError)
    assert sum(isinstance(lane.end, itg.IntegrationError) for lane in lanes) == 1
    assert [_lane_key(lane) for lane in lanes] == want


@pytest.mark.parametrize(("seed", "blowup_norm", "max_span"), [
    ([0.2, 0.5, 4.0, 5.0], 50.0, 0.114),       # the upward gate
    ([-0.2, -0.5, -4.0, -5.0], 50.0, 0.114),   # the downward gate
    ([0.5, 2.0, 0.0, 0.0], 50.0, 0.6465),
    ([0.4, 0.3, -0.2, 0.5], 3.0, 0.437),       # blowup
    ([0.25, 0.1, 0.0, 0.0], 3.0, 0.5476),
], ids=["up", "down", "up-late", "blowup", "blowup-late"])
def test_a_lane_whose_last_step_holds_its_event_ends_at_the_event(
        seed, blowup_norm, max_span, monkeypatch):
    # Each span ends inside the step after the event: that step, cut at the
    # end of the span, holds the event, and the lane retires there.
    cfg = itg.IntegrationConfig(blowup_norm=blowup_norm, max_span=max_span)
    traj = itg.integrate(5, seed, cfg=cfg, gates=True)
    assert traj.termination.kind is not itg.TerminationKind.SPAN_EXHAUSTED
    free = itg.integrate(5, seed, cfg=dataclasses.replace(cfg, blowup_norm=1e6))
    assert free.termination.kind is itg.TerminationKind.SPAN_EXHAUSTED
    assert len(free._steps) == len(traj._steps)
    monkeypatch.setattr(itg, "_HANDOFF_LANES", _LOCKSTEP)
    lane, = itg.integrate_lanes(5, [seed], cfg)
    assert _lane_key(lane) == _serial_key(5, seed, cfg)


def _lane_key(lane: itg.LaneEnd) -> tuple:
    """Everything a lane's end tells, its state as bits."""
    end = lane.end
    if isinstance(end, itg.IntegrationError):
        told = (str(end), end.s_last)
    else:
        told = (end.kind, end.g, end.s_last, end.norm)
    return type(end), told, lane.state.as_array().tobytes()


def _serial_key(d: int, x0, cfg: itg.IntegrationConfig) -> tuple:
    """`_lane_key` of what the gated `integrate` gives for x0."""
    try:
        traj = itg.integrate(d, x0, cfg=cfg, gates=True)
    except itg.IntegrationError as err:
        return _lane_key(itg.LaneEnd(err, err.state_last))
    return _lane_key(itg.LaneEnd(traj.termination, core.State.from_array(traj.states[-1])))


def _record_handoffs(monkeypatch) -> list:
    """The `resume` state of every lane `integrate_lanes` hands to `_drive_end`."""
    resumed = []
    drive = itg._drive_end

    def recording(*args):
        resumed.append(args[5])
        return drive(*args)

    monkeypatch.setattr(itg, "_drive_end", recording)
    return resumed


def test_lanes_handed_off_mid_run_end_as_the_serial_integrator(monkeypatch):
    # Lanes that go to `_drive_end` mid-run, some of them just after a rejected
    # trial step, end as their serial orbits do, whatever the threshold.
    cfg, seeds = _long_step_lanes()
    serial = [_serial_key(5, x0, cfg) for x0 in seeds]
    resumed = _record_handoffs(monkeypatch)
    for handoff in (1, 10, 20, 30, 45, 59, 60):
        monkeypatch.setattr(itg, "_HANDOFF_LANES", handoff)
        start = len(resumed)
        lanes = itg.integrate_lanes(5, seeds, cfg)
        assert len(resumed) - start <= handoff
        assert [_lane_key(lane) for lane in lanes] == serial, handoff
    # at 60, all 60 lanes go to `_drive_end` before any lockstep iteration
    mid_run, at_start = resumed[:-60], resumed[-60:]
    assert mid_run and all(r[0] > 0.0 for r in mid_run)
    assert all(r[0] == r[1] == 0.0 for r in at_start)
    assert any(r[4] for r in mid_run) and not all(r[4] for r in mid_run)


@pytest.mark.parametrize(("partner", "last_trial"), [
    ([0.2, 0.5, 4.0, 5.0], None),                # meets its gate at s = 0.11
    ([-0.34, 0.94, 6.27, 3.35], "accepted"),     # underflows two iterations before the first lane
    ([0.472, 0.549, 6.687, 5.278], "rejected"),  # and one iteration before it
], ids=["gate", "after_last_accepted", "after_last_rejected"])
def test_lane_underflowing_after_its_handoff_ends_as_the_serial_integrator(
        partner, last_trial, monkeypatch):
    # The first lane underflows near s = 0.59 in its 2117th iteration; at a
    # threshold of 1 it goes to `_drive_end` once its partner has ended, in the
    # last two cases after its last accepted step.
    cfg = itg.IntegrationConfig(blowup_norm=1e300, max_span=3.0)
    seeds = [[0.2, 0.5, 6.0, 5.0], partner]
    serial = [_serial_key(5, x0, cfg) for x0 in seeds]
    resumed = _record_handoffs(monkeypatch)
    monkeypatch.setattr(itg, "_HANDOFF_LANES", 1)
    lanes = itg.integrate_lanes(5, seeds, cfg)
    assert [_lane_key(lane) for lane in lanes] == serial
    err = lanes[0].end
    assert isinstance(err, itg.IntegrationError)
    (t, t_old, _, _, rejected), = resumed
    assert 0.0 < t_old < t
    if last_trial is None:
        assert t < err.s_last
    else:  # the error reports the t_old the lane handed over
        assert t_old == err.s_last
        assert rejected == (last_trial == "rejected")


def _count_lane_scans(monkeypatch) -> dict:
    """Counts of lockstep iterations (calls of `_lanes_near`) and of the
    iterations among them that scan (calls of `_scan` on per-lane steps)."""
    count = {"iterations": 0, "scans": 0}
    near, scan = itg._lanes_near, itg._scan

    def counted_near(*args):
        count["iterations"] += 1
        return near(*args)

    def counted_scan(K, h, *args):
        count["scans"] += np.ndim(h) == 1
        return scan(K, h, *args)

    monkeypatch.setattr(itg, "_lanes_near", counted_near)
    monkeypatch.setattr(itg, "_scan", counted_scan)
    return count


def _grid_thetas(n: int) -> np.ndarray:
    return np.linspace(-math.pi / 2, manifold.theta0(config.EPS0), n)


def test_lanes_scan_only_iterations_that_can_reach_an_event(monkeypatch):
    count = _count_lane_scans(monkeypatch)
    manifold.classification_grid(_grid_thetas(50))
    assert count["iterations"] > 100
    assert count["scans"] < 0.1 * count["iterations"]
    count.update(iterations=0, scans=0)
    manifold.classification_grid(_grid_thetas(2))  # all serial
    assert count == {"iterations": 0, "scans": 0}


def test_skipping_lane_scans_changes_no_bit(monkeypatch):
    cfg, seeds = _long_step_lanes()
    thetas = _grid_thetas(50)
    fast = [_lane_key(lane) for lane in itg.integrate_lanes(5, seeds, cfg)]
    fast_grid = manifold.classification_grid(thetas)
    count = _count_lane_scans(monkeypatch)
    monkeypatch.setattr(itg, "_REACH_MARGIN", math.inf)  # every iteration scans
    slow = [_lane_key(lane) for lane in itg.integrate_lanes(5, seeds, cfg)]
    slow_grid = manifold.classification_grid(thetas)
    assert count["scans"] == count["iterations"] > 0
    assert fast == slow
    assert [repr(r) for r in fast_grid] == [repr(r) for r in slow_grid]


def test_lanes_validate_their_seeds():
    assert itg.integrate_lanes(5, []) == []
    with pytest.raises(ValueError):
        itg.integrate_lanes(5, [[0.0, 0.0, float("nan"), 0.0]])
    # the dimension is checked whether or not there are seeds
    for seeds in ([[0.1, 0.0, 0.0, 0.0]], []):
        with pytest.raises(ValueError):
            itg.integrate_lanes(11, seeds)
        with pytest.raises(TypeError):
            itg.integrate_lanes(5.5, seeds)


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


def test_rk45_state_at_s5_matches_dop853():
    # an independent integrator on the public field, near the connecting angle
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    seed = manifold.seed_state(manifold.SeedSpec(1e-3, 0.78539792886)).as_array()
    rk = itg.integrate(5, seed, cfg=itg.IntegrationConfig(max_span=5.0))
    assert rk.termination.kind is itg.TerminationKind.SPAN_EXHAUSTED
    ref = solve_ivp(lambda s, x: core.vector_field(5, x), (0.0, 5.0), seed,
                    method="DOP853", rtol=1e-13, atol=1e-16)
    assert ref.success and ref.t[-1] == 5.0
    np.testing.assert_allclose(rk.states[-1], ref.y[:, -1], rtol=0.0, atol=1e-8)


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
    traj = itg.integrate(5, x0, gates=True)
    assert traj.termination.kind is itg.TerminationKind.EVENT_STOP
    assert traj.termination.g == 1
    s_ev, state = traj.termination.s_last, traj.state_at_end()
    assert s_ev == traj.s[-1]
    assert isinstance(state, core.State)
    assert state.d2phi >= cs
    assert abs(state.d2phi - cs) < 1e-6


def test_second_deriv_down_event_is_the_reflected_stop():
    # Reflection symmetry maps the upward crossing of +c_star to the
    # downward crossing of -c_star.
    cs = core.c_star(5)
    x0 = -np.array([0.2, 0.5, 4.0, 5.0])
    traj = itg.integrate(5, x0, gates=True)
    assert traj.termination.kind is itg.TerminationKind.EVENT_STOP
    assert traj.termination.g == -1
    state = traj.state_at_end()
    assert state.d2phi <= -cs
    assert abs(state.d2phi + cs) < 1e-6


def test_watch_entries_validate_dimension():
    # c_star, and so the gates, exist for d in {5, 6, 7} only
    with pytest.raises(ValueError):
        itg.integrate(4, _connection_jet(0.0), gates=True)
    assert itg.integrate(4, _connection_jet(0.0), cfg=itg.IntegrationConfig(max_span=0.1)).s[-1] == 0.1


@pytest.mark.parametrize("gates", [["second_deriv_up"], "up", 1, None, np.True_],
                         ids=["list", "str", "int", "none", "numpy-bool"])
def test_gates_must_be_a_bool(gates):
    with pytest.raises(ValueError, match="gates must be True or False"):
        itg.integrate(5, np.array([0.1, 0.1, 0.1, 0.1]), gates=gates)


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
    err = itg.IntegrationError("step underflow", 1.5, core.State(0.1, 0.2, 0.3, 0.4))
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


def test_write_rows_writes_the_bytes_of_csv_writer(tmp_path):
    # The reference is csv.writer under the rule it has always been given: a
    # float cell (numpy's included) as the repr of its float, every other
    # cell as csv writes it, quoting included.
    header = ["s", "a,b", 'say "hi"']
    rows = [
        [-0.0, math.inf, -math.inf, math.nan],
        (5e-324, 1e-05, 1e16, np.float64(0.1), np.float64(-2.5e-310)),
        [None, 3, -7, True, np.float32(0.1), np.int64(12)],
        ["plain", "", "a,b", 'q"uote', "line\nbreak", "cr\rret", '"'],
        [1.5, None, "text", np.float64(math.nan)],
    ]
    path = tmp_path / "rows.csv"
    itg.write_rows(str(path), header, iter(rows))
    want = io.StringIO(newline="")
    wr = csv.writer(want)
    wr.writerow(header)
    wr.writerows([repr(float(c)) if isinstance(c, float) else c for c in row] for row in rows)
    assert path.read_bytes() == want.getvalue().encode()


def test_trajectory_end_state():
    traj = itg.integrate(4, _connection_jet(0.0), cfg=itg.IntegrationConfig(max_span=1.0))
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
    "up_gate": lambda: itg.integrate(5, _GATE_SEED, gates=True),
    "down_gate": lambda: itg.integrate(5, -_GATE_SEED, gates=True),
    "blowup_1e3": lambda: itg.integrate(
        5, _BLOWUP_SEED, cfg=itg.IntegrationConfig(blowup_norm=1e3)),
    "blowup_1e8": lambda: itg.integrate(5, _BLOWUP_SEED),
    "span": lambda: itg.integrate(
        4, _connection_jet(0.0), cfg=itg.IntegrationConfig(max_span=3.0)),
    # steps of up to 10, so the factor h of the bound is above 1
    "long_steps": lambda: itg.integrate(5, [1e-9] * 4, cfg=itg.IntegrationConfig(
        max_span=60.0, max_step=20.0, rel_tol=1e-6, abs_tol=1e-6, blowup_norm=1e3)),
    "mixed_sign": lambda: itg.integrate(
        5, [0.3, -0.4, 0.9, -1.1], cfg=itg.IntegrationConfig(max_span=1.0)),
    "near_underflow": _near_underflow,
}


def _scanned_jets(K, h, t, t_new, y):
    """The jets `_scan` evaluates on one jet's step, as one lane: one list per grid point."""
    jets = itg._scan(np.array(K)[:, :, None], h, t, t_new, np.array(y)[:, None],
                     math.inf, math.inf)[1]
    return jets[:, :, 0].T.tolist()


def _step_scans(traj: itg.Trajectory):
    """(floor, scanned jets) of each accepted step of `traj`, as `_drive` has them."""
    ended_inside = traj.termination.kind is not itg.TerminationKind.SPAN_EXHAUSTED
    for k, (K, h) in enumerate(traj._steps):
        t = float(traj.s[k])
        y = traj.states[k].tolist()
        # an event or a blowup ends the run inside its last step
        last = ended_inside and k == len(traj._steps) - 1
        t_new = t + h if last else float(traj.s[k + 1])
        yield (1.0 + h) * itg._REACH_FLOOR, _scanned_jets(K, h, t, t_new, y)


def _gate_bounds(run, monkeypatch):
    """The trajectory of `run`, its last orbit, and the (loose, tight) bounds
    that the gate of `_drive`'s loop took on each accepted step: at a margin
    of inf, every accepted step stops the loop, which returns its bounds."""
    bounds = []
    bind = itg._serial_loop

    def recording(*args):
        bounds.clear()
        loop = bind(*args)

        def stopping(*state):
            out = loop(*state)
            bounds.append(out[-1])
            return out
        return stopping

    monkeypatch.setattr(itg, "_serial_loop", recording)
    monkeypatch.setattr(itg, "_REACH_MARGIN", math.inf)
    return run(), bounds


def _near(tight, floor, margin=itg._REACH_MARGIN):
    """The tight bound with the rounding margin `_drive` gives it."""
    return [b * margin + floor for b in tight]


@pytest.mark.parametrize("run", _RUNS.values(), ids=_RUNS.keys())
def test_reach_bounds_every_scanned_jet(run, monkeypatch):
    traj, bounds = _gate_bounds(run, monkeypatch)
    assert len(bounds) == len(traj._steps) == len(traj.s) - 1 > 0
    tighter = 0
    for (reach, tight), (floor, jets) in zip(bounds, _step_scans(traj)):
        near = _near(tight, floor)
        for jet in jets:
            assert all(abs(v) <= r for v, r in zip(jet, reach)), (jet, reach)
            assert all(abs(v) <= b for v, b in zip(jet, near)), (jet, tight, reach)
        tighter += near[2] < reach[2]
    assert tighter > 0


def _exact_top(K, h, c):
    """max over the scan fractions x = i/9 of the exact |interpolant| of the
    float tableau, component c, from y = 0."""
    q = [sum(Fraction(row[k]) * Fraction(kj[c]) for row, kj in zip(itg._P, K)) for k in range(4)]
    return max(abs(Fraction(h) * sum(qk * Fraction(i, 9) ** (k + 1) for k, qk in enumerate(q)))
               for i in range(10))


@pytest.mark.parametrize("h", [1e-3, 1.0, 1e3])
def test_reach_bounds_the_interpolant_of_each_stage(h, monkeypatch):
    # One nonzero stage at a time, scripted through the loop, whose gate
    # bounds it: a bound without that stage, or (at h = 1e3) without the
    # factor h, falls below a scanned jet or the exact interpolant.  At an
    # abs_tol of 1e300 every such step is accepted.
    code = _scripted_loop(monkeypatch)

    def loop_bounds(K):
        rest = _loop_trial(5, zero, K[0], h, 1e300, code, {"script": _scripted(K[1:], [])})[2]
        return rest[2:]

    zero = [0.0] * 4
    floor = (1.0 + h) * itg._REACH_FLOOR
    for j, row in enumerate(itg._P):
        for c in range(4):
            for sign in (1.0, -1.0):
                K = [list(zero) for _ in itg._P]
                K[j][c] = sign
                reach, tight = loop_bounds(K)
                jets = _scanned_jets(K, h, 0.0, h, zero)
                top = max(abs(jet[c]) for jet in jets)
                assert top <= reach[c] and top <= _near(tight, floor)[c], (j, c, sign)
                assert _exact_top(K, h, c) <= tight[c], (j, c, sign)
                assert (top > 0.0) == any(row), (j, c, sign)
    # Equal stages: the float tableau's column sums lift the interpolant at
    # x = 1 to h (1 + 2**-51), above max(|y|, |y + h K_0|) = h; _R covers it.
    for c in range(4):
        for sign in (1.0, -1.0):
            K = [[sign if i == c else 0.0 for i in range(4)] for _ in itg._P]
            tight = loop_bounds(K)[1]
            assert Fraction(h) < _exact_top(K, h, c) <= tight[c], (c, sign)


# Stage and jet entries for steps no orbit takes: signed zeros, subnormals,
# mixed signs, and huge values that overflow the interpolant (1e300 at
# h = 1e9) or its coefficients (1.5e308).
_SPECIAL_ENTRIES = (0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1030, 1e300, -1e300, 1.5e308, -1.5e308,
                    1.5, -2.75, 3e-8)


def _agreement_steps():
    """(K, h, t, y) of steps from real orbits and of steps drawn from
    _SPECIAL_ENTRIES, with and without the entries that overflow q."""
    steps = []
    for name in ("up_gate", "blowup_1e8", "mixed_sign", "long_steps", "near_underflow"):
        traj = _RUNS[name]()
        stride = max(1, len(traj._steps) // 30)
        for k in [*range(0, len(traj._steps), stride), len(traj._steps) - 1]:
            K, h = traj._steps[k]
            steps.append((K, h, float(traj.s[k]), traj.states[k].tolist()))
    rng = np.random.default_rng(19)
    for entries in (_SPECIAL_ENTRIES, [v for v in _SPECIAL_ENTRIES if abs(v) < 1e308]):
        for _ in range(200):
            K = rng.choice(entries, size=(len(itg._P), 4)).tolist()
            y = rng.choice(entries, size=4).tolist()
            steps.append((K, float(rng.choice([1e-3, 0.37, 1.0, 1e3, 1e9])),
                          float(rng.choice([0.0, 3.25, -7.5])), y))
    return steps


def test_interpolant_gives_the_bits_of_the_scan():
    # At every scan-grid point, the float interpolant that event refinement
    # and `sample_at` read equals the array scan's jet, for one lane and for
    # that lane inside a many-lane scan.
    steps = _agreement_steps()
    K = np.array([st[0] for st in steps]).transpose(1, 2, 0)
    h, t = (np.array([st[i] for st in steps]) for i in (1, 2))
    y = np.array([st[3] for st in steps]).T
    seen = []
    with np.errstate(all="ignore"):
        lanes = itg._scan(K, h, t, t + h, y, math.inf, math.inf)
        for j, (Kj, hj, tj, yj) in enumerate(steps):
            one = itg._scan(np.array(Kj)[:, :, None], hj, tj, tj + hj, np.array(yj)[:, None],
                            math.inf, math.inf)
            at = itg._interpolant(Kj, hj, tj, yj)
            for (grid, jets, _), lane in ((one, 0), (lanes, j)):
                for i, g in enumerate(grid[:, lane].tolist()):
                    jet = at(g)
                    assert [v.hex() for v in jet] == [v.hex() for v in jets[:, i, lane].tolist()], (j, i)
                    seen.extend(jet)
    assert any(math.isnan(v) for v in seen) and any(math.isinf(v) for v in seen)
    assert any(0.0 < abs(v) < sys.float_info.min for v in seen)


def _record_ends(monkeypatch) -> list:
    """(seed, cfg, (termination, jet, stats)) of every orbit `_drive_end` runs from s = 0."""
    ends = []
    drive = itg._drive_end

    def recording(d, y, s0, cfg, cs, resume):
        end = drive(d, y, s0, cfg, cs, resume)
        if resume[0] == 0.0:
            ends.append((y, cfg, end))
        return end

    monkeypatch.setattr(itg, "_drive_end", recording)
    return ends


def test_shooting_orbits_skip_most_scans(monkeypatch):
    # The search's orbits run on the loop that keeps no step, and theta*'s
    # orbit, the last, on `integrate`, ungated, to blowup.
    ends, trajs = _record_ends(monkeypatch), []
    run = itg.integrate

    def recording(*args, gates=False, **kwargs):
        assert not gates
        trajs.append(run(*args, gates=gates, **kwargs))
        return trajs[-1]

    monkeypatch.setattr(itg, "integrate", recording)
    manifold.find_heteroclinic()
    assert len(ends) == 17 and len(trajs) == 1
    traj, = trajs
    assert traj.stats.accepted == len(traj.s) - 1
    stats = [st for _, _, (_, _, st) in ends] + [traj.stats]
    for st in stats:
        assert st.accepted == st.scanned + st.skipped
        assert st.field_evals == 2 + 6 * (st.accepted + st.rejected)
    for _, _, (term, _, st) in ends:
        assert (st.bisections > 0) == (term.kind is itg.TerminationKind.EVENT_STOP)
    assert traj.termination.kind is itg.TerminationKind.BLOWUP_DETECTED
    assert traj.stats.bisections > 0
    assert sum(st.skipped for st in stats) >= 0.98 * sum(st.accepted for st in stats)


def _pinned_seeds(monkeypatch) -> list:
    """(seed, cfg) of the orbits that the one-lane runs must end as `integrate`
    does: the shooting search's 17, both ends of its bracket among them, an
    orbit that exhausts its span, one whose step underflows, one that blows
    up at its start, and the lanes of `_long_step_lanes`' first five seeds."""
    search = _record_ends(monkeypatch)
    manifold.find_heteroclinic()
    monkeypatch.undo()
    spec = manifold.SeedSpec(0.05, 0.784810845396603)
    long_cfg, long_seeds = _long_step_lanes()
    return [*((y, cfg) for y, cfg, _ in search),
            (manifold.seed_state(spec).as_array(), itg.IntegrationConfig(max_span=6.0)),
            ([0.2, 0.5, 6.0, 5.0], itg.IntegrationConfig(blowup_norm=1e300, max_span=3.0)),
            ([0.0, 0.0, 4.0, 0.0], itg.IntegrationConfig(blowup_norm=3.0)),
            *((x0, long_cfg) for x0 in long_seeds[:5])]


def test_orbits_that_keep_nothing_end_as_integrate(monkeypatch):
    # Each seed runs as the one lane of `integrate_lanes`, which hands it to
    # `_drive_end` at once, and through the gated `integrate`, which keeps
    # its steps: the same end, the same jet, and every counter alike.
    seeds = _pinned_seeds(monkeypatch)
    kinds = set()
    for x0, cfg in seeds:
        ends = _record_ends(monkeypatch)
        lane, = itg.integrate_lanes(5, [x0], cfg)
        monkeypatch.undo()
        assert _lane_key(lane) == _serial_key(5, x0, cfg), x0
        if isinstance(lane.end, itg.IntegrationError):
            kinds.add(itg.IntegrationError)
            continue
        traj = itg.integrate(5, x0, cfg=cfg, gates=True)
        if len(traj.s) == 1:  # blown up at the start, before any loop
            assert ends == [] and traj.stats == itg.StepStats()
            kinds.add("start")
            continue
        (_, _, (term, y, stats)), = ends
        assert term == traj.termination
        assert [v.hex() for v in y] == [v.hex() for v in traj.states[-1].tolist()]
        assert stats == traj.stats, x0
        kinds.add(term.kind)
    assert len(seeds) >= 20
    assert kinds == {*itg.TerminationKind, itg.IntegrationError, "start"}


def test_shoot_bracket_ends_take_the_pinned_steps():
    # Every counter of both ends of shoot's default bracket, pinned.
    cfg = itg.IntegrationConfig(max_span=config.SHOOT_SPAN)
    pinned = {
        -0.5 * math.pi: itg.StepStats(accepted=210, rejected=0, field_evals=1262, scanned=3,
                                      skipped=207, bisections=23),
        manifold.theta0(config.EPS0) + 0.05: itg.StepStats(
            accepted=212, rejected=0, field_evals=1274, scanned=2, skipped=210, bisections=24),
    }
    for theta, stats in pinned.items():
        seed = manifold.seed_state(manifold.SeedSpec(config.EPS0, theta))
        assert itg.integrate(5, seed, cfg=cfg, gates=True).stats == stats, theta


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
