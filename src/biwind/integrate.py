"""Adaptive integration of the fourth-order flow with event detection.

The driver wraps scipy's embedded RK45 pair, keeping every accepted step's
dense interpolant.  Blowup (sup-norm threshold) and watched events are
detected by sign scans over a fixed grid in each step, evaluated by one
vector call of the step's interpolant (dense-output event location, Hairer,
Norsett and Wanner, Solving ODEs I, sec. II.6).  A sign change is sharpened
by bisection on the scalar interpolant to `event_refine_tol`; the earliest
one in the step wins, and watched events terminate the run.  Reversed
integration conjugates by J = diag(1,-1,1,-1): the returned samples are the
true backward states of the orbit through x0, so a forward run followed by a
reversed run returns to the starting jet.

`integrate_lanes` runs many seeds at once as the columns of a (4, n) array:
one Python loop of lockstep Dormand-Prince 5(4) steps with scipy's tableau
and step control, a step size per lane, the same per-step scan and gate
events, and lanes that retire at their events.  It keeps no trajectory.  Its
sums run in a fixed elementwise order, so a lane's result does not depend on
the batch; it matches the serial integrator up to rounding.
"""

from __future__ import annotations

import csv
import enum
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
from scipy.integrate import RK45

from . import config, core, regions

__all__ = [
    "IntegrationConfig",
    "EventKind",
    "CustomEvent",
    "TerminationKind",
    "Termination",
    "Trajectory",
    "IntegrationError",
    "integrate",
    "integrate_reversed",
    "LaneEnd",
    "integrate_lanes",
    "sample_at",
    "write_csv",
]


class IntegrationError(RuntimeError):
    """Raised when the stepper fails (step-size underflow, bad state).

    Distinct from blowup: hitting the sup-norm threshold is a reported
    termination, not an error.
    """

    def __init__(self, message: str, s_last: float, state_last: core.State):
        super().__init__(message)
        self.s_last = s_last
        self.state_last = state_last


@dataclass(frozen=True, slots=True)
class IntegrationConfig:
    rel_tol: float = config.REL_TOL
    abs_tol: float = config.ABS_TOL
    max_step: float = config.MAX_STEP
    blowup_norm: float = config.BLOWUP_NORM
    max_span: float = config.MAX_SPAN
    event_refine_tol: float = config.EVENT_REFINE_TOL

    def __post_init__(self) -> None:
        for name in ("rel_tol", "abs_tol", "max_step", "blowup_norm", "max_span", "event_refine_tol"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be a positive finite number, got {v!r}")
        if self.rel_tol > 1e-6:
            raise ValueError(
                f"rel_tol={self.rel_tol} too loose; orbit classification needs <= 1e-6"
            )


class EventKind(enum.Enum):
    SECOND_DERIV_UP = "second_deriv_up"      # phi'' crossing +c_star upward
    SECOND_DERIV_DOWN = "second_deriv_down"  # phi'' crossing -c_star downward
    REGION_C_EXIT = "region_c_exit"          # first boundary contact after being inside


@dataclass(frozen=True)
class CustomEvent:
    """User event: fires when fn(s, state-array) crosses zero."""

    event_id: str
    fn: Callable[[float, np.ndarray], float]


class TerminationKind(enum.Enum):
    SPAN_EXHAUSTED = "span_exhausted"
    BLOWUP_DETECTED = "blowup_detected"
    EVENT_STOP = "event_stop"


@dataclass(frozen=True, slots=True)
class Termination:
    kind: TerminationKind
    s_last: float | None = None
    norm: float | None = None
    event: str | None = None


@dataclass
class Trajectory:
    """Ordered samples of one run plus its dense interpolants.

    `s` is strictly increasing; `states[k]` is the jet at `s[k]`.  The
    dense interpolant `_segments[k]` covers [s[k], s[k+1]] and backs
    `sample_at`, so `s` itself holds the segment ends.
    """

    d: int
    s: np.ndarray
    states: np.ndarray
    termination: Termination
    events: list[tuple[str, float, core.State]] = field(default_factory=list)
    _segments: list[Callable[[float], np.ndarray]] = field(default_factory=list, repr=False)
    _mirror: bool = field(default=False, repr=False)

    @property
    def samples(self) -> Iterator[tuple[float, core.State]]:
        for sk, xk in zip(self.s, self.states):
            yield float(sk), core.State.from_array(xk)

    def state_at_end(self) -> core.State:
        return core.State.from_array(self.states[-1])


# ---------------------------------------------------------------------------
# Right-hand sides (local closures; validated against core.vector_field in tests).


def _make_rhs(d: int, reverse: bool, lib=math) -> Callable[[float, np.ndarray], tuple]:
    """The field as a 4-tuple of derivatives; `lib` supplies sin and cos.

    With `math` it takes one jet.  With `numpy` it takes a (4, n) array whose
    columns are jets and returns one row of n values per component, each lane
    computed by the same operations in the same order as a single jet.
    """
    d1 = float(d - 1)
    k = float(-(d - 11) * d - 21)
    c3 = 1.5 * (d - 3) * (d - 1)
    gk = float(3 * d - 5)
    a = float(d - 4)
    sgn = -1.0 if reverse else 1.0

    def rhs(s: float, y: np.ndarray) -> tuple:
        phi = y[0]
        v = y[1]
        w2 = y[2]
        w3 = y[3]
        sin2 = lib.sin(2.0 * phi)
        cos2 = lib.cos(2.0 * phi)
        acc = (
            (d1 * cos2 + k) * w2
            - c3 * sin2
            + (6.0 * w2 - d1 * sin2) * v * v
            + sgn * (a * (d1 * cos2 + gk) * v + 2.0 * a * v * v * v - 2.0 * a * w3)
        )
        return (v, w2, w3, acc)

    return rhs


# ---------------------------------------------------------------------------
# Event probes.


class _Probe:
    """Scalar event function with a crossing direction and arming logic."""

    def __init__(self, name: str, fn: Callable[[float, np.ndarray], float],
                 direction: int, needs_arming: bool = False):
        self.name = name
        self.fn = fn
        self.direction = direction  # +1 up, -1 down, 0 any
        self.needs_arming = needs_arming
        self.armed = not needs_arming

    def crossed(self, g_prev: float, g_next: float) -> bool:
        if not self.armed:
            return False
        if self.direction >= 0 and g_prev < 0.0 <= g_next:
            return True
        if self.direction <= 0 and g_prev > 0.0 >= g_next:
            return True
        return False

    def update_arming(self, g: float) -> None:
        if self.needs_arming and not self.armed and g > 0.0:
            self.armed = True


def _build_probes(d: int, watch: Sequence) -> list[_Probe]:
    probes: list[_Probe] = []
    for item in watch:
        if isinstance(item, CustomEvent):
            probes.append(_Probe(item.event_id, item.fn, direction=0))
        elif item is EventKind.SECOND_DERIV_UP:
            cs = core.c_star(d)
            probes.append(
                _Probe(item.value, lambda s, y, cs=cs: y[2] - cs, direction=+1)
            )
        elif item is EventKind.SECOND_DERIV_DOWN:
            cs = core.c_star(d)
            probes.append(
                _Probe(item.value, lambda s, y, cs=cs: y[2] + cs, direction=-1)
            )
        elif item is EventKind.REGION_C_EXIT:
            if d != 5:
                raise ValueError("region-exit watch is defined for d=5 only")
            probes.append(
                _Probe(
                    item.value,
                    lambda s, y: regions.region_gap(y[0], y[2]),
                    direction=-1,
                    needs_arming=True,
                )
            )
        else:
            raise ValueError(f"unknown watch entry: {item!r}")
    return probes


# Each accepted step is scanned at its two ends and _SCAN_POINTS equally
# spaced interior points, all evaluated by one call of the step's dense
# interpolant.  _FRACS * (h / (_SCAN_POINTS + 1)) + t0 is np.linspace's own
# arithmetic, so the grid is bit-identical to linspace without its overhead.
_SCAN_POINTS = 8
_FRACS = np.arange(_SCAN_POINTS + 2.0)


def _bisect_crossing(
    g: Callable[[float], float], lo: float, hi: float, up: bool, tol: float
) -> float:
    """First zero of g in (lo, hi], assuming a sign change; returns the far side.

    The returned abscissa satisfies the crossed condition (g >= 0 for upward
    crossings, g <= 0 for downward ones) within the bracket width `tol`.
    """
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        on_far_side = (gm >= 0.0) if up else (gm <= 0.0)
        if on_far_side:
            hi = mid
        else:
            lo = mid
    return hi


def _underflow(s: float, s_last: float, y: np.ndarray) -> IntegrationError:
    return IntegrationError(
        f"stepper failed near s={s:.6g} (likely step underflow approaching a singularity)",
        s_last=float(s_last),
        state_last=core.State.from_array(y),
    )


def _drive(d: int, x0: np.ndarray, s0: float, cfg: IntegrationConfig,
           probes: list[_Probe], reverse: bool) -> Trajectory:
    mirror = core.REVERSAL_SIGNS if reverse else None
    y0 = (mirror * x0) if reverse else np.array(x0, dtype=float)
    rhs = _make_rhs(d, reverse)

    def out(y: np.ndarray) -> np.ndarray:
        return mirror * y if reverse else y

    sup0 = float(np.max(np.abs(y0)))
    if sup0 > cfg.blowup_norm:
        term = Termination(TerminationKind.BLOWUP_DETECTED, s_last=s0, norm=sup0)
        return Trajectory(d, np.array([s0]), np.array([out(y0)]), term, _mirror=reverse)

    stepper = RK45(
        rhs, s0, y0, s0 + cfg.max_span,
        max_step=cfg.max_step, rtol=cfg.rel_tol, atol=cfg.abs_tol,
    )
    ss: list[float] = [s0]
    ys: list[np.ndarray] = [y0]
    segments: list[Callable[[float], np.ndarray]] = []
    events: list[tuple[str, float, core.State]] = []

    for p in probes:
        g0 = p.fn(s0, y0)
        p.update_arming(g0)

    def finish(term: Termination) -> Trajectory:
        return Trajectory(
            d,
            np.array(ss),
            np.array([out(y) for y in ys]),
            term,
            events=events,
            _segments=segments,
            _mirror=reverse,
        )

    while stepper.status == "running":
        stepper.step()
        if stepper.status == "failed":
            raise _underflow(stepper.t, stepper.t_old, out(ys[-1] if ys else y0))
        dense = stepper.dense_output()
        t0, t1 = float(stepper.t_old), float(stepper.t)
        grid = _FRACS * ((t1 - t0) / (_SCAN_POINTS + 1)) + t0
        grid[-1] = t1
        ys_grid = dense(grid)
        g_norm = (np.max(np.abs(ys_grid), axis=0) - cfg.blowup_norm).tolist()
        grid = grid.tolist()

        def norm_gap(t: float) -> float:
            return float(np.max(np.abs(dense(t)))) - cfg.blowup_norm

        # Scan the step for the earliest blowup/event crossing.
        hit_s: float | None = None
        hit_probe: _Probe | None = None
        hit_blowup = False
        g_prev = [p.fn(t0, ys_grid[:, 0]) for p in probes]
        for i in range(1, len(grid)):
            ta, tb = grid[i - 1], grid[i]
            if g_norm[i - 1] < 0.0 <= g_norm[i]:
                s_hit = _bisect_crossing(norm_gap, ta, tb, up=True, tol=cfg.event_refine_tol)
                if hit_s is None or s_hit < hit_s:
                    hit_s, hit_probe, hit_blowup = s_hit, None, True
            yb = ys_grid[:, i]
            for j, p in enumerate(probes):
                g_next = p.fn(tb, yb)
                if p.crossed(g_prev[j], g_next):
                    s_hit = _bisect_crossing(
                        lambda t, p=p: p.fn(t, dense(t)),
                        ta, tb, up=(p.direction >= 0), tol=cfg.event_refine_tol,
                    )
                    if hit_s is None or s_hit < hit_s:
                        hit_s, hit_probe, hit_blowup = s_hit, p, False
                p.update_arming(g_next)
                g_prev[j] = g_next
            if hit_s is not None and hit_s <= ta:
                break

        if hit_s is not None:
            y_hit = dense(hit_s)
            ss.append(hit_s)
            ys.append(y_hit)
            segments.append(dense)
            if hit_blowup:
                term = Termination(
                    TerminationKind.BLOWUP_DETECTED,
                    s_last=hit_s,
                    norm=float(np.max(np.abs(y_hit))),
                )
            else:
                assert hit_probe is not None
                events.append((hit_probe.name, hit_s, core.State.from_array(out(y_hit))))
                term = Termination(TerminationKind.EVENT_STOP, s_last=hit_s, event=hit_probe.name)
            return finish(term)

        ss.append(t1)
        ys.append(stepper.y.copy())
        segments.append(dense)

    return finish(Termination(TerminationKind.SPAN_EXHAUSTED, s_last=ss[-1]))


# ---------------------------------------------------------------------------
# Lockstep lanes: scipy's RK45 (scipy/integrate/_ivp/rk.py) step for step, on
# a (4, n) array.  The flow is autonomous, so the stage times RK45.C are unused.

_A, _B, _E, _P = RK45.A, RK45.B, RK45.E, RK45.P
_ERROR_EXPONENT = -1.0 / (RK45.error_estimator_order + 1)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_RTOL_FLOOR = 100 * np.finfo(float).eps  # scipy's validate_tol


def _combo(terms: Sequence[np.ndarray], coeffs: np.ndarray) -> np.ndarray:
    """sum_j coeffs[j] * terms[j], accumulated elementwise in index order."""
    acc = terms[0] * coeffs[0]
    for j in range(1, len(coeffs)):
        acc = acc + terms[j] * coeffs[j]
    return acc


def _rms(z: np.ndarray) -> np.ndarray:
    """scipy's RMS norm over the 4 jet components (axis 0), in a fixed order."""
    return np.sqrt(z[0] * z[0] + z[1] * z[1] + z[2] * z[2] + z[3] * z[3]) / 2.0


def _interpolate(q, h, t_old, y_old, t):
    """RK45's dense output: y_old + h * sum_k q[k] x^(k+1) with x = (t - t_old) / h."""
    x = (t - t_old) / h
    p = x
    acc = q[0] * p
    for qk in q[1:]:
        p = p * x
        acc = acc + qk * p
    return h * acc + y_old


def _initial_step(rhs, y0: np.ndarray, f0: np.ndarray, t_bound: float,
                  max_step: float, rtol: float, atol: float) -> np.ndarray:
    """scipy's select_initial_step (Hairer, Norsett and Wanner, sec. II.4) per lane."""
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
    h0 = np.minimum(h0, t_bound)
    f1 = np.array(rhs(0.0, y0 + h0 * f0))
    d2 = _rms((f1 - f0) / scale) / h0
    h1 = np.where(
        (d1 <= 1e-15) & (d2 <= 1e-15),
        np.maximum(1e-6, h0 * 1e-3),
        (0.01 / np.maximum(d1, d2)) ** (1 / (RK45.error_estimator_order + 1)),
    )
    return np.minimum(np.minimum(np.minimum(100 * h0, h1), t_bound), max_step)


@dataclass(frozen=True, slots=True)
class LaneEnd:
    """How one lane of `integrate_lanes` ended.

    `end` is the termination, or the IntegrationError `integrate` would
    raise; `state` is the jet at `end.s_last` (the last accepted jet on
    error); `kept` says whether `keep` held at the start and at every
    accepted step.
    """

    end: Termination | IntegrationError
    state: core.State
    kept: bool


def integrate_lanes(
    d: int,
    x0s,
    cfg: IntegrationConfig | None = None,
    keep: Callable[[np.ndarray], np.ndarray] | None = None,
) -> list[LaneEnd]:
    """Integrate the forward flow from every row of x0s, all in one loop.

    Lane k runs `integrate(d, x0s[k], cfg=cfg, watch=[SECOND_DERIV_UP,
    SECOND_DERIV_DOWN])` as the serial integrator does: RK45's step control with
    a step size of its own, the same scan grid per accepted step, bisection
    of a crossing on its own interpolant, and the same earliest-hit rule and
    terminations.  A lane retires at its event or at the end of the span;
    one whose step size underflows retires with the IntegrationError and the
    others run on.  Stage sums, the error norm and the interpolant are
    elementwise sums in a fixed order, so a lane's bits depend on its seed
    only, never on the other lanes; they differ from the serial integrator's by
    rounding, since scipy sums with matrix products.  `keep` maps a (4, n)
    array of jets to a boolean lane mask, tracked into `LaneEnd.kept`.
    """
    cfg = cfg or IntegrationConfig()
    jets = [core.State.from_array(x).as_array() for x in x0s]
    if not jets:
        return []
    core.vector_field(d, jets[0])  # validates d
    rhs = _make_rhs(d, reverse=False, lib=np)
    cs = core.c_star(d)
    t_bound, max_step = float(cfg.max_span), float(cfg.max_step)
    rtol, atol = max(cfg.rel_tol, _RTOL_FLOOR), cfg.abs_tol
    ends: list[LaneEnd | None] = [None] * len(jets)

    y = np.ascontiguousarray(np.array(jets).T)
    kept = keep(y) if keep is not None else np.ones(len(jets), dtype=bool)
    sup0 = np.max(np.abs(y), axis=0)
    for j in np.flatnonzero(sup0 > cfg.blowup_norm):
        term = Termination(TerminationKind.BLOWUP_DETECTED, s_last=0.0, norm=float(sup0[j]))
        ends[j] = LaneEnd(term, core.State.from_array(y[:, j]), bool(kept[j]))
    lanes = np.flatnonzero(sup0 <= cfg.blowup_norm)
    y, kept = y[:, lanes], kept[lanes]
    t, t_old = np.zeros(lanes.size), np.zeros(lanes.size)
    rejected = np.zeros(lanes.size, dtype=bool)

    # Rejected, failed or blown-up trials make inf and nan; they never pass
    # the acceptance test, and comparisons with nan are false.
    with np.errstate(all="ignore"):
        f = np.array(rhs(0.0, y))
        h_abs = _initial_step(rhs, y, f, t_bound, max_step, rtol, atol)
        while lanes.size:
            # One trial step per lane, as RK45._step_impl: clamp a fresh step
            # to [min_step, max_step]; a retried one fails below min_step.
            min_step = 10.0 * np.abs(np.nextafter(t, np.inf) - t)
            fresh = np.where(h_abs < min_step, min_step, h_abs)
            fresh = np.where(h_abs > max_step, max_step, fresh)
            h_abs = np.where(rejected, h_abs, fresh)
            failed = h_abs < min_step
            t_new = np.minimum(t + h_abs, t_bound)
            h = t_new - t
            K = [f]
            for s in range(1, RK45.n_stages):
                K.append(np.array(rhs(0.0, y + _combo(K, _A[s, :s]) * h)))
            y_new = y + h * _combo(K, _B)
            K.append(np.array(rhs(0.0, y_new)))
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err = _rms(_combo(K, _E) * h / scale)
            accepted = (err < 1.0) & ~failed
            # Python's min/max order: a nan error shrinks the step by MIN_FACTOR.
            grow = _SAFETY * err ** _ERROR_EXPONENT
            up = np.where(grow < _MAX_FACTOR, grow, _MAX_FACTOR)
            up = np.where(rejected, np.minimum(up, 1.0), up)
            down = np.where(grow > _MIN_FACTOR, grow, _MIN_FACTOR)
            h_abs = h * np.where(accepted, up, down)
            rejected = ~accepted

            # Scan each accepted step on the serial integrator's grid.
            q = _combo(K, _P[:, :, None, None])
            grid = _FRACS[:, None] * (h / (_SCAN_POINTS + 1)) + t
            grid[-1] = t_new
            ys = _interpolate(q[:, :, None, :], h, t, y[:, None, :], grid)
            gap = np.max(np.abs(ys), axis=0) - cfg.blowup_norm
            g_up, g_down = ys[2] - cs, ys[2] + cs
            crossings = (
                (gap[:-1] < 0.0) & (gap[1:] >= 0.0),
                (g_up[:-1] < 0.0) & (g_up[1:] >= 0.0),
                (g_down[:-1] > 0.0) & (g_down[1:] <= 0.0),
            )
            any_crossing = (crossings[0] | crossings[1] | crossings[2]) & accepted
            hit = any_crossing.any(axis=0)
            if keep is not None:
                kept &= ~accepted | keep(y_new)

            done = failed | hit | (accepted & (t_new >= t_bound))
            for j in np.flatnonzero(done):
                if failed[j]:
                    err_j = _underflow(t[j], t_old[j], y[:, j])
                    ends[lanes[j]] = LaneEnd(err_j, err_j.state_last, bool(kept[j]))
                elif hit[j]:
                    at = functools.partial(_interpolate, q[:, :, j], h[j], t[j], y[:, j])
                    i = int(np.argmax(any_crossing[:, j]))
                    term, y_hit = _refine_hit(
                        at, [c[i, j] for c in crossings], float(grid[i, j]),
                        float(grid[i + 1, j]), cs, cfg,
                    )
                    ends[lanes[j]] = LaneEnd(term, core.State.from_array(y_hit), bool(kept[j]))
                else:
                    term = Termination(TerminationKind.SPAN_EXHAUSTED, s_last=float(t_new[j]))
                    y_end = core.State.from_array(y_new[:, j])
                    ends[lanes[j]] = LaneEnd(term, y_end, bool(kept[j]))

            t_old = np.where(accepted, t, t_old)
            t = np.where(accepted, t_new, t)
            y = np.where(accepted, y_new, y)
            f = np.where(accepted, K[-1], f)
            if done.any():
                live = ~done
                lanes, t, t_old, h_abs, rejected, kept = (
                    a[live] for a in (lanes, t, t_old, h_abs, rejected, kept)
                )
                y, f = y[:, live], f[:, live]
    return ends


def _refine_hit(at: Callable[[float], np.ndarray], crossed: Sequence[bool], ta: float,
                tb: float, cs: float, cfg: IntegrationConfig) -> tuple[Termination, np.ndarray]:
    """Earliest refined crossing in (ta, tb] of one lane's interpolant `at`.

    `crossed` flags sign changes of the blowup gap, the upward gate and the
    downward gate, the order in which `_drive` checks them; ties go to the
    first.  Returns the termination and the jet there.
    """
    gaps = (
        lambda s: float(np.max(np.abs(at(s)))) - cfg.blowup_norm,
        lambda s: at(s)[2] - cs,
        lambda s: at(s)[2] + cs,
    )
    best: tuple[float, int] | None = None
    for k, (flag, g) in enumerate(zip(crossed, gaps)):
        if flag:
            s_hit = _bisect_crossing(g, ta, tb, up=k < 2, tol=cfg.event_refine_tol)
            if best is None or s_hit < best[0]:
                best = (s_hit, k)
    assert best is not None
    s_hit, k = best
    y_hit = at(s_hit)
    if k == 0:
        norm = float(np.max(np.abs(y_hit)))
        return Termination(TerminationKind.BLOWUP_DETECTED, s_last=s_hit, norm=norm), y_hit
    event = (EventKind.SECOND_DERIV_UP, EventKind.SECOND_DERIV_DOWN)[k - 1].value
    return Termination(TerminationKind.EVENT_STOP, s_last=s_hit, event=event), y_hit


# ---------------------------------------------------------------------------
# Public drivers.


def integrate(
    d: int,
    x0,
    s0: float = 0.0,
    cfg: IntegrationConfig | None = None,
    watch: Iterable[EventKind | CustomEvent] = (),
) -> Trajectory:
    """Integrate the forward flow from the jet x0 at time s0.

    Stops at s0 + max_span, at the first watched-event crossing, or when the
    sup-norm of the jet exceeds blowup_norm (whichever comes first); the
    final sample of a blowup run strictly exceeds the threshold.  Raises
    IntegrationError if the stepper underflows.
    """
    cfg = cfg or IntegrationConfig()
    x0 = core.State.from_array(x0).as_array() if not isinstance(x0, core.State) else x0.as_array()
    if not (isinstance(s0, (int, float)) and math.isfinite(s0)):
        raise ValueError(f"s0 must be finite, got {s0!r}")
    probes = _build_probes(d, tuple(watch))
    core.vector_field(d, x0)  # validates d and x0 once up front
    return _drive(d, x0, float(s0), cfg, probes, reverse=False)


def integrate_reversed(d: int, x0, cfg: IntegrationConfig | None = None) -> Trajectory:
    """Integrate backward from x0: sample k holds the jet at time -s_k.

    Internally the s -> -s pullback field is integrated forward from J x0 and
    the output is conjugated back by J, so samples are genuine past states of
    the forward orbit through x0 (a forward run followed by a reversed run of
    the same span lands back on the initial jet).
    """
    cfg = cfg or IntegrationConfig()
    x0 = core.State.from_array(x0).as_array() if not isinstance(x0, core.State) else x0.as_array()
    core.vector_field(d, x0)
    return _drive(d, x0, 0.0, cfg, [], reverse=True)


def sample_at(traj: Trajectory, s: float) -> core.State:
    """Jet at an arbitrary time inside the sampled span.

    Stored nodes are returned exactly; interior points come from the dense
    interpolant of the covering step (agreeing with a fresh shorter
    integration to within an order of 10 * abs_tol).
    """
    if not traj.s[0] <= s <= traj.s[-1]:
        raise ValueError(
            f"s={s} outside sampled span [{traj.s[0]}, {traj.s[-1]}]"
        )
    idx = int(np.searchsorted(traj.s, s))
    if traj.s[idx] == s:
        return core.State.from_array(traj.states[idx])
    y = traj._segments[idx - 1](s)
    if traj._mirror:
        y = core.REVERSAL_SIGNS * y
    return core.State.from_array(y)


def write_csv(traj: Trajectory, path: str) -> None:
    """Delimited dump: s, jet components, energy total and dissipation rate."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["s", "phi", "dphi", "d2phi", "d3phi", "energy_total", "energy_rate"])
        for sk, xk in zip(traj.s, traj.states):
            e = core.energy(traj.d, xk)
            wr.writerow(
                [repr(float(sk))]
                + [repr(float(c)) for c in xk]
                + [repr(float(e.total)), repr(float(e.rate))]
            )
