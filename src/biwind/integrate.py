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
"""

from __future__ import annotations

import csv
import enum
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


def _make_rhs(d: int, reverse: bool) -> Callable[[float, np.ndarray], tuple]:
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
        sin2 = math.sin(2.0 * phi)
        cos2 = math.cos(2.0 * phi)
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
            raise IntegrationError(
                f"stepper failed near s={stepper.t:.6g} "
                f"(likely step underflow approaching a singularity)",
                s_last=float(stepper.t_old),
                state_last=core.State.from_array(out(ys[-1] if ys else y0)),
            )
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
