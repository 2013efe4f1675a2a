"""Adaptive integration of the fourth-order flow with event detection.

One Dormand-Prince 5(4) kernel (Dormand and Prince, J. Comput. Appl. Math. 6,
1980) with the step control and initial step of Hairer, Norsett and Wanner,
Solving ODEs I, sec. II.4, drives two loops.  `integrate` runs one orbit on
four Python floats and keeps every accepted step's stages, from which
`sample_at` builds the dense output.  `integrate_lanes` runs many seeds at
once as the columns of a (4, n) array, a step size per lane, and keeps no
trajectory.  Both sum the stages, the error norm and the interpolant
elementwise in one fixed order, so an orbit's bits depend on its seed only:
not on the loop that ran it, nor on the other lanes.  The lanes take each sum
with `_combo` on arrays.  A single orbit's trial step and reach bound are
straight-line code on scalar locals, generated at import from the tableau:
every sum is `_combo`'s written out, with the same products, zero weights
included, in the same order.  numpy rounds each elementwise operation on
doubles as Python rounds it on a float, so each component rounds as its lane
does.

Blowup (sup-norm threshold) and the phi'' gate events are detected by sign
scans over a fixed grid in each accepted step, evaluated on the step's quartic
interpolant (dense-output event location, Hairer, Norsett and Wanner, sec.
II.6).  The first scan interval with a sign change is sharpened by bisection on
the interpolant to `event_refine_tol`, or to adjacent doubles when that is
finer; the earliest crossing found there ends the run.  A single orbit first
bounds the interpolant over the whole step by its stages (`_reach`) and skips
the scan, and the dense output it needs, when that bound stays below the
blowup threshold and the watched gates; a skipped scan could have found
nothing, so the orbit is the same bit for bit.  The lanes scan every step.
Reversed integration conjugates by J = diag(1,-1,1,-1): the returned
samples are the true backward states of the orbit through x0, so a forward run
followed by a reversed run returns to the starting jet.
"""

from __future__ import annotations

import contextlib
import csv
import enum
import functools
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import config, core
from .core import NUMPY, _make_rhs

__all__ = [
    "IntegrationConfig",
    "EventKind",
    "TerminationKind",
    "Termination",
    "Trajectory",
    "StepStats",
    "IntegrationError",
    "integrate",
    "integrate_reversed",
    "LaneEnd",
    "integrate_lanes",
    "sample_at",
    "atomic_open",
    "write_rows",
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
            if isinstance(v, bool) or not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be a positive finite number, got {v!r}")
        if self.rel_tol > 1e-6:
            raise ValueError(
                f"rel_tol={self.rel_tol} too loose; orbit classification needs <= 1e-6"
            )


class EventKind(enum.Enum):
    SECOND_DERIV_UP = "second_deriv_up"      # phi'' crossing +c_star upward
    SECOND_DERIV_DOWN = "second_deriv_down"  # phi'' crossing -c_star downward


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
class StepStats:
    """What one `integrate` or `integrate_reversed` run did.

    Every accepted step is either `scanned` for events or `skipped`, because
    its `_reach` bound showed that no event can lie on it.  `field_evals`
    counts the field calls, six per trial step (a trial cut short by an
    overflowing stage counts all six) plus two for the initial step.
    `bisections` counts the halvings that located the ending event.
    """

    accepted: int = 0
    rejected: int = 0
    field_evals: int = 0
    scanned: int = 0
    skipped: int = 0
    bisections: int = 0


@dataclass
class Trajectory:
    """Ordered samples of one run plus what it takes to interpolate them.

    `s` is strictly increasing; `states[k]` is the jet at `s[k]`.  The step
    from `s[k]` has the Runge-Kutta stages and size `_steps[k]`; its dense
    output (`_dense`) covers [s[k], s[k+1]] and backs `sample_at`.  `stats`
    counts the run's steps and is kept in memory only.
    """

    d: int
    s: np.ndarray
    states: np.ndarray
    termination: Termination
    _steps: list[tuple[list, float]] = field(default_factory=list, repr=False)
    _mirror: bool = field(default=False, repr=False)
    stats: StepStats = field(default_factory=StepStats, repr=False)

    @property
    def samples(self) -> Iterator[tuple[float, core.State]]:
        for sk, xk in zip(self.s, self.states):
            yield float(sk), core.State.from_array(xk)

    def state_at_end(self) -> core.State:
        return core.State.from_array(self.states[-1])


# ---------------------------------------------------------------------------
# The Dormand-Prince 5(4) pair: stage weights A, fifth-order weights B, error
# weights E (B minus the embedded fourth-order weights, FSAL stage last) and
# the quartic dense output P of Shampine (Math. Comp. 46, 1986).  The flow is
# autonomous, so the stage times are unused.

_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
_P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)
_P_COLUMNS = tuple(zip(*_P))  # coefficient k of the interpolant, one weight per stage
_P_LANES = np.array(_P)[:, :, None, None]  # one (4, 4, n) combination for all lanes

# The interpolant of a step is y + h * sum_k q_k x^(k+1) with x in [0, 1] and
# q_k = sum_j P[j][k] K_j, so each component c obeys
#     |y_c(x)| <= |y_c| + h * sum_j _P_REACH[j] * |K_j,c|,  _P_REACH[j] = sum_k |P[j][k]|.
# The scan's x = (g - t) / h lies in [0, 1] up to a rounding or two: g >= t,
# and the last grid point gives x = h / h = 1 exactly.  The bound and a scanned
# jet each take fewer than 40 roundings to nearest (the 7-term stage sums, the
# powers of x and the polynomial, the factor h, the term y_c, the sums of
# _P_REACH and of the bound itself), so each lies within a factor
# 1 + gamma_40 ~ 1 + 5e-15 of its exact value (Higham, Accuracy and Stability
# of Numerical Algorithms, sec. 3.1).  _REACH_MARGIN covers that with room to
# spare.  A product in the subnormal range errs by up to 2**-1075 absolute
# instead, fewer than 40 of them, scaled by at most h; (1 + h) * _REACH_FLOOR
# covers those.  An inf or nan bound never passes the test, so its step scans.
_P_REACH = tuple(math.fsum(abs(p) for p in row) for row in _P)
_REACH_MARGIN = 1.0 + 1e-9
_REACH_FLOOR = 2.0 ** -1000

_ERROR_EXPONENT = -1.0 / 5  # -1 / (order of the embedded estimate + 1)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_RTOL_FLOOR = 100 * np.finfo(float).eps


def _combo(terms: Sequence, coeffs: Sequence[float]):
    """sum_j coeffs[j] * terms[j], accumulated in index order (floats or arrays)."""
    acc = terms[0] * coeffs[0]
    for j in range(1, len(coeffs)):
        acc = acc + terms[j] * coeffs[j]
    return acc


def _rms(z, sqrt=np.sqrt):
    """RMS norm over the 4 jet components (axis 0), in a fixed order."""
    return sqrt(z[0] * z[0] + z[1] * z[1] + z[2] * z[2] + z[3] * z[3]) / 2.0


def _interpolate(q, h, t_old, y_old, t):
    """Dense output: y_old + h * sum_k q[k] x^(k+1) with x = (t - t_old) / h."""
    x = (t - t_old) / h
    p = x
    acc = q[0] * p
    for qk in q[1:]:
        p = p * x
        acc = acc + qk * p
    return h * acc + y_old


def _initial_step(rhs, y0: np.ndarray, f0: np.ndarray, t_bound: float,
                  max_step: float, rtol: float, atol: float) -> np.ndarray:
    """First step size per lane (Hairer, Norsett and Wanner, sec. II.4)."""
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
    h0 = np.minimum(h0, t_bound)
    f1 = np.array(rhs(0.0, y0 + h0 * f0))
    d2 = _rms((f1 - f0) / scale) / h0
    h1 = np.where(
        (d1 <= 1e-15) & (d2 <= 1e-15),
        np.maximum(1e-6, h0 * 1e-3),
        (0.01 / np.maximum(d1, d2)) ** -_ERROR_EXPONENT,
    )
    return np.minimum(np.minimum(np.minimum(100 * h0, h1), t_bound), max_step)


# ---------------------------------------------------------------------------
# The serial step, generated once from the tableau (see the module docstring).
# Component c of stage j is the local kjc.  Keeping the zero-weight products
# keeps a lane's -0.0, inf and nan.


def _sum(terms: Sequence[str], weights: Sequence[float]) -> str:
    """`_combo(terms, weights)` as source text."""
    return "(" + " + ".join(f"{t} * {w!r}" for t, w in zip(terms, weights)) + ")"


def _serial_source() -> str:
    """Source of `_trial_step` and `_reach`, written out from _A, _B, _E and _P_REACH."""
    n = len(_E)
    k = [[f"k{j}{c}" for c in range(4)] for j in range(n)]
    col = list(zip(*k))  # col[c][j] is component c of stage j
    names = [", ".join(kj) for kj in k]
    stages = [
        f"    {names[j]} = K{j} = rhs(0.0, "
        f"[{', '.join(f'y{c} + {_sum(col[c], a)} * h' for c in range(4))}])"
        for j, a in enumerate(_A[1:], 1)
    ]
    y_new = ", ".join(f"y{c} + h * {_sum(col[c], _B)}" for c in range(4))
    err = ", ".join(f"{_sum(col[c], _E)} * h / (atol + max(abs(y{c}), abs(n{c})) * rtol)"
                    for c in range(4))
    reach = ", ".join(f"abs(y{c}) + h * {_sum([f'abs({t})' for t in col[c]], _P_REACH)}"
                      for c in range(4))
    return "\n".join([
        "def _trial_step(rhs, y, f, h, atol, rtol):",
        "    'One trial step of a single jet: (y_new, stages, error norm), last stage rhs(y_new).'",
        "    y0, y1, y2, y3 = y",
        f"    {names[0]} = K0 = f",
        *stages,
        f"    n0, n1, n2, n3 = y_new = [{y_new}]",
        f"    {names[-1]} = K{n - 1} = rhs(0.0, y_new)",
        f"    return y_new, [{', '.join(f'K{j}' for j in range(n))}], _rms(({err}), sqrt)",
        "def _reach(y, K, h):",
        "    'Per component, a bound on the step interpolant over all of [t, t + h].'",
        "    y0, y1, y2, y3 = y",
        f"    {', '.join(f'({stage})' for stage in names)} = K",
        f"    return [{reach}]",
    ])


# A stage that overflows to inf makes `math.sin` raise ValueError in
# `_trial_step`, at that stage, where a lane gets nan.  The two functions
# are compiled one at a time: one compile of both peaks at about 1.6 times
# the traced memory.
_serial = {"_rms": _rms, "sqrt": math.sqrt}
_head, _def, _tail = _serial_source().partition("def _reach")
for _text in (_head, _def + _tail):
    exec(compile(_text, "<integrate._serial_source()>", "exec"), _serial)
_trial_step, _reach = _serial["_trial_step"], _serial["_reach"]


def _dense(K: Sequence[Sequence[float]]) -> list[list[float]]:
    """The dense-output coefficients q[k][c] of one jet's step from its stages."""
    return [[_combo(kc, col) for kc in zip(*K)] for col in _P_COLUMNS]


# Each accepted step is scanned at its two ends and _SCAN_POINTS equally
# spaced interior points, on the step's interpolant.  _FRACS * (h / 9) + t0
# is np.linspace's own arithmetic, without its overhead.
_SCAN_POINTS = 8
_FRACS = np.arange(_SCAN_POINTS + 2.0)


def _scan(q: list[list[float]], h: float, t: float, t_new: float,
          y: Sequence[float]) -> tuple[list[float], list[list[float]]]:
    """The lanes' scan grid on one jet's step and the jet at each grid point;
    each jet is `_interpolate`'s arithmetic, inlined."""
    dt = h / (_SCAN_POINTS + 1)
    grid = [i * dt + t for i in range(_SCAN_POINTS + 1)] + [t_new]
    jets = []
    for x in ((g - t) / h for g in grid):
        x2 = x * x
        x3 = x2 * x
        x4 = x3 * x
        jets.append([h * (q0 * x + q1 * x2 + q2 * x3 + q3 * x4) + yc
                     for q0, q1, q2, q3, yc in zip(*q, y)])
    return grid, jets


def bisect(
    far: Callable[[float], bool], lo: float, hi: float, tol: float = 0.0
) -> tuple[float, float]:
    """Bracket (lo, hi] of the point where `far` starts to hold, assuming it
    fails at lo and holds at hi.

    Halves while the bracket is wider than `tol` and its midpoint is a double
    strictly between the ends, so any `tol`, 0 included, ends at adjacent
    doubles at the latest.
    """
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if far(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _refine_hit(at: Callable[[float], np.ndarray], crossed: Sequence[bool], ta: float,
                tb: float, cs: float, cfg: IntegrationConfig) -> tuple[Termination, np.ndarray]:
    """Earliest refined crossing in (ta, tb] of one orbit's interpolant `at`.

    `crossed` flags sign changes of the blowup gap, the upward gate and the
    downward gate; ties go to the first.  Returns the termination and the jet
    there.
    """
    past = (
        lambda s: float(np.max(np.abs(at(s)))) - cfg.blowup_norm >= 0.0,
        lambda s: at(s)[2] - cs >= 0.0,
        lambda s: at(s)[2] + cs <= 0.0,
    )
    best: tuple[float, int] | None = None
    for k, (flag, far) in enumerate(zip(crossed, past)):
        if flag:
            s_hit = bisect(far, ta, tb, cfg.event_refine_tol)[1]
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


def _underflow(s: float, s_last: float, y) -> IntegrationError:
    return IntegrationError(
        f"stepper failed near s={s:.6g} (likely step underflow approaching a singularity)",
        s_last=float(s_last),
        state_last=core.State.from_array(y),
    )


# ---------------------------------------------------------------------------
# One orbit.


def _drive(d: int, x0: np.ndarray, s0: float, cfg: IntegrationConfig,
           gates: tuple[bool, bool], reverse: bool) -> Trajectory:
    """Integrate one jet, watching the (upward, downward) gates flagged in `gates`.

    Trial steps, step control and the scan are those of `integrate_lanes`,
    on floats, so a forward orbit with both gates watched ends bit for bit as
    its lane does.  The trial step and its error norm are the generated
    `_trial_step`: each component's stage sums are `_combo`'s products added
    in `_combo`'s order, the rounding a lane's column gets from numpy.  An
    accepted step whose `_reach` bound, with its rounding margin, stays below
    the blowup threshold and below c_star in |phi''| cannot reach an event,
    and is neither scanned nor given dense output.
    """
    mirror = core.REVERSAL_SIGNS if reverse else np.ones(4)
    y = (mirror * x0).tolist()
    sup0 = max(abs(c) for c in y)
    if sup0 > cfg.blowup_norm:
        term = Termination(TerminationKind.BLOWUP_DETECTED, s_last=s0, norm=sup0)
        return Trajectory(d, np.array([s0]), mirror * np.array([y]), term, _mirror=reverse)

    rhs = _make_rhs(d, reverse)
    watch_up, watch_down = gates
    cs = core.c_star(d) if watch_up or watch_down else math.inf
    t_bound, max_step = s0 + cfg.max_span, float(cfg.max_step)
    rtol, atol = max(cfg.rel_tol, _RTOL_FLOOR), cfg.abs_tol
    t = t_old = s0
    rejected = False
    ss: list[float] = [s0]
    ys: list = [y]
    steps: list[tuple[list, float]] = []
    stats = StepStats()

    def finish(term: Termination) -> Trajectory:
        stats.accepted = len(steps)
        stats.skipped = stats.accepted - stats.scanned
        stats.field_evals = 2 + 6 * (stats.accepted + stats.rejected)
        return Trajectory(d, np.array(ss), mirror * np.array(ys), term,
                          _steps=steps, _mirror=reverse, stats=stats)

    # As in the lanes, a zero error or jet gives inf and nan, not warnings.
    with np.errstate(all="ignore"):
        f = rhs(0.0, y)
        h_abs = float(_initial_step(
            _make_rhs(d, reverse, ctx=NUMPY), np.array(y)[:, None], np.array(f)[:, None],
            float(cfg.max_span), max_step, rtol, atol,
        )[0])
        while True:
            # The lanes' trial step: clamp a fresh step to [min_step, max_step];
            # a retried one fails below min_step.
            min_step = 10.0 * abs(math.nextafter(t, math.inf) - t)
            if not rejected:
                h_abs = max_step if h_abs > max_step else max(h_abs, min_step)
            if h_abs < min_step:
                raise _underflow(t, t_old, mirror * np.array(y))
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            try:
                y_new, K, err = _trial_step(rhs, y, f, h, atol, rtol)
            except ValueError:
                err = math.nan
            # numpy's array power, as the lanes take it (float ** differs in the last bit).
            grow = _SAFETY * float(np.power([err], _ERROR_EXPONENT)[0])
            if not err < 1.0:  # nan shrinks the step by _MIN_FACTOR
                h_abs = h * (grow if grow > _MIN_FACTOR else _MIN_FACTOR)
                rejected = True
                stats.rejected += 1
                continue
            up = grow if grow < _MAX_FACTOR else _MAX_FACTOR
            h_abs = h * (min(up, 1.0) if rejected else up)
            rejected = False
            steps.append((K, h))

            # Scan the step on the lanes' grid for the first interval with a
            # crossing, unless no point of the step can reach one.
            reach = _reach(y, K, h)
            floor = (1.0 + h) * _REACH_FLOOR
            if not (max(reach) * _REACH_MARGIN + floor < cfg.blowup_norm
                    and reach[2] * _REACH_MARGIN + floor < cs):
                stats.scanned += 1
                q = _dense(K)
                grid, jets = _scan(q, h, t, t_new, y)
                sup = [max(abs(jet[0]), abs(jet[1]), abs(jet[2]), abs(jet[3])) for jet in jets]
                phi2 = [jet[2] for jet in jets]
                for i in range(1, len(grid)):
                    crossed = (
                        sup[i - 1] < cfg.blowup_norm <= sup[i],
                        watch_up and phi2[i - 1] < cs <= phi2[i],
                        watch_down and phi2[i - 1] > -cs >= phi2[i],
                    )
                    if any(crossed):
                        interpolant = functools.partial(
                            _interpolate, np.array(q), h, t, np.array(y))

                        def at(s: float) -> np.ndarray:
                            stats.bisections += 1
                            return interpolant(s)

                        term, y_hit = _refine_hit(at, crossed, grid[i - 1], grid[i], cs, cfg)
                        stats.bisections -= 1  # the last call reads the jet at the hit
                        ss.append(term.s_last)
                        ys.append(y_hit)
                        return finish(term)

            t_old, t, y, f = t, t_new, y_new, K[-1]
            ss.append(t)
            ys.append(y)
            if t >= t_bound:
                return finish(Termination(TerminationKind.SPAN_EXHAUSTED, s_last=t))


# ---------------------------------------------------------------------------
# Lockstep lanes: the same step on a (4, n) array.


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
    SECOND_DERIV_DOWN])` step for step and ends bit for bit as it does: a
    step size of its own, the same scan grid per accepted step, bisection of
    a crossing on its own interpolant, and the same terminations.  A lane
    retires at its event or at the end of the span; one whose step size
    underflows retires with the IntegrationError and the others run on.
    `keep` maps a (4, n) array of jets to a boolean lane mask, tracked into
    `LaneEnd.kept`.
    """
    cfg = cfg or IntegrationConfig()
    jets = [core.State.from_array(x).as_array() for x in x0s]
    if not jets:
        return []
    core._check_dim(d)
    rhs = _make_rhs(d, reverse=False, ctx=NUMPY)
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
            # One trial step per lane: clamp a fresh step to [min_step,
            # max_step]; a retried one fails below min_step.
            min_step = 10.0 * np.abs(np.nextafter(t, np.inf) - t)
            fresh = np.where(h_abs < min_step, min_step, h_abs)
            fresh = np.where(h_abs > max_step, max_step, fresh)
            h_abs = np.where(rejected, h_abs, fresh)
            failed = h_abs < min_step
            t_new = np.minimum(t + h_abs, t_bound)
            h = t_new - t
            K = [f]
            for a in _A[1:]:
                K.append(np.array(rhs(0.0, y + _combo(K, a) * h)))
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
            q = _combo(K, _P_LANES)
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


# ---------------------------------------------------------------------------
# Public drivers.


def integrate(
    d: int,
    x0,
    s0: float = 0.0,
    cfg: IntegrationConfig | None = None,
    watch: Iterable[EventKind] = (),
) -> Trajectory:
    """Integrate the forward flow from the jet x0 at time s0.

    Stops at s0 + max_span, at the first watched-event crossing, or when the
    sup-norm of the jet exceeds blowup_norm (whichever comes first); the
    final sample of a blowup run strictly exceeds the threshold.  Raises
    IntegrationError if the stepper underflows.
    """
    cfg = cfg or IntegrationConfig()
    x0 = core.State.from_array(x0).as_array()
    if not (isinstance(s0, (int, float)) and math.isfinite(s0)):
        raise ValueError(f"s0 must be finite, got {s0!r}")
    watch = tuple(watch)
    for item in watch:
        if not isinstance(item, EventKind):
            raise ValueError(f"unknown watch entry: {item!r}")
    core._check_dim(d)
    gates = (EventKind.SECOND_DERIV_UP in watch, EventKind.SECOND_DERIV_DOWN in watch)
    return _drive(d, x0, float(s0), cfg, gates, reverse=False)


def integrate_reversed(d: int, x0, cfg: IntegrationConfig | None = None) -> Trajectory:
    """Integrate backward from x0: sample k holds the jet at time -s_k.

    Internally the s -> -s pullback field is integrated forward from J x0 and
    the output is conjugated back by J, so samples are genuine past states of
    the forward orbit through x0 (a forward run followed by a reversed run of
    the same span lands back on the initial jet).
    """
    cfg = cfg or IntegrationConfig()
    x0 = core.State.from_array(x0).as_array()
    core._check_dim(d)
    return _drive(d, x0, 0.0, cfg, (False, False), reverse=True)


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
    mirror = core.REVERSAL_SIGNS if traj._mirror else 1.0
    K, h = traj._steps[idx - 1]
    y = _interpolate(np.array(_dense(K)), h, traj.s[idx - 1], mirror * traj.states[idx - 1], s)
    return core.State.from_array(mirror * y)


@contextlib.contextmanager
def atomic_open(path: str) -> Iterator:
    """A text file open on `<path>.tmp`, moved onto `path` once the block
    completes and removed if it raises, so a run that dies mid-write leaves
    no partial file there."""
    tmp = f"{path}.tmp"
    fh = open(tmp, "w", newline="")
    try:
        with fh:
            yield fh
    except BaseException:
        os.remove(tmp)
        raise
    os.replace(tmp, path)


def write_rows(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """A CSV file of `header` and `rows`, written through `atomic_open`.

    A float cell (numpy's included) is written as its repr, None as an empty
    cell, and any other cell as `csv` writes it: text as it is, an int as str.
    """
    with atomic_open(path) as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        wr.writerows([repr(float(c)) if isinstance(c, float) else c for c in row] for row in rows)


def write_csv(traj: Trajectory, path: str) -> None:
    """Delimited dump: s, jet components, energy total and dissipation rate."""
    e = core.energy(traj.d, traj.states.T)
    write_rows(
        path,
        ["s", "phi", "dphi", "d2phi", "d3phi", "energy_total", "energy_rate"],
        ([sk, *xk, tk, rk] for sk, xk, tk, rk in zip(traj.s, traj.states, e.total, e.rate)),
    )
