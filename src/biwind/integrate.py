"""Adaptive integration of the fourth-order flow with event detection.

One Dormand-Prince 5(4) kernel (Dormand and Prince, J. Comput. Appl. Math. 6,
1980) with the step control and initial step of Hairer, Norsett and Wanner,
Solving ODEs I, sec. II.4, drives two loops.  `integrate` runs one orbit on
four Python floats and keeps every accepted step's stages, from which
`sample_at` builds the dense output.  `integrate_lanes` runs many seeds at
once as the columns of a (4, n) array, a step size per lane, and keeps no
trajectory.  Both sum the stages, the error norm and the interpolant
elementwise in one fixed order, so an orbit's bits depend on its seed only:
not on the loop that ran it, nor on the other lanes.  The lanes step with
`_combo` on arrays.  A single orbit runs in `_serial_loop`, one function
generated at import from the tableau that holds the whole accepted-step
loop on scalar locals: the trial step with the field's source
`core.FIELD_SOURCE` inlined at every stage, the error norm, the step
control and the gate below.  Every sum is `_combo`'s written out, with the
same products, zero weights included, in the same order.  numpy rounds each
elementwise operation on doubles as Python rounds it on a float, so each
component rounds as its lane does.  Both loops take the step factor and the
initial step's power through libm's pow (`core.power`), not numpy's vector
loops, whose AVX-512 code rounds otherwise, so an orbit does not depend on
numpy's CPU dispatch.

Blowup (sup-norm threshold) and the phi'' gate events are detected by sign
scans over a fixed grid in each accepted step, evaluated on the step's quartic
interpolant (dense-output event location, Hairer, Norsett and Wanner, sec.
II.6).  Both loops scan on arrays with `_scan`, a single orbit as one lane.
The first scan interval with a sign change is sharpened by bisection to
`event_refine_tol`, or to adjacent doubles when that is finer, on the step's
interpolant as Python floats, `_interpolant`, which gives the scan's bits
and backs `sample_at`; the earliest crossing found there ends the run.  A
single orbit's gate first bounds the interpolant over the whole step by its
stages and skips the scan when that bound stays below the blowup threshold
and the watched gates; a skipped scan could have found nothing, so the orbit
is the same bit for bit.  A loose bound decides most steps; where it fails,
a tight bound written on the stage differences decides (see _P_REACH), so a
shooting orbit scans only the steps that come near an event, and the loop
returns to Python only to scan one, at the end of the span, or to raise on
step underflow.  The lanes take the same two bounds on all lanes at once,
`_lanes_near`, and an iteration scans only when some accepted lane's step
can reach an event.  Once no more than _HANDOFF_LANES lanes are live, the
lockstep loop stops and `_drive`, resumed from each lane's state, finishes
it alone: an iteration costs about as much at a few lanes as at fifty.
"""

from __future__ import annotations

import contextlib
import enum
import functools
import math
import os
import types
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import config, core
from .core import NUMPY, _make_rhs, power, powers

__all__ = [
    "IntegrationConfig",
    "EventKind",
    "TerminationKind",
    "Termination",
    "Trajectory",
    "StepStats",
    "IntegrationError",
    "integrate",
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
    """What one `integrate` run did.

    Every accepted step is either `scanned` for events or `skipped`, because
    its reach bounds showed that no event can lie on it.  `field_evals`
    counts the field evaluations, six per trial step (a trial cut short by an
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
    output (`_interpolant`) covers [s[k], s[k+1]] and backs `sample_at`.  `stats`
    counts the run's steps and is kept in memory only.
    """

    d: int
    s: np.ndarray
    states: np.ndarray
    termination: Termination
    _steps: list[tuple[list, float]] = field(default_factory=list, repr=False)
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
# q_k = sum_j P[j][k] K_j, so each component c obeys the loose bound
#     |y_c(x)| <= L_c = |y_c| + h * sum_j _P_REACH[j] |K_j,c|,  _P_REACH[j] = sum_k |P[j][k]|.
# L_c grows with every |K_j,c|, while the interpolant moves by about h |K_0,c|
# when the stages nearly agree; there L_c is some 67 times too large.  Written
# on the stage differences K_j - K_0 (Hairer, Norsett and Wanner, sec. II.6),
# with P[0][0] = 1 and P[j][0] = 0 for j >= 1,
#     y_c(x) = y_c + x h K_0,c + h sum_{k>=1} x^(k+1) (S_k K_0,c + sum_{j>=1} P[j][k] (K_j,c - K_0,c)),
# where S_k = sum_j P[j][k] vanishes for the exact tableau but not for its
# rounded entries.  y_c + x h K_0,c is linear in x, so
#     |y_c(x)| <= T_c = max(|y_c|, |y_c + h K_0,c|)
#                       + h (sum_{j>=1} _P_REACH[j] |K_j,c - K_0,c| + _R |K_0,c|)
# with _R = sum_{k>=1} |S_k| (4 * 2**-52 here).
#
# Rounding.  The scan's x = (g - t) / h lies in [0, 1] up to a rounding or
# two: g >= t, and the last grid point gives x = h / h = 1 exactly.  A scanned
# jet takes fewer than 40 roundings to nearest (the 7-term stage sums, the
# powers of x and the polynomial, the factor h, the term y_c), on terms each
# bounded by a term of L_c, so it lies within gamma_40 L_c, gamma_40 ~ 5e-15,
# of the exact interpolant (Higham, Accuracy and Stability of Numerical
# Algorithms, sec. 3.1).  The computed L_c sums nonnegative terms in fewer
# than 40 roundings, so it is at least 1 - gamma_40 times the exact L_c.  The
# computed T_c does the same, except that y_c + h K_0,c may cancel: its
# rounding errs by up to u h |K_0,c| <= u L_c, so the computed T_c is at least
# (1 - gamma_40) T_c - gamma_40 L_c.  _R and _P_REACH are each within a
# rounding of their exact sums.  L_c is at most a fixed multiple of T_c: with
# h |K_0,c| <= |y_c| + |y_c + h K_0,c| <= 2 T_c and |K_j,c| <= |K_0,c| + |K_j,c - K_0,c|,
#     L_c <= (2 + 2 sum_j _P_REACH[j]) T_c ~ 136 T_c,
# so these errors add up to less than 2e-12 T_c.  Every scanned jet thus
# lies below L_c * _REACH_MARGIN and below T_c * _REACH_MARGIN: a margin of
# 1e-9 covers these errors with room to spare.  A product in the
# subnormal range errs by up to 2**-1075 absolute instead, fewer than 40 of
# them, scaled by at most h; (1 + h) * _REACH_FLOOR covers those.  An inf or
# nan bound never passes the test, so its step scans.
_P_REACH = tuple(math.fsum(abs(p) for p in row) for row in _P)
_R = math.fsum(abs(math.fsum(row[k] for row in _P)) for k in range(1, len(_P[0])))
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
        powers(0.01 / np.maximum(d1, d2), -_ERROR_EXPONENT),
    )
    return np.minimum(np.minimum(np.minimum(100 * h0, h1), t_bound), max_step)


# ---------------------------------------------------------------------------
# The serial loop, generated once from the tableau (see the module docstring).
# Component c of stage j is the local kjc.  Keeping the zero-weight products
# keeps a lane's -0.0, inf and nan.


def _sum(terms: Sequence[str], weights: Sequence[float]) -> str:
    """`_combo(terms, weights)` as source text."""
    return "(" + " + ".join(f"{t} * {w!r}" for t, w in zip(terms, weights)) + ")"


def _larger(a: str, b: str) -> str:
    """Builtin `max(a, b)` of two names as source text: a on a tie or a nan b."""
    return f"({b} if {b} > {a} else {a})"


# The names the loop reads besides its state, bound per orbit by `_serial_loop`
# as the defaults of its last parameters, so that they are fast locals.
_LOOP_NAMES = ("sin", "cos", "d1", "k", "c3", "gk", "a", "a2", "abs", "max", "sqrt",
               "nextafter", "inf", "nan", "power", "underflow", "margin", "floor", "blowup",
               "cs", "t_bound", "max_step", "rtol", "atol")


def _loop_source() -> str:
    """Source of `loop`, written out from _A, _B, _E, _P_REACH, _R, the step
    control and `core.FIELD_SOURCE`.  The local ayc holds |y_c| across
    steps: the error norm takes |n_c| as anc, which is the next step's ayc,
    and the gate's bounds read ayc."""
    n = len(_E)
    k = [[f"k{j}{c}" for c in range(4)] for j in range(n)]
    col = list(zip(*k))  # col[c][j] is component c of stage j
    body = " " * 12

    def stage(j: int, jet: Sequence[str]) -> list[str]:
        # The field at jet, inlined: stage j is (v, w2, w3, acc).
        return [f"{body}phi = {jet[0]}",
                *(f"{body}{name} = {jet[c]}" for c, name in enumerate(("v", "w2", "w3"), 1)),
                *(f"{body}{line}" for line in core.FIELD_SOURCE.splitlines()),
                *(f"{body}k{j}{c} = {name}" for c, name in enumerate(("v", "w2", "w3", "acc")))]

    loose = [f"ay{c} + h * {_sum([f'abs({t})' for t in col[c]], _P_REACH)}" for c in range(4)]
    tight = [f"{_larger(f'ay{c}', f'u{c}')} + h * "
             + _sum([f"abs({t} - k0{c})" for t in col[c][1:]] + [f"abs(k0{c})"], (*_P_REACH[1:], _R))
             for c in range(4)]
    return "\n".join([
        f"def loop(y, f, t, t_old, h_abs, rejected, steps, ss, ys, {', '.join(_LOOP_NAMES)}):",
        "    'Accepted steps of one jet until one can reach an event or the span ends; see _serial_loop.'",
        "    y0, y1, y2, y3 = y",
        "    ay0, ay1, ay2, ay3 = abs(y0), abs(y1), abs(y2), abs(y3)",
        "    k00, k01, k02, k03 = K0 = f",
        "    keep, keep_s, keep_y = steps.append, ss.append, ys.append",
        "    rejections = 0",
        "    while True:",
        "        # The lanes' trial step: clamp a fresh step to [min_step, max_step];",
        "        # a retried one fails below min_step, ten ulp of t.",
        "        min_step = 10.0 * (nextafter(t, inf) - t)",
        "        if not rejected:",
        f"            h_abs = max_step if h_abs > max_step else {_larger('h_abs', 'min_step')}",
        "        if h_abs < min_step:",
        "            raise underflow(t, t_old, y)",
        "        t_new = t + h_abs",
        "        if t_bound < t_new:",
        "            t_new = t_bound",
        "        h = t_new - t",
        "        try:",
        *(line for j, a in enumerate(_A[1:], 1)
          for line in stage(j, [f"y{c} + {_sum(col[c], a)} * h" for c in range(4)])),
        *(f"{body}n{c} = y{c} + h * {_sum(col[c], _B)}" for c in range(4)),
        *stage(n - 1, [f"n{c}" for c in range(4)]),
        *(line for c in range(4) for line in (
            f"{body}an{c} = abs(n{c})",
            f"{body}e{c} = {_sum(col[c], _E)} * h / (atol + {_larger(f'ay{c}', f'an{c}')} * rtol)")),
        f"{body}err = sqrt(e0 * e0 + e1 * e1 + e2 * e2 + e3 * e3) / 2.0",
        "        except ValueError:  # math.sin of an overflowed stage",
        "            err = nan",
        f"        grow = {_SAFETY!r} * power(err, {_ERROR_EXPONENT!r})",
        "        if not err < 1.0:  # nan shrinks the step by _MIN_FACTOR",
        f"            h_abs = h * (grow if grow > {_MIN_FACTOR!r} else {_MIN_FACTOR!r})",
        "            rejected = True",
        "            rejections += 1",
        "            continue",
        f"        up = grow if grow < {_MAX_FACTOR!r} else {_MAX_FACTOR!r}",
        "        h_abs = h * ((1.0 if 1.0 < up else up) if rejected else up)",
        "        rejected = False",
        f"        K = [K0, {', '.join('(' + ', '.join(k[j]) + ')' for j in range(1, n))}]",
        "        keep((K, h))",
        "        t_old, t = t, t_new",
        "        y = [n0, n1, n2, n3]",
        "        keep_s(t)",
        "        keep_y(y)",
        "        # The gate: the loose bound, then the tight one where it fails (see _P_REACH).",
        "        lift = (1.0 + h) * floor",
        *(f"        r{c} = {loose[c]}" for c in range(4)),
        "        if not (max(r0, r1, r2, r3) * margin + lift < blowup and r2 * margin + lift < cs):",
        *(line for c in range(4) for line in (
            f"            u{c} = abs(y{c} + h * k0{c})",
            f"            b{c} = {tight[c]}")),
        *(f"            m{c} = b{c} * margin + lift" for c in range(4)),
        "            if not (max(m0, m1, m2, m3) < blowup and m2 < cs):",
        "                return t, t_old, y, h_abs, rejections, ([r0, r1, r2, r3], [b0, b1, b2, b3])",
        "        if t >= t_bound:",
        "            return t, t_old, y, h_abs, rejections, None",
        "        y0, y1, y2, y3 = y",
        "        ay0, ay1, ay2, ay3 = an0, an1, an2, an3",
        f"        k00, k01, k02, k03 = K0 = K[{n - 1}]",
    ])


# A stage that overflows to inf makes `math.sin` raise ValueError in the
# trial step, at that stage, where a lane gets nan.  The loop is compiled
# once, and `_serial_loop` binds it to an orbit.
_LOOP = core._function_code(_loop_source(), "<integrate._loop_source()>")


def _serial_loop(d: int, cfg: IntegrationConfig, cs: float, t_bound: float) -> Callable:
    """The generated loop of one orbit in dimension d under cfg, watching
    |phi''| = cs, to s = t_bound.

    `loop(y, f, t, t_old, h_abs, rejected, steps, ss, ys)` runs `_drive`'s
    accepted steps from the jet y at t (four floats) with the field f there,
    the last step t_old and the step-size state (h_abs, rejected): per trial
    the Dormand-Prince stages with the field inlined, the error norm and the
    step control; per accepted step it appends (stages, h) to `steps`, the
    new s to `ss` and the new jet to `ys`, then applies the gate.  It returns
    (t, t_old, y, h_abs, rejections) and `near` after the first accepted step
    whose bounds, the loose and then the tight one with their rounding
    margins, do not keep it below the blowup norm and below cs in |phi''|:
    `near` is (loose, tight) there, and None once the span ends unscanned.
    |y| is taken once per call and then carried across accepted steps: the
    error norm's |new jet| is the next step's |y|, which the gate's bounds
    read.  A step size below 10 ulp of t raises `_underflow`.  Every name it reads
    besides its state, the module's constants included, is bound here, when
    the orbit starts.
    """
    names = {**core._field_scope(d, core.FLOAT), "abs": abs, "max": max,
             "sqrt": math.sqrt, "nextafter": math.nextafter, "inf": math.inf, "nan": math.nan,
             "power": power, "underflow": _underflow, "margin": _REACH_MARGIN,
             "floor": _REACH_FLOOR, "blowup": cfg.blowup_norm, "cs": cs, "t_bound": t_bound,
             "max_step": float(cfg.max_step), "rtol": max(cfg.rel_tol, _RTOL_FLOOR),
             "atol": cfg.abs_tol}
    return types.FunctionType(_LOOP, {}, "loop", tuple(names[name] for name in _LOOP_NAMES))


def _coefficients(K: Sequence[Sequence[float]]) -> list[list[float]]:
    """q[c][k], coefficient k of component c of one jet's step interpolant:
    `_combo` of its stages by _P_COLUMNS, as `_scan` sums them."""
    return [[_combo(kc, col) for col in _P_COLUMNS] for kc in zip(*K)]


def _interpolant(K: Sequence[Sequence[float]], h: float, t: float,
                 y: Sequence[float]) -> Callable[..., list[float]]:
    """(s, comps=all four) -> those components of the jet at s in [t, t + h] on one jet's step
    from y, as Python floats: `_coefficients`, then `_interpolate` each, as `_scan` does."""
    q = _coefficients(K)
    return lambda s, comps=range(4): [_interpolate(q[c], h, t, y[c], s) for c in comps]


# Each accepted step is scanned at its two ends and _SCAN_POINTS equally
# spaced interior points, on the step's interpolant.  _FRACS * (h / 9) + t0
# is np.linspace's own arithmetic, without its overhead.
_SCAN_POINTS = 8
_FRACS = np.arange(_SCAN_POINTS + 2.0)


def _scan(K: Sequence[np.ndarray], h, t, t_new, y: np.ndarray, cs: float,
          blowup_norm: float, gates: tuple[bool, bool]):
    """(grid, jets, crossings) of each lane's step, from its (4, n) stages K and
    jets y at t; h, t and t_new are per lane, or floats for one lane.

    `jets` (4, 10, n) is the interpolant on `grid` (10, n).  `crossings` masks
    per grid interval (9, n) the sign changes of the blowup gap, of phi'' - cs
    upward if gates[0] and of phi'' + cs downward if gates[1].
    """
    q = _combo(K, _P_LANES)
    grid = _FRACS[:, None] * (h / (_SCAN_POINTS + 1)) + t
    grid[-1] = t_new
    jets = _interpolate(q[:, :, None, :], h, t, y[:, None, :], grid)
    gap = np.max(np.abs(jets), axis=0) - blowup_norm
    g_up, g_down = jets[2] - cs, jets[2] + cs
    return grid, jets, (
        (gap[:-1] < 0.0) & (gap[1:] >= 0.0),
        (g_up[:-1] < 0.0) & (g_up[1:] >= 0.0) & gates[0],
        (g_down[:-1] > 0.0) & (g_down[1:] <= 0.0) & gates[1],
    )


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


def _refine_hit(K: Sequence[Sequence[float]], h: float, t: float, y: Sequence[float],
                crossed: Sequence[bool], ta: float, tb: float, cs: float,
                cfg: IntegrationConfig) -> tuple[Termination, list[float], int]:
    """Earliest refined crossing in (ta, tb] on the `_interpolant` of one
    jet's step from y at t, with stages K and size h.

    `crossed` flags sign changes of the blowup gap, the upward gate and the
    downward gate in the scan interval [ta, tb]; ties go to the first.  A
    gate's probe evaluates phi'' alone.  Returns the termination, the jet
    there as four Python floats, and the number of probes.
    """
    q = _coefficients(K)
    probes = 0

    def past(kind: int, s: float) -> bool:
        nonlocal probes
        probes += 1
        if kind == 0:
            top = max([abs(_interpolate(qc, h, t, yc, s)) for qc, yc in zip(q, y)])
            return top - cfg.blowup_norm >= 0.0
        d2 = _interpolate(q[2], h, t, y[2], s)
        return d2 - cs >= 0.0 if kind == 1 else d2 + cs <= 0.0

    best: tuple[float, int] | None = None
    for kind, flag in enumerate(crossed):
        if flag:
            s_hit = bisect(functools.partial(past, kind), ta, tb, cfg.event_refine_tol)[1]
            if best is None or s_hit < best[0]:
                best = (s_hit, kind)
    assert best is not None
    s_hit, kind = best
    y_hit = [_interpolate(qc, h, t, yc, s_hit) for qc, yc in zip(q, y)]
    if kind == 0:
        norm = max(map(abs, y_hit))
        term = Termination(TerminationKind.BLOWUP_DETECTED, s_last=s_hit, norm=norm)
    else:
        event = (EventKind.SECOND_DERIV_UP, EventKind.SECOND_DERIV_DOWN)[kind - 1].value
        term = Termination(TerminationKind.EVENT_STOP, s_last=s_hit, event=event)
    return term, y_hit, probes


def _underflow(s: float, s_last: float, y) -> IntegrationError:
    return IntegrationError(
        f"stepper failed near s={s:.6g} (likely step underflow approaching a singularity)",
        s_last=float(s_last),
        state_last=core.State.from_array(y),
    )


# ---------------------------------------------------------------------------
# One orbit.


def _drive(d: int, x0: np.ndarray, s0: float, cfg: IntegrationConfig,
           gates: tuple[bool, bool],
           resume: tuple[float, float, list[float], float, bool] | None = None) -> Trajectory:
    """Integrate one jet, watching the (upward, downward) gates flagged in `gates`.

    Trial steps and step control are those of `integrate_lanes` on floats,
    the scan is `_scan` as one lane, and refinement reads `_interpolant` as a
    retiring lane does, so an orbit with both gates watched ends bit
    for bit as its lane does.  The accepted steps run in the generated
    `_serial_loop`: the trial step and its error norm with the field inlined,
    each component's stage sums `_combo`'s products added in `_combo`'s
    order, the rounding a lane's column gets from numpy; the step factor by
    libm's pow, as the lanes take it; and the gate.  An accepted step whose
    loose bound or, failing that, whose tight bound, each with its rounding
    margin (see _P_REACH), stays below the blowup threshold and below c_star
    in |phi''| cannot reach an event, and is not scanned: the loop returns
    here only to scan a step, at the end of the span, or by raising on
    step underflow.

    `resume`, the state (t, t_old, f, h_abs, rejected) of a lane at
    the top of its loop, with x0 its jet at t, replaces the start: the seed's
    blowup test, the field at the seed and the initial step.  The run then
    goes on as that lane would, to s0 + max_span, and its samples begin at t.
    """
    y = x0.tolist()
    if resume is None:
        sup0 = max(abs(c) for c in y)
        if sup0 > cfg.blowup_norm:
            term = Termination(TerminationKind.BLOWUP_DETECTED, s_last=s0, norm=sup0)
            return Trajectory(d, np.array([s0]), np.array([y]), term)
        t = t_old = s0
        rejected = False
    else:
        t, t_old, f, h_abs, rejected = resume

    cs = core.c_star(d) if any(gates) else math.inf
    t_bound = s0 + cfg.max_span
    loop = _serial_loop(d, cfg, cs, t_bound)
    ss: list[float] = [t]
    ys: list = [y]
    steps: list[tuple[list, float]] = []
    stats = StepStats()

    def finish(term: Termination) -> Trajectory:
        stats.accepted = len(steps)
        stats.skipped = stats.accepted - stats.scanned
        stats.field_evals = 2 + 6 * (stats.accepted + stats.rejected)
        return Trajectory(d, np.array(ss), np.array(ys), term, _steps=steps, stats=stats)

    # As in the lanes, a zero error or jet gives inf and nan, not warnings.
    with np.errstate(all="ignore"):
        if resume is None:
            f = _make_rhs(d)(0.0, y)
            h_abs = float(_initial_step(
                _make_rhs(d, ctx=NUMPY), np.array(y)[:, None], np.array(f)[:, None],
                float(cfg.max_span), float(cfg.max_step), max(cfg.rel_tol, _RTOL_FLOOR),
                cfg.abs_tol,
            )[0])
        while True:
            t, t_old, y, h_abs, rejections, near = loop(y, f, t, t_old, h_abs, rejected,
                                                         steps, ss, ys)
            stats.rejected += rejections
            if near is not None:
                # Scan the last step on the lanes' grid for the first interval
                # with a crossing.
                stats.scanned += 1
                K, h = steps[-1]
                y_old = ys[-2]
                grid, _, crossings = _scan(np.array(K)[:, :, None], h, t_old, t,
                                           np.array(y_old)[:, None], cs, cfg.blowup_norm, gates)
                hit = crossings[0] | crossings[1] | crossings[2]
                if hit.any():
                    i = int(np.argmax(hit[:, 0]))
                    term, ys[-1], stats.bisections = _refine_hit(
                        K, h, t_old, y_old, [c[i, 0] for c in crossings],
                        float(grid[i, 0]), float(grid[i + 1, 0]), cs, cfg)
                    ss[-1] = term.s_last
                    return finish(term)
                if t < t_bound:
                    f, rejected = K[-1], False
                    continue
            return finish(Termination(TerminationKind.SPAN_EXHAUSTED, s_last=t))


# ---------------------------------------------------------------------------
# Lockstep lanes: the same step on a (4, n) array.


@dataclass(frozen=True, slots=True)
class LaneEnd:
    """How one lane of `integrate_lanes` ended.

    `end` is the termination, or the IntegrationError `integrate` would
    raise; `state` is the jet at `end.s_last` (the last accepted jet on
    error).
    """

    end: Termination | IntegrationError
    state: core.State


# A lane iteration costs about as much at one lane as at fifty, 215-260 µs at
# fifty, while a trial step of `_serial_loop` costs about 6.9 µs (one 2-core
# x86 VM, in process, over the shooting search's orbits), so some thirty
# serial trial steps cost one lane iteration.  The lockstep loop stops once no
# more than _HANDOFF_LANES lanes are live, and `_drive` finishes each of them;
# on the 50-angle classification grid, no threshold from 5 to 40 beat 20 in
# more than 6 of 10 alternated rounds.
_HANDOFF_LANES = 20


def _lanes_near(y: np.ndarray, K: Sequence[np.ndarray], h: np.ndarray, accepted,
                cs: float, blowup_norm: float) -> np.ndarray:
    """Per lane, whether its step is accepted and can reach the blowup norm or
    cs in |phi''|: the gate of `_serial_loop` on every lane at once, the loose
    bound first and the tight one where it fails, summed as `_combo` sums,
    with the same rounding margins (see _P_REACH).  A nan bound counts as
    near here, where the loop's max may pass it over; its step's scan finds
    nothing either way."""
    floor = (1.0 + h) * _REACH_FLOOR
    reach = np.abs(y) + h * _combo([np.abs(k) for k in K], _P_REACH)
    near = accepted & ~((reach.max(axis=0) * _REACH_MARGIN + floor < blowup_norm)
                        & (reach[2] * _REACH_MARGIN + floor < cs))
    if not near.any():
        return near
    k0 = K[0]
    tight = (np.maximum(np.abs(y), np.abs(y + h * k0))
             + h * _combo([np.abs(k - k0) for k in K[1:]] + [np.abs(k0)], (*_P_REACH[1:], _R)))
    tight = tight * _REACH_MARGIN + floor
    return near & ~((tight.max(axis=0) < blowup_norm) & (tight[2] < cs))


def _gate_end(traj: Trajectory, cfg: IntegrationConfig) -> tuple[Termination, list[float]] | None:
    """How the run of traj's seed watching both gates ends, and its last jet,
    read from traj, that seed's unwatched run under cfg.

    The gates change only which steps a run scans, so the watched run takes
    traj's steps up to its end.  `_drive`'s gate test is replayed on the
    stored steps, as lanes: `_lanes_near`, then `_scan` of the steps it
    flags, then `_refine_hit` of the first crossing, which ends the watched
    run there bit for bit.  The last stored step is left out, as its end is
    not stored where an event or a blowup ends traj inside it: None when no
    step before it holds a crossing.
    """
    steps = traj._steps[:-1]
    if not steps:
        return None
    n = len(steps)
    K = np.array([K for K, _ in steps]).transpose(1, 2, 0)  # (stage, component, step)
    h = np.array([h for _, h in steps])
    y, t, t_new = traj.states[:n].T, traj.s[:n], traj.s[1:n + 1]
    cs = core.c_star(traj.d)
    with np.errstate(all="ignore"):
        near = np.flatnonzero(_lanes_near(y, K, h, True, cs, cfg.blowup_norm))
        grid, _, crossings = _scan(K[:, :, near], h[near], t[near], t_new[near], y[:, near], cs,
                                   cfg.blowup_norm, (True, True))
    hit = crossings[0] | crossings[1] | crossings[2]
    hit_steps = np.flatnonzero(hit.any(axis=0))
    if not hit_steps.size:
        return None
    j = hit_steps[0]
    k, i = near[j], int(np.argmax(hit[:, j]))
    term, y_hit, _ = _refine_hit(steps[k][0], steps[k][1], float(t[k]), traj.states[k].tolist(),
                                 [c[i, j] for c in crossings], float(grid[i, j]),
                                 float(grid[i + 1, j]), cs, cfg)
    return term, y_hit


def integrate_lanes(
    d: int,
    x0s,
    cfg: IntegrationConfig | None = None,
) -> list[LaneEnd]:
    """Integrate the forward flow from every row of x0s, in one loop while
    more than _HANDOFF_LANES lanes are live.

    Lane k runs `integrate(d, x0s[k], cfg=cfg, watch=[SECOND_DERIV_UP,
    SECOND_DERIV_DOWN])` step for step and ends bit for bit as it does: a
    step size of its own, the same scan grid per accepted step, bisection of
    a crossing on its own interpolant, and the same terminations.  A lane
    retires at its event or at the end of the span; one whose step size
    underflows retires with the IntegrationError and the others run on.  An
    iteration scans its steps only when `_lanes_near` finds an accepted lane
    that can reach an event; a skipped scan could have found nothing.  The
    lanes still live once no more than _HANDOFF_LANES are left, all of them
    for a grid that small, are each finished by `_drive`, resumed from the
    lane's state.
    """
    cfg = cfg or IntegrationConfig()
    core._check_dim(d)
    jets = [core.State.from_array(x).as_array() for x in x0s]
    if not jets:
        return []
    rhs = _make_rhs(d, ctx=NUMPY)
    cs = core.c_star(d)
    t_bound, max_step = float(cfg.max_span), float(cfg.max_step)
    rtol, atol = max(cfg.rel_tol, _RTOL_FLOOR), cfg.abs_tol
    ends: list[LaneEnd | None] = [None] * len(jets)

    y = np.ascontiguousarray(np.array(jets).T)
    sup0 = np.max(np.abs(y), axis=0)
    for j in np.flatnonzero(sup0 > cfg.blowup_norm):
        term = Termination(TerminationKind.BLOWUP_DETECTED, s_last=0.0, norm=float(sup0[j]))
        ends[j] = LaneEnd(term, core.State.from_array(y[:, j]))
    lanes = np.flatnonzero(sup0 <= cfg.blowup_norm)
    y = y[:, lanes]
    t, t_old = np.zeros(lanes.size), np.zeros(lanes.size)
    rejected = np.zeros(lanes.size, dtype=bool)

    # Rejected, failed or blown-up trials make inf and nan; they never pass
    # the acceptance test, and comparisons with nan are false.
    with np.errstate(all="ignore"):
        f = np.array(rhs(0.0, y))
        h_abs = _initial_step(rhs, y, f, t_bound, max_step, rtol, atol)
        while lanes.size > _HANDOFF_LANES:
            # One trial step per lane: clamp a fresh step to [min_step,
            # max_step]; a retried one fails below min_step, ten ulp of t.
            min_step = 10.0 * (np.nextafter(t, np.inf) - t)
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
            grow = _SAFETY * powers(err, _ERROR_EXPONENT)
            up = np.where(grow < _MAX_FACTOR, grow, _MAX_FACTOR)
            up = np.where(rejected, np.minimum(up, 1.0), up)
            down = np.where(grow > _MIN_FACTOR, grow, _MIN_FACTOR)
            h_abs = h * np.where(accepted, up, down)
            rejected = ~accepted

            # Scan the steps if some accepted one can reach an event; a
            # rejected step's crossings are dropped.
            hit = np.zeros(lanes.size, dtype=bool)
            if _lanes_near(y, K, h, accepted, cs, cfg.blowup_norm).any():
                grid, _, crossings = _scan(K, h, t, t_new, y, cs, cfg.blowup_norm, (True, True))
                any_crossing = (crossings[0] | crossings[1] | crossings[2]) & accepted
                hit = any_crossing.any(axis=0)

            done = failed | hit | (accepted & (t_new >= t_bound))
            for j in np.flatnonzero(done):
                if failed[j]:
                    err_j = _underflow(t[j], t_old[j], y[:, j])
                    ends[lanes[j]] = LaneEnd(err_j, err_j.state_last)
                elif hit[j]:
                    i = int(np.argmax(any_crossing[:, j]))
                    term, y_hit, _ = _refine_hit(
                        [k[:, j].tolist() for k in K], float(h[j]), float(t[j]), y[:, j].tolist(),
                        [c[i, j] for c in crossings], float(grid[i, j]), float(grid[i + 1, j]),
                        cs, cfg,
                    )
                    ends[lanes[j]] = LaneEnd(term, core.State.from_array(y_hit))
                else:
                    term = Termination(TerminationKind.SPAN_EXHAUSTED, s_last=float(t_new[j]))
                    ends[lanes[j]] = LaneEnd(term, core.State.from_array(y_new[:, j]))

            t_old = np.where(accepted, t, t_old)
            t = np.where(accepted, t_new, t)
            y = np.where(accepted, y_new, y)
            f = np.where(accepted, K[-1], f)
            if done.any():
                live = ~done
                lanes, t, t_old, h_abs, rejected = (
                    a[live] for a in (lanes, t, t_old, h_abs, rejected)
                )
                y, f = y[:, live], f[:, live]

    for j, lane in enumerate(lanes.tolist()):
        resume = (float(t[j]), float(t_old[j]), f[:, j].tolist(), float(h_abs[j]), bool(rejected[j]))
        try:
            traj = _drive(d, y[:, j], 0.0, cfg, (True, True), resume)
            ends[lane] = LaneEnd(traj.termination, core.State.from_array(traj.states[-1]))
        except IntegrationError as err:
            ends[lane] = LaneEnd(err, err.state_last)
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
    return _drive(d, x0, float(s0), cfg, gates)


def sample_at(traj: Trajectory, s: float) -> core.State:
    """Jet at an arbitrary time inside the sampled span.

    Stored nodes are returned exactly; interior points come from the covering
    step's `_interpolant` on Python floats, the one that event refinement
    reads (agreeing with a fresh shorter integration to within an order of
    10 * abs_tol).
    """
    if not traj.s[0] <= s <= traj.s[-1]:
        raise ValueError(
            f"s={s} outside sampled span [{traj.s[0]}, {traj.s[-1]}]"
        )
    idx = int(np.searchsorted(traj.s, s))
    if traj.s[idx] == s:
        return core.State.from_array(traj.states[idx])
    K, h = traj._steps[idx - 1]
    at = _interpolant(K, h, float(traj.s[idx - 1]), traj.states[idx - 1].tolist())
    return core.State.from_array(at(float(s)))


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


def _cell(c) -> str:
    """One CSV cell: a float (numpy's included) as its repr, None as nothing,
    and anything else as `csv.writer` writes it, text as it is and the rest
    as str, quoted where it holds a comma, a quote or a line break."""
    if isinstance(c, float):
        return repr(float(c))
    if c is None:
        return ""
    text = c if isinstance(c, str) else str(c)
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def write_rows(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """A CSV file of `header` and `rows`, written through `atomic_open`: the
    one writer of every CSV artifact.  Each row is written as it comes, its
    cells as `_cell` writes them (a plain float straight from its repr)
    joined by commas and ended by CRLF, as `csv.writer` writes them (but for
    a row of one empty cell, which it writes as `""`; no artifact has one
    column)."""
    with atomic_open(path) as fh:
        write = fh.write
        write(",".join(map(_cell, header)) + "\r\n")
        for row in rows:
            write(",".join([repr(c) if type(c) is float else _cell(c) for c in row]) + "\r\n")


def write_csv(traj: Trajectory, path: str) -> None:
    """Delimited dump: s, jet components, energy total and dissipation rate."""
    e = core.energy(traj.d, traj.states.T)
    columns = (traj.s, *traj.states.T, e.total, e.rate)
    write_rows(
        path,
        ["s", "phi", "dphi", "d2phi", "d3phi", "energy_total", "energy_rate"],
        zip(*(c.tolist() for c in columns)),
    )
