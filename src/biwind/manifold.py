"""Unstable-manifold seeding and heteroclinic shooting for the d = 5 flow.

The origin has a two-dimensional unstable manifold tangent to the
eigenvectors for the exponents 1 and 3.  We parameterize it to first order
by a circle of seeds at radius eps0, classify each seeded orbit by the sign
of the second derivative when |phi''| first reaches the gate c*(5) = 2 sqrt(6)
that `integrate` watches, and locate the connecting orbit (which tends to
`TARGET` = (pi/2, 0, 0, 0)) by an ITP search on that sign and the escape
time.  The search pins the connecting angle only to about 5.5e-14 (the
integrator tolerances), too coarse for a single orbit to stay by the equator
over the full span; `refine_heteroclinic` sharpens the angle to a few units
in the last place by multiple shooting over unit segments, still in doubles.
Classification grids integrate all of their seeds together, as lanes of
`integrate.integrate_lanes`; single orbits and the shooting search use the
serial integrator, which is faster per orbit.  Both run one Dormand-Prince
kernel, so an angle classifies bit for bit alike either way.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import config, core, integrate, regions

__all__ = [
    "D",
    "TARGET",
    "LocalChart",
    "CHART",
    "SeedSpec",
    "Outcome",
    "ClassificationResult",
    "BracketError",
    "seed_state",
    "theta0",
    "classify_orbit",
    "find_heteroclinic",
    "refine_heteroclinic",
    "classification_grid",
    "write_grid_csv",
]

#: The dimension of the shooting problem, and the equator equilibrium its
#: connecting orbit tends to.
D = 5
TARGET = np.array([0.5 * math.pi, 0.0, 0.0, 0.0])


@dataclass(frozen=True)
class LocalChart:
    """First-order chart of the unstable manifold at the origin.

    The manifold is a graph over the (phi, phi'') coordinates z = (z1, z2):
    the missing (phi', phi''') components are dw0 @ z up to cubic error.
    dw0 is determined by the eigenvectors (1, 1, 1, 1) of exponent 1 and
    (1, 3, 9, 27) of exponent 3 (`core.linearization(5, "even")`): a tangent
    vector a (1, 1, 1, 1) + b (1, 3, 9, 27) has z = (a+b, a+9b) and
    w = (a+3b, a+27b), and eliminating (a, b) gives w = (1/4)[[3,1],[-9,13]] z.
    """

    dw0: tuple[tuple[float, float], tuple[float, float]] = (
        (0.75, 0.25),
        (-2.25, 3.25),
    )


CHART = LocalChart()


def _check_eps0(eps0: float) -> None:
    """The seed radius must lie in (0, 0.1]; NaN and inf fail the comparison."""
    if not 0.0 < eps0 <= 0.1:
        raise ValueError(f"eps0 must lie in (0, 0.1], got {eps0}")


@dataclass(frozen=True, slots=True)
class SeedSpec:
    """Polar coordinates of one seed on the chart circle of radius eps0."""

    eps0: float
    theta: float

    def __post_init__(self) -> None:
        _check_eps0(self.eps0)
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta}")


class BracketError(ValueError):
    """The shooting bracket does not classify as g = -1 and g = +1 at its ends."""


class Outcome(enum.Enum):
    BLOWUP_PLUS = "blowup_plus"
    BLOWUP_MINUS = "blowup_minus"
    HETEROCLINIC_CANDIDATE = "heteroclinic_candidate"
    UNDECIDED = "undecided"


@dataclass(frozen=True, slots=True)
class ClassificationResult:
    """What happened to one seeded orbit.

    tau is the first arclength with |phi''| >= c*(5); g is the sign of
    phi'' there (+1 for the upward gate, -1 for the downward one).  Both are
    None when the run ended without reaching the gate.
    """

    theta: float
    outcome: Outcome
    tau: float | None
    g: int | None
    end_state: core.State
    note: str | None = None


def seed_state(spec: SeedSpec) -> core.State:
    """Point on the first-order unstable chart at angle theta, radius eps0."""
    z1 = spec.eps0 * math.cos(spec.theta)
    z2 = spec.eps0 * math.sin(spec.theta)
    (m11, m12), (m21, m22) = CHART.dw0
    return core.State(z1, m11 * z1 + m12 * z2, z2, m21 * z1 + m22 * z2)


def theta0(eps0: float) -> float:
    """Unique angle in [0, pi/2] whose seed sits on the upper boundary arc.

    Solves c*(5) sin(eps0 cos theta) = eps0 sin theta.  The left side
    decreases and the right side increases over [0, pi/2], so the bracket
    endpoints have opposite signs and the root is unique.  Bisection runs to
    adjacent doubles and returns the upper one: the least double it meets
    where the gap is <= 0.
    """
    _check_eps0(eps0)
    cap = core.c_star(D)
    below = lambda t: cap * math.sin(eps0 * math.cos(t)) - eps0 * math.sin(t) <= 0.0
    return integrate.bisect(below, 0.0, 0.5 * math.pi)[1]


_EVENT_TO_G = {
    integrate.EventKind.SECOND_DERIV_UP.value: 1,
    integrate.EventKind.SECOND_DERIV_DOWN.value: -1,
}


_GATES = (integrate.EventKind.SECOND_DERIV_UP, integrate.EventKind.SECOND_DERIV_DOWN)


def _stays_in_region(traj: integrate.Trajectory) -> bool:
    """Whether `regions.in_region_C` puts no jet of traj OUTSIDE."""
    gap = regions.region_gap(traj.states[:, 0], traj.states[:, 2])
    return bool(np.all((np.abs(gap) <= config.BOUNDARY_TOL) | (gap > 0.0)))


def classify_orbit(
    spec: SeedSpec, cfg: integrate.IntegrationConfig | None = None
) -> ClassificationResult:
    """Integrate one seed forward and report which way it left (d = 5).

    Stops at the first |phi''| = c*(5) crossing and records its sign.
    A run that exhausts the span next to (pi/2, 0, 0, 0) while (phi, phi'')
    never left the trapping region is a heteroclinic candidate; anything
    else without a gate crossing is undecided.
    """
    cfg = cfg or integrate.IntegrationConfig()
    x0 = seed_state(spec)
    try:
        traj = integrate.integrate(D, x0, cfg=cfg, watch=_GATES)
    except integrate.IntegrationError as err:
        return _classified(spec.theta, err, err.state_last)
    return _classified(
        spec.theta, traj.termination, traj.state_at_end(), lambda: _stays_in_region(traj)
    )


def _classified(
    theta: float,
    end: integrate.Termination | integrate.IntegrationError,
    state: core.State,
    stayed_in_c: Callable[[], bool] = lambda: False,
) -> ClassificationResult:
    """The outcome of an orbit that ended in `end` at the jet `state`.

    `stayed_in_c` tells whether (phi, phi'') never left C; it is asked only
    of a span-exhausted orbit that ends next to the target.
    """
    outcome, tau, g, note = Outcome.UNDECIDED, None, None, None
    if isinstance(end, integrate.IntegrationError):
        note = f"integration failed at s={end.s_last:.6g}: {end}"
    elif end.kind is integrate.TerminationKind.EVENT_STOP:
        g = _EVENT_TO_G[end.event]
        outcome = Outcome.BLOWUP_PLUS if g > 0 else Outcome.BLOWUP_MINUS
        tau = float(end.s_last)
    elif end.kind is integrate.TerminationKind.SPAN_EXHAUSTED:
        dist = float(np.linalg.norm(state.as_array() - TARGET))
        if dist <= config.HETEROCLINIC_TOL and stayed_in_c():
            outcome = Outcome.HETEROCLINIC_CANDIDATE
        else:
            note = f"span exhausted at distance {dist:.3e} from the target"
    else:
        note = f"terminated by {end.kind.value} without a gate crossing"
    return ClassificationResult(
        theta=theta, outcome=outcome, tau=tau, g=g, end_state=state, note=note
    )


# The equator's unstable exponent: the positive root of mu^2 + mu - 3 - sqrt 33,
# a factor of the odd linearization's characteristic polynomial
# mu^4 + 2 mu^3 - 5 mu^2 - 6 mu - 24 (`core.linearization(D, "odd")`).
_EQUATOR_EXPONENT = 0.5 * (math.sqrt(13.0 + 4.0 * math.sqrt(33.0)) - 1.0)


def find_heteroclinic(
    bracket: tuple[float, float] | None = None,
    theta_tol: float = config.THETA_TOL,
    cfg: integrate.IntegrationConfig | None = None,
    eps0: float = config.EPS0,
) -> tuple[float, ClassificationResult]:
    """Search the seed angle between a downward and an upward blowup.

    The bracket must classify with g = -1 on the left and g = +1 on the
    right, or `BracketError` is raised.  Near the connecting angle theta*
    the escape time tau grows like -ln|theta - theta*| / lambda, with
    lambda = 2.499 the equator's unstable exponent, so `_itp_search`
    interpolates on g e^(-lambda tau), which is close to linear there.  An
    undecided orbit (the span ran out deep inside the trapping region)
    means the connecting angle was straddled: it reads -1e-300 and +1e-300
    in turn, which narrows the bracket on alternating sides.  Returns the
    midpoint of the final bracket together with its classification.

    `theta_tol` is used as given: the library does not clamp it to
    `config.THETA_TOL_FLOOR` (only the command line's `shoot` does), and
    the search stops early once the midpoint rounds onto an end.
    """
    theta_star = _connecting_angle(bracket, theta_tol, cfg, eps0)
    return theta_star, classify_orbit(SeedSpec(eps0, theta_star), cfg)


def _connecting_angle(
    bracket: tuple[float, float] | None,
    theta_tol: float,
    cfg: integrate.IntegrationConfig | None,
    eps0: float,
) -> float:
    """The angle `find_heteroclinic` returns, without its classification."""
    if isinstance(theta_tol, bool) or not 0.0 < theta_tol < math.inf:
        raise ValueError(f"theta_tol must be positive, got {theta_tol}")
    if bracket is None:
        bracket = (-0.5 * math.pi, theta0(eps0) + 0.05)
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (lo < hi and hi - lo < math.inf):
        raise ValueError(f"bracket must satisfy lo < hi with a finite width, got ({lo}, {hi})")
    res_lo = classify_orbit(SeedSpec(eps0, lo), cfg)
    res_hi = classify_orbit(SeedSpec(eps0, hi), cfg)
    if res_lo.g != -1 or res_hi.g != 1:
        raise BracketError(
            "bracket does not straddle a sign change: "
            f"g({lo:.6g}) = {res_lo.g}, g({hi:.6g}) = {res_hi.g}"
        )
    undecided = itertools.cycle((-1e-300, 1e-300))  # narrow lo, then hi, and so on

    def ordinate(res: ClassificationResult) -> float:
        if res.g is None:
            return next(undecided)
        # floored so that a long escape time keeps its sign
        return res.g * max(math.exp(-_EQUATOR_EXPONENT * res.tau), 1e-300)

    lo, hi = _itp_search(
        lambda theta: ordinate(classify_orbit(SeedSpec(eps0, theta), cfg)),
        lo, hi, ordinate(res_lo), ordinate(res_hi), theta_tol,
    )
    return 0.5 * (lo + hi)


def _classified_orbit(
    spec: SeedSpec, cfg: integrate.IntegrationConfig
) -> tuple[ClassificationResult, integrate.Trajectory]:
    """`classify_orbit(spec, cfg)` and the orbit of the seed watching no gate,
    which runs on past the gate, to blowup or to the end of the span.

    The classification is read from that orbit's stored steps
    (`integrate._gate_end`), and only where they do not hold its gate
    crossing is the watched orbit integrated as well.
    """
    orbit = integrate.integrate(D, seed_state(spec), cfg=cfg)
    end = integrate._gate_end(orbit, cfg)
    if end is None:
        return classify_orbit(spec, cfg), orbit
    term, state = end
    return _classified(spec.theta, term, core.State.from_array(state)), orbit


def _itp_search(
    f: Callable[[float], float], lo: float, hi: float, f_lo: float, f_hi: float, tol: float
) -> tuple[float, float]:
    """Bracket [lo, hi] of a sign change of f, given f_lo = f(lo) < 0 < f_hi = f(hi).

    The ITP method (Oliveira and Takahashi, ACM Trans. Math. Softw. 47(1),
    2021) with kappa1 = 0.05 / (hi - lo), kappa2 = 1.5 and n0 = 1: regula
    falsi, truncated toward the midpoint and projected so that trial j
    leaves a bracket no wider than tol + (15/16) tol (2^(n_max - j - 1) - 1),
    n_max = ceil(log2((hi - lo) / tol)) + 1.  The method's own bound,
    tol 2^(n_max - j - 1), may leave no double to pick once a projection has
    met it; the 15/16 keeps tol / 16 of room.  f(x) > 0 moves hi to x and
    any other value moves lo.  Stops once the bracket is no wider than `tol`
    or its midpoint rounds onto an end, after at most n_max calls of f.
    """
    kappa1 = 0.05 / (hi - lo)
    n_max = math.ceil(math.log2(hi - lo) - math.log2(tol)) + 1
    j = 0
    while hi - lo > tol and lo < 0.5 * (lo + hi) < hi:
        width, mid = hi - lo, 0.5 * (lo + hi)
        x_f = lo + width * (f_lo / (f_lo - f_hi))
        delta = kappa1 * width ** 1.5
        x_t = x_f + math.copysign(delta, mid - x_f) if delta <= abs(mid - x_f) else mid
        # Both parts must be at most `bound` wide.  `bound` is a double, so
        # the subtractions round past it only when the exact widths exceed it.
        bound = tol + (math.ldexp(tol, n_max - j - 1) - tol) * 0.9375
        least, most = hi - bound, lo + bound
        if hi - least > bound:
            least = math.nextafter(least, hi)
        if most - lo > bound:
            most = math.nextafter(most, lo)
        x = min(max(x_t, least), most)
        if not lo < x < hi:
            x = mid
        y = f(x)
        if y > 0.0:
            hi, f_hi = x, y
        else:
            lo, f_lo = x, y
        j += 1
    return lo, hi


# Multiple shooting of the connecting orbit: one segment per unit of the
# shooting span.  At rel_tol 1e-12 the truncation error of the first five
# segments, where the jets are small, still moves the angle by about 2e-16;
# at 1e-13 the angle comes out within 6e-17 of its 38-digit value.
_SEGMENTS = int(config.SHOOT_SPAN)
_SEGMENT_CFG = integrate.IntegrationConfig(rel_tol=1e-13, abs_tol=1e-16, max_span=1.0)
_NEWTON_TOL = 1e-12
_MAX_NEWTON_STEPS = 12


def refine_heteroclinic(
    theta: float, eps0: float = config.EPS0
) -> tuple[float, list[integrate.Trajectory]]:
    """Sharpen a connecting angle by multiple shooting over the shooting span.

    Deviations from the connecting orbit grow like e^(2.499 s) at the
    equator, so no single orbit from a double seed stays by it for 25 units
    of arclength.  The span is cut into N = 25 unit segments instead, each
    run by `integrate` from a jet of its own: x_0 is the seed at the angle,
    and x_1 .. x_{N-1}, the jets at s = 1 .. N-1, are unknowns.  The
    junctions x_{k+1} = Phi_1(x_k) and the projection boundary condition
    l . (Phi_1(x_{N-1}) - (pi/2, 0, 0, 0)) = 0, with l the equator's unstable
    left eigenvector (Beyn, IMA J. Numer. Anal. 10, 1990), are 4N - 3
    equations in the angle and the jets.  Newton's method solves them, with
    the segment Jacobians taken by forward differences, until a step moves
    no unknown by more than `_NEWTON_TOL`.  It starts from the orbit of
    theta (the result of `find_heteroclinic`, say): its jets up to a unit
    before it ends, and the target after.  Returns the angle and the N
    segments; segment k starts at s = k.  Raises ValueError when a segment
    blows up or Newton has not converged in `_MAX_NEWTON_STEPS` steps.
    """
    SeedSpec(eps0, float(theta))  # validates theta and eps0
    vals, vecs = np.linalg.eig(core.linearization(D, "odd").matrix.T)
    left = vecs[:, int(np.argmax(vals.real))].real
    n, fd = _SEGMENTS, math.sqrt(np.finfo(float).eps)

    def seed(th: float) -> np.ndarray:
        return seed_state(SeedSpec(eps0, float(th))).as_array()

    def segment(x: np.ndarray, k: int) -> integrate.Trajectory:
        seg = integrate.integrate(D, x, s0=float(k), cfg=_SEGMENT_CFG)
        if seg.termination.kind is not integrate.TerminationKind.SPAN_EXHAUSTED:
            raise ValueError(f"segment {k} of the orbit near theta = {theta!r} blew up")
        return seg

    def shoot(z: np.ndarray) -> tuple[list, list[integrate.Trajectory]]:
        starts = [seed(z[0]), *z[1:].reshape(n - 1, 4)]
        return starts, [segment(x, k) for k, x in enumerate(starts)]

    orbit = integrate.integrate(
        D, seed(theta), cfg=integrate.IntegrationConfig(max_span=config.SHOOT_SPAN), watch=_GATES
    )
    z = np.concatenate([[theta], *(
        integrate.sample_at(orbit, k).as_array() if k <= orbit.s[-1] - 1.0 else TARGET
        for k in range(1, n)
    )])
    for _ in range(_MAX_NEWTON_STEPS):
        starts, segments = shoot(z)
        ends = np.array([seg.states[-1] for seg in segments])
        resid = np.append(z[1:] - ends[:-1].ravel(), left @ (ends[-1] - TARGET))
        # d ends[k] / dz in rows 4k .. 4k+3: the angle moves x_0, and x_k is z[4k-3 .. 4k]
        dends = np.zeros((4 * n, 4 * n - 3))
        step = (z[0] + fd * max(1.0, abs(z[0]))) - z[0]
        dends[:4, 0] = (segment(seed(z[0] + step), 0).states[-1] - ends[0]) / step
        for k in range(1, n):
            for i in range(4):
                x = starts[k].copy()
                x[i] += fd * max(np.max(np.abs(x)), eps0)
                col = (segment(x, k).states[-1] - ends[k]) / (x[i] - starts[k][i])
                dends[4 * k:4 * k + 4, 4 * k - 3 + i] = col
        jac = np.vstack([np.eye(4 * n - 4, 4 * n - 3, k=1) - dends[:-4], left @ dends[-4:]])
        delta = np.linalg.solve(jac, -resid)
        z = z + delta
        if np.max(np.abs(delta)) <= _NEWTON_TOL:
            return float(z[0]), shoot(z)[1]
    raise ValueError(
        f"no connecting angle found near {theta!r} in {_MAX_NEWTON_STEPS} Newton steps"
    )


def classification_grid(
    thetas: Sequence[float],
    eps0: float = config.EPS0,
    cfg: integrate.IntegrationConfig | None = None,
    workers: int | None = None,
) -> list[ClassificationResult]:
    """Classify every angle in the grid; order follows the input.

    All seeds run through `integrate.integrate_lanes`, in one thread: as
    lanes of one lockstep Dormand-Prince loop, the last few (or all of a
    small grid) finished one by one by the serial integrator.  Each result
    maps to its outcome as in `classify_orbit`.  A lane that exhausts the span next to
    the target runs again as a single orbit, which tells whether it stayed
    in C.  A lane's bits depend on its own seed only, so a result is the same
    whatever the grid's size, order or `workers`, and equals
    `classify_orbit`'s bit for bit; `workers` must be >= 1 when given and
    changes nothing.
    """
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    _check_eps0(eps0)
    specs = [SeedSpec(eps0, float(t)) for t in thetas]
    lanes = integrate.integrate_lanes(D, [seed_state(sp).as_array() for sp in specs], cfg)
    return [
        _classified(sp.theta, lane.end, lane.state, lambda sp=sp: _stays_in_region(
            integrate.integrate(D, seed_state(sp), cfg=cfg, watch=_GATES)))
        for sp, lane in zip(specs, lanes)
    ]


def write_grid_csv(results: Sequence[ClassificationResult], path: str) -> None:
    """One row per classified angle; None fields are left empty."""
    integrate.write_rows(
        path,
        ["theta", "outcome", "g", "tau", "phi", "dphi", "d2phi", "d3phi"],
        ([r.theta, r.outcome.value, r.g, r.tau, *core._components(r.end_state)] for r in results),
    )
