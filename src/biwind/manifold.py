"""Unstable-manifold seeding and heteroclinic shooting for the d = 5 flow.

The origin has a two-dimensional unstable manifold tangent to the
eigenvectors for the exponents 1 and 3.  We parameterize it to first order
by a circle of seeds at radius eps0, classify each seeded orbit by the sign
of the second derivative when |phi''| first reaches the gate c*(5) = 2 sqrt(6)
that `integrate` watches, and locate the connecting orbit (which tends to
`TARGET` = (pi/2, 0, 0, 0)) by bisection on that sign.  Double precision
pins the connecting angle only to about 5e-14 (the integrator tolerances),
too coarse for its orbit to stay by the equator over the full span;
`refine_heteroclinic` sharpens the angle in mpmath.
Classification grids integrate all of their seeds together, as lanes of
`integrate.integrate_lanes`; single orbits and the shooting bisection use the
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

from . import config, core, integrate, regions, taylor

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
    "verify_unstable_decay",
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
    dw0 is determined by the eigenvectors eta3 (exponent 1) and eta4
    (exponent 3): a tangent vector a*eta3 + b*eta4 has z = (a+b, a+9b) and
    w = (a+3b, a+27b), and eliminating (a, b) gives w = (1/4)[[3,1],[-9,13]] z.
    """

    eta3: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)
    eta4: tuple[float, float, float, float] = (1.0, 3.0, 9.0, 27.0)
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
    return core.State(*_seed_jet(spec.eps0, spec.theta, core.FLOAT))


def _seed_jet(eps0, theta, ctx) -> tuple:
    """(phi, phi', phi'', phi''') of the chart seed in the number type of ctx."""
    z1 = eps0 * ctx.cos(theta)
    z2 = eps0 * ctx.sin(theta)
    (m11, m12), (m21, m22) = CHART.dw0
    return (z1, m11 * z1 + m12 * z2, z2, m21 * z1 + m22 * z2)


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


def _not_outside_c(states: np.ndarray) -> np.ndarray:
    """Columns of a (4, n) jet array that `regions.in_region_C` does not put OUTSIDE."""
    gap = regions.region_gap(states[0], states[2])
    return (np.abs(gap) <= config.BOUNDARY_TOL) | (gap > 0.0)


def _stays_in_region(traj: integrate.Trajectory) -> bool:
    return bool(np.all(_not_outside_c(traj.states.T)))


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


def find_heteroclinic(
    bracket: tuple[float, float] | None = None,
    theta_tol: float = config.THETA_TOL,
    cfg: integrate.IntegrationConfig | None = None,
    eps0: float = config.EPS0,
) -> tuple[float, ClassificationResult]:
    """Bisect the seed angle between a downward and an upward blowup.

    The bracket must classify with g = -1 on the left and g = +1 on the
    right, or `BracketError` is raised.  An undecided midpoint (the span ran out deep inside the
    trapping region) means the connecting angle was straddled, so the
    bracket is narrowed on alternating sides.  Returns the midpoint of the
    final bracket together with its classification.

    `theta_tol` is used as given: the library does not clamp it to
    `config.THETA_TOL_FLOOR` (only the command line's `shoot` does), and
    bisection stops early once the midpoint rounds onto an end.
    """
    if isinstance(theta_tol, bool) or not 0.0 < theta_tol < math.inf:
        raise ValueError(f"theta_tol must be positive, got {theta_tol}")
    if bracket is None:
        bracket = (-0.5 * math.pi, theta0(eps0) + 0.05)
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError(f"bracket must satisfy lo < hi, got ({lo}, {hi})")
    res_lo = classify_orbit(SeedSpec(eps0, lo), cfg)
    res_hi = classify_orbit(SeedSpec(eps0, hi), cfg)
    if res_lo.g != -1 or res_hi.g != 1:
        raise BracketError(
            "bracket does not straddle a sign change: "
            f"g({lo:.6g}) = {res_lo.g}, g({hi:.6g}) = {res_hi.g}"
        )
    undecided = itertools.cycle((False, True))  # narrow lo, then hi, and so on

    def upward(theta: float) -> bool:
        g = classify_orbit(SeedSpec(eps0, theta), cfg).g
        return next(undecided) if g is None else g == 1

    lo, hi = integrate.bisect(upward, lo, hi, theta_tol)
    theta_star = 0.5 * (lo + hi)
    return theta_star, classify_orbit(SeedSpec(eps0, theta_star), cfg)


# A secant point is used only while its miss is in the linear regime.
_LINEAR_MISS = 0.1
_MAX_SECANT_STEPS = 40


def refine_heteroclinic(
    theta: float, eps0: float = config.EPS0
) -> tuple[object, taylor.TaylorOrbit]:
    """Sharpen a double-precision connecting angle in extended precision.

    Deviations from the connecting orbit grow like e^(2.499 s) at the
    equator, so its end state at span 25 needs the angle to about 1e-28,
    beyond any double seed.  Starting from theta (the result of
    `find_heteroclinic`, say), orbits run over the shooting span through the
    Taylor integrator in mpmath at `config.PRECISION_DIGITS` significant
    digits with local tolerance 10^(2 - digits), and stop once (phi, phi'')
    leaves C, after which they blow up.

    The miss of an orbit at arclength T is the projection of
    x(T) - (pi/2, 0, 0, 0) on the equator's unstable left eigenvector.  Each
    step integrates one orbit and takes a secant through the two newest
    orbits at their last common sample where both misses are at most 0.1,
    so the span in use grows as the angle sharpens.  A secant point outside
    the bracket of opposite terminal misses is replaced by its midpoint.
    The search ends when an orbit covers the whole span and the next
    correction is below 10^(4 - digits).  Returns the angle (an mpmath mpf)
    and its orbit.  Needs mpmath, the `precision` extra.
    """
    SeedSpec(eps0, float(theta))  # validates theta and eps0
    digits = config.PRECISION_DIGITS
    ctx = taylor.mp_context(digits)
    tol = 10.0 ** (2 - digits)
    vals, vecs = np.linalg.eig(core.linearization(D, "odd").matrix.T)
    left = [ctx.mpf(t) for t in vecs[:, int(np.argmax(vals.real))].real]
    target = (ctx.pi / 2, 0, 0, 0)

    def leaves_c(x) -> bool:
        return regions.in_region_C(float(x[0]), float(x[2])) is regions.Membership.OUTSIDE

    def shoot(th):
        orbit = taylor.integrate(
            D, _seed_jet(eps0, th, ctx), config.SHOOT_SPAN,
            tol=tol, ctx=ctx, stop=leaves_c,
        )
        miss = [ctx.fdot(left, [a - b for a, b in zip(x, target)]) for x in orbit.states]
        return orbit, miss

    thetas = [ctx.mpf(theta), ctx.mpf(theta) + config.THETA_TOL]
    runs = [shoot(th) for th in thetas]
    bracket = {}  # sign of the terminal miss -> latest angle with that sign
    for _ in range(_MAX_SECANT_STEPS):
        (_, miss_a), (orbit_b, miss_b) = runs[-2], runs[-1]
        for th, miss in zip(thetas[-2:], (miss_a, miss_b)):
            bracket[miss[-1] > 0] = th
        n = min(len(miss_a), len(miss_b))
        linear = [k for k in range(n) if max(abs(miss_a[k]), abs(miss_b[k])) <= _LINEAR_MISS]
        k = linear[-1] if linear else n - 1
        slope = miss_b[k] - miss_a[k]
        step = -miss_b[k] * (thetas[-1] - thetas[-2]) / slope if slope else None
        if not orbit_b.stopped and step is not None and abs(step) < 10.0 ** (4 - digits):
            return thetas[-1], orbit_b
        nxt = None if step is None else thetas[-1] + step
        if len(bracket) == 2:
            lo, hi = sorted(bracket.values())
            if nxt is None or not lo < nxt < hi:
                nxt = (lo + hi) / 2
        if nxt is None:
            raise ValueError(f"the miss does not vary with the angle near {theta!r}")
        thetas.append(nxt)
        runs.append(shoot(nxt))
    raise ValueError(
        f"no connecting angle found near {theta!r} in {_MAX_SECANT_STEPS} secant steps"
    )


def verify_unstable_decay(
    spec: SeedSpec,
    cfg: integrate.IntegrationConfig | None = None,
) -> tuple[float, float]:
    """Fit the backward decay rates of the two unstable eigen-projections.

    Integrates the seed in reversed time and least-squares fits
    log|projection| against arclength for the exponent-1 and exponent-3
    eigendirections.  The fit windows shrink with eps0: the seeding error
    is cubic in eps0 and grows backward at rate 4 (the strongest reversed
    exponent is -(1-d) = 4), so the exponent-lam projection is trustworthy
    while eps0^3 e^{4 s} << eps0 e^{-lam s}, i.e. up to roughly
    ln(eps0^-2)/(lam+4).  Projections that fall below the floating-point
    floor truncate the window further; a window with fewer than two samples
    yields nan.
    """
    traj = integrate.integrate_reversed(D, seed_state(spec), cfg=cfg)
    sigma = np.abs(np.asarray(traj.s, dtype=float))
    lin = core.linearization(D, "even")
    coords = np.linalg.solve(lin.eigenvectors, np.asarray(traj.states, dtype=float).T)
    horizon = math.log(spec.eps0 ** -2)
    rates = []
    for lam, row in ((1.0, coords[1]), (3.0, coords[0])):
        window = 0.8 * horizon / (lam + 4.0)
        mask = (sigma <= window) & (np.abs(row) > 1e-16)
        if int(mask.sum()) < 2:
            rates.append(float("nan"))
            continue
        slope = np.polyfit(sigma[mask], np.log(np.abs(row[mask])), 1)[0]
        rates.append(float(-slope))
    return rates[0], rates[1]


def classification_grid(
    thetas: Sequence[float],
    eps0: float = config.EPS0,
    cfg: integrate.IntegrationConfig | None = None,
    workers: int | None = None,
) -> list[ClassificationResult]:
    """Classify every angle in the grid; order follows the input.

    All seeds run as lanes of one lockstep Dormand-Prince loop
    (`integrate.integrate_lanes`), in one thread, and each result maps to its
    outcome as in `classify_orbit`.  A lane's bits depend on its own seed
    only, so a result is the same whatever the grid's size, order or
    `workers`, and equals `classify_orbit`'s bit for bit; `workers` must be
    >= 1 when given and changes nothing.
    """
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    specs = [SeedSpec(eps0, float(t)) for t in thetas]
    lanes = integrate.integrate_lanes(
        D, [seed_state(sp).as_array() for sp in specs], cfg, keep=_not_outside_c
    )
    return [
        _classified(sp.theta, lane.end, lane.state, lambda lane=lane: lane.kept)
        for sp, lane in zip(specs, lanes)
    ]


def write_grid_csv(results: Sequence[ClassificationResult], path: str) -> None:
    """One row per classified angle; None fields are left empty."""
    integrate.write_rows(
        path,
        ["theta", "outcome", "g", "tau", "phi", "dphi", "d2phi", "d3phi"],
        ([r.theta, r.outcome.value, r.g, r.tau, *r.end_state.as_array()] for r in results),
    )
