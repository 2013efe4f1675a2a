"""Plane regions, tangent frames, and algebraic decompositions for d = 5.

The (phi, phi'') plane carries a lens-shaped open region bounded above by

    F(x) = c* sin(x)   for x in [0, pi/2],   F(x) = c*  beyond,

and below by -F(pi - x), where c* = c_star(5) = 2 sqrt(6) is the height at
which `integrate` gates phi''.  Orbits that leave the region blow up, orbits
of the connecting solution stay inside.  Several changes of variables reduce
the fourth-order equation to damped second-order problems whose coefficient
positivity is certified in `certify`:

* the tangent-frame variable w = phi'' - y_line(phi), where y_line is the
  line tangent to the sine arc at phi0, satisfies  w'' = a w - 2 w' + P;
* the cone variable xi = phi'' - 3 phi satisfies
  xi'' = (6 phi'^2 + 4 cos(2 phi) + 6) xi - 2 xi' + Q(phi, phi').

The coefficients a, c0, c1, c2 and q0 of those problems, and the chart
phi_of_z, are written once here, generic over their number type: each takes
a context `ctx` (see `core`) with `sin`, `cos`, `sqrt6` and `square`.
`core.NUMPY` evaluates them on floats and numpy arrays, `intervals.INTERVAL`
on the interval boxes of `certify`, `taylor.mp_context` in mpmath, and the
exact series of `certify` give its Taylor enclosures.  The rest of the
module works in plain floating point (numpy broadcasting supported where
useful) and checks the growth sandwich for the cubic blowup polynomial p.
Residual helpers verify the decompositions along whole trajectories; like
`core.psi_residual` they scale by the magnitude of the compared terms so the
check stays meaningful at large states.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import core
from .core import NUMPY
from .config import BOUNDARY_TOL

__all__ = [
    "GROWTH_C1",
    "Membership",
    "boundary_curve",
    "arc_height",
    "arc_slope",
    "region_gap",
    "in_region_C",
    "in_minus_C",
    "phi_of_z",
    "coeff_a",
    "coeff_c0",
    "coeff_c1",
    "coeff_c2",
    "coeff_q0",
    "TangentFrame",
    "eval_a",
    "eval_P",
    "P_cubic_coefficients",
    "w_system_residual",
    "xi_value",
    "xi_prime",
    "eval_Q",
    "Q_cubic_coefficients",
    "xi_system_residual",
    "in_cone",
    "sos_identity_check",
    "p_value",
    "growth_bounds",
    "GrowthReport",
    "growth_bound_check",
]

_CAP = core.c_star(5)  # c*, the height of the boundary's cap

#: Constant of the growth sandwich
#:     6 (xi2 - c*) xi1^2 + xi1^3 / C1  <=  p  <=  6 xi1^2 xi2 + C1 (1 + xi2 + xi1^3)
#: for xi1 >= 0, xi2 >= c_star(d), d in {5, 6, 7}.  Smallest power of two that
#: clears a dense randomized sweep (tools/fit_growth_constant.py regenerates it).
GROWTH_C1 = 32.0


class Membership(enum.Enum):
    INSIDE = "inside"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


def boundary_curve(x):
    """Upper boundary height F(x) over [0, pi]: the sine arc capped at c*."""
    x = np.asarray(x, dtype=float)
    out = np.where(x <= math.pi / 2.0, _CAP * np.sin(x), _CAP)
    return float(out) if out.ndim == 0 else out


def arc_height(phi0):
    """Height c* sin(phi0) of the sine arc at the tangency abscissa."""
    return _CAP * np.sin(phi0)


def arc_slope(phi0):
    """Slope c* cos(phi0) of the sine arc at the tangency abscissa."""
    return _CAP * np.cos(phi0)


def region_gap(x, y):
    """Signed margin to the region boundary: positive inside, zero on it.

    The region is {0 < x < pi, -F(pi - x) < y < F(x)}; the gap is the smallest
    of the four one-sided margins.  Floats give a float; arrays give the gap
    of each element pair.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    gap = np.minimum(
        np.minimum(x, math.pi - x),
        np.minimum(boundary_curve(x) - y, y + boundary_curve(math.pi - x)),
    )
    return float(gap) if gap.ndim == 0 else gap


def in_region_C(x: float, y: float, tol: float = BOUNDARY_TOL) -> Membership:
    g = region_gap(x, y)
    if abs(g) <= tol:
        return Membership.BOUNDARY
    return Membership.INSIDE if g > 0 else Membership.OUTSIDE


def in_minus_C(x: float, y: float, tol: float = BOUNDARY_TOL) -> Membership:
    """Membership in the antipodal copy, tested through (x, y) -> (-x, -y)."""
    return in_region_C(-x, -y, tol)


# ---------------------------------------------------------------------------
# Coefficient forms, generic over the number type.
#
# Constants stand right of each product so that one expression serves every
# type, and each form keeps one operation order: floats and intervals round
# in that order, and the exact series collect remainder mass in it.

def phi_of_z(phi0, z, ctx=NUMPY):
    """phi = phi0 + z cos(phi0) / (1 + sin(phi0)): the chart with z = 1 at phi_max."""
    return phi0 + z * ctx.cos(phi0) / (ctx.sin(phi0) + 1)


def coeff_a(phi0, phi, v, ctx=NUMPY):
    """a = 4 cos(2 phi) - 2 sqrt(6) cos(phi0) + 9 + 6 v^2."""
    return ctx.cos(phi * 2) * 4 - ctx.sqrt6 * 2 * ctx.cos(phi0) + 9 + ctx.square(v) * 6


def coeff_c0(phi0, phi, ctx=NUMPY):
    """v^0 coefficient of P."""
    u = phi - phi0
    box = ctx.cos(phi * 2) * 4 + 9
    return (
        ctx.sin(phi0 * 2) * -12
        - (u + ctx.sin(phi * 2)) * 12
        + ctx.sqrt6 * 2 * u * box * ctx.cos(phi0)
        + (phi0 - phi) * 12 * ctx.cos(phi0 * 2)
        + ctx.sqrt6 * 2 * box * ctx.sin(phi0)
    )


def coeff_c1(phi0, phi, ctx=NUMPY):
    """v^1 coefficient of P: 4 cos(2 phi) - 4 sqrt(6) cos(phi0) + 10."""
    return ctx.cos(phi * 2) * 4 - ctx.sqrt6 * 4 * ctx.cos(phi0) + 10


def coeff_c2(phi0, phi, ctx=NUMPY):
    """v^2 coefficient of P: 12 sqrt(6) (sin(phi0) + (phi - phi0) cos(phi0)) - 4 sin(2 phi)."""
    u = phi - phi0
    return ctx.sqrt6 * 12 * (ctx.sin(phi0) + u * ctx.cos(phi0)) - ctx.sin(phi * 2) * 4


def coeff_q0(phi, ctx=NUMPY):
    """v^0 coefficient of Q: 6 (3 phi - 2 sin(2 phi) + 2 phi cos(2 phi))."""
    return (phi * 3 - ctx.sin(phi * 2) * 2 + phi * 2 * ctx.cos(phi * 2)) * 6


# ---------------------------------------------------------------------------
# Tangent frame.


@dataclass(frozen=True)
class TangentFrame:
    """Affine frame attached to the sine arc at abscissa phi0 in [0, pi/2].

    y_line is the tangent line to the arc at phi0; phi_max = phi_of_z(phi0, 1)
    is where that line reaches the cap height 2 sqrt(6) (the form
    phi0 + cos(phi0) / (1 + sin(phi0)) is exact and stable at phi0 = pi/2,
    where the line is horizontal at the cap).
    """

    phi0: float
    y0: float = field(init=False)
    slope: float = field(init=False)
    phi_max: float = field(init=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.phi0 <= math.pi / 2.0:
            raise ValueError(f"tangency abscissa must lie in [0, pi/2], got {self.phi0}")
        object.__setattr__(self, "y0", float(arc_height(self.phi0)))
        object.__setattr__(self, "slope", float(arc_slope(self.phi0)))
        object.__setattr__(self, "phi_max", float(phi_of_z(self.phi0, 1)))

    def y_line(self, phi):
        return self.slope * (np.asarray(phi, dtype=float) - self.phi0) + self.y0


# ---------------------------------------------------------------------------
# The damped tangent-frame oscillator  w'' = a w - 2 w' + P.


def eval_a(phi0, phi, v):
    """`coeff_a` on floats or arrays."""
    out = coeff_a(*(np.asarray(t, dtype=float) for t in (phi0, phi, v)))
    return float(out) if out.ndim == 0 else out


def P_cubic_coefficients(phi0, phi):
    """Coefficients (c0, c1, c2, c3) of P as a cubic in the velocity v."""
    phi0 = np.asarray(phi0, dtype=float)
    phi = np.asarray(phi, dtype=float)
    c0 = coeff_c0(phi0, phi)
    return c0, coeff_c1(phi0, phi), coeff_c2(phi0, phi), np.full_like(c0, 2.0)


def eval_P(phi0, phi, v):
    """Forcing term of the tangent-frame oscillator, cubic in v."""
    c0, c1, c2, c3 = P_cubic_coefficients(phi0, phi)
    v = np.asarray(v, dtype=float)
    out = c0 + (c1 + (c2 + c3 * v) * v) * v
    return float(out) if out.ndim == 0 else out


def _jets(traj, what: str) -> tuple:
    """Rows phi, phi', phi'', phi''' of a d = 5 trajectory, and the field's phi'''' row."""
    if traj.d != 5:
        raise ValueError(f"{what} decomposition requires d=5, got d={traj.d}")
    x = np.asarray(traj.states, dtype=float).T
    return (*x, core._make_rhs(traj.d, ctx=NUMPY)(0.0, x)[3])


def _worst_scaled_gap(lhs, rhs) -> float:
    gap = (lhs - rhs) / np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    return float(np.max(np.abs(gap), initial=0.0))


def w_system_residual(phi0: float, traj) -> float:
    """Largest scaled defect of w'' = a w - 2 w' + P along a d = 5 trajectory.

    w'' is assembled from the jet as phi'''' - slope * phi'', with phi''''
    taken from the vector field, so this checks that the substitution
    w = phi'' - y_line(phi) really transforms the equation as claimed.
    """
    phi, v, y, z, d4 = _jets(traj, "tangent-frame")
    frame = TangentFrame(phi0)
    w = y - frame.y_line(phi)
    dw = z - frame.slope * v
    lhs = d4 - frame.slope * y
    rhs = eval_a(phi0, phi, v) * w - 2.0 * dw + eval_P(phi0, phi, v)
    return _worst_scaled_gap(lhs, rhs)


# ---------------------------------------------------------------------------
# Cone decomposition  xi = phi'' - 3 phi.


def xi_value(x) -> float:
    s = core.State.from_array(x)
    return s.d2phi - 3.0 * s.phi


def xi_prime(x) -> float:
    s = core.State.from_array(x)
    return s.d3phi - 3.0 * s.dphi


def Q_cubic_coefficients(phi):
    """Coefficients (q0, q1, q2, q3) of Q as a cubic in the velocity v."""
    phi = np.asarray(phi, dtype=float)
    q0 = coeff_q0(phi)
    cosphi = np.cos(phi)
    q1 = 8.0 * cosphi * cosphi
    q2 = 18.0 * phi - 4.0 * np.sin(2.0 * phi)
    q3 = np.full_like(q0, 2.0)
    return q0, q1, q2, q3


def eval_Q(phi, v):
    q0, q1, q2, q3 = Q_cubic_coefficients(phi)
    v = np.asarray(v, dtype=float)
    out = q0 + (q1 + (q2 + q3 * v) * v) * v
    return float(out) if out.ndim == 0 else out


def xi_system_residual(traj) -> float:
    """Largest scaled defect of xi'' = (6 v^2 + 4 cos(2 phi) + 6) xi - 2 xi' + Q."""
    phi, v, y, z, d4 = _jets(traj, "cone")
    xi = y - 3.0 * phi
    dxi = z - 3.0 * v
    lhs = d4 - 3.0 * y
    rhs = (6.0 * v * v + 4.0 * np.cos(2.0 * phi) + 6.0) * xi - 2.0 * dxi + eval_Q(phi, v)
    return _worst_scaled_gap(lhs, rhs)


def in_cone(x) -> bool:
    """True when (phi, phi'') and (phi', phi''') both sit in {u >= 0, w >= 3u}.

    Equivalent to phi, phi', xi, xi' all nonnegative.
    """
    s = core.State.from_array(x)
    return s.phi >= 0.0 and s.dphi >= 0.0 and xi_value(s) >= 0.0 and xi_prime(s) >= 0.0


# ---------------------------------------------------------------------------
# Sum-of-squares certificate for the right-side exit estimate.


def sos_identity_check(y: float, v: float) -> tuple[float, float]:
    """Both sides of  y^2 - 4 y v + 7 v^2 + 3 v^4
                      = 3 v^4 + 7 (v - 2 y / 7)^2 + (3/7) y^2."""
    lhs = y * y - 4.0 * y * v + 7.0 * v * v + 3.0 * v ** 4
    rhs = 3.0 * v ** 4 + 7.0 * (v - 2.0 * y / 7.0) ** 2 + (3.0 / 7.0) * y * y
    return lhs, rhs


# ---------------------------------------------------------------------------
# Cubic blowup polynomial and its growth sandwich.


def p_value(d: int, xi0, xi1, xi2):
    """p = q xi2 - f + 6 xi2 xi1^2 + q'/2 xi1^2 + 2(d-4) g xi1 + 2(d-4) xi1^3.

    This is the second derivative of phi'' phi' along the flow written in the
    phase variables (xi0, xi1, xi2) = (phi, phi', phi''); its positivity and
    growth drive the finite-time blowup argument.  q, f, g and q'/2 =
    -d1 sin(2 xi0) come from `core._field_constants`.  Takes floats or numpy
    arrays; floats run as 0-d arrays, so a scalar call gives the bits of the
    array entry.  xi1^3 takes libm's pow (`core.powers`), so p does not depend
    on numpy's CPU dispatch.
    """
    core._check_dim(d)
    xi0, xi1, xi2 = (np.asarray(t, dtype=float) for t in (xi0, xi1, xi2))
    d1, k, c3, gk, a = core._field_constants(d)
    sin2, cos2 = np.sin(2.0 * xi0), np.cos(2.0 * xi0)
    g = 0.5 * (d1 * cos2 + gk)
    p = ((d1 * cos2 + k) * xi2 - c3 * sin2 + 6.0 * xi2 * xi1 ** 2 - d1 * sin2 * xi1 ** 2
         + 2.0 * a * g * xi1 + 2.0 * a * core.powers(xi1, 3.0))
    return float(p) if np.ndim(p) == 0 else p


def growth_bounds(d: int, xi0, xi1, xi2) -> tuple:
    """(lower, p, upper) of the growth sandwich at phase points, floats or arrays.

    Requires d in {5, 6, 7}, xi1 >= 0 and xi2 >= c_star(d); within that cone
    lower <= p <= upper holds with the module constant GROWTH_C1.  xi1^3
    takes libm's pow, as in `p_value`.
    """
    c0 = core.c_star(d)
    if np.min(xi1) < 0.0:
        raise ValueError(f"xi1 must be nonnegative, got {np.min(xi1)}")
    if np.min(xi2) < c0:
        raise ValueError(f"xi2 must be at least c_star(d)={c0}, got {np.min(xi2)}")
    cube = core.powers(np.asarray(xi1, dtype=float), 3.0)
    lower = 6.0 * (xi2 - c0) * xi1 ** 2 + cube / GROWTH_C1
    upper = 6.0 * xi1 ** 2 * xi2 + GROWTH_C1 * (1.0 + xi2 + cube)
    return lower, p_value(d, xi0, xi1, xi2), upper


@dataclass(frozen=True)
class GrowthReport:
    samples: int
    violations: int
    worst_lower_margin: float
    worst_upper_margin: float


def growth_bound_check(d: int, samples: int = 100_000, seed: int = 0) -> GrowthReport:
    """Sample the phase cone (xi1 >= 0, xi2 >= c_star) and check the sandwich.

    Draws mix moderate and large scales so the cubic terms dominate on part
    of the sweep; margins are the smallest slack seen on each side.
    """
    rng = np.random.default_rng(seed)
    n1, n2 = samples // 2, samples // 4
    scales = ((3.0, n1), (50.0, n2), (1e3, samples - n1 - n2))
    draw = lambda: np.concatenate([rng.uniform(0.0, hi, n) for hi, n in scales])
    xi1 = draw()
    xi2 = core.c_star(d) + draw()
    xi0 = rng.uniform(-10.0, 10.0, samples)
    lower, p, upper = growth_bounds(d, xi0, xi1, xi2)
    lo_margin = p - lower
    hi_margin = upper - p
    violations = int(np.sum(lo_margin < 0.0) + np.sum(hi_margin < 0.0))
    return GrowthReport(
        samples=samples,
        violations=violations,
        worst_lower_margin=float(np.min(lo_margin)),
        worst_upper_margin=float(np.min(hi_margin)),
    )
