"""Autonomous fourth-order reduction of the equivariant biharmonic map equation.

After the substitution psi(r) = phi(log r), the radial problem for an
O(d)-equivariant map into the sphere becomes an autonomous ODE for phi(s),

    phi'''' = q(phi) phi'' - f(phi) + (6 phi'' - (d-1) sin(2 phi)) (phi')^2
              + 2 (d-4) g(phi) phi' + 2 (d-4) (phi')^3 - 2 (d-4) phi''',

with the coefficient functions

    q(phi) = d1 cos(2 phi) + k,          f(phi) = c3 sin(2 phi),
    g(phi) = (d1 cos(2 phi) + gk) / 2,   F(phi) = c3 sin(phi)^2   (F' = f, F(0) = 0).

Their constants d1 = d-1, k = -(d-11) d - 21, c3 = (3/2)(d-3)(d-1),
gk = 3d-5 and a = d-4 (so 2(d-4) = 2a) are written once, in
`_field_constants`; the field, its Jacobians, c_star, the Taylor
recurrences, the energy and the blowup polynomial `regions.p_value` all
read them there.

This module evaluates the field (and, for the integrator, its time-reversed
companion), the Lyapunov energy and its dissipation rate, the
pi-shift/reflection symmetries, the threshold c_star used by the blowup
criterion, the linearizations at the two families of equilibria, the
classical second-order (harmonic map) analogue, and the residual of the
original radial equation, in plain floating point; certified bounds live
in `intervals`/`certify`.

Code written once for every number type takes a context `ctx` drawn from
one vocabulary: `mpf(x)` (x in the type), `sin`, `cos`, `sqrt6`, `square(x)`
(x^2) and `fdot(a, b)` (the sum of the a_i b_i).  `FLOAT` (`mpf`, `sin`,
`cos`, `fdot`) works on doubles and `NUMPY` (`sin`, `cos`, `sqrt6`, `square`)
on numpy arrays; `intervals.INTERVAL` and `taylor.mp_context` carry all six,
and the exact series of `certify` carry `sin`, `cos` and `sqrt6`.
"""

from __future__ import annotations

import math
import operator
import types
from dataclasses import dataclass
from typing import Callable, Iterable, Literal, Sequence

import numpy as np

__all__ = [
    "FLOAT",
    "NUMPY",
    "State",
    "EnergyBreakdown",
    "HarmonicState",
    "Linearization",
    "state",
    "vector_field",
    "energy",
    "symmetry_shift",
    "symmetry_reflect",
    "c_star",
    "linearization",
    "harmonic_field",
    "harmonic_energy",
    "psi_residual",
]

DIM_LO = 3
DIM_HI = 10

#: Parity-flip conjugacy between forward and reversed fields: J = diag(1,-1,1,-1).
REVERSAL_SIGNS = np.array([1.0, -1.0, 1.0, -1.0])


def _check_dim(d: int) -> None:
    if not isinstance(d, (int, np.integer)):
        raise TypeError(f"dimension must be an integer, got {type(d).__name__}")
    if not DIM_LO <= d <= DIM_HI:
        raise ValueError(f"dimension d={d} outside supported range [{DIM_LO}, {DIM_HI}]")


FLOAT = types.SimpleNamespace(mpf=float, sin=math.sin, cos=math.cos,
                              fdot=lambda a, b: math.fsum(map(operator.mul, a, b)))
NUMPY = types.SimpleNamespace(sin=np.sin, cos=np.cos, sqrt6=math.sqrt(6.0), square=np.square)


@dataclass(frozen=True, slots=True)
class State:
    """Jet (phi, phi', phi'', phi''') of a solution at one value of s."""

    phi: float
    dphi: float
    d2phi: float
    d3phi: float

    def __post_init__(self) -> None:
        for name in ("phi", "dphi", "d2phi", "d3phi"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"state component {name} is not finite: {v!r}")

    def as_array(self) -> np.ndarray:
        return np.array([self.phi, self.dphi, self.d2phi, self.d3phi])

    @classmethod
    def from_array(cls, x: "State | Sequence[float] | np.ndarray") -> "State":
        """The jet x as a State; a State is returned as it is."""
        if isinstance(x, cls):
            return x
        a = np.asarray(x, dtype=float)
        if a.shape != (4,):
            raise ValueError(f"state needs exactly 4 components, got shape {a.shape}")
        return cls(float(a[0]), float(a[1]), float(a[2]), float(a[3]))


def state(phi: float, dphi: float, d2phi: float, d3phi: float) -> State:
    """Convenience constructor mirroring the jet order."""
    return State(phi, dphi, d2phi, d3phi)


def _components(x: "State | Sequence[float] | np.ndarray") -> tuple[float, float, float, float]:
    if isinstance(x, State):
        return x.phi, x.dphi, x.d2phi, x.d3phi
    a = np.asarray(x, dtype=float)
    if a.shape != (4,):
        raise ValueError(f"state needs exactly 4 components, got shape {a.shape}")
    return float(a[0]), float(a[1]), float(a[2]), float(a[3])


# ---------------------------------------------------------------------------
# Vector fields.


def _field_constants(d: int) -> tuple[float, ...]:
    """(d1, k, c3, gk, a) = (d-1, -(d-11) d - 21, (3/2)(d-3)(d-1), 3d-5, d-4): integers or exact halves."""
    return float(d - 1), float(-(d - 11) * d - 21), 1.5 * (d - 3) * (d - 1), float(3 * d - 5), float(d - 4)


def _make_rhs(d: int, reverse: bool = False, ctx=FLOAT) -> Callable[[float, object], tuple]:
    """The field as a 4-tuple of derivatives, with `ctx.sin` and `ctx.cos`.

    Under `FLOAT` it takes one jet; under `NUMPY`, a (4, n) array of jet
    columns, and each of its n lanes runs the operations of a single jet in
    the same order.  With `reverse` it is the field of the pullback
    u(sigma) = phi(-sigma): the odd-derivative terms flip sign, giving
    -J f(J x) with J = diag(1,-1,1,-1).
    """
    d1, k, c3, gk, a = _field_constants(d)
    sgn = -1.0 if reverse else 1.0
    sin, cos = ctx.sin, ctx.cos

    def rhs(s: float, y) -> tuple:
        phi = y[0]
        v = y[1]
        w2 = y[2]
        w3 = y[3]
        sin2 = sin(2.0 * phi)
        cos2 = cos(2.0 * phi)
        acc = (
            (d1 * cos2 + k) * w2
            - c3 * sin2
            + (6.0 * w2 - d1 * sin2) * v * v
            + sgn * (a * (d1 * cos2 + gk) * v + 2.0 * a * v * v * v - 2.0 * a * w3)
        )
        return (v, w2, w3, acc)

    return rhs


def vector_field(d: int, x) -> np.ndarray:
    """First-order companion field of the autonomous equation.

    The returned 4-vector is (phi', phi'', phi''', phi'''') evaluated at x,
    bit for bit as the integrator evaluates it.
    """
    jet = _components(x)
    _check_dim(d)
    return np.array(_make_rhs(d)(0.0, jet))


# ---------------------------------------------------------------------------
# Energy.


@dataclass(frozen=True, slots=True)
class EnergyBreakdown:
    """Lyapunov energy split into its pairing and potential parts.

    Each field is a float for one jet, or an array with one entry per jet
    for a (4, n) array of jets.  total == kinetic + potential exactly (the
    sum is stored, not recomputed), and rate is the analytic dissipation
    2 (d-4) (phi''^2 + g phi'^2 + phi'^4), which vanishes identically at
    d = 4 and is nonnegative for d >= 5.
    """

    total: float | np.ndarray
    kinetic: float | np.ndarray
    potential: float | np.ndarray
    rate: float | np.ndarray


def energy(d: int, x) -> EnergyBreakdown:
    """The energy of one jet (a State or 4 numbers) or of each column of a (4, n) array.

    One jet is evaluated as a (4, 1) array, so it runs the same numpy
    operations as the column that holds it and gives the same bits.
    """
    _check_dim(d)
    jets = np.asarray(x.as_array() if isinstance(x, State) else x, dtype=float)
    if jets.ndim not in (1, 2) or len(jets) != 4:
        raise ValueError(f"energy needs a jet of 4 components or a (4, n) array, got shape {jets.shape}")
    phi, v, y, w = jets.reshape(4, -1)
    d1, k, c3, gk, a = _field_constants(d)
    cos2 = np.cos(2.0 * phi)
    sin = np.sin(phi)
    kinetic = v * (w + 2.0 * a * y - 0.5 * (d1 * cos2 + k) * v - 1.5 * v ** 3)
    potential = c3 * sin * sin - 0.5 * y * y
    rate = 2.0 * a * (y * y + 0.5 * (d1 * cos2 + gk) * v * v + v ** 4)
    parts = (kinetic + potential, kinetic, potential, rate)
    if jets.ndim == 1:
        parts = (float(p[0]) for p in parts)
    return EnergyBreakdown(*parts)


# ---------------------------------------------------------------------------
# Symmetries.


def symmetry_shift(x, k: int) -> State:
    """phi -> phi + k pi leaves the equation (and energy) invariant."""
    phi, v, y, w = _components(x)
    return State(phi + k * math.pi, v, y, w)


def symmetry_reflect(x, k: int) -> State:
    """phi -> k pi - phi with all odd-order jet entries negated.

    The second derivative changes sign as well: the reflected solution is
    s |-> k pi - phi(s), so every derivative flips.
    """
    phi, v, y, w = _components(x)
    return State(k * math.pi - phi, -v, -y, -w)


# ---------------------------------------------------------------------------
# Blowup threshold.


def c_star(d: int) -> float:
    """Largest of the three closed-form thresholds entering the blowup test.

    c_star = max( max(-q'/12), max(f/q), max(sqrt(2 F)) )
           = max( (d-1)/6,
                  (3/2)(d-3)(d-1) / sqrt(b^2 - a^2),
                  sqrt(3 (d-3) (d-1)) )

    with a = d-1 and b = -(d-11) d - 21 (so q = a cos(2 phi) + b > 0).  The
    three maxima are exact: -q'/12 peaks at sin(2 phi) = 1; f/q is maximized
    where the tangent line from the origin touches, giving the sqrt(b^2-a^2)
    denominator; 2F peaks at phi = pi/2.  Only d in {5, 6, 7} is supported,
    matching where the certified estimates hold.
    """
    if d not in (5, 6, 7):
        raise ValueError(f"c_star requires d in {{5, 6, 7}}, got d={d}")
    a, b, c3, _, _ = _field_constants(d)
    return max(a / 6.0, c3 / math.sqrt(b * b - a * a), math.sqrt(2.0 * c3))


# ---------------------------------------------------------------------------
# Linearizations at the equilibria phi = k pi (even) and phi = pi/2 + k pi (odd).


@dataclass(frozen=True, slots=True)
class Linearization:
    """Companion matrix of the linearized flow at an equilibrium family.

    For even parity the spectrum is {3, 1, 1-d, 3-d} with eigenvectors
    (1, lam, lam^2, lam^3); those are stored.  For odd parity only the matrix
    is provided (its spectrum is not needed in closed form anywhere).
    """

    parity: Literal["even", "odd"]
    matrix: np.ndarray
    eigenvalues: tuple[float, ...] | None
    eigenvectors: np.ndarray | None


def linearization(d: int, parity: Literal["even", "odd"]) -> Linearization:
    _check_dim(d)
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    # The field's Jacobian where phi' = phi'' = phi''' = sin 2phi = 0 and
    # cos 2phi = c.  Every entry is an integer; 0.0 - 2a is +0.0 at d = 4.
    d1, k, c3, gk, a = _field_constants(d)
    c = 1.0 if parity == "even" else -1.0
    bottom = [-2.0 * c3 * c, a * (d1 * c + gk), d1 * c + k, 0.0 - 2.0 * a]
    m = np.zeros((4, 4))
    m[0, 1] = m[1, 2] = m[2, 3] = 1.0
    m[3, :] = bottom
    if parity == "odd":
        return Linearization(parity="odd", matrix=m, eigenvalues=None, eigenvectors=None)
    lams = (3.0, 1.0, 1.0 - d, 3.0 - d)
    vecs = np.array([[lam ** k for lam in lams] for k in range(4)])
    return Linearization(parity="even", matrix=m, eigenvalues=lams, eigenvectors=vecs)


# ---------------------------------------------------------------------------
# Second-order (harmonic map) analogue.


@dataclass(frozen=True, slots=True)
class HarmonicState:
    phi: float
    dphi: float


def harmonic_field(d: int, h: HarmonicState) -> np.ndarray:
    """phi_H'' = ((d-1)/2) sin(2 phi_H) - (d-2) phi_H'."""
    _check_dim(d)
    return np.array(
        [h.dphi, 0.5 * (d - 1) * math.sin(2.0 * h.phi) - (d - 2) * h.dphi]
    )


def harmonic_energy(d: int, h: HarmonicState) -> tuple[float, float]:
    """Energy (1/2) phi_H'^2 + ((d-1)/2) cos^2(phi_H) and its rate -(d-2) phi_H'^2."""
    _check_dim(d)
    value = 0.5 * h.dphi ** 2 + 0.5 * (d - 1) * math.cos(h.phi) ** 2
    rate = -(d - 2) * h.dphi ** 2
    return value, rate


# ---------------------------------------------------------------------------
# Radial-equation residual.


def psi_residual(d: int, r: float, jet5: Iterable[float]) -> float:
    """Scaled defect of the radial equation at radius r.

    jet5 = (psi, psi', psi'', psi''', psi'''') in r-derivatives.  The raw
    defect is psi'''' minus

        6 psi'^2 psi'' + (2(d-1)/r) (psi'^3 - psi''')
        - ((d-1)/r^2) ((d - cos(2 psi) - 4) psi'' + sin(2 psi) psi'^2)
        + ((d-3)(d-1)/r^3) (cos(2 psi) + 2) psi'
        - (3 (d-3) (d-1) / (2 r^4)) sin(2 psi),

    divided by max(1, |psi''''|, |rhs|) so the value stays meaningful when the
    1/r^4 weights amplify floating-point cancellation near r = 0.  For
    moderate jets the scale factor is 1 and this is the plain difference;
    it is zero exactly when the jet satisfies the equation.
    """
    _check_dim(d)
    if not (isinstance(r, (int, float, np.floating)) and math.isfinite(r)):
        raise ValueError(f"radius must be a finite number, got {r!r}")
    if r <= 0:
        raise ValueError(f"radius must be positive, got {r}")
    p, dp, d2p, d3p, d4p = (float(t) for t in jet5)
    sin2 = math.sin(2.0 * p)
    cos2 = math.cos(2.0 * p)
    rhs = (
        6.0 * dp * dp * d2p
        + 2.0 * (d - 1) / r * (dp ** 3 - d3p)
        - (d - 1) / r ** 2 * ((d - cos2 - 4.0) * d2p + sin2 * dp * dp)
        + (d - 3) * (d - 1) / r ** 3 * (cos2 + 2.0) * dp
        - 1.5 * (d - 3) * (d - 1) / r ** 4 * sin2
    )
    scale = max(1.0, abs(d4p), abs(rhs))
    return (d4p - rhs) / scale
