"""Radial pullback, blowup diagnostics, and the winding profile (d = 5).

The arclength variable is the logarithm of the radius: a trajectory sample
at s becomes a radial sample at r = e^{s - shift}, and the r-derivatives of
psi follow from the chain rule.  Orbits that leave the trapping region blow
up in finite arclength; shifting so the blowup lands at r = 1 produces a
profile on (0, 1] that winds past successive multiples of pi on the way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import config, core, integrate, manifold, regions

__all__ = [
    "RadialProfile",
    "BlowupDiagnostics",
    "WindingReport",
    "SeedPolicy",
    "WindingError",
    "to_radial",
    "laplacian_components",
    "blowup_diagnostics",
    "build_winding_profile",
    "write_profile_csv",
]


class WindingError(RuntimeError):
    """The selected seed failed to blow up within the allotted span."""


@dataclass(frozen=True)
class RadialProfile:
    """Radial jet samples (r, psi, psi', ..., psi'''') with r increasing.

    psi0 is the limit value at r = 0 (always 0 for profiles pulled back
    from trajectories that emanate from the origin equilibrium); meta
    records where the samples came from.
    """

    r: np.ndarray
    psi: np.ndarray
    dpsi: np.ndarray
    d2psi: np.ndarray
    d3psi: np.ndarray
    d4psi: np.ndarray
    psi0: float = 0.0
    meta: str = ""

    def __post_init__(self) -> None:
        n = len(self.r)
        for name in ("psi", "dpsi", "d2psi", "d3psi", "d4psi"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"component {name} has length != {n}")
        if n == 0:
            raise ValueError("profile needs at least one sample")
        if float(self.r[0]) <= 0.0:
            raise ValueError(f"radii must be positive, smallest is {self.r[0]}")
        if not np.all(np.diff(self.r) > 0.0):
            raise ValueError("radii must be strictly increasing")

    def origin_gap(self) -> float:
        """|psi - psi0| at the smallest sampled radius."""
        return abs(float(self.psi[0]) - self.psi0)


@dataclass(frozen=True)
class BlowupDiagnostics:
    """Rescaled variables on the terminal segment where phi''' > 0.

    lam = (phi''')^(1/3); v1 = phi'/lam; v2 = phi''/lam^2; zeta is the
    centered finite difference of -1/lam, which tends to a positive limit,
    so 1/lam against s is asymptotically affine and its root estimates the
    blowup arclength s_f.  r_squared reports the fit quality over the final
    decade of lam growth.
    """

    s: np.ndarray
    lam: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    zeta: np.ndarray
    s_f_estimate: float
    r_squared: float


@dataclass(frozen=True, slots=True)
class WindingReport:
    """Multiples of pi passed by psi before the run terminated."""

    s_f_estimate: float
    crossings: tuple[float, ...]
    winding_count: int
    eps0: float
    theta: float

    def to_json_dict(self) -> dict:
        return {
            "s_f_estimate": self.s_f_estimate,
            "crossings": list(self.crossings),
            "winding_count": self.winding_count,
            "seed": {"eps0": self.eps0, "theta": self.theta},
        }


@dataclass(frozen=True, slots=True)
class SeedPolicy:
    """Where to start the winding orbit: theta0(eps0) + theta_offset.

    A positive offset puts the seed's (phi, phi'') strictly above the
    boundary arc, outside the doubled trapping region, which forces finite
    arclength blowup.
    """

    eps0: float = config.WIND_EPS0
    theta_offset: float = config.WIND_THETA_OFFSET

    def __post_init__(self) -> None:
        manifold._check_eps0(self.eps0)
        if isinstance(self.theta_offset, bool) or not 0.0 < self.theta_offset < math.inf:
            raise ValueError(f"theta_offset must be positive, got {self.theta_offset}")


def to_radial(traj: integrate.Trajectory, shift: float | None = None) -> RadialProfile:
    """Pull a trajectory back to radii r = e^{s - shift}, r <= 1.

    The default shift is the terminal arclength, so the last sample lands
    at r = 1.  Samples with s > shift have r > 1 and are dropped; if none
    remain the overlap is empty and the call is rejected.
    """
    s = np.asarray(traj.s, dtype=float)
    if shift is None:
        shift = float(s[-1])
    if not math.isfinite(shift):
        raise ValueError(f"shift must be finite, got {shift}")
    keep = s <= shift
    if not bool(keep.any()):
        raise ValueError(
            f"no samples at s <= shift: trajectory starts at s={s[0]:.6g}, shift={shift:.6g}"
        )
    s = s[keep]
    states = np.asarray(traj.states, dtype=float)[keep]
    r = np.exp(s - shift)
    phi, dphi, d2phi, d3phi = states.T
    d4phi = core._make_rhs(traj.d, ctx=core.NUMPY)(0.0, states.T)[3]
    return RadialProfile(
        r=r,
        psi=phi.copy(),
        dpsi=dphi / r,
        d2psi=(d2phi - dphi) / r**2,
        d3psi=(d3phi - 3.0 * d2phi + 2.0 * dphi) / r**3,
        d4psi=(d4phi - 6.0 * d3phi + 11.0 * d2phi - 6.0 * dphi) / r**4,
        psi0=0.0,
        meta=f"trajectory d={traj.d} shift={shift!r}",
    )


def laplacian_components(d: int, prof: RadialProfile, r: float) -> tuple[float, float]:
    """(L0 sin(psi), L1 cos(psi)) at radius r, interpolating the samples.

    L0 f = f'' + ((d-1)/r) f' - ((d-1)/r^2) f and L1 drops the zeroth-order
    term; these are the two components of the Laplacian of the equivariant
    map built from psi.
    """
    if not (prof.r[0] <= r <= prof.r[-1]):
        raise ValueError(
            f"radius {r!r} outside the sampled range [{prof.r[0]!r}, {prof.r[-1]!r}]"
        )
    psi = float(np.interp(r, prof.r, prof.psi))
    dpsi = float(np.interp(r, prof.r, prof.dpsi))
    d2psi = float(np.interp(r, prof.r, prof.d2psi))
    return _laplacian_at(d, r, psi, dpsi, d2psi)


def _laplacian_at(d: int, r: float, psi: float, dpsi: float, d2psi: float) -> tuple[float, float]:
    """`laplacian_components` from the jet (psi, psi', psi'') at radius r."""
    if d not in (5, 6, 7):
        raise ValueError(f"laplacian_components requires d in {{5, 6, 7}}, got d={d}")
    sin_p, cos_p = math.sin(psi), math.cos(psi)
    f0_p = cos_p * dpsi
    f0_pp = -sin_p * dpsi * dpsi + cos_p * d2psi
    f1_p = -sin_p * dpsi
    f1_pp = -cos_p * dpsi * dpsi - sin_p * d2psi
    c = (d - 1.0) / r
    l0 = f0_pp + c * f0_p - (c / r) * sin_p
    l1 = f1_pp + c * f1_p
    return l0, l1


def blowup_diagnostics(traj: integrate.Trajectory) -> BlowupDiagnostics:
    """Rescale the terminal phi''' > 0 segment and fit the blowup time.

    zeta is computed by centered finite differences of 1/lam on the stored
    grid (second-order accurate on nonuniform spacing) rather than from the
    differential equation, so it cross-checks the transcription instead of
    restating it.  The affine fit of 1/lam runs over the final decade of
    lam growth and s_f is where the fit line hits zero.
    """
    s = np.asarray(traj.s, dtype=float)
    d3 = np.asarray(traj.states, dtype=float)[:, 3]
    positive = d3 > 0.0
    if not bool(positive[-1]):
        raise ValueError("trajectory does not end with phi''' > 0")
    start = int(np.argmin(positive[::-1]))
    start = len(s) - start if start > 0 else 0
    if len(s) - start < 8:
        raise ValueError("terminal phi''' > 0 segment has too few samples to fit")
    seg = slice(start, len(s))
    lam = d3[seg] ** (1.0 / 3.0)
    v1 = np.asarray(traj.states, dtype=float)[seg, 1] / lam
    v2 = np.asarray(traj.states, dtype=float)[seg, 2] / lam**2
    inv = 1.0 / lam
    zeta = -np.gradient(inv, s[seg])
    tail = lam >= lam[-1] / 10.0
    a, b = np.polyfit(s[seg][tail], inv[tail], 1)
    fit = a * s[seg][tail] + b
    ss_res = float(np.sum((inv[tail] - fit) ** 2))
    ss_tot = float(np.sum((inv[tail] - inv[tail].mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    s_f = float(-b / a) if a != 0.0 else float("inf")
    return BlowupDiagnostics(
        s=s[seg], lam=lam, v1=v1, v2=v2, zeta=zeta,
        s_f_estimate=s_f, r_squared=r_squared,
    )


def _pi_crossings(traj: integrate.Trajectory) -> list[float]:
    """Arclengths of the first upward crossing of each successive k pi."""
    s = np.asarray(traj.s, dtype=float)
    phi = np.asarray(traj.states, dtype=float)[:, 0]
    crossings: list[float] = []
    k = 1
    for i in range(len(s) - 1):
        while phi[i] < k * math.pi <= phi[i + 1]:
            level = k * math.pi
            lo, hi = integrate.bisect(
                lambda t: integrate.sample_at(traj, t).phi >= level,
                float(s[i]), float(s[i + 1]),
            )
            crossings.append(0.5 * (lo + hi))
            k += 1
    return crossings


def build_winding_profile(
    cfg: integrate.IntegrationConfig | None = None,
    seed_policy: SeedPolicy | None = None,
) -> tuple[integrate.Trajectory, RadialProfile, WindingReport]:
    """Integrate a seed beyond theta0 to blowup and pull it back to (0, 1].

    The seed must start outside the doubled trapping region on the
    (phi, phi'') chart.  A run that blows down (phi -> -infinity) is
    restarted from the reflected seed so the profile winds upward.
    """
    cfg = cfg or integrate.IntegrationConfig()
    policy = seed_policy or SeedPolicy()
    theta = manifold.theta0(policy.eps0) + policy.theta_offset
    spec = manifold.SeedSpec(policy.eps0, theta)
    x0 = manifold.seed_state(spec)
    in_c = regions.in_region_C(x0.phi, x0.d2phi)
    in_m = regions.in_minus_C(x0.phi, x0.d2phi)
    if regions.Membership.INSIDE in (in_c, in_m):
        raise ValueError(
            f"seed at theta={theta:.6g} lies inside the doubled trapping region"
        )
    traj = integrate.integrate(manifold.D, x0, cfg=cfg)
    if traj.termination.kind is not integrate.TerminationKind.BLOWUP_DETECTED:
        raise WindingError(
            f"seed did not blow up within span {cfg.max_span}: "
            f"terminated by {traj.termination.kind.value}"
        )
    if traj.state_at_end().d2phi < 0.0:
        traj = integrate.integrate(manifold.D, -x0.as_array(), cfg=cfg)
        if traj.termination.kind is not integrate.TerminationKind.BLOWUP_DETECTED:
            raise WindingError("reflected seed did not blow up within the span")
    prof = to_radial(traj)
    diag = blowup_diagnostics(traj)
    crossings = _pi_crossings(traj)
    report = WindingReport(
        s_f_estimate=diag.s_f_estimate,
        crossings=tuple(crossings),
        winding_count=len(crossings),
        eps0=policy.eps0,
        theta=theta,
    )
    return traj, prof, report


def write_profile_csv(prof: RadialProfile, d: int, path: str) -> None:
    """One row per radius: the radial jet plus both Laplacian components from its own samples."""
    jets = np.column_stack((prof.r, prof.psi, prof.dpsi, prof.d2psi)).tolist()
    integrate.write_rows(
        path,
        ["r", "psi", "dpsi", "d2psi", "L0f0", "L1f1"],
        ([*jet, *_laplacian_at(d, *jet)] for jet in jets),
    )
