"""Taylor-series integration of the fourth-order flow in any number type.

The solution through a jet is expanded as phi(s0 + h) = sum_k c_k h^k.  The
coefficients follow from the field by automatic differentiation: sin(2 phi)
and cos(2 phi) obey the paired recurrences

    S_n = (1/n) sum_{j=1..n} j u_j C_{n-j},   C_n = -(1/n) sum_{j=1..n} j u_j S_{n-j}

with u = 2 phi, products are Cauchy sums, and c_{n+4} is the n-th
coefficient of phi'''' divided by (n+1)(n+2)(n+3)(n+4).  The step size comes
from the size of the last two coefficients and the order from the tolerance
(Jorba and Zou, Experimental Mathematics 14, 2005).

Arithmetic goes through a number-type context (see `core`) with `mpf`,
`sin`, `cos` and `fdot`: `core.FLOAT` in double precision, `mp_context` at any
precision, and `intervals.INTERVAL` for outward-rounded coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from . import core

__all__ = [
    "TaylorOrbit",
    "mp_context",
    "coefficients",
    "jet",
    "integrate",
]

# Jorba-Zou safety factor exp(-0.7 / (order - 1)) keeps the step inside the
# estimated radius of convergence.
_SAFETY = 0.7

#: Spacing of the samples an integration returns.
SAMPLE_STEP = 0.1


def mp_context(digits: int):
    """A private mpmath context working at `digits` significant digits.

    It adds `sqrt6` and `square` to mpmath's own attributes.  mpmath is
    imported here, not at module level, so double-precision runs never load it.
    """
    if not (isinstance(digits, int) and digits >= 16):
        raise ValueError(f"digits must be an integer >= 16, got {digits!r}")
    try:
        import mpmath
    except ImportError as err:
        raise ImportError(
            "extended precision needs mpmath; install the extra: "
            "pip install 'biwind[precision]'"
        ) from err
    ctx = mpmath.MPContext()
    ctx.dps = digits
    ctx.sqrt6 = ctx.sqrt(6)
    ctx.square = lambda x: x * x
    return ctx


@dataclass(frozen=True)
class TaylorOrbit:
    """Jets of one run at sample times s (floats), in the run's number type.

    `stopped` is true when the stop predicate ended the run before the span.
    """

    s: list[float]
    states: list[tuple]
    stopped: bool


def coefficients(d: int, x: Sequence, order: int, ctx=core.FLOAT) -> list:
    """Taylor coefficients c_0..c_order of phi about the jet x = (phi, phi', phi'', phi''').

    c_k = phi^(k)(s0) / k!, so 24 c_4 is the field's fourth derivative at x.
    """
    core._check_dim(d)
    if order < 4:
        raise ValueError(f"order must be at least 4, got {order}")
    phi, dphi, d2phi, d3phi = (ctx.mpf(t) for t in x)
    d1, k_q, c_f, gk, a4 = core._field_constants(d)
    c = [phi, dphi, d2phi / 2, d3phi / 6]
    sin2 = [ctx.sin(2 * phi)]
    cos2 = [ctx.cos(2 * phi)]
    du: list = []  # du[j-1] = j u_j with u = 2 phi
    v: list = []
    y: list = []
    w: list = []
    vv: list = []
    lin: list = []   # y + (d-4) v
    quad: list = []  # 6 y - (d-1) sin(2 phi) + 2 (d-4) v
    for n in range(order - 3):
        v.append((n + 1) * c[n + 1])
        y.append((n + 1) * (n + 2) * c[n + 2])
        w.append((n + 1) * (n + 2) * (n + 3) * c[n + 3])
        if n:
            du.append(2 * n * c[n])
            s_n = ctx.fdot(du, cos2[::-1]) / n
            cos2.append(-ctx.fdot(du, sin2[::-1]) / n)
            sin2.append(s_n)
        vv.append(ctx.fdot(v, v[::-1]))
        lin.append(y[n] + a4 * v[n])
        quad.append(6 * y[n] - d1 * sin2[n] + 2 * a4 * v[n])
        acc = (
            d1 * ctx.fdot(cos2, lin[::-1])
            + k_q * y[n]
            - c_f * sin2[n]
            + ctx.fdot(vv, quad[::-1])
            + a4 * gk * v[n]
            - 2 * a4 * w[n]
        )
        c.append(acc / ((n + 1) * (n + 2) * (n + 3) * (n + 4)))
    return c


def jet(c: Sequence, h, ctx=core.FLOAT) -> tuple:
    """(phi, phi', phi'', phi''') of the polynomial sum_k c_k h^k at h."""
    powers = [ctx.mpf(1)]
    for _ in range(len(c) - 1):
        powers.append(powers[-1] * h)
    out = []
    series = list(c)
    for _ in range(4):
        out.append(ctx.fdot(series, powers[: len(series)]))
        series = [k * series[k] for k in range(1, len(series))]
    return tuple(out)


def _step_size(c: Sequence, tol: float) -> float:
    """Largest h at which the last two terms of every jet component stay below tol."""
    order = len(c) - 1
    h = math.inf
    for i in range(4):
        for k in (order - 1, order):
            size = abs(float(c[k])) * math.perm(k, i)
            if size > 0.0:
                h = min(h, (tol / size) ** (1.0 / (k - i)))
    return h * math.exp(-_SAFETY / (order - 1))


def integrate(
    d: int,
    x0: Sequence,
    span: float,
    *,
    tol: float,
    ctx=core.FLOAT,
    stop: Callable[[tuple], bool] | None = None,
) -> TaylorOrbit:
    """Integrate the forward flow from x0 over [0, span].

    The local truncation error per step is held near tol * max(1, |x|) at
    order -ln(tol)/2 + 1, which balances work per step against step count.
    Samples fall at multiples of SAMPLE_STEP and at span; each is evaluated
    from the Taylor polynomial of the step that covers it.  A run ends early
    at the first sample where stop(state) is true.
    """
    core._check_dim(d)
    if not all(math.isfinite(t) for t in x0):
        raise ValueError(f"seed must be finite, got {tuple(x0)!r}")
    if not (span > 0.0 and math.isfinite(span)):
        raise ValueError(f"span must be positive and finite, got {span}")
    if not (0.0 < tol < 1.0):
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    order = max(8, math.ceil(-0.5 * math.log(tol)) + 1)
    n_samples = math.ceil(span / SAMPLE_STEP)
    times = [k * SAMPLE_STEP for k in range(n_samples) if k * SAMPLE_STEP < span]
    times.append(float(span))
    x = tuple(ctx.mpf(t) for t in x0)
    s = 0.0
    out_s: list[float] = [0.0]
    out_x: list[tuple] = [x]
    nxt = 1
    if stop is not None and stop(x):
        return TaylorOrbit(out_s, out_x, True)
    while nxt < len(times):
        c = coefficients(d, x, order, ctx)
        scale = max(1.0, max(abs(float(t)) for t in x))
        h = _step_size(c, tol * scale)
        s_new = span if h >= span - s else s + h
        if s_new == s:
            raise ArithmeticError(f"Taylor step size underflow at s={s!r}")
        while nxt < len(times) and times[nxt] <= s_new:
            xt = jet(c, ctx.mpf(times[nxt]) - ctx.mpf(s), ctx)
            out_s.append(times[nxt])
            out_x.append(xt)
            nxt += 1
            if stop is not None and stop(xt):
                return TaylorOrbit(out_s, out_x, True)
        x = jet(c, ctx.mpf(s_new) - ctx.mpf(s), ctx)
        s = s_new
    return TaylorOrbit(out_s, out_x, False)
