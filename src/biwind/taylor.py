"""Taylor coefficients of the fourth-order flow in any number type.

The solution through a jet is expanded as phi(s0 + h) = sum_k c_k h^k.  The
coefficients follow from the field by automatic differentiation: sin(2 phi)
and cos(2 phi) obey the paired recurrences

    S_n = (1/n) sum_{j=1..n} j u_j C_{n-j},   C_n = -(1/n) sum_{j=1..n} j u_j S_{n-j}

with u = 2 phi, products are Cauchy sums, and c_{n+4} is the n-th
coefficient of phi'''' divided by (n+1)(n+2)(n+3)(n+4) (Jorba and Zou,
Experimental Mathematics 14, 2005).  No command integrates with them: they
are the recurrences that a validated Taylor step and a high-order chart of
the origin's unstable manifold build on.

Arithmetic goes through a number-type context (see `core`) with `mpf`,
`sin`, `cos` and `fdot`: `core.FLOAT` in double precision, `mp_context` at any
precision, and `intervals.INTERVAL` for outward-rounded coefficients.
"""

from __future__ import annotations

from typing import Sequence

from . import core

__all__ = [
    "mp_context",
    "coefficients",
    "jet",
]


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
