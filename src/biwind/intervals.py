"""Outward-rounded interval arithmetic for the certification engine.

Directed rounding modes are not portably controllable from Python, so every
elementary operation computes endpoint candidates in double precision and
then inflates the result by one step in each direction with
`math.nextafter`.  Library endpoint evaluations (sin, cos, sqrt) are inflated
by two steps since their rounding is not guaranteed correctly rounded by the
platform.  The resulting intervals are never tight to the last bit, which is
fine: soundness (the exact real result lies inside) is the contract,
tightness within a couple of ulps per operation is the quality target.

`IntervalArray` holds many intervals ("lanes") as float64 `lo` and `hi`
arrays, so a whole frontier of branch-and-bound boxes is evaluated with a few
numpy calls per operation.  It rounds exactly as `Interval` does: one
`np.nextafter` step per arithmetic operation, two for sin and cos, the same
critical-point test and the same finite and non-inverted checks, so lane i of
a result equals the `Interval` result on lane i of the operands bit for bit.
numpy's +, -, * and / are correctly rounded like Python's; `np.sin` and
`np.cos` matched `math.sin` and `math.cos` bit for bit on 3.4M points on
x86-64 Linux with numpy 2.4, and where a platform's two libraries differ the
two-step pad still covers either one.  `Interval` and float operands mix
freely on either side of an array: `Interval`'s operators return
NotImplemented for an array, so the array's reflected operator runs.  The
scalar `Interval` stays the reference implementation.

`GradientArray` holds gradient lanes: the value of an interval function of
k variables on n lanes together with its k first partials, as (1 + k, n)
`lo` and `hi` arrays with row 0 the value.  Its operations compute row 0
with the very `IntervalArray` operation a natural evaluation performs, and
the partial rows by the sum, product, quotient, power and chain rules in
interval arithmetic, so a generic form evaluated on it differentiates
itself.  `Interval`, float and `IntervalArray` operands mix in as
constants, and `IntervalArray` defers to it as it defers to `Interval`.
`certify` builds the mean-value form on it.

Transcendental constants are provided as two-endpoint enclosures: `pi_iv`
brackets pi (math.pi itself rounds down), `sqrt6_iv` brackets sqrt(6).
`INTERVAL` is the number-type context (see `core`) under which the
coefficient forms of `regions` evaluate on `Interval`, `IntervalArray` and
`GradientArray` arguments alike, and `taylor.coefficients` on `Interval`
jets.  Boxes are ordered tuples of intervals, or of lanes for one box per
lane; bisection always splits the widest dimension at the floating-point
midpoint.
"""

from __future__ import annotations

import functools
import math
import operator
import types
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Interval",
    "IntervalArray",
    "GradientArray",
    "Box",
    "pi_iv",
    "half_pi_iv",
    "eighth_pi_iv",
    "sqrt6_iv",
    "INTERVAL",
]

_INF = math.inf


def _dn(x: float) -> float:
    return math.nextafter(x, -_INF)


def _up(x: float) -> float:
    return math.nextafter(x, _INF)


def _dn2(x: float) -> float:
    return _dn(_dn(x))


def _up2(x: float) -> float:
    return _up(_up(x))


@dataclass(frozen=True, slots=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"interval endpoints must be finite, got [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            raise ValueError(f"inverted interval [{self.lo}, {self.hi}]")

    # -- construction -------------------------------------------------------

    @staticmethod
    def point(x: float) -> "Interval":
        return Interval(float(x), float(x))

    @staticmethod
    def _coerce(x) -> "Interval | None":
        """x as an interval, or None for a type the operators leave to the other operand."""
        if isinstance(x, Interval):
            return x
        if isinstance(x, (int, float)):
            return Interval.point(x)
        return None

    # -- queries -------------------------------------------------------------

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def midpoint(self) -> float:
        m = 0.5 * (self.lo + self.hi)
        return min(max(m, self.lo), self.hi)

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def encloses(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def hull(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    # -- arithmetic -----------------------------------------------------------

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __add__(self, other) -> "Interval":
        o = Interval._coerce(other)
        if o is None:
            return NotImplemented
        return Interval(_dn(self.lo + o.lo), _up(self.hi + o.hi))

    __radd__ = __add__

    def __sub__(self, other) -> "Interval":
        o = Interval._coerce(other)
        if o is None:
            return NotImplemented
        return Interval(_dn(self.lo - o.hi), _up(self.hi - o.lo))

    def __rsub__(self, other) -> "Interval":
        o = Interval._coerce(other)
        return NotImplemented if o is None else o - self

    def __mul__(self, other) -> "Interval":
        o = Interval._coerce(other)
        if o is None:
            return NotImplemented
        cands = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return Interval(_dn(min(cands)), _up(max(cands)))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Interval":
        o = Interval._coerce(other)
        if o is None:
            return NotImplemented
        if o.lo <= 0.0 <= o.hi:
            raise ZeroDivisionError(f"division by interval containing zero: [{o.lo}, {o.hi}]")
        cands = (self.lo / o.lo, self.lo / o.hi, self.hi / o.lo, self.hi / o.hi)
        return Interval(_dn(min(cands)), _up(max(cands)))

    def __rtruediv__(self, other) -> "Interval":
        o = Interval._coerce(other)
        return NotImplemented if o is None else o / self

    def power(self, n: int) -> "Interval":
        """x^n for integer n >= 0 by directed repeated multiplication.

        All endpoint products run over nonnegative bases (negative ranges are
        reflected first) so the per-step rounding direction stays meaningful.
        """
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"power expects a nonnegative integer, got {n!r}")
        if n == 0:
            return Interval(1.0, 1.0)
        if n == 1:
            return self
        even = n % 2 == 0
        if self.lo >= 0.0:
            return Interval(_pow_dn(self.lo, n), _pow_up(self.hi, n))
        if self.hi <= 0.0:
            t_lo, t_hi = _pow_dn(-self.hi, n), _pow_up(-self.lo, n)
            return Interval(t_lo, t_hi) if even else Interval(-t_hi, -t_lo)
        if even:
            return Interval(0.0, _pow_up(max(-self.lo, self.hi), n))
        return Interval(-_pow_up(-self.lo, n), _pow_up(self.hi, n))

    # -- trig ------------------------------------------------------------------

    def sin(self) -> "Interval":
        return _trig_range(self, math.sin, max_offset=0.5 * math.pi, min_offset=1.5 * math.pi)

    def cos(self) -> "Interval":
        return _trig_range(self, math.cos, max_offset=0.0, min_offset=math.pi)


def _pow_up(x: float, n: int) -> float:
    # x >= 0 required: products stay nonnegative, upward steps stay upper bounds
    r = x
    for _ in range(n - 1):
        r = _up(r * x)
    return r


def _pow_dn(x: float, n: int) -> float:
    r = x
    for _ in range(n - 1):
        r = _dn(r * x)
    return r


_TWO_PI = 2.0 * math.pi


def _has_critical_point(lo: float, hi: float, offset: float) -> bool:
    """Conservative test for offset + 2*pi*k inside [lo, hi].

    Widened by a pad covering float-pi drift over |k| periods, so a true
    critical point near the boundary is never missed (the enlargement can
    only loosen the enclosure).
    """
    pad = 1e-9 * max(1.0, abs(lo), abs(hi))
    kmin = math.ceil((lo - pad - offset) / _TWO_PI)
    kmax = math.floor((hi + pad - offset) / _TWO_PI)
    return kmin <= kmax


def _trig_range(iv: Interval, fn, max_offset: float, min_offset: float) -> Interval:
    if iv.width >= _TWO_PI:
        return Interval(-1.0, 1.0)
    va, vb = fn(iv.lo), fn(iv.hi)
    lo = _dn2(min(va, vb))
    hi = _up2(max(va, vb))
    if _has_critical_point(iv.lo, iv.hi, max_offset):
        hi = 1.0
    if _has_critical_point(iv.lo, iv.hi, min_offset):
        lo = -1.0
    return Interval(max(lo, -1.0), min(hi, 1.0))


# ---------------------------------------------------------------------------
# Lanes of intervals.


_min, _max, _all = np.minimum.reduce, np.maximum.reduce, np.logical_and.reduce


def _lanes_dn(x):
    return np.nextafter(x, -_INF)


def _lanes_up(x):
    return np.nextafter(x, _INF)


def _operand(x):
    """(lo, hi) of an interval, array or real operand; None for any other type."""
    if isinstance(x, (IntervalArray, Interval)):
        return x.lo, x.hi
    if isinstance(x, (int, float)):
        return float(x), float(x)
    return None


def _first_lane(mask, lo, hi) -> str:
    i = int(np.argmax(mask)) if np.ndim(mask) else 0
    a = np.broadcast_to(lo, np.shape(mask)).flat[i]
    b = np.broadcast_to(hi, np.shape(mask)).flat[i]
    where = f"lane {i}" if np.ndim(mask) < 2 else f"row {i // mask.shape[-1]}, lane {i % mask.shape[-1]}"
    return f"[{a}, {b}] in {where}"


class IntervalArray:
    """Intervals [lo[i], hi[i]] held as two float64 arrays of one shape.

    Every operation rounds lane by lane exactly as `Interval` does and checks
    every result lane as `Interval` checks its endpoints: finite and lo <= hi.
    A divisor with a lane containing 0 raises ZeroDivisionError.
    """

    __slots__ = ("lo", "hi")
    __array_ufunc__ = None  # numpy operands defer to the reflected operators

    def __init__(self, lo, hi) -> None:
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if lo.shape != hi.shape:
            raise ValueError(f"lo and hi shapes differ: {lo.shape} and {hi.shape}")
        # min of lo and max of hi are NaN or infinite exactly when some lane
        # is; the ufunc reductions skip the ndarray.min/max/all wrappers
        if lo.size and not (
            _min(lo, axis=None) > -_INF
            and _max(hi, axis=None) < _INF
            and _all(np.less_equal(lo, hi), axis=None)
        ):
            finite = np.isfinite(lo) & np.isfinite(hi)
            if not finite.all():
                raise ValueError(
                    f"interval endpoints must be finite, got {_first_lane(~finite, lo, hi)}"
                )
            raise ValueError(f"inverted interval {_first_lane(lo > hi, lo, hi)}")
        self.lo = lo
        self.hi = hi

    def __len__(self) -> int:
        return len(self.lo)

    def __getitem__(self, index) -> "IntervalArray":
        """The lanes picked by a numpy index (a mask, index array or slice)."""
        return IntervalArray(self.lo[index], self.hi[index])

    # -- arithmetic -----------------------------------------------------------

    def __neg__(self) -> "IntervalArray":
        return IntervalArray(-self.hi, -self.lo)

    def __add__(self, other) -> "IntervalArray":
        o = _operand(other)
        if o is None:
            return NotImplemented
        return IntervalArray(_lanes_dn(self.lo + o[0]), _lanes_up(self.hi + o[1]))

    __radd__ = __add__

    def __sub__(self, other) -> "IntervalArray":
        o = _operand(other)
        if o is None:
            return NotImplemented
        return IntervalArray(_lanes_dn(self.lo - o[1]), _lanes_up(self.hi - o[0]))

    def __rsub__(self, other) -> "IntervalArray":
        o = _operand(other)
        if o is None:
            return NotImplemented
        return IntervalArray(_lanes_dn(o[0] - self.hi), _lanes_up(o[1] - self.lo))

    def __mul__(self, other) -> "IntervalArray":
        o = _operand(other)
        if o is None:
            return NotImplemented
        return _hull4(self.lo * o[0], self.lo * o[1], self.hi * o[0], self.hi * o[1])

    __rmul__ = __mul__

    def __truediv__(self, other) -> "IntervalArray":
        o = _operand(other)
        if o is None:
            return NotImplemented
        return _divide(self.lo, self.hi, o[0], o[1])

    def __rtruediv__(self, other) -> "IntervalArray":
        o = _operand(other)
        if o is None:
            return NotImplemented
        return _divide(o[0], o[1], self.lo, self.hi)

    def power(self, n: int) -> "IntervalArray":
        """x^n for integer n >= 0, lane by lane as `Interval.power`."""
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"power expects a nonnegative integer, got {n!r}")
        if n == 0:
            return IntervalArray(np.ones_like(self.lo), np.ones_like(self.hi))
        if n == 1:
            return self
        lo, hi = self.lo, self.hi
        pos = lo >= 0.0
        neg = ~pos & (hi <= 0.0)
        if n % 2 == 0:
            # [min |x|, max |x|]^n, with min |x| = 0 on lanes across zero
            r_lo = np.where(pos | neg, _pow_lanes(np.where(pos, lo, -hi), n, _lanes_dn), 0.0)
            r_hi = _pow_lanes(np.where(pos, hi, np.maximum(-lo, hi)), n, _lanes_up)
        else:
            r_lo = np.where(pos, _pow_lanes(lo, n, _lanes_dn), -_pow_lanes(-lo, n, _lanes_up))
            r_hi = np.where(neg, -_pow_lanes(-hi, n, _lanes_dn), _pow_lanes(hi, n, _lanes_up))
        return IntervalArray(r_lo, r_hi)

    # -- trig ------------------------------------------------------------------

    def sin(self) -> "IntervalArray":
        return _trig_lanes(self, np.sin, max_offset=0.5 * math.pi, min_offset=1.5 * math.pi)

    def cos(self) -> "IntervalArray":
        return _trig_lanes(self, np.cos, max_offset=0.0, min_offset=math.pi)


def _hull4(a, b, c, d) -> IntervalArray:
    lo = np.minimum(np.minimum(a, b), np.minimum(c, d))
    hi = np.maximum(np.maximum(a, b), np.maximum(c, d))
    return IntervalArray(_lanes_dn(lo), _lanes_up(hi))


def _divide(a_lo, a_hi, b_lo, b_hi) -> IntervalArray:
    zero = (b_lo <= 0.0) & (b_hi >= 0.0)
    if np.any(zero):
        raise ZeroDivisionError(
            f"division by interval containing zero: {_first_lane(zero, b_lo, b_hi)}"
        )
    return _hull4(a_lo / b_lo, a_lo / b_hi, a_hi / b_lo, a_hi / b_hi)


def _pow_lanes(x, n: int, step):
    # the lane form of _pow_up / _pow_dn: one outward step per product
    r = x
    for _ in range(n - 1):
        r = step(r * x)
    return r


def _critical_lanes(lo, hi, offsets: tuple[float, ...]) -> list:
    """`_has_critical_point` lane by lane, once per offset."""
    pad = 1e-9 * np.maximum(np.maximum(1.0, np.abs(lo)), np.abs(hi))
    a, b = lo - pad, hi + pad
    return [np.ceil((a - off) / _TWO_PI) <= np.floor((b - off) / _TWO_PI) for off in offsets]


def _trig_lanes(x: IntervalArray, fn, max_offset: float, min_offset: float) -> IntervalArray:
    """`_trig_range` lane by lane."""
    va, vb = fn(x.lo), fn(x.hi)
    lo = _lanes_dn(_lanes_dn(np.minimum(va, vb)))
    hi = _lanes_up(_lanes_up(np.maximum(va, vb)))
    at_max, at_min = _critical_lanes(x.lo, x.hi, (max_offset, min_offset))
    lo = np.where(at_min, -1.0, np.maximum(lo, -1.0))
    hi = np.where(at_max, 1.0, np.minimum(hi, 1.0))
    full = x.hi - x.lo >= _TWO_PI
    return IntervalArray(np.where(full, -1.0, lo), np.where(full, 1.0, hi))


# ---------------------------------------------------------------------------
# Lanes of intervals with their first partials.


def _checked(lo, hi) -> IntervalArray:
    """An `IntervalArray` of endpoints that an earlier operation has checked."""
    x = object.__new__(IntervalArray)
    x.lo, x.hi = lo, hi
    return x


class GradientArray:
    """n lanes of an interval function of k variables, with its first partials.

    `lo` and `hi` are (1 + k, n) float64 arrays.  Row 0 encloses the value
    on each lane's box and row 1 + i the partial derivative in variable i
    over the same box.  Every operation computes row 0 with exactly the
    `IntervalArray` operation a natural evaluation performs, so row 0 is
    that evaluation bit for bit; the partial rows follow the sum, product,
    quotient, power and chain rules, each evaluated in outward-rounded
    interval arithmetic on the lane's box (forward-mode differentiation), so
    they enclose every partial derivative there.  `Interval`, float and
    `IntervalArray` operands mix on either side as constants, with zero
    partials.  Indexing picks lanes, as `IntervalArray`'s does.
    """

    __slots__ = ("lo", "hi")
    __array_ufunc__ = None  # numpy operands defer to the reflected operators

    def __init__(self, lo, hi) -> None:
        rows = IntervalArray(lo, hi)  # the same finite and non-inverted check
        if rows.lo.ndim != 2:
            raise ValueError(f"expected (1 + k, n) rows, got shape {rows.lo.shape}")
        self.lo, self.hi = rows.lo, rows.hi

    @staticmethod
    def variable(x: IntervalArray, i: int, k: int) -> "GradientArray":
        """The lanes x as variable i of k: partial 1 in variable i and 0 in the others."""
        lo = np.zeros((1 + k, len(x)))
        lo[1 + i] = 1.0
        hi = lo.copy()
        lo[0], hi[0] = x.lo, x.hi
        return GradientArray(lo, hi)

    @property
    def value(self) -> IntervalArray:
        return _checked(self.lo[0], self.hi[0])

    @property
    def partials(self) -> IntervalArray:
        return _checked(self.lo[1:], self.hi[1:])

    @property
    def _rows(self) -> IntervalArray:
        """Value and partial rows as the lanes of one (1 + k, n) `IntervalArray`."""
        return _checked(self.lo, self.hi)

    @staticmethod
    def _of(rows: IntervalArray, value: IntervalArray | None = None) -> "GradientArray":
        """The fresh rows of an operation, with row 0 replaced by `value` if given."""
        g = object.__new__(GradientArray)
        g.lo, g.hi = rows.lo, rows.hi
        if value is not None:
            g.lo[0], g.hi[0] = value.lo, value.hi
        return g

    @staticmethod
    def _join(value: IntervalArray, partials: IntervalArray) -> "GradientArray":
        lo, hi = np.vstack((value.lo, partials.lo)), np.vstack((value.hi, partials.hi))
        return GradientArray._of(_checked(lo, hi))

    def __len__(self) -> int:
        return self.lo.shape[1]

    def __getitem__(self, index) -> "GradientArray":
        """The lanes picked by a numpy index (a mask, index array or slice)."""
        return GradientArray(self.lo[:, index], self.hi[:, index])

    # -- arithmetic -----------------------------------------------------------
    # Where a rule treats the value and the partials alike (a sum of gradient
    # lanes, a product with a constant), it runs on all rows as one operation.

    def __neg__(self) -> "GradientArray":
        return GradientArray._of(-self._rows)

    def __add__(self, other) -> "GradientArray":
        if isinstance(other, GradientArray):
            return GradientArray._of(self._rows + other._rows)
        if _operand(other) is None:
            return NotImplemented
        return GradientArray._join(self.value + other, self.partials)

    __radd__ = __add__

    def __sub__(self, other) -> "GradientArray":
        if isinstance(other, GradientArray):
            return GradientArray._of(self._rows - other._rows)
        if _operand(other) is None:
            return NotImplemented
        return GradientArray._join(self.value - other, self.partials)

    def __rsub__(self, other) -> "GradientArray":
        if _operand(other) is None:
            return NotImplemented
        return GradientArray._of(-self._rows, other - self.value)

    def __mul__(self, other) -> "GradientArray":
        if isinstance(other, GradientArray):
            u, v = self.value, other.value
            return GradientArray._join(u * v, self.partials * v + u * other.partials)
        if _operand(other) is None:
            return NotImplemented
        return GradientArray._of(self._rows * other)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GradientArray":
        if isinstance(other, GradientArray):
            v = other.value
            q = self.value / v
            # (u / v)' = (u' - (u / v) v') / v, with u / v enclosed by q
            return GradientArray._join(q, (self.partials - q * other.partials) / v)
        if _operand(other) is None:
            return NotImplemented
        return GradientArray._of(self._rows / other)

    def __rtruediv__(self, other) -> "GradientArray":
        if _operand(other) is None:
            return NotImplemented
        v = self.value
        q = other / v
        return GradientArray._join(q, -(q * self.partials) / v)

    def power(self, n: int) -> "GradientArray":
        """x^n for integer n >= 0: row 0 as `IntervalArray.power`, partials n x^(n-1) x'."""
        value = self.value.power(n)
        if n == 0:
            return GradientArray._join(value, self.partials * 0.0)
        return GradientArray._join(value, self.value.power(n - 1) * float(n) * self.partials)

    # -- trig ------------------------------------------------------------------

    def sin(self) -> "GradientArray":
        x = self.value
        return GradientArray._join(x.sin(), x.cos() * self.partials)

    def cos(self) -> "GradientArray":
        x = self.value
        return GradientArray._join(x.cos(), -x.sin() * self.partials)


# ---------------------------------------------------------------------------
# Constants.


def pi_iv() -> Interval:
    # math.pi rounds the true value down
    return Interval(math.pi, _up(math.pi))


def half_pi_iv() -> Interval:
    p = pi_iv()
    # halving is exact in binary floating point
    return Interval(0.5 * p.lo, 0.5 * p.hi)


def eighth_pi_iv() -> Interval:
    p = pi_iv()
    return Interval(0.125 * p.lo, 0.125 * p.hi)


def sqrt6_iv() -> Interval:
    s = math.sqrt(6.0)
    return Interval(_dn(s), _up(s))


INTERVAL = types.SimpleNamespace(
    mpf=Interval.point,
    sin=operator.methodcaller("sin"),
    cos=operator.methodcaller("cos"),
    sqrt6=sqrt6_iv(),
    square=operator.methodcaller("power", 2),
    fdot=lambda a, b: functools.reduce(operator.add, map(operator.mul, a, b)),
)


# ---------------------------------------------------------------------------
# Boxes.


@dataclass(frozen=True, slots=True)
class Box:
    dims: tuple[Interval, ...]

    def __post_init__(self) -> None:
        if not self.dims:
            raise ValueError("box needs at least one dimension")
        object.__setattr__(self, "dims", tuple(self.dims))

    @staticmethod
    def from_bounds(bounds: Iterable[tuple[float, float]]) -> "Box":
        return Box(tuple(Interval(a, b) for a, b in bounds))

    @property
    def widths(self) -> tuple[float, ...]:
        return tuple(iv.width for iv in self.dims)

    def widest_dim(self) -> int:
        ws = self.widths
        return max(range(len(ws)), key=lambda i: (ws[i], -i))

    def max_width(self) -> float:
        return max(self.widths)

    def center(self) -> tuple[float, ...]:
        return tuple(iv.midpoint() for iv in self.dims)

    def contains(self, point: Sequence[float]) -> bool:
        return len(point) == len(self.dims) and all(
            iv.contains(x) for iv, x in zip(self.dims, point)
        )

    def encloses(self, other: "Box") -> bool:
        return len(other.dims) == len(self.dims) and all(
            a.encloses(b) for a, b in zip(self.dims, other.dims)
        )

    def bisect(self) -> tuple["Box", "Box"]:
        """Split the widest dimension at its floating-point midpoint."""
        k = self.widest_dim()
        iv = self.dims[k]
        m = iv.midpoint()
        if not (iv.lo < m < iv.hi):
            raise ValueError(f"dimension {k} too thin to bisect: [{iv.lo}, {iv.hi}]")
        left = self.dims[:k] + (Interval(iv.lo, m),) + self.dims[k + 1:]
        right = self.dims[:k] + (Interval(m, iv.hi),) + self.dims[k + 1:]
        return Box(left), Box(right)
