"""Outward-rounded interval arithmetic for the certification engine.

Directed rounding modes are not portably controllable from Python, so every
elementary operation computes endpoint candidates in double precision and
then inflates the result by one step in each direction with `np.nextafter`.
Library endpoint evaluations (sin, cos) are inflated by two steps since
their rounding is not guaranteed correctly rounded by the platform.  The
resulting intervals are never tight to the last bit, which is fine:
soundness (the exact real result lies inside) is the contract, tightness
within a couple of ulps per operation is the quality target.

`Interval` holds intervals as float64 `lo` and `hi` arrays of one shape,
one interval per element ("lane"), so a whole frontier of branch-and-bound
boxes is evaluated with a few numpy calls per operation.  A single interval
is a 0-d lane; it broadcasts against lanes of any shape, and so do floats.
numpy's +, -, * and / are correctly rounded, so a lane's result depends on
that lane alone, whatever the shape; the tests check the same of numpy's sin
and cos loops.

`GradientArray` holds gradient lanes: the value of an interval function of
k variables on n lanes together with its k first partials, as (1 + k, n)
`lo` and `hi` arrays with row 0 the value.  Its operations compute row 0
with the very `Interval` operation a natural evaluation performs, and the
partial rows by the sum, product, quotient, power and chain rules in
interval arithmetic, so a generic form evaluated on it differentiates
itself.  `Interval` and float operands mix in as constants, and `Interval`
defers to it.  `certify` builds the mean-value form on it.

Transcendental constants are provided as two-endpoint enclosures: `pi_iv`
brackets pi (math.pi itself rounds down), `sqrt6_iv` brackets sqrt(6).
`INTERVAL` is the number-type context (see `core`) under which the
coefficient forms of `regions` evaluate on `Interval` and `GradientArray`
arguments alike, and `taylor.coefficients` on `Interval` jets.  Boxes are
ordered tuples of intervals, single or lanes for one box per lane;
bisection always splits the widest dimension at the floating-point
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
    "GradientArray",
    "Box",
    "pi_iv",
    "half_pi_iv",
    "eighth_pi_iv",
    "sqrt6_iv",
    "INTERVAL",
]

_INF = math.inf
_TWO_PI = 2.0 * math.pi
_min, _max, _all = np.minimum.reduce, np.maximum.reduce, np.logical_and.reduce


def _dn(x):
    return np.nextafter(x, -_INF)


def _up(x):
    return np.nextafter(x, _INF)


def _operand(x):
    """(lo, hi) of an interval or real operand; None for any other type."""
    if isinstance(x, Interval):
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


class Interval:
    """Intervals [lo[i], hi[i]] held as two float64 arrays of one shape.

    Each element is one lane; a single interval is a 0-d lane, and 0-d
    operands broadcast against lanes of any shape.  Every operation checks
    every result lane: finite, and lo <= hi.  A divisor with a lane
    containing 0 raises ZeroDivisionError.  There is no value `__eq__`:
    compare endpoints.
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

    @staticmethod
    def point(x) -> "Interval":
        return Interval(x, x)

    def __repr__(self) -> str:
        return f"Interval({self.lo.tolist()}, {self.hi.tolist()})"

    def __len__(self) -> int:
        return len(self.lo)

    def __getitem__(self, index) -> "Interval":
        """The lanes picked by a numpy index (a mask, index array or slice); an
        integer picks one lane as a single interval."""
        return Interval(self.lo[index], self.hi[index])

    # -- queries, lane by lane -------------------------------------------------

    @property
    def width(self):
        return self.hi - self.lo

    def midpoint(self):
        return np.minimum(np.maximum(0.5 * (self.lo + self.hi), self.lo), self.hi)

    def contains(self, x):
        return (self.lo <= x) & (x <= self.hi)

    def encloses(self, other: "Interval"):
        return (self.lo <= other.lo) & (other.hi <= self.hi)

    # -- arithmetic: one outward step per operation -----------------------------

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __add__(self, other) -> "Interval":
        o = _operand(other)
        if o is None:
            return NotImplemented
        return Interval(_dn(self.lo + o[0]), _up(self.hi + o[1]))

    __radd__ = __add__

    def __sub__(self, other) -> "Interval":
        o = _operand(other)
        if o is None:
            return NotImplemented
        return Interval(_dn(self.lo - o[1]), _up(self.hi - o[0]))

    def __rsub__(self, other) -> "Interval":
        o = _operand(other)
        if o is None:
            return NotImplemented
        return Interval(_dn(o[0] - self.hi), _up(o[1] - self.lo))

    def __mul__(self, other) -> "Interval":
        o = _operand(other)
        if o is None:
            return NotImplemented
        return _hull4(self.lo * o[0], self.lo * o[1], self.hi * o[0], self.hi * o[1])

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Interval":
        o = _operand(other)
        if o is None:
            return NotImplemented
        return _divide(self.lo, self.hi, o[0], o[1])

    def __rtruediv__(self, other) -> "Interval":
        o = _operand(other)
        if o is None:
            return NotImplemented
        return _divide(o[0], o[1], self.lo, self.hi)

    def power(self, n: int) -> "Interval":
        """x^n for integer n >= 0 by repeated multiplication, one outward step per product.

        Every product runs over nonnegative bases (negative ranges are
        reflected first), so each step's rounding direction stays meaningful.
        """
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"power expects a nonnegative integer, got {n!r}")
        if n == 0:
            return Interval(np.ones_like(self.lo), np.ones_like(self.hi))
        if n == 1:
            return self
        lo, hi = self.lo, self.hi
        pos = lo >= 0.0
        neg = ~pos & (hi <= 0.0)
        if n % 2 == 0:
            # [min |x|, max |x|]^n, with min |x| = 0 on lanes across zero
            r_lo = np.where(pos | neg, _pow(np.where(pos, lo, -hi), n, _dn), 0.0)
            r_hi = _pow(np.where(pos, hi, np.maximum(-lo, hi)), n, _up)
        else:
            r_lo = np.where(pos, _pow(lo, n, _dn), -_pow(-lo, n, _up))
            r_hi = np.where(neg, -_pow(-hi, n, _dn), _pow(hi, n, _up))
        return Interval(r_lo, r_hi)

    # -- trig: two outward steps, since libm sin and cos are not correctly rounded

    def sin(self) -> "Interval":
        return _trig(self, np.sin, max_offset=0.5 * math.pi, min_offset=1.5 * math.pi)

    def cos(self) -> "Interval":
        return _trig(self, np.cos, max_offset=0.0, min_offset=math.pi)


def _hull4(a, b, c, d) -> Interval:
    lo = np.minimum(np.minimum(a, b), np.minimum(c, d))
    hi = np.maximum(np.maximum(a, b), np.maximum(c, d))
    return Interval(_dn(lo), _up(hi))


def _divide(a_lo, a_hi, b_lo, b_hi) -> Interval:
    zero = (b_lo <= 0.0) & (b_hi >= 0.0)
    if np.any(zero):
        raise ZeroDivisionError(
            f"division by interval containing zero: {_first_lane(zero, b_lo, b_hi)}"
        )
    return _hull4(a_lo / b_lo, a_lo / b_hi, a_hi / b_lo, a_hi / b_hi)


def _pow(x, n: int, step):
    # x >= 0: products stay nonnegative, so each step keeps its bound
    r = x
    for _ in range(n - 1):
        r = step(r * x)
    return r


def _critical(lo, hi, offsets: tuple[float, ...]) -> list:
    """Per offset, the lanes that may hold offset + 2 pi k.

    Widened by a pad covering float-pi drift over |k| periods, so a true
    critical point near an endpoint is never missed (the pad can only
    loosen the enclosure).
    """
    pad = 1e-9 * np.maximum(np.maximum(1.0, np.abs(lo)), np.abs(hi))
    a, b = lo - pad, hi + pad
    return [np.ceil((a - off) / _TWO_PI) <= np.floor((b - off) / _TWO_PI) for off in offsets]


def _trig(x: Interval, fn, max_offset: float, min_offset: float) -> Interval:
    va, vb = fn(x.lo), fn(x.hi)
    lo = _dn(_dn(np.minimum(va, vb)))
    hi = _up(_up(np.maximum(va, vb)))
    at_max, at_min = _critical(x.lo, x.hi, (max_offset, min_offset))
    lo = np.where(at_min, -1.0, np.maximum(lo, -1.0))
    hi = np.where(at_max, 1.0, np.minimum(hi, 1.0))
    full = x.hi - x.lo >= _TWO_PI
    return Interval(np.where(full, -1.0, lo), np.where(full, 1.0, hi))


# ---------------------------------------------------------------------------
# Lanes of intervals with their first partials.


def _checked(lo, hi) -> Interval:
    """An `Interval` of endpoints that an earlier operation has checked."""
    x = object.__new__(Interval)
    x.lo, x.hi = lo, hi
    return x


class GradientArray:
    """n lanes of an interval function of k variables, with its first partials.

    `lo` and `hi` are (1 + k, n) float64 arrays.  Row 0 encloses the value
    on each lane's box and row 1 + i the partial derivative in variable i
    over the same box.  Every operation computes row 0 with exactly the
    `Interval` operation a natural evaluation performs, so row 0 is
    that evaluation bit for bit; the partial rows follow the sum, product,
    quotient, power and chain rules, each evaluated in outward-rounded
    interval arithmetic on the lane's box (forward-mode differentiation), so
    they enclose every partial derivative there.  `Interval` and float
    operands mix on either side as constants, with zero partials.  Indexing
    picks lanes, as `Interval`'s does.
    """

    __slots__ = ("lo", "hi")
    __array_ufunc__ = None  # numpy operands defer to the reflected operators

    def __init__(self, lo, hi) -> None:
        rows = Interval(lo, hi)  # the same finite and non-inverted check
        if rows.lo.ndim != 2:
            raise ValueError(f"expected (1 + k, n) rows, got shape {rows.lo.shape}")
        self.lo, self.hi = rows.lo, rows.hi

    @staticmethod
    def variable(x: Interval, i: int, k: int) -> "GradientArray":
        """The lanes x as variable i of k: partial 1 in variable i and 0 in the others."""
        lo = np.zeros((1 + k, len(x)))
        lo[1 + i] = 1.0
        hi = lo.copy()
        lo[0], hi[0] = x.lo, x.hi
        return GradientArray(lo, hi)

    @property
    def value(self) -> Interval:
        return _checked(self.lo[0], self.hi[0])

    @property
    def partials(self) -> Interval:
        return _checked(self.lo[1:], self.hi[1:])

    @property
    def _rows(self) -> Interval:
        """Value and partial rows as the lanes of one (1 + k, n) `Interval`."""
        return _checked(self.lo, self.hi)

    @staticmethod
    def _of(rows: Interval, value: Interval | None = None) -> "GradientArray":
        """The fresh rows of an operation, with row 0 replaced by `value` if given."""
        g = object.__new__(GradientArray)
        g.lo, g.hi = rows.lo, rows.hi
        if value is not None:
            g.lo[0], g.hi[0] = value.lo, value.hi
        return g

    @staticmethod
    def _join(value: Interval, partials: Interval) -> "GradientArray":
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
        """x^n for integer n >= 0: row 0 as `Interval.power`, partials n x^(n-1) x'."""
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
    return Interval(math.pi, math.nextafter(math.pi, _INF))


def half_pi_iv() -> Interval:
    p = pi_iv()
    # halving is exact in binary floating point
    return Interval(0.5 * p.lo, 0.5 * p.hi)


def eighth_pi_iv() -> Interval:
    p = pi_iv()
    return Interval(0.125 * p.lo, 0.125 * p.hi)


def sqrt6_iv() -> Interval:
    s = math.sqrt(6.0)
    return Interval(math.nextafter(s, -_INF), math.nextafter(s, _INF))


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


@dataclass(frozen=True, slots=True, eq=False)
class Box:
    """An ordered tuple of intervals, one per dimension.

    Equality and hashing are by identity, as for `Interval`: compare
    endpoints.
    """

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
