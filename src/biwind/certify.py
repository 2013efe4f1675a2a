"""Certified positivity of the tangent-frame and cone forcing coefficients.

Every computer-assisted inequality behind the d = 5 heteroclinic argument is
re-proved here with outward-rounded interval arithmetic.  The coefficients
themselves are not written here: they are the generic forms of `regions`
(`coeff_a`, `coeff_c0`, ..., `phi_of_z`), evaluated under
`intervals.INTERVAL` on interval boxes and under the exact-series context
`_SERIES` on polynomials (contexts are described in `core`).  This module holds

* a branch-and-bound engine (`prove_lower_bound`) that bisects the widest
  box dimension, discharges a box once the interval evaluation clears the
  bound, fails with a witness when a center point definitely violates it,
  and gives up at a minimum width otherwise.  It runs breadth first and
  evaluates each level of the tree as one batch: the coefficient functions
  take a box whose dimensions are `IntervalArray` lanes, one per box of the
  level, followed by point lanes for the centers of the previous level's
  undischarged boxes, so each level costs one call of f;
* two-term Taylor-with-remainder enclosures of the cubic and linear
  coefficients near the origin (`taylor_enclose_P_coeff`): `coeff_c0` and
  `coeff_c2` evaluated on polynomials with theta-remainders in exact
  rational arithmetic over Q[sqrt 6], and only rounded outward at the end;
* a divide-and-conquer sublevel-set bounding box on the dyadic grid
  (`enclose_sublevel`), whose grid points are rounded outward in integer
  arithmetic (`_grid`), bit for bit as over `Fraction`s;
* the nine named certificates V1-V9, serialized as JSON.  Each certificate
  is one entry of the `_TASKS` table: its coordinate system, target,
  default `min_width`, and the ordered (region, check) parts that prove it.
  `run_task` runs every part's check on its region and merges the outcomes.

Determinism comes from the structure: the search runs serially, with no
threads, one breadth-first level at a time, and every level holds its boxes
in canonical order (the children of box j are boxes 2j and 2j + 1 of the
next level).  Each lane is rounded exactly as the scalar `Interval` would
round it, so the set of boxes, the depth and the first FAILED or
INCONCLUSIVE witness in that order are fixed by the problem alone.
`run_task` accepts a `workers` argument and ignores it, so certificates are
bit-identical for any worker count (wall-clock time aside).
"""

from __future__ import annotations

import enum
import functools
import json
import math
import time
import types
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from . import config
from .intervals import INTERVAL, Box, Interval, IntervalArray, eighth_pi_iv, half_pi_iv, pi_iv
from .regions import coeff_a, coeff_c0, coeff_c1, coeff_c2, coeff_q0, phi_of_z

__all__ = [
    "Status",
    "BnbOutcome",
    "Certificate",
    "prove_lower_bound",
    "taylor_enclose_P_coeff",
    "enclose_sublevel",
    "SublevelEnclosure",
    "run_task",
    "TASK_IDS",
    "ROUNDING_MODE",
    "c0_iv",
    "c1_iv",
    "c2_iv",
]

ROUNDING_MODE = "nextafter-outward"


# ---------------------------------------------------------------------------
# The coefficient forms of `regions` on intervals, in the (phi0, phi) chart.


def c0_iv(phi0: Interval, phi: Interval) -> Interval:
    return coeff_c0(phi0, phi, INTERVAL)


def c1_iv(phi0: Interval, phi: Interval) -> Interval:
    return coeff_c1(phi0, phi, INTERVAL)


def c2_iv(phi0: Interval, phi: Interval) -> Interval:
    return coeff_c2(phi0, phi, INTERVAL)


# ---------------------------------------------------------------------------
# Branch and bound.


class Status(enum.Enum):
    PROVED = "proved"
    FAILED = "failed"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class BnbOutcome:
    status: Status
    witness: Box | None
    boxes_examined: int
    max_depth: int
    level_boxes: tuple[int, ...] = ()  # boxes examined at each breadth-first level
    level_seconds: tuple[float, ...] = ()  # wall time of each breadth-first level


def _lanes_box(lo: np.ndarray, hi: np.ndarray) -> Box:
    """The frontier whose dimension i spans [lo[i], hi[i]], as one box of lanes."""
    return Box(tuple(IntervalArray(a, b) for a, b in zip(lo, hi)))


def _lane(lo: np.ndarray, hi: np.ndarray, j: int) -> Box:
    return Box(tuple(Interval(float(a[j]), float(b[j])) for a, b in zip(lo, hi)))


def _lane_bounds(val, n: int) -> tuple[np.ndarray, np.ndarray]:
    """lo and hi of an evaluation on n lanes; a scalar `Interval` covers every lane."""
    return np.broadcast_to(val.lo, (n,)), np.broadcast_to(val.hi, (n,))


def _midpoints(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """`Interval.midpoint` lane by lane."""
    m = 0.5 * (lo + hi)
    m = np.where(lo > m, lo, m)
    return np.where(hi < m, hi, m)


def _bisect_lanes(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`Box.bisect` on every lane; lane j's halves become lanes 2j and 2j + 1."""
    k = np.argmax(hi - lo, axis=0)  # the first widest dimension, as Box.widest_dim
    j = np.arange(lo.shape[1])
    a, b = lo[k, j], hi[k, j]
    m = _midpoints(a, b)
    thin = ~((a < m) & (m < b))
    if thin.any():
        t = int(np.argmax(thin))
        raise ValueError(f"dimension {k[t]} too thin to bisect: [{a[t]}, {b[t]}]")
    lo2 = np.repeat(lo, 2, axis=1)
    hi2 = np.repeat(hi, 2, axis=1)
    hi2[k, 2 * j] = m
    lo2[k, 2 * j + 1] = m
    return lo2, hi2


def prove_lower_bound(
    f: Callable[[Box], Interval],
    box: Box,
    bound: float,
    min_width: float,
    strict: bool = False,
) -> BnbOutcome:
    """Certify f >= bound (or > bound when strict) on the box.

    The tree is searched breadth first, in canonical order (the children of
    box j are 2j and 2j + 1).  A box is discharged when its evaluation
    clears the bound; otherwise f at its center decides failure, and a box
    narrower than min_width is given up as inconclusive.  The first failing
    box in that order is the FAILED witness and the first given-up box the
    INCONCLUSIVE one.

    Each level is one call of f on a box whose dimensions are
    `IntervalArray` lanes: one lane per box of the level, followed by one
    point lane per center of the previous level's live boxes.  The centers
    are judged first, so the outcome is that of testing every level's
    centers before the next level is formed; one last call carries the
    deepest level's centers alone.  If a level's call or its bisection
    raises, the pending centers are judged in a call of their own first,
    so a failing center still comes before the error.  `level_seconds`
    holds the wall time of each level's call, filtering and bisection; the
    last call's time goes to the deepest level.
    """
    if isinstance(min_width, bool) or not 0.0 < min_width < math.inf:
        raise ValueError(f"min_width must be positive and finite, got {min_width}")
    below = (lambda v: v <= bound) if strict else (lambda v: v < bound)
    lo = np.array([[iv.lo] for iv in box.dims])
    hi = np.array([[iv.hi] for iv in box.dims])
    # the previous level's live boxes, whose centers are not yet judged, and
    # their indices in that level
    p_lo, p_hi, p_idx = lo[:, :0], hi[:, :0], np.arange(0)
    levels: list[int] = []
    seconds: list[float] = []
    inconclusive: Box | None = None
    error: ArithmeticError | ValueError | None = None
    clock = time.perf_counter()
    while lo.shape[1] or p_idx.size:
        n = lo.shape[1]
        mid = _midpoints(p_lo, p_hi)
        try:
            val = f(_lanes_box(np.hstack((lo, mid)), np.hstack((hi, mid))))
        except (ArithmeticError, ValueError) as exc:  # what interval evaluation raises
            if not (n and p_idx.size):
                raise
            error, lo, hi = exc, lo[:, :0], hi[:, :0]
            continue
        v_lo, v_hi = _lane_bounds(val, n + p_idx.size)
        fails = below(v_hi[n:])
        if fails.any():
            j = int(np.argmax(fails))
            levels[-1] = int(p_idx[j]) + 1
            seconds[-1] += time.perf_counter() - clock
            return BnbOutcome(
                Status.FAILED, _lane(p_lo, p_hi, j), sum(levels), len(levels) - 1, tuple(levels),
                tuple(seconds),
            )
        if error is not None:
            raise error
        if not n:
            break
        live = np.flatnonzero(below(v_lo[:n]))
        lo, hi, p_idx = lo[:, live], hi[:, live], live
        p_lo, p_hi = lo, hi
        levels.append(n)
        narrow = (hi - lo).max(axis=0) < min_width
        if narrow.any():
            if inconclusive is None:
                inconclusive = _lane(lo, hi, int(np.argmax(narrow)))
            lo, hi = lo[:, ~narrow], hi[:, ~narrow]
        try:
            lo, hi = _bisect_lanes(lo, hi)
        except ValueError as exc:
            error, lo, hi = exc, lo[:, :0], hi[:, :0]
        now = time.perf_counter()
        seconds.append(now - clock)
        clock = now
    if seconds:
        seconds[-1] += time.perf_counter() - clock
    status = Status.PROVED if inconclusive is None else Status.INCONCLUSIVE
    return BnbOutcome(status, inconclusive, sum(levels), len(levels) - 1, tuple(levels), tuple(seconds))


# ---------------------------------------------------------------------------
# Exact two-term Taylor enclosures over Q[sqrt 6].
#
# Numbers are pairs (a, b) of Fractions meaning a + b sqrt(6).  Polynomials
# in (phi0, phi) are dicts {(j, k): pair}; remainder mass lives in a separate
# list of (j, k, M) monomials meaning theta * M * phi0^j phi^k with theta in
# [-1, 1] (M a nonnegative Fraction).  The series of c0 and c2 are the
# `regions` forms evaluated on these polynomials.  All arithmetic is exact;
# rounding happens once, at the final conversion to float intervals.

_SQRT6_LO = Fraction(24494, 10**4)
_SQRT6_HI = Fraction(24495, 10**4)

_Pair = tuple[Fraction, Fraction]


def _pair_bounds(c: _Pair) -> tuple[Fraction, Fraction]:
    a, b = c
    if b >= 0:
        return a + b * _SQRT6_LO, a + b * _SQRT6_HI
    return a + b * _SQRT6_HI, a + b * _SQRT6_LO


def _pair_abs_hi(c: _Pair) -> Fraction:
    lo, hi = _pair_bounds(c)
    return max(-lo, hi)


class _Sym:
    """Exact polynomial in (phi0, phi) over Q[sqrt 6] plus remainder mass.

    Int operands are promoted to constants.  `sin` and `cos` take an integer
    multiple m x of x = phi0 or phi and return its Taylor polynomial with a
    theta-remainder term; any other argument raises ValueError.
    """

    __slots__ = ("poly", "fuzz")

    def __init__(self, poly=None, fuzz=None):
        self.poly: dict[tuple[int, int], _Pair] = poly or {}
        self.fuzz: list[tuple[int, int, Fraction]] = fuzz or []

    @staticmethod
    def const(a, b=0) -> "_Sym":
        return _Sym({(0, 0): (Fraction(a), Fraction(b))})

    @staticmethod
    def var(which: str) -> "_Sym":
        key = (1, 0) if which == "phi0" else (0, 1)
        return _Sym({key: (Fraction(1), Fraction(0))})

    def __add__(self, other: "_Sym | int") -> "_Sym":
        if isinstance(other, int):
            other = _Sym.const(other)
        poly = dict(self.poly)
        for key, (a, b) in other.poly.items():
            pa, pb = poly.get(key, (Fraction(0), Fraction(0)))
            poly[key] = (pa + a, pb + b)
        return _Sym(poly, self.fuzz + other.fuzz)

    def __mul__(self, other: "_Sym | int") -> "_Sym":
        if isinstance(other, int):
            other = _Sym.const(other)
        poly: dict[tuple[int, int], _Pair] = {}
        for (j1, k1), (a1, b1) in self.poly.items():
            for (j2, k2), (a2, b2) in other.poly.items():
                key = (j1 + j2, k1 + k2)
                a = a1 * a2 + 6 * b1 * b2
                b = a1 * b2 + a2 * b1
                pa, pb = poly.get(key, (Fraction(0), Fraction(0)))
                poly[key] = (pa + a, pb + b)
        fuzz: list[tuple[int, int, Fraction]] = []
        for (j1, k1), (a1, b1) in self.poly.items():
            m1 = _pair_abs_hi((a1, b1))
            for (j2, k2, m2) in other.fuzz:
                fuzz.append((j1 + j2, k1 + k2, m1 * m2))
        for (j2, k2), (a2, b2) in other.poly.items():
            m2 = _pair_abs_hi((a2, b2))
            for (j1, k1, m1) in self.fuzz:
                fuzz.append((j1 + j2, k1 + k2, m1 * m2))
        for (j1, k1, m1) in self.fuzz:
            for (j2, k2, m2) in other.fuzz:
                fuzz.append((j1 + j2, k1 + k2, m1 * m2))
        return _Sym(poly, fuzz)

    def __sub__(self, other: "_Sym | int") -> "_Sym":
        return self + other * -1

    def _series(self, terms, rem: int, rem_den: int) -> "_Sym":
        """sum c (m x)^n over terms (n, c) plus theta |m x|^rem / rem_den, self being m x."""
        if not self.fuzz and len(self.poly) == 1:
            ((j, k), (m, b)), = self.poly.items()
            if (j, k) in ((1, 0), (0, 1)) and b == 0 and m.denominator == 1:
                poly = {(j * n, k * n): (c * m**n, Fraction(0)) for n, c in terms}
                return _Sym(poly, [(j * rem, k * rem, abs(m) ** rem / rem_den)])
        raise ValueError("sin and cos take an integer multiple of phi0 or phi")

    def sin(self) -> "_Sym":
        """x - x^3/6 + x^5/120 + theta x^7/5040."""
        return self._series(((1, Fraction(1)), (3, Fraction(-1, 6)), (5, Fraction(1, 120))), 7, 5040)

    def cos(self) -> "_Sym":
        """1 - x^2/2 + x^4/24 + theta x^6/720."""
        return self._series(((0, Fraction(1)), (2, Fraction(-1, 2)), (4, Fraction(1, 24))), 6, 720)


_SERIES = types.SimpleNamespace(sin=_Sym.sin, cos=_Sym.cos, sqrt6=_Sym.const(0, 1))


@functools.cache
def _coeff_sym(which: str) -> _Sym:
    coeff = coeff_c0 if which == "v0" else coeff_c2
    return coeff(_Sym.var("phi0"), _Sym.var("phi"), _SERIES)


def _fr_dn(x: Fraction) -> float:
    f = float(x)
    return f if Fraction(f) <= x else math.nextafter(f, -math.inf)


def _fr_up(x: Fraction) -> float:
    f = float(x)
    return f if Fraction(f) >= x else math.nextafter(f, math.inf)


def _fr_interval(lo: Fraction, hi: Fraction) -> Interval:
    return Interval(_fr_dn(lo), _fr_up(hi))


_TAYLOR_DOMAINS = {
    "v0": ((0.0, 0.01), (0.0, 0.021)),
    "v2": ((0.0, 0.11), (0.0, 0.0006)),
}


def taylor_enclose_P_coeff(which: str, box: Box) -> tuple[Interval, Interval]:
    """Interval coefficients (C3, C1) with coeff = C3 phi0^3 + C1 phi on the box.

    Every monomial other than phi0^3 and phi is absorbed: a term
    c phi0^j phi^k contributes c [0, H]^(j-3) to C3 when k = 0 and
    c [0, H]^(j+k-1) to C1 otherwise, H being the largest box endpoint.
    Monomials below cubic order in phi0 alone must cancel exactly for the
    two-term shape to exist; that cancellation is asserted.
    """
    if which not in _TAYLOR_DOMAINS:
        raise ValueError(f"unknown coefficient selector {which!r}; want 'v0' or 'v2'")
    dom = _TAYLOR_DOMAINS[which]
    if len(box.dims) != 2:
        raise ValueError("expected a two-dimensional (phi0, phi) box")
    for iv, (lo, hi) in zip(box.dims, dom):
        if iv.lo < lo or iv.hi > hi:
            raise ValueError(
                f"box [{iv.lo}, {iv.hi}] leaves the stated domain [{lo}, {hi}] for {which}"
            )
    H = Fraction(max(box.dims[0].hi, box.dims[1].hi))
    sym = _coeff_sym(which)
    c3 = [Fraction(0), Fraction(0)]
    c1 = [Fraction(0), Fraction(0)]

    def slot(j: int, k: int) -> tuple[list[Fraction], Fraction]:
        """The coefficient that phi0^j phi^k goes to, and its factor H^(degree left over)."""
        if k == 0 and j < 3:
            raise ArithmeticError(f"low-order pure-phi0 monomial phi0^{j} survived")
        return (c3, H ** (j - 3)) if k == 0 else (c1, H ** (j + k - 1))

    for (j, k), pair in sym.poly.items():
        lo, hi = _pair_bounds(pair)
        if lo == 0 and hi == 0:
            continue
        target, scale = slot(j, k)
        if (j, k) in ((3, 0), (0, 1)):
            target[0] += lo
            target[1] += hi
        else:
            target[0] += min(Fraction(0), lo * scale)
            target[1] += max(Fraction(0), hi * scale)
    for (j, k, m) in sym.fuzz:
        target, scale = slot(j, k)
        target[0] -= m * scale
        target[1] += m * scale
    return _fr_interval(c3[0], c3[1]), _fr_interval(c1[0], c1[1])


# ---------------------------------------------------------------------------
# Dyadic sublevel-set enclosure.

@dataclass(frozen=True)
class SublevelEnclosure:
    """Dyadic bounding box of the cells where f <= threshold cannot be excluded."""

    bounds: tuple[tuple[Fraction, Fraction], ...] | None
    cells_retained: int
    cells_examined: int
    level_cells: tuple[int, ...] = ()  # cells examined at each breadth-first level
    level_seconds: tuple[float, ...] = ()  # wall time of each breadth-first level

    @property
    def is_empty(self) -> bool:
        return self.bounds is None

    def to_box(self) -> Box:
        if self.bounds is None:
            raise ValueError("empty enclosure has no box")
        return Box(
            tuple(Interval(_fr_dn(lo), _fr_up(hi)) for lo, hi in self.bounds)
        )


def _grid(lo: float, hi: float, den: int) -> tuple[np.ndarray, np.ndarray]:
    """The grid points lo + j (hi - lo) / den, j = 0..den, rounded down and up.

    Bit for bit `_fr_dn` and `_fr_up` of the exact points, in integers:
    point j is N_j / M with M a power of two, `int / int` rounds it to
    nearest, and an exact comparison steps it outward when it is inexact.
    """
    (a, p), (b, q) = lo.as_integer_ratio(), hi.as_integer_ratio()
    s = max(p, q)  # both denominators are powers of two and divide s
    a, b, m = a * (s // p), b * (s // q), s * den
    dn, up = [], []
    for j in range(den + 1):
        n = a * den + j * (b - a)
        x = n / m
        u, v = x.as_integer_ratio()
        above = u * m - n * v  # the sign of x - n / m
        dn.append(math.nextafter(x, -math.inf) if above > 0 else x)
        up.append(math.nextafter(x, math.inf) if above < 0 else x)
    return np.array(dn), np.array(up)


def enclose_sublevel(
    f: Callable[[Box], Interval],
    threshold: float,
    grid_denominator: int,
    box: Box | None = None,
) -> SublevelEnclosure:
    """Bounding box of {f <= threshold} on the dyadic grid of the given box.

    Cells are excluded when the interval evaluation stays above the
    threshold, retained whole when it stays at or below, and split on the
    widest dimension down to width root_width / grid_denominator otherwise.
    A cell is held exactly as grid indices: in dimension i it starts at grid
    point s and spans 2^e grid steps, grid point j being the exact rational
    lo_i + j (hi_i - lo_i) / grid_denominator, and f sees it rounded outward.
    The rounded grid is built in integers by `_grid`.  The search is breadth
    first, one f call per level on a box of `IntervalArray` lanes, and
    `level_seconds` holds the wall time of each level.
    """
    if grid_denominator < 1 or grid_denominator & (grid_denominator - 1):
        raise ValueError(f"grid denominator must be a power of two, got {grid_denominator}")
    if box is None:
        box = Box.from_bounds([(0.0, 1.0), (0.0, 1.0)])
    den = grid_denominator
    top = den.bit_length() - 1
    root = [(Fraction(iv.lo), Fraction(iv.hi)) for iv in box.dims]
    grid_dn, grid_up = zip(*(_grid(iv.lo, iv.hi, den) for iv in box.dims))
    # rank[i, e]: order of the width (hi_i - lo_i) 2^e / den over every
    # dimension and exponent, equal widths sharing a rank; -1 for a cell
    # that cannot split (e = 0).  The first dimension of largest rank is the
    # widest one, ties going to the lower index.
    widths = {
        (i, e): (hi - lo) * 2**e / den
        for i, (lo, hi) in enumerate(root)
        if hi > lo
        for e in range(1, top + 1)
    }
    order = {w: r for r, w in enumerate(sorted(set(widths.values())))}
    ndim = len(root)
    rank = np.full((ndim, top + 1), -1)
    for (i, e), w in widths.items():
        rank[i, e] = order[w]

    start = np.zeros((ndim, 1), dtype=np.int64)
    expo = np.full((ndim, 1), top, dtype=np.int64)
    first = np.full(ndim, den)
    last = np.zeros(ndim, dtype=np.int64)
    retained = 0
    levels: list[int] = []
    seconds: list[float] = []
    while start.shape[1]:
        clock = time.perf_counter()
        end = start + (1 << expo)
        cells = tuple(IntervalArray(grid_dn[i][start[i]], grid_up[i][end[i]]) for i in range(ndim))
        v_lo, v_hi = _lane_bounds(f(Box(cells)), start.shape[1])
        levels.append(start.shape[1])
        r = rank[np.arange(ndim)[:, None], expo]
        split = (v_lo <= threshold) & (v_hi > threshold) & (r.max(axis=0) >= 0)
        keep = (v_lo <= threshold) & ~split
        if keep.any():
            retained += int(keep.sum())
            first = np.minimum(first, start[:, keep].min(axis=1))
            last = np.maximum(last, end[:, keep].max(axis=1))
        start, expo = start[:, split], expo[:, split]
        k = np.argmax(r[:, split], axis=0)
        j = np.arange(start.shape[1])
        expo[k, j] -= 1
        start = np.repeat(start, 2, axis=1)
        expo = np.repeat(expo, 2, axis=1)
        start[k, 2 * j + 1] += 1 << expo[k, 2 * j + 1]
        seconds.append(time.perf_counter() - clock)

    examined = sum(levels)
    if retained == 0:
        return SublevelEnclosure(None, 0, examined, tuple(levels), tuple(seconds))
    bounds = tuple(
        (lo + int(a) * (hi - lo) / den, lo + int(b) * (hi - lo) / den)
        for (lo, hi), a, b in zip(root, first, last)
    )
    return SublevelEnclosure(bounds, retained, examined, tuple(levels), tuple(seconds))


# ---------------------------------------------------------------------------
# Certificates.


@dataclass(frozen=True)
class Certificate:
    task_id: str
    coordinate_system: str
    regions: tuple[Box, ...]
    target: str
    status: Status
    witness: Box | None
    boxes_examined: int
    max_depth: int
    min_width: float
    rounding_mode: str
    wall_ms: int
    details: dict = field(default_factory=dict)
    level_boxes: tuple[int, ...] = ()  # per breadth-first level; not serialized
    level_seconds: tuple[float, ...] = ()  # per breadth-first level; not serialized

    def to_json_dict(self) -> dict:
        return {
            "task_id": self.task_id,
            "coordinate_system": self.coordinate_system,
            "target": self.target,
            "regions": [_box_json(b) for b in self.regions],
            "status": self.status.value,
            "witness": None if self.witness is None else _box_json(self.witness),
            "boxes_examined": self.boxes_examined,
            "max_depth": self.max_depth,
            "min_width": self.min_width,
            "rounding_mode": self.rounding_mode,
            "wall_ms": self.wall_ms,
            "details": self.details,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def _box_json(box: Box) -> dict:
    return {
        "decimal": [[iv.lo, iv.hi] for iv in box.dims],
        "hex": [[iv.lo.hex(), iv.hi.hex()] for iv in box.dims],
    }


def _interval_json(iv: Interval) -> dict:
    return {"decimal": [iv.lo, iv.hi], "hex": [iv.lo.hex(), iv.hi.hex()]}


def _level_sums(rows: Sequence[tuple]) -> tuple:
    """Level by level sums of per-level rows of different depths."""
    sums = [0] * max(map(len, rows))
    for row in rows:
        for i, x in enumerate(row):
            sums[i] += x
    return tuple(sums)


def _merge_outcomes(parts: Sequence[BnbOutcome]) -> BnbOutcome:
    boxes = sum(p.boxes_examined for p in parts)
    depth = max(p.max_depth for p in parts)
    levels = _level_sums([p.level_boxes for p in parts])
    seconds = _level_sums([p.level_seconds for p in parts])
    for status in (Status.FAILED, Status.INCONCLUSIVE):
        for p in parts:
            if p.status is status:
                return BnbOutcome(status, p.witness, boxes, depth, levels, seconds)
    return BnbOutcome(Status.PROVED, None, boxes, depth, levels, seconds)


def _verdict(ok: bool, witness: Box | None = None) -> BnbOutcome:
    """PROVED, or FAILED with the witness: the outcome of a check that is not a box search."""
    return BnbOutcome(Status.PROVED if ok else Status.FAILED, None if ok else witness, 0, 0)


# A check proves its part of a certificate on one region: it takes the region,
# the branch-and-bound floor and the certificate's details (which it may
# extend), and returns its outcome.
_Check = Callable[[Box, float, dict], BnbOutcome]


def _parts(f: Callable[[Box], Interval], bound: float, *regions) -> tuple[tuple[Box, _Check], ...]:
    """Branch-and-bound parts proving f >= bound on each region, given by its bounds."""
    check = lambda region, min_width, details: prove_lower_bound(f, region, bound, min_width)
    return tuple((Box.from_bounds(r), check) for r in regions)


def _taylor_part(which: str) -> tuple[Box, _Check]:
    """The part proving both two-term Taylor coefficients of `which` positive on its domain."""

    def check(region: Box, min_width: float, details: dict) -> BnbOutcome:
        c3, c1 = taylor_enclose_P_coeff(which, region)
        details["taylor"] = {"phi0_cubed": _interval_json(c3), "phi_linear": _interval_json(c1)}
        return _verdict(c3.lo > 0.0 and c1.lo > 0.0, region)

    return Box.from_bounds(_TAYLOR_DOMAINS[which]), check


# The box in the (phi0, z) chart that V7 encloses the sublevel set in and V8
# bounds the discriminant on.
_REFERENCE = ((Fraction(0), Fraction(783, 1024)), (Fraction(779, 1024), Fraction(1)))


def _sublevel_in_reference(region: Box, min_width: float, details: dict) -> BnbOutcome:
    f = lambda b: c1_iv(b.dims[0], phi_of_z(*b.dims, INTERVAL))
    enc = enclose_sublevel(f, 0.01, config.SUBLEVEL_DENOMINATOR, region)
    contained = enc.is_empty or all(a <= lo and hi <= b for (lo, hi), (a, b) in zip(enc.bounds, _REFERENCE))
    details["enclosure"] = None if enc.is_empty else [[str(lo), str(hi)] for lo, hi in enc.bounds]
    details["reference"] = [[str(a), str(b)] for a, b in _REFERENCE]
    details["contained_in_reference"] = contained
    details["equals_reference"] = enc.bounds == _REFERENCE
    details["cells_retained"] = enc.cells_retained
    depth = int(math.log2(config.SUBLEVEL_DENOMINATOR)) * 2
    status = Status.PROVED if contained else Status.FAILED
    return BnbOutcome(status, None, enc.cells_examined, depth, enc.level_cells, enc.level_seconds)


def _quad_min(b: Box) -> IntervalArray:
    """min over v of c0 + c1 v + c2 v^2, that is c0 - c1^2 / 4 c2, in the (phi0, z) chart."""
    phi0, z = b.dims
    phi = phi_of_z(phi0, z, INTERVAL)
    c2 = c2_iv(phi0, phi)
    # the closed-form minimum needs c2 > 0; other lanes get a value
    # that forces a split, and no division sees their c2
    ok = np.flatnonzero(c2.lo > 0.0)
    lo = np.full(len(c2), -1e30)
    hi = np.full(len(c2), 1e30)
    if ok.size:
        phi0, phi, c2 = phi0[ok], phi[ok], c2[ok]
        q = c0_iv(phi0, phi) - c1_iv(phi0, phi).power(2) / (c2 * 4)
        lo[ok], hi[ok] = q.lo, q.hi
    return IntervalArray(lo, hi)


def _samples_small() -> list[Interval]:
    # point samples pi/8 * 2^-k; halving is exact so these stay enclosures
    base = eighth_pi_iv()
    return [Interval(base.lo * 0.5**k, base.hi * 0.5**k) for k in range(10)]


_SAMPLES_LARGE = (3.0, 3.5, 4.0, 5.0, 8.0, 16.0, 100.0, 1000.0)


def _q0_with_tails(region: Box, min_width: float, details: dict) -> BnbOutcome:
    out = prove_lower_bound(lambda b: coeff_q0(b.dims[0], INTERVAL), region, 1.9, min_width, strict=True)
    s2 = math.sqrt(2.0)
    sqrt2 = Interval(math.nextafter(s2, 0.0), math.nextafter(s2, 2.0))
    tails = {
        "small_phi_bound": ("q0 >= 6 (sqrt(2) - 1) phi", _samples_small(), lambda p: (sqrt2 - 1) * 6 * p),
        "large_phi_bound": ("q0 >= 6 (phi - 2)", map(Interval.point, _SAMPLES_LARGE), lambda p: (p - 2) * 6),
    }
    ok = True
    for key, (form, samples, lower) in tails.items():
        margins = [(p, coeff_q0(p, INTERVAL) - lower(p)) for p in samples]
        details[key] = {
            "form": form,
            "samples": [{"phi": _interval_json(p), "margin_lo": m.lo} for p, m in margins],
        }
        ok = ok and all(m.lo >= 0.0 for _, m in margins)
    return _merge_outcomes([out, _verdict(ok)])


@dataclass(frozen=True)
class _Task:
    """One certificate: its claim, its default floor, and the parts that prove it."""

    coordinate_system: str
    target: str
    min_width: float
    parts: tuple[tuple[Box, _Check], ...]  # (region, check), in the order of `regions`


_HALF_PI = half_pi_iv().hi

_TASKS = {
    # 6 v^2 >= 0 reduces the claim to the v = 0 slice; one cosine period
    # in phi and the full [0, pi/2] range of phi0 cover all arguments.
    "V1": _Task(
        "(phi0, phi)", "a(phi0, phi, v) >= 0.1 via a >= a|_{v=0}",
        config.MIN_WIDTH_COEFF, _parts(
            lambda b: coeff_a(*b.dims, Interval.point(0.0), INTERVAL), 0.1,
            [(0.0, _HALF_PI), (0.0, pi_iv().hi)],
        ),
    ),
    "V2": _Task(
        "(phi0, phi)", "v^0 coefficient of P >= 0.01",
        config.MIN_WIDTH_COEFF, _parts(lambda b: c0_iv(*b.dims), 0.01, [(0.4, _HALF_PI), (0.0, _HALF_PI)]),
    ),
    "V3": _Task(
        "(phi0, z)", "v^0 coefficient of P >= 0.01",
        config.MIN_WIDTH_COEFF, _parts(
            lambda b: c0_iv(b.dims[0], phi_of_z(*b.dims, INTERVAL)), 0.01,
            [(0.01, 0.4), (0.0, 1.0)], [(0.0, 0.4), (0.01, 1.0)],
        ),
    ),
    "V4": _Task(
        "(phi0, phi)", "two-term Taylor enclosure of the v^0 coefficient is strictly positive",
        config.MIN_WIDTH_COEFF, (_taylor_part("v0"),),
    ),
    "V5": _Task(
        "(phi0, phi)", "v^2 coefficient of P >= 0.01 away from the origin; Taylor-positive near it",
        config.MIN_WIDTH_COEFF, _parts(
            lambda b: c2_iv(*b.dims), 0.01,
            [(0.11, _HALF_PI), (0.0, _HALF_PI)], [(0.0, _HALF_PI), (0.0006, _HALF_PI)],
        ) + (_taylor_part("v2"),),
    ),
    "V6": _Task(
        "(phi0, phi)", "v^1 coefficient of P >= 0.01",
        config.MIN_WIDTH_COEFF, _parts(lambda b: c1_iv(*b.dims), 0.01, [(1.0, _HALF_PI), (0.0, _HALF_PI)]),
    ),
    "V7": _Task(
        "(phi0, z)", "sublevel set {v^1 coefficient <= 0.01} lies inside [0, 783/1024] x [779/1024, 1]",
        config.MIN_WIDTH_COEFF, ((Box.from_bounds([(0.0, 1.0), (0.0, 1.0)]), _sublevel_in_reference),),
    ),
    "V8": _Task(
        "(phi0, z)", "min over v of c0 + c1 v + c2 v^2 (= c0 - c1^2 / 4 c2) >= 0.5 on the reference box",
        config.MIN_WIDTH_QUAD, _parts(_quad_min, 0.5, [(float(a), float(b)) for a, b in _REFERENCE]),
    ),
    "V9": _Task(
        "(phi)", "q0 > 1.9 on [pi/8, 3]; analytic tail bounds confirmed at sample points",
        config.MIN_WIDTH_QUAD, ((Box.from_bounds([(eighth_pi_iv().lo, 3.0)]), _q0_with_tails),),
    ),
}

TASK_IDS = tuple(_TASKS)


def run_task(task_id: str, min_width: float | None = None, workers: int | None = None) -> Certificate:
    """Execute one named certificate and package the outcome.

    Each part's check runs on its region in table order; the certificate
    carries their merged outcome.  `workers` is accepted for compatibility
    and changes nothing.
    """
    if task_id not in _TASKS:
        raise ValueError(f"unknown task id {task_id!r}; expected one of {', '.join(TASK_IDS)}")
    task = _TASKS[task_id]
    if min_width is None:
        min_width = task.min_width
    if isinstance(min_width, bool) or not 0.0 < min_width < math.inf:
        raise ValueError(f"min_width must be positive and finite, got {min_width}")
    start = time.perf_counter()
    details: dict = {}
    outcome = _merge_outcomes([check(region, min_width, details) for region, check in task.parts])
    wall_ms = int(round((time.perf_counter() - start) * 1000))
    return Certificate(
        task_id=task_id,
        coordinate_system=task.coordinate_system,
        regions=tuple(region for region, _ in task.parts),
        target=task.target,
        status=outcome.status,
        witness=outcome.witness,
        boxes_examined=outcome.boxes_examined,
        max_depth=outcome.max_depth,
        min_width=min_width,
        rounding_mode=ROUNDING_MODE,
        wall_ms=wall_ms,
        details=details,
        level_boxes=outcome.level_boxes,
        level_seconds=outcome.level_seconds,
    )
