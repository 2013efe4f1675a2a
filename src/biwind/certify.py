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
  and gives up at a minimum width otherwise.  It runs breadth first from
  one root box or several.  One call of f evaluates a block of levels, the
  frontier and the levels of descendants that fit a fixed box budget, every
  box with its center, as one batch of lanes; the levels are then resolved
  one at a time, as if each had had its own call;
* the mean-value form (`_mean_value`), through which every
  branch-and-bound certificate evaluates its coefficient on a call's
  lanes, as `GradientArray` variables: each box gets its natural enclosure
  intersected with the centered one F(c) + sum_i G_i(B) (B_i - c_i), F(c)
  read from the box's center lane, and an empty intersection raises, since
  it could only come from an unsound enclosure;
* two-term Taylor-with-remainder enclosures of the cubic and linear
  coefficients near the origin (`taylor_enclose_P_coeff`): `coeff_c0` and
  `coeff_c2` evaluated on polynomials with theta-remainders in exact
  rational arithmetic over Q[sqrt 6], and only rounded outward at the end;
* the nine named certificates V1-V9, serialized as JSON.  Each certificate
  is one entry of the `_TASKS` table: its coordinate system, target,
  default `min_width`, and the ordered (region, check) parts that prove it.
  `run_task` runs the parts in order, hands consecutive parts that share
  one check to one call of it, so that a branch-and-bound check searches
  their regions as one frontier, and merges the outcomes.
  V7's claim that the sublevel set {c1 <= 0.01} of [0, 1]^2 lies in the
  reference box A is proved as its complement: c1 > 0.01, strictly, on the
  two boxes of [0, 1]^2 outside A.

Determinism comes from the structure: the search runs serially, with no
threads, one breadth-first level at a time, and every level holds its boxes
in canonical order (the roots in the order given, and the children of box
j are boxes 2j and 2j + 1 of the next level).  Each `Interval` lane is
rounded on its own, so a box gets the same bits in a call of any size, or
alone as single intervals; the set of boxes, the depth and the first FAILED
or INCONCLUSIVE witness in that level-major order are fixed by the problem
alone.
`run_task` accepts a `workers` argument and ignores it, so certificates are
bit-identical for any worker count (wall-clock time aside).
"""

from __future__ import annotations

import enum
import functools
import itertools
import json
import math
import operator
import time
import types
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from . import config
from .intervals import (
    INTERVAL, Box, GradientArray, Interval, eighth_pi_iv, half_pi_iv, pi_iv,
)
from .regions import coeff_a, coeff_c0, coeff_c1, coeff_c2, coeff_q0, phi_of_z

__all__ = [
    "Status",
    "BnbOutcome",
    "Certificate",
    "prove_lower_bound",
    "taylor_enclose_P_coeff",
    "run_task",
    "TASK_IDS",
    "c0_iv",
    "c1_iv",
    "c2_iv",
]

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
    level_seconds: tuple[float, ...] = ()  # wall time of each breadth-first level, a call of f in its first
    calls: int = 0  # calls of f


def _lane(lo: np.ndarray, hi: np.ndarray, j: int) -> Box:
    return Box(tuple(Interval(a[j], b[j]) for a, b in zip(lo, hi)))


def _bisect_lanes(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`Box.bisect` on every lane; lane j's halves become lanes 2j and 2j + 1."""
    k = np.argmax(hi - lo, axis=0)  # the first widest dimension, as Box.widest_dim
    j = np.arange(lo.shape[1])
    a, b = lo[k, j], hi[k, j]
    m = Interval(a, b).midpoint()
    thin = ~((a < m) & (m < b))
    if thin.any():
        t = int(np.argmax(thin))
        raise ValueError(f"dimension {k[t]} too thin to bisect: [{a[t]}, {b[t]}]")
    lo2 = np.repeat(lo, 2, axis=1)
    hi2 = np.repeat(hi, 2, axis=1)
    hi2[k, 2 * j] = m
    lo2[k, 2 * j + 1] = m
    return lo2, hi2


# The most boxes, a frontier and its speculative descendants, that one call of f evaluates.
_BUDGET = 192


def _speculate(lo: np.ndarray, hi: np.ndarray, min_width: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The frontier and levels of its descendants, while their box count stays within `_BUDGET`.

    Every box of at least min_width is bisected by `_bisect_lanes`, and a
    level holding a box too thin to bisect ends the speculation.  Returns
    the boxes of every level, level after level, and the index there of
    each box's first child (the second follows it), or -1.
    """
    los, his, first = [lo], [hi], [np.full(lo.shape[1], -1)]
    total = lo.shape[1]
    while True:
        split = (his[-1] - los[-1]).max(axis=0) >= min_width
        n = int(split.sum())
        if not n or total + 2 * n > _BUDGET:
            break
        try:
            lo2, hi2 = _bisect_lanes(los[-1][:, split], his[-1][:, split])
        except ValueError:
            break
        first[-1][split] = total + 2 * np.arange(n)
        los.append(lo2)
        his.append(hi2)
        first.append(np.full(2 * n, -1))
        total += 2 * n
    return np.hstack(los), np.hstack(his), np.concatenate(first)


def _evaluate(f: Callable[[Box], Interval], lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f's lower bound on each of n boxes and its upper bound at each box's center: one call
    of f on 2n lanes, lane j being box j and lane n + j its float center, a point.  A single
    interval from f covers every lane."""
    n = lo.shape[1]
    mid = Interval(lo, hi).midpoint()
    val = f(Box(tuple(Interval(a, b) for a, b in zip(np.hstack((lo, mid)), np.hstack((hi, mid))))))
    return np.broadcast_to(val.lo, (2 * n,))[:n], np.broadcast_to(val.hi, (2 * n,))[n:]


def prove_lower_bound(
    f: Callable[[Box], Interval],
    box: Box | Sequence[Box],
    bound: float,
    min_width: float,
    strict: bool = False,
) -> BnbOutcome:
    """Certify f >= bound (or > bound when strict) on the box, or on each of
    several boxes of one dimension.

    The tree is searched breadth first, in canonical order: the roots, in
    the order given, are level 0, and the children of box j are 2j and
    2j + 1.  A box is discharged when its evaluation clears the bound;
    otherwise f at its center decides failure, and a box narrower than
    min_width is given up as inconclusive.  The first failing box in that
    level-major order is the FAILED witness and the first given-up box the
    INCONCLUSIVE one, whichever root they descend from.

    One call of f evaluates a block of levels: the frontier and, while the
    box count stays within `_BUDGET`, the descendants that bisection would
    give it if no box were discharged (`_speculate`).  Its lanes are the
    block's boxes followed by their float centers, points.  The levels are
    then resolved one at a time, each from the lanes of its boxes, and the
    next call starts from the first level the block lacks.  A center is
    judged only where its box is not discharged; a discharged box encloses
    f at its center, so that center cannot fail.  A call that raises is
    made again on the frontier alone, and what that raises propagates.
    `level_seconds` holds the wall time of each level's filtering and
    bisection, and a call's in the first level of its block.
    """
    if isinstance(min_width, bool) or not 0.0 < min_width < math.inf:
        raise ValueError(f"min_width must be positive and finite, got {min_width}")
    roots = (box,) if isinstance(box, Box) else tuple(box)
    if not roots or len({len(r.dims) for r in roots}) != 1:
        raise ValueError(f"expected one or more boxes of one dimension, got {len(roots)} roots")
    below = (lambda v: v <= bound) if strict else (lambda v: v < bound)
    # dimension i of box j spans [lo[i, j], hi[i, j]]
    lo = np.array([[iv.lo for iv in r.dims] for r in roots]).T
    hi = np.array([[iv.hi for iv in r.dims] for r in roots]).T
    levels: list[int] = []
    seconds: list[float] = []
    calls = 0
    inconclusive: Box | None = None
    at = None  # where the block holds this level's boxes, or None for a new call
    clock = time.perf_counter()
    while lo.shape[1]:
        n = lo.shape[1]
        if at is None:
            b_lo, b_hi, first = _speculate(lo, hi, min_width)
            calls += 1
            try:
                box_lo, center_hi = _evaluate(f, b_lo, b_hi)
            except Exception:
                if b_lo.shape[1] == n:
                    raise
                calls += 1
                box_lo, center_hi = _evaluate(f, lo, hi)
                first = np.full(n, -1)
            at = np.arange(n)
        live = below(box_lo[at])
        fails = live & below(center_hi[at])
        if fails.any():
            j = int(np.argmax(fails))
            levels.append(j + 1)
            seconds.append(time.perf_counter() - clock)
            return BnbOutcome(
                Status.FAILED, _lane(lo, hi, j), sum(levels), len(levels) - 1, tuple(levels),
                tuple(seconds), calls,
            )
        levels.append(n)
        lo, hi, at = lo[:, live], hi[:, live], at[live]
        narrow = (hi - lo).max(axis=0) < min_width
        if narrow.any():
            if inconclusive is None:
                inconclusive = _lane(lo, hi, int(np.argmax(narrow)))
            lo, hi, at = lo[:, ~narrow], hi[:, ~narrow], at[~narrow]
        lo, hi = _bisect_lanes(lo, hi)
        # every box bisected here was bisected in the block too, unless the block ends here
        at = None if (first[at] < 0).any() else np.column_stack((first[at], first[at] + 1)).ravel()
        now = time.perf_counter()
        seconds.append(now - clock)
        clock = now
    status = Status.PROVED if inconclusive is None else Status.INCONCLUSIVE
    return BnbOutcome(
        status, inconclusive, sum(levels), len(levels) - 1, tuple(levels), tuple(seconds), calls,
    )


def _mean_value(
    f: Callable[[Box], GradientArray | Interval],
) -> Callable[[Box], Interval]:
    """f on the lanes of a `prove_lower_bound` call, narrowed by the mean-value form.

    f is called once, on the lanes as `GradientArray` variables.  Each box B
    gets its natural enclosure (row 0) intersected with the centered form
    F(c) + sum_i G_i(B) (B_i - c_i), F(c) being row 0 on B's center lane and
    G_i the partial rows on B (Moore, Kearfott and Cloud, *Introduction to
    Interval Analysis*, SIAM 2009, ch. 6); each center lane gets F(c).  Both
    enclose f on B, so an empty intersection means an unsound enclosure: it
    raises ArithmeticError and is never clamped.  The form is sound only for
    c in B, so lanes whose centers are not points inside their boxes raise
    ValueError.  A form that returns an `Interval`, constant in the box, is
    returned unchanged.
    """

    def g(b: Box) -> Interval:
        lo = np.array([iv.lo for iv in b.dims])
        hi = np.array([iv.hi for iv in b.dims])
        k, n = lo.shape[0], lo.shape[1] // 2
        c = lo[:, n:]
        if lo.shape[1] % 2 or not np.all((c == hi[:, n:]) & (lo[:, :n] <= c) & (c <= hi[:, :n])):
            raise ValueError("expected n box lanes followed by a point lane inside each")
        val = f(Box(tuple(GradientArray.variable(x, i, k) for i, x in enumerate(b.dims))))
        if not isinstance(val, GradientArray):
            return val
        natural, fc = val.value[:n], val.value[n:]
        # F(c) + sum_i G_i(B) (B_i - c_i), summed in dimension order
        terms = val.partials[:, :n] * (Interval(lo[:, :n], hi[:, :n]) - Interval.point(c))
        mv = sum((terms[i] for i in range(k)), fc)
        lo, hi = np.maximum(natural.lo, mv.lo), np.minimum(natural.hi, mv.hi)
        empty = lo > hi
        if empty.any():
            j = int(np.argmax(empty))
            raise ArithmeticError(
                f"natural enclosure [{natural.lo[j]}, {natural.hi[j]}] and mean-value enclosure "
                f"[{mv.lo[j]}, {mv.hi[j]}] are disjoint in lane {j}: one of them is unsound"
            )
        return Interval(np.concatenate((lo, fc.lo)), np.concatenate((hi, fc.hi)))

    return g


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
    H = Fraction(float(max(box.dims[0].hi, box.dims[1].hi)))
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
    calls: int = 0  # calls of f by its branch-and-bound searches; not serialized

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
        "decimal": [[float(iv.lo), float(iv.hi)] for iv in box.dims],
        "hex": [[float(iv.lo).hex(), float(iv.hi).hex()] for iv in box.dims],
    }


def _interval_json(iv: Interval) -> dict:
    lo, hi = float(iv.lo), float(iv.hi)
    return {"decimal": [lo, hi], "hex": [lo.hex(), hi.hex()]}


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
    calls = sum(p.calls for p in parts)
    for status in (Status.FAILED, Status.INCONCLUSIVE):
        for p in parts:
            if p.status is status:
                return BnbOutcome(status, p.witness, boxes, depth, levels, seconds, calls)
    return BnbOutcome(Status.PROVED, None, boxes, depth, levels, seconds, calls)


def _verdict(ok: bool, witness: Box | None = None) -> BnbOutcome:
    """PROVED, or FAILED with the witness: the outcome of a check that is not a box search."""
    return BnbOutcome(Status.PROVED if ok else Status.FAILED, None if ok else witness, 0, 0)


# A check proves its part of a certificate: it takes its region, or a tuple
# of regions that share it, the branch-and-bound floor and the certificate's
# details (which it may extend), and returns its outcome.  A branch-and-bound
# check searches a tuple of regions as one frontier.
_Check = Callable[[Box | tuple[Box, ...], float, dict], BnbOutcome]


def _parts(f: Callable[[Box], Interval], bound: float, *regions) -> tuple[tuple[Box, _Check], ...]:
    """Branch-and-bound parts proving f >= bound on each region, given by its bounds,
    through the mean-value form."""
    f = _mean_value(f)
    check = lambda regions, min_width, details: prove_lower_bound(f, regions, bound, min_width)
    return tuple((Box.from_bounds(r), check) for r in regions)


def _taylor_part(which: str) -> tuple[Box, _Check]:
    """The part proving both two-term Taylor coefficients of `which` positive on its domain."""

    def check(region: Box, min_width: float, details: dict) -> BnbOutcome:
        c3, c1 = taylor_enclose_P_coeff(which, region)
        details["taylor"] = {"phi0_cubed": _interval_json(c3), "phi_linear": _interval_json(c1)}
        return _verdict(c3.lo > 0.0 and c1.lo > 0.0, region)

    return Box.from_bounds(_TAYLOR_DOMAINS[which]), check


# The box A = [0, 783/1024] x [779/1024, 1] in the (phi0, z) chart: V7 proves
# that it holds every point of [0, 1]^2 where c1 <= 0.01, and V8 bounds the
# discriminant on it.
_REFERENCE = ((Fraction(0), Fraction(783, 1024)), (Fraction(779, 1024), Fraction(1)))


def _outside_reference(f: Callable[[Box], Interval], threshold: float) -> tuple[tuple[Box, _Check], ...]:
    """Parts proving {f <= threshold} within A: f > threshold on the two boxes of [0, 1]^2 outside A.

    The bound is strict, since a point outside A where f equals the
    threshold lies in the sublevel set.  `contained_in_reference` stays true
    while every part proves.  f is evaluated through the mean-value form.
    """
    f = _mean_value(f)

    def check(regions: Box | tuple[Box, ...], min_width: float, details: dict) -> BnbOutcome:
        out = prove_lower_bound(f, regions, threshold, min_width, strict=True)
        details["reference"] = [[str(a), str(b)] for a, b in _REFERENCE]
        details["contained_in_reference"] = (
            details.get("contained_in_reference", True) and out.status is Status.PROVED
        )
        return out

    (_, phi0_hi), (z_lo, _) = _REFERENCE
    outside = ([(float(phi0_hi), 1.0), (0.0, 1.0)], [(0.0, 1.0), (0.0, float(z_lo))])
    return tuple((Box.from_bounds(r), check) for r in outside)


def _quad_min(b: Box) -> GradientArray:
    """min over v of c0 + c1 v + c2 v^2, that is c0 - c1^2 / 4 c2, in the (phi0, z) chart,
    on gradient lanes."""
    phi0, z = b.dims
    phi = phi_of_z(phi0, z, INTERVAL)
    c2 = c2_iv(phi0, phi)
    # the closed-form minimum needs c2 > 0 on the whole lane; other lanes
    # get [-1e30, 1e30] as value and partials, which forces a split, and no
    # division sees their c2
    ok = np.flatnonzero(c2.lo[0] > 0.0)
    lo = np.full(c2.lo.shape, -1e30)
    hi = np.full(c2.hi.shape, 1e30)
    if ok.size:
        phi0, phi, c2 = phi0[ok], phi[ok], c2[ok]
        q = c0_iv(phi0, phi) - c1_iv(phi0, phi).power(2) / (c2 * 4)
        lo[:, ok], hi[:, ok] = q.lo, q.hi
    return GradientArray(lo, hi)


_SAMPLES_LARGE = (3.0, 3.5, 4.0, 5.0, 8.0, 16.0, 100.0, 1000.0)


def _q0_with_tails(region: Box, min_width: float, details: dict) -> BnbOutcome:
    q0 = _mean_value(lambda b: coeff_q0(b.dims[0], INTERVAL))
    out = prove_lower_bound(q0, region, 1.9, min_width, strict=True)
    s2 = math.sqrt(2.0)
    sqrt2 = Interval(math.nextafter(s2, 0.0), math.nextafter(s2, 2.0))
    # the small-phi samples pi/8 * 2^-k; halving is exact so they stay enclosures
    base, halves = eighth_pi_iv(), 0.5 ** np.arange(10.0)
    tails = {
        "small_phi_bound": ("q0 >= 6 (sqrt(2) - 1) phi", Interval(base.lo * halves, base.hi * halves),
                            lambda p: (sqrt2 - 1) * 6 * p),
        "large_phi_bound": ("q0 >= 6 (phi - 2)", Interval.point(_SAMPLES_LARGE), lambda p: (p - 2) * 6),
    }
    ok = True
    for key, (form, phi, lower) in tails.items():
        # each tail bound's samples as the lanes of one evaluation
        margin = coeff_q0(phi, INTERVAL) - lower(phi)
        details[key] = {
            "form": form,
            "samples": [{"phi": _interval_json(phi[i]), "margin_lo": float(m)}
                        for i, m in enumerate(margin.lo)],
        }
        ok = ok and bool(np.all(margin.lo >= 0.0))
    return _merge_outcomes([out, _verdict(ok)])


@dataclass(frozen=True)
class _Task:
    """One certificate: its claim, its default floor, and the parts that prove it."""

    coordinate_system: str
    target: str
    min_width: float
    parts: tuple[tuple[Box, _Check], ...]  # (region, check), in the order of `regions`


_HALF_PI = float(half_pi_iv().hi)

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
        config.MIN_WIDTH_COEFF, _outside_reference(lambda b: c1_iv(b.dims[0], phi_of_z(*b.dims, INTERVAL)), 0.01),
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

    The parts run in table order, and consecutive parts that share one
    check run as one call of it on their regions, so a branch-and-bound
    check searches them as one frontier; the certificate carries the merged
    outcome of the calls.  `workers` is accepted for compatibility and
    changes nothing.
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
    outcomes = []
    for check, parts in itertools.groupby(task.parts, key=operator.itemgetter(1)):
        regions = tuple(region for region, _ in parts)
        outcomes.append(check(regions[0] if len(regions) == 1 else regions, min_width, details))
    outcome = _merge_outcomes(outcomes)
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
        rounding_mode=config.ROUNDING_MODE,
        wall_ms=wall_ms,
        details=details,
        level_boxes=outcome.level_boxes,
        level_seconds=outcome.level_seconds,
        calls=outcome.calls,
    )
