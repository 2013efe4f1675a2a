import json
import math
from fractions import Fraction

import numpy as np
import pytest

from biwind import certify, core, regions, taylor
from biwind.certify import Status
from biwind.intervals import INTERVAL, Box, GradientArray, Interval

SQRT6 = math.sqrt(6.0)


def _zmap(phi0, z):
    return phi0 + z * np.cos(phi0) / (1.0 + np.sin(phi0))


# ---------------------------------------------------------------------------
# Interval transcriptions agree with the floating-point coefficient forms.


def test_interval_coefficients_contain_float_values():
    # 2000 random points, each form evaluated on all of them as the lanes of
    # single-point intervals
    mp = taylor.mp_context(30)
    rng = np.random.default_rng(3)
    p0, ph, v, z = np.array([[rng.uniform(0.0, math.pi / 2), rng.uniform(0.0, math.pi / 2),
                              rng.uniform(-2.0, 2.0), rng.uniform(0.0, 1.0)] for _ in range(2000)]).T
    c0, c1, c2, _ = regions.P_cubic_coefficients(p0, ph)
    i0, i1 = Interval.point(p0), Interval.point(ph)
    assert certify.c0_iv(i0, i1).contains(c0).all()
    assert certify.c1_iv(i0, i1).contains(c1).all()
    assert certify.c2_iv(i0, i1).contains(c2).all()
    assert regions.coeff_a(i0, i1, Interval.point(v), INTERVAL).contains(regions.eval_a(p0, ph, v)).all()
    assert regions.phi_of_z(i0, Interval.point(z), INTERVAL).contains(_zmap(p0, z)).all()
    assert regions.coeff_q0(i1, INTERVAL).contains(regions.Q_cubic_coefficients(ph)[0]).all()
    # the same forms in mpmath: inside the enclosure, and near the doubles
    # (an absolute floor covers cancellation near the zeros of c0 and c1)
    for form, xs in [(regions.coeff_a, (p0, ph, v)), (regions.coeff_c0, (p0, ph)),
                     (regions.coeff_c1, (p0, ph)), (regions.coeff_c2, (p0, ph)),
                     (regions.coeff_q0, (ph,)), (regions.phi_of_z, (p0, z))]:
        enclosure = form(*map(Interval.point, xs), INTERVAL)
        floats = form(*xs, core.NUMPY)
        for i in range(len(p0)):
            got = form(*(mp.mpf(float(x[i])) for x in xs), mp)
            assert enclosure.lo[i] <= got <= enclosure.hi[i], form.__name__
            assert float(got) == pytest.approx(floats[i], rel=1e-14, abs=1e-13)


def test_number_type_contexts_share_one_vocabulary():
    vocabulary = {"mpf", "sin", "cos", "sqrt6", "square", "fdot"}
    for ctx in (core.FLOAT, core.NUMPY, INTERVAL, certify._SERIES):
        assert set(vars(ctx)) <= vocabulary
    for ctx in (INTERVAL, taylor.mp_context(30)):
        assert all(hasattr(ctx, name) for name in vocabulary)


# ---------------------------------------------------------------------------
# Branch-and-bound engine on elementary objectives with known answers.


def _bounds(box: Box | None) -> tuple[tuple[float, float], ...] | None:
    """The endpoints of each dimension of a box of single intervals, which compare by value."""
    return None if box is None else tuple((float(iv.lo), float(iv.hi)) for iv in box.dims)


def test_prove_lower_bound_sine_is_nonnegative():
    box = Box((Interval(0.0, math.nextafter(math.pi, math.inf)),))
    out = certify.prove_lower_bound(lambda b: b.dims[0].sin(), box, -0.001, 1e-3)
    assert out.status is Status.PROVED
    assert out.witness is None
    assert out.boxes_examined >= 1


def test_prove_lower_bound_failure_carries_witness():
    box = Box((Interval(0.0, 2.0),))
    f = lambda b: b.dims[0].power(2) - 1
    out = certify.prove_lower_bound(f, box, 0.0, 1e-3)
    assert out.status is Status.FAILED
    assert out.witness is not None
    # the witness sits where x^2 - 1 really dips below the bound
    assert out.witness.dims[0].lo < 1.0
    center = Interval.point(out.witness.dims[0].midpoint())
    assert (center.power(2) - 1).hi < 0.0


def test_prove_lower_bound_inconclusive_at_min_width():
    # x - x evaluates to a symmetric interval around zero whose width never
    # shrinks to a point, and the center evaluation is exactly zero: neither
    # discharge nor failure can happen.
    box = Box((Interval(0.0, 1.0),))
    f = lambda b: b.dims[0] - b.dims[0]
    out = certify.prove_lower_bound(f, box, 0.0, 1e-2)
    assert out.status is Status.INCONCLUSIVE
    assert out.witness is not None
    assert out.witness.max_width() < 1e-2


def test_prove_lower_bound_failure_is_the_first_in_breadth_first_order():
    # x^2-type dips below 0 near x = 0.3 (width 2e-3) and near x = 14.5
    # (width 0.2).  The search goes level by level, so the witness is the
    # wide dip's box [14, 15] at depth 4, the third box examined there; a
    # depth-first search of the left half would first reach the narrow dip,
    # at depth 11.
    f = lambda b: ((b.dims[0] - 0.3).power(2) - 1e-6) * ((b.dims[0] - 14.5).power(2) - 0.01)
    out = certify.prove_lower_bound(f, Box.from_bounds([(0.0, 16.0)]), 0.0, 1e-9)
    assert out.status is Status.FAILED
    assert _bounds(out.witness) == ((14.0, 15.0),)
    assert out.level_boxes == (1, 2, 4, 4, 3)
    assert (out.boxes_examined, out.max_depth) == (14, 4)


def _scalar_search(f, box, bound, min_width, strict=False):
    """Reference: the same breadth-first search, one scalar Box at a time.

    Every center of a level is judged before any box of it is bisected.
    """
    level, levels, inconclusive = [box], [], None
    while level:
        live = []
        for j, b in enumerate(level):
            v = f(b)
            if v.lo > bound if strict else v.lo >= bound:
                continue
            c = f(Box(tuple(Interval.point(x) for x in b.center())))
            if c.hi <= bound if strict else c.hi < bound:
                return Status.FAILED, b, tuple(levels) + (j + 1,)
            live.append(b)
        levels.append(len(level))
        children = []
        for b in live:
            if b.max_width() < min_width:
                inconclusive = inconclusive or b
                continue
            children.extend(b.bisect())
        level = children
    return Status.PROVED if inconclusive is None else Status.INCONCLUSIVE, inconclusive, tuple(levels)


def _raises_below_width(width, f):
    """f, raising on a box with a dimension of positive width below `width`."""

    def g(b):
        for iv in b.dims:
            w = np.asarray(iv.hi - iv.lo)
            if ((w > 0) & (w < width)).any():
                raise ZeroDivisionError("box too narrow for this f")
        return f(b)

    return g


_ULP = math.ulp(1.0)


def _fails_at_point(x0):
    """[-1, 1] on a box of positive width; at a point, -1 at x0 and 0 elsewhere."""

    def f(b):
        x = b.dims[0]
        point = x.lo == x.hi
        lo = np.where(point & (x.lo != x0), 0.0, -1.0)
        hi = np.where(point, lo, 1.0)
        return Interval(lo, hi)

    return f


# the cases on which the lane search is checked against `_scalar_search`
SCALAR_CASES = [
    # V2 at a coarse floor: inconclusive
    (lambda b: certify.c0_iv(*b.dims), [(0.4, math.pi / 2), (0.0, math.pi / 2)], 0.01, 0.1, False),
    # V9 in full, strict
    (lambda b: regions.coeff_q0(b.dims[0], INTERVAL), [(math.pi / 8, 3.0)], 1.9, 1e-4, True),
    # V3's first region in the z chart, coarse
    (lambda b: certify.c0_iv(b.dims[0], regions.phi_of_z(*b.dims, INTERVAL)),
     [(0.01, 0.4), (0.0, 1.0)], 0.01, 0.02, False),
    # a bound c1 fails on part of V7's square
    (lambda b: certify.c1_iv(b.dims[0], regions.phi_of_z(*b.dims, INTERVAL)),
     [(0.0, 1.0), (0.0, 1.0)], 0.5, 1e-3, False),
    # a three-dimensional box, failing near a's minimum 0.101 at (0, pi/2, 0)
    (lambda b: regions.coeff_a(*b.dims, INTERVAL), [(0.0, 1.5), (0.0, 3.0), (-1.0, 1.0)],
     0.2, 0.05, False),
    # the dip at 5/16 is first hit by a center at depth 3, where every box
    # is narrower than min_width: no children are left to carry the centers
    (lambda b: (b.dims[0] - 0.3125).power(2) - 1e-6, [(0.0, 1.0)], 0.0, 0.2, False),
    # a failing center on a box too thin to bisect: FAILED, not ValueError
    (lambda b: b.dims[0], [(1.0, math.nextafter(1.0, 2.0))], 2.0, 1e-300, False),
    # f raises on the children of a box whose center fails
    (_raises_below_width(0.6, lambda b: b.dims[0] - 0.75), [(0.0, 1.0)], 0.0, 1e-3, False),
    # at depth 1, box 0 is too thin to bisect and box 1's center fails
    (_fails_at_point(1 + 3 * _ULP), [(1 + _ULP, 1 + 4 * _ULP)], 0.0, 1e-300, False),
    # f raises on the root box: both searches raise
    (_raises_below_width(2.0, lambda b: b.dims[0]), [(0.0, 1.0)], 0.0, 1e-3, False),
]


@pytest.mark.parametrize("f, box, bound, min_width, strict", SCALAR_CASES)
def test_lane_search_matches_scalar_reference(f, box, bound, min_width, strict):
    box = Box.from_bounds(box)
    try:
        status, witness, levels = _scalar_search(f, box, bound, min_width, strict)
    except (ArithmeticError, ValueError) as exc:
        with pytest.raises(type(exc)):
            certify.prove_lower_bound(f, box, bound, min_width, strict=strict)
        return
    out = certify.prove_lower_bound(f, box, bound, min_width, strict=strict)
    assert (out.status, _bounds(out.witness), out.level_boxes) == (status, _bounds(witness), levels)
    assert (out.boxes_examined, out.max_depth) == (sum(levels), len(levels) - 1)


# several roots, each proved by its scalar reference
ROOTS_CASES = [
    # V7's two regions outside A, strict
    (lambda b: certify.c1_iv(b.dims[0], regions.phi_of_z(*b.dims, INTERVAL)),
     [[(783 / 1024, 1.0), (0.0, 1.0)], [(0.0, 1.0), (0.0, 779 / 1024)]], 0.01, 1e-5, True),
    # roots of different depths, one discharged at once
    (lambda b: b.dims[0].sin(), [[(0.0, 3.0)], [(1.0, 2.0)], [(0.5, 1.0)]], -0.001, 1e-3, False),
    (lambda b: regions.coeff_q0(b.dims[0], INTERVAL), [[(math.pi / 8, 1.0)], [(1.0, 3.0)]],
     1.9, 1e-4, True),
]


@pytest.mark.parametrize("f, boxes, bound, min_width, strict", ROOTS_CASES)
def test_several_roots_prove_as_the_merged_scalar_references(f, boxes, bound, min_width, strict):
    roots = [Box.from_bounds(b) for b in boxes]
    out = certify.prove_lower_bound(f, roots, bound, min_width, strict=strict)
    refs = [_scalar_search(f, root, bound, min_width, strict) for root in roots]
    assert all(status is Status.PROVED for status, _, _ in refs)
    assert (out.status, out.witness) == (Status.PROVED, None)
    assert out.level_boxes == certify._level_sums([levels for _, _, levels in refs])
    assert (out.boxes_examined, out.max_depth) == (sum(out.level_boxes), len(out.level_boxes) - 1)


def test_several_roots_fail_at_the_first_center_in_level_major_order():
    # the first root fails at depth 7 and the second at depth 2: the witness
    # is the second root's, where failing each root in turn would give the first's
    f = lambda b: ((b.dims[0] - 0.3).power(2) - 1e-6) * ((b.dims[0] - 2.5).power(2) - 0.01)
    roots = [Box.from_bounds([(0.0, 1.0)]), Box.from_bounds([(2.0, 3.5)])]
    assert certify.prove_lower_bound(f, roots[0], 0.0, 1e-9).max_depth == 7
    out = certify.prove_lower_bound(f, roots, 0.0, 1e-9)
    assert out.status is Status.FAILED
    assert _bounds(out.witness) == ((2.375, 2.75),)
    assert (out.level_boxes, out.boxes_examined, out.max_depth) == ((2, 4, 4), 10, 2)


def test_several_roots_must_share_one_dimension():
    f = lambda b: b.dims[0]
    with pytest.raises(ValueError, match="one dimension"):
        certify.prove_lower_bound(f, [Box.from_bounds([(0.0, 1.0)]), Box.from_bounds([(0.0, 1.0)] * 2)],
                                  0.0, 1e-3)
    with pytest.raises(ValueError, match="one dimension"):
        certify.prove_lower_bound(f, [], 0.0, 1e-3)


def test_run_task_searches_the_regions_of_one_check_as_one_frontier(monkeypatch):
    searched = []
    search = certify.prove_lower_bound

    def spy(f, box, *args, **kwargs):
        searched.append(box)
        return search(f, box, *args, **kwargs)

    monkeypatch.setattr(certify, "prove_lower_bound", spy)
    for tid, roots in {"V2": 1, "V3": 2, "V5": 2, "V7": 2, "V9": 1}.items():
        searched.clear()
        cert = certify.run_task(tid)
        assert cert.status is Status.PROVED, tid
        assert searched == [cert.regions[0] if roots == 1 else cert.regions[:roots]], tid
        assert cert.level_boxes[0] == roots, tid
    # a check called on one region searches that region alone
    searched.clear()
    region, check = certify._TASKS["V7"].parts[1]
    assert check(region, 1e-5, {}).level_boxes[0] == 1
    assert searched == [region]


def _recording(f):
    """f, recording the lanes of each call: its boxes and its centers, each lane a tuple of
    (lo, hi) per dimension."""
    calls = []

    def g(b):
        lanes = list(zip(*(zip(np.atleast_1d(iv.lo).tolist(), np.atleast_1d(iv.hi).tolist())
                           for iv in b.dims)))
        n = len(lanes) // 2
        calls.append((lanes[:n], lanes[n:]))
        return f(b)

    return g, calls


@pytest.mark.parametrize(
    "f, box, bound, min_width, status, blocks",
    [
        # V2 in full on the natural form: 4505 boxes at 22 levels; levels 0-6
        # share the first call, and every wider level is alone in its own
        (lambda b: certify.c0_iv(*b.dims), [(0.4, math.pi / 2), (0.0, math.pi / 2)], 0.01, 1e-5,
         Status.PROVED, [127, 82, 124, 180, 256, 270, 332, 342, 414, 396, 458, 440, 478, 356, 254, 180]),
        (lambda b: ((b.dims[0] - 0.3).power(2) - 1e-6) * ((b.dims[0] - 14.5).power(2) - 0.01),
         [(0.0, 16.0)], 0.0, 1e-9, Status.FAILED, [127]),
        (lambda b: b.dims[0] - b.dims[0], [(0.0, 1.0)], 0.0, 1e-2, Status.INCONCLUSIVE, [127, 128]),
    ],
    ids=["V2", "dip", "flat"],
)
def test_prove_lower_bound_calls_f_once_per_block_of_levels(monkeypatch, f, box, bound, min_width,
                                                              status, blocks):
    g, calls = _recording(f)
    out = certify.prove_lower_bound(g, Box.from_bounds(box), bound, min_width)
    assert out.status is status
    assert [len(boxes) for boxes, _ in calls] == blocks
    assert out.calls == len(calls) < len(out.level_boxes)
    # each call's lanes are its boxes followed by their centers
    for boxes, centers in calls:
        assert centers == [tuple((c, c) for c in Box.from_bounds(lane).center()) for lane in boxes]
    assert len(out.level_seconds) == len(out.level_boxes)
    assert all(t >= 0.0 for t in out.level_seconds)
    # one level per call evaluates exactly the examined levels, whole
    budget = certify._BUDGET
    monkeypatch.setattr(certify, "_BUDGET", 1)  # each call evaluates its frontier alone
    g, levels = _recording(f)
    alone = certify.prove_lower_bound(g, Box.from_bounds(box), bound, min_width)
    assert (alone.status, _bounds(alone.witness), alone.level_boxes) == (
        out.status, _bounds(out.witness), out.level_boxes)
    assert alone.calls == len(levels) == len(out.level_boxes)
    if status is Status.FAILED:
        # the last level counts its boxes up to the witness only, the third of four
        assert (len(levels[-1][0]), out.level_boxes[-1]) == (4, 3)
        levels[-1] = (levels[-1][0][:3], None)
    assert [len(boxes) for boxes, _ in levels] == list(out.level_boxes)
    # the examined boxes are among the evaluated ones, and a call over
    # budget is one level alone
    evaluated = {lane for boxes, _ in calls for lane in boxes}
    assert all(lane in evaluated for boxes, _ in levels for lane in boxes)
    assert all(len(boxes) <= budget or boxes in [b for b, _ in levels] for boxes, _ in calls)


def _outcome(search):
    """Status, witness hex, boxes examined, depth and level sizes of a search, or the
    type of what it raises."""
    try:
        out = search()
    except Exception as exc:
        return type(exc)
    witness = None if out.witness is None else [(a.hex(), b.hex()) for a, b in _bounds(out.witness)]
    return out.status, witness, out.boxes_examined, out.max_depth, out.level_boxes


@pytest.mark.parametrize(
    "f, roots, bound, min_width, strict",
    [(f, [box], bound, min_width, strict) for f, box, bound, min_width, strict in SCALAR_CASES]
    + ROOTS_CASES
    + [(lambda b: ((b.dims[0] - 0.3).power(2) - 1e-6) * ((b.dims[0] - 2.5).power(2) - 0.01),
        [[(0.0, 1.0)], [(2.0, 3.5)]], 0.0, 1e-9, False)],
)
def test_speculation_leaves_the_outcome_of_one_level_per_call(monkeypatch, f, roots, bound, min_width,
                                                               strict):
    roots = [Box.from_bounds(r) for r in roots]
    search = lambda: certify.prove_lower_bound(f, roots, bound, min_width, strict=strict)
    blocks = _outcome(search)
    monkeypatch.setattr(certify, "_BUDGET", 1)
    assert _outcome(search) == blocks


def test_speculation_leaves_the_certificates_of_one_level_per_call(monkeypatch, all_certs):
    def bare(cert):
        d = cert.to_json_dict()
        d.pop("wall_ms")
        return d, cert.level_boxes

    monkeypatch.setattr(certify, "_BUDGET", 1)
    for tid, cert in all_certs.items():
        assert bare(certify.run_task(tid)) == bare(cert), tid


def _raises_inside(lo, hi, f):
    """f, raising on a box inside [lo, hi] narrower than it but not a point."""

    def g(b):
        a, c = np.asarray(b.dims[0].lo), np.asarray(b.dims[0].hi)
        if ((lo <= a) & (c <= hi) & (0 < c - a) & (c - a < hi - lo)).any():
            raise ZeroDivisionError("box too narrow for this f")
        return f(b)

    return g


def test_a_call_that_raises_is_made_again_on_the_frontier_alone():
    f = lambda b: b.dims[0] * b.dims[0] - b.dims[0] * 0.6
    box = Box.from_bounds([(0.0, 1.0)])
    assert certify.prove_lower_bound(f, box, -0.1, 1e-3).calls == 1
    # [0.75, 1] is discharged at depth 2, so only speculation reaches its
    # children: the calls from depths 0, 1 and 2 raise and are made again on
    # their frontiers alone, and one call serves depths 3-6
    quiet = _raises_inside(0.75, 1.0, f)
    status, witness, levels = _scalar_search(quiet, box, -0.1, 1e-3)
    out = certify.prove_lower_bound(quiet, box, -0.1, 1e-3)
    assert (out.status, _bounds(out.witness), out.level_boxes) == (status, _bounds(witness), levels)
    assert (status, out.calls) == (Status.PROVED, 7)
    # [0, 0.25] is live at depth 2, so its children are examined
    loud = _raises_inside(0.0, 0.25, f)
    with pytest.raises(ZeroDivisionError):
        _scalar_search(loud, box, -0.1, 1e-3)
    with pytest.raises(ZeroDivisionError):
        certify.prove_lower_bound(loud, box, -0.1, 1e-3)


def test_prove_lower_bound_raises_on_a_thin_box_once_its_center_passes():
    box = Box.from_bounds([(1.0, math.nextafter(1.0, 2.0))])
    with pytest.raises(ValueError, match="too thin to bisect"):
        certify.prove_lower_bound(lambda b: b.dims[0] - b.dims[0], box, 0.0, 1e-300)


def test_prove_lower_bound_broadcasts_a_scalar_result():
    box = Box.from_bounds([(0.0, 1.0), (0.0, 1.0)])
    out = certify.prove_lower_bound(lambda b: Interval(1.0, 2.0), box, 0.5, 1e-3)
    assert out.status is Status.PROVED
    assert (out.boxes_examined, out.max_depth, out.level_boxes) == (1, 0, (1,))


def test_prove_lower_bound_validates_min_width():
    box = Box((Interval(0.0, 1.0),))
    with pytest.raises(ValueError):
        certify.prove_lower_bound(lambda b: b.dims[0], box, 0.0, 0.0)


@pytest.mark.parametrize("min_width", [math.nan, math.inf])
def test_min_width_must_be_finite(min_width):
    box = Box((Interval(0.0, 1.0),))
    with pytest.raises(ValueError, match="finite"):
        certify.prove_lower_bound(lambda b: b.dims[0], box, 0.0, min_width)
    with pytest.raises(ValueError, match="finite"):
        certify.run_task("V2", min_width=min_width)


# ---------------------------------------------------------------------------
# The nine tasks.


@pytest.fixture(scope="module")
def all_certs():
    return {tid: certify.run_task(tid) for tid in certify.TASK_IDS}


def test_all_tasks_proved(all_certs):
    for tid, cert in all_certs.items():
        assert cert.status is Status.PROVED, f"{tid} -> {cert.status}"
        assert cert.witness is None
        assert cert.rounding_mode == "nextafter-outward"


# (boxes_examined, max_depth) of every task's proof tree
PINNED_TREES = {
    "V1": (1, 0),
    "V2": (163, 11),
    "V3": (202, 8),
    "V4": (0, 0),
    "V5": (110, 12),
    "V6": (1, 0),
    "V7": (78, 9),
    "V8": (113, 8),
    "V9": (39, 7),
}


def test_proof_trees_are_pinned(all_certs):
    for tid, tree in PINNED_TREES.items():
        cert = all_certs[tid]
        assert (cert.boxes_examined, cert.max_depth) == tree, tid
        assert sum(cert.level_boxes) == cert.boxes_examined, tid
        assert len(cert.level_boxes) == (cert.max_depth + 1 if cert.boxes_examined else 0), tid


# The nine certificates' statements: coordinate system, target, default
# min_width, and the hex endpoints of every region in order.
_0, _1 = "0x0.0p+0", "0x1.0000000000000p+0"
_HALF_PI = "0x1.921fb54442d19p+0"  # pi/2 rounded up
PINNED_TASKS = {
    "V1": ("(phi0, phi)", "a(phi0, phi, v) >= 0.1 via a >= a|_{v=0}", 1e-5,
           [[(_0, _HALF_PI), (_0, "0x1.921fb54442d19p+1")]]),
    "V2": ("(phi0, phi)", "v^0 coefficient of P >= 0.01", 1e-5,
           [[("0x1.999999999999ap-2", _HALF_PI), (_0, _HALF_PI)]]),
    "V3": ("(phi0, z)", "v^0 coefficient of P >= 0.01", 1e-5,
           [[("0x1.47ae147ae147bp-7", "0x1.999999999999ap-2"), (_0, _1)],
            [(_0, "0x1.999999999999ap-2"), ("0x1.47ae147ae147bp-7", _1)]]),
    "V4": ("(phi0, phi)", "two-term Taylor enclosure of the v^0 coefficient is strictly positive", 1e-5,
           [[(_0, "0x1.47ae147ae147bp-7"), (_0, "0x1.5810624dd2f1bp-6")]]),
    "V5": ("(phi0, phi)", "v^2 coefficient of P >= 0.01 away from the origin; Taylor-positive near it", 1e-5,
           [[("0x1.c28f5c28f5c29p-4", _HALF_PI), (_0, _HALF_PI)],
            [(_0, _HALF_PI), ("0x1.3a92a30553261p-11", _HALF_PI)],
            [(_0, "0x1.c28f5c28f5c29p-4"), (_0, "0x1.3a92a30553261p-11")]]),
    "V6": ("(phi0, phi)", "v^1 coefficient of P >= 0.01", 1e-5,
           [[(_1, _HALF_PI), (_0, _HALF_PI)]]),
    "V7": ("(phi0, z)", "sublevel set {v^1 coefficient <= 0.01} lies inside [0, 783/1024] x [779/1024, 1]",
           1e-5, [[("0x1.8780000000000p-1", _1), (_0, _1)], [(_0, _1), (_0, "0x1.8580000000000p-1")]]),
    "V8": ("(phi0, z)", "min over v of c0 + c1 v + c2 v^2 (= c0 - c1^2 / 4 c2) >= 0.5 on the reference box",
           1e-4, [[(_0, "0x1.8780000000000p-1"), ("0x1.8580000000000p-1", _1)]]),
    "V9": ("(phi)", "q0 > 1.9 on [pi/8, 3]; analytic tail bounds confirmed at sample points", 1e-4,
           [[("0x1.921fb54442d18p-2", "0x1.8000000000000p+1")]]),
}


def test_certificate_tasks_are_pinned(all_certs):
    assert tuple(PINNED_TASKS) == certify.TASK_IDS
    for tid, (coords, target, min_width, regions_hex) in PINNED_TASKS.items():
        cert = all_certs[tid]
        assert (cert.coordinate_system, cert.target, cert.min_width) == (coords, target, min_width), tid
        assert [[(a.hex(), b.hex()) for a, b in _bounds(r)] for r in cert.regions] == regions_hex, tid


# (calls of f, lanes) of every task's searches: one call per block of
# levels, each box of a block with its center lane
PINNED_CALLS = {
    "V1": (1, 254),
    "V2": (3, 890),
    "V3": (3, 716),
    "V4": (0, 0),
    "V5": (3, 852),
    "V6": (1, 254),
    "V7": (2, 612),
    "V8": (2, 450),
    "V9": (2, 506),
}


def _seeded_boxes(tid, budget):
    """The certificate at this budget, and the boxes of each call of its forms, each box
    a tuple of (lo, hi) per dimension, checking that each call's lanes are its boxes
    followed by their centers."""
    seeded = []
    variable = GradientArray.variable

    def spy(x, i, k):
        n = len(x) // 2
        center = Interval(x.lo[:n], x.hi[:n]).midpoint()
        assert len(x) == 2 * n and (x.lo[n:] == center).all() and (x.hi[n:] == center).all()
        if i == 0:
            seeded.append([])
        seeded[-1].append(zip(x.lo[:n].tolist(), x.hi[:n].tolist()))
        return variable(x, i, k)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(certify, "_BUDGET", budget)
        m.setattr(GradientArray, "variable", staticmethod(spy))
        cert = certify.run_task(tid)
    return cert, [list(zip(*dims)) for dims in seeded]


def test_certificate_forms_see_two_gradient_lanes_per_box():
    for tid in certify.TASK_IDS:
        cert, calls = _seeded_boxes(tid, certify._BUDGET)
        assert (cert.calls, 2 * sum(map(len, calls))) == PINNED_CALLS[tid], tid
        assert len(calls) == cert.calls, tid
        # one level per call evaluates exactly the examined boxes, and the
        # blocks evaluate each of them
        alone, levels = _seeded_boxes(tid, 1)
        assert [len(boxes) for boxes in levels] == list(alone.level_boxes) == list(cert.level_boxes), tid
        evaluated = {box for boxes in calls for box in boxes}
        assert all(box in evaluated for boxes in levels for box in boxes), tid
    calls, lanes = map(sum, zip(*PINNED_CALLS.values()))
    assert (calls, lanes) == (17, 4534)
    # against one call per level, 63 in all
    assert sum(depth + 1 for boxes, depth in PINNED_TREES.values() if boxes) == 63
    assert calls <= 25


def test_level_seconds_sit_beside_level_boxes_in_memory_only(all_certs):
    for tid, cert in all_certs.items():
        assert len(cert.level_seconds) == len(cert.level_boxes), tid
        assert all(t >= 0.0 for t in cert.level_seconds), tid
        assert "level_seconds" not in cert.to_json_dict()


def test_calls_sit_beside_level_boxes_in_memory_only(all_certs):
    keys = {"task_id", "coordinate_system", "target", "regions", "status", "witness", "boxes_examined",
            "max_depth", "min_width", "rounding_mode", "wall_ms", "details"}
    for tid, cert in all_certs.items():
        assert set(cert.to_json_dict()) == keys, tid
        assert cert.calls == PINNED_CALLS[tid][0], tid
    a = certify.BnbOutcome(Status.PROVED, None, 3, 1, (1, 2), (0.5, 0.25), 2)
    b = certify.BnbOutcome(Status.PROVED, None, 1, 0, (1,), (0.125,), 1)
    assert certify._merge_outcomes([a, b]).calls == 3


def test_merged_outcomes_add_level_seconds_level_by_level():
    a = certify.BnbOutcome(Status.PROVED, None, 3, 1, (1, 2), (0.5, 0.25))
    b = certify.BnbOutcome(Status.PROVED, None, 1, 0, (1,), (0.125,))
    merged = certify._merge_outcomes([a, b])
    assert (merged.level_boxes, merged.level_seconds) == ((2, 2), (0.625, 0.25))


def test_v1_and_v6_discharge_at_the_root(all_certs):
    assert all_certs["V1"].boxes_examined == 1
    assert all_certs["V6"].boxes_examined == 1


def test_v4_taylor_intervals_match_reference(all_certs):
    t = all_certs["V4"].details["taylor"]
    c3 = t["phi0_cubed"]["decimal"]
    c1 = t["phi_linear"]["decimal"]
    assert c3[0] > 0.0 and c1[0] > 0.0
    # overlap the reference displays with endpoint deviation under 0.05
    ref3, ref1 = (13.2121, 13.24), (15.673, 15.6867)
    assert c3[0] < ref3[1] and ref3[0] < c3[1]
    assert abs(c3[0] - ref3[0]) < 0.05 and abs(c3[1] - ref3[1]) < 0.05
    assert c1[0] < ref1[1] and ref1[0] < c1[1]
    assert abs(c1[0] - ref1[0]) < 0.05 and abs(c1[1] - ref1[1]) < 0.05


def test_v5_taylor_intervals_match_reference(all_certs):
    t = all_certs["V5"].details["taylor"]
    c3 = t["phi0_cubed"]["decimal"]
    c1 = t["phi_linear"]["decimal"]
    assert c3[0] > 0.0 and c1[0] > 0.0
    ref3, ref1 = (9.76536, 9.83056), (21.2159, 21.4586)
    assert c3[0] < ref3[1] and ref3[0] < c3[1]
    assert abs(c3[0] - ref3[0]) < 0.05 and abs(c3[1] - ref3[1]) < 0.05
    assert c1[0] < ref1[1] and ref1[0] < c1[1]
    assert abs(c1[0] - ref1[0]) < 0.05 and abs(c1[1] - ref1[1]) < 0.05


def test_taylor_endpoints_are_pinned(all_certs):
    # exact endpoints of the exact-series enclosures; any change to the
    # series arithmetic or its remainder masses moves them
    pinned = {
        "V4": ("0x1.a74cddacfa0f6p+3", "0x1.a75da46381024p+3",
               "0x1.f57674520207bp+3", "0x1.f5fbf37110f6fp+3"),
        "V5": ("0x1.3924c327f5d66p+3", "0x1.3989459f2e151p+3",
               "0x1.536fdc7b4bffdp+4", "0x1.5756e356d386fp+4"),
    }
    for tid, want in pinned.items():
        t = all_certs[tid].details["taylor"]
        assert (*t["phi0_cubed"]["hex"], *t["phi_linear"]["hex"]) == want, tid


def test_v7_enclosure_contained_in_reference(all_certs):
    # its regions, pinned above, are the two boxes of [0, 1]^2 outside A
    assert all_certs["V7"].details == {
        "reference": [["0", "783/1024"], ["779/1024", "1"]],
        "contained_in_reference": True,
    }


def _v7_check(region):
    _, check = certify._TASKS["V7"].parts[0]
    details = {}
    return check(Box.from_bounds(region), 1e-5, details), details


@pytest.mark.parametrize(
    "region",
    [
        [(778 / 1024, 1.0), (0.0, 1.0)],  # A shrunk to phi0 <= 778/1024
        [(0.0, 1.0), (0.0, 784 / 1024)],  # A shrunk to z >= 784/1024
    ],
)
def test_v7_check_fails_on_a_shrunk_reference(region):
    out, details = _v7_check(region)
    assert out.status is Status.FAILED
    assert details["contained_in_reference"] is False
    # the witness center lies in A, and c1 <= 0.01 there, rounded outward
    p0, z = out.witness.center()
    assert p0 <= 783 / 1024 and z >= 779 / 1024
    phi0 = Interval.point(p0)
    assert certify.c1_iv(phi0, regions.phi_of_z(phi0, Interval.point(z), INTERVAL)).hi <= 0.01


def test_v7_honours_min_width():
    cert = certify.run_task("V7", min_width=0.1)
    assert cert.status is Status.INCONCLUSIVE
    assert cert.witness is not None
    assert cert.details["contained_in_reference"] is False


def test_v7_bound_is_strict():
    # a form equal to the threshold outside A: the plain lower bound proves
    # f >= 0.01 at the root, but such a point lies in the sublevel set
    flat = lambda b: Interval(0.01, 0.01)
    details = {}
    for region, check in certify._outside_reference(flat, 0.01):
        assert certify.prove_lower_bound(flat, region, 0.01, 1e-5).status is Status.PROVED
        assert check(region, 1e-5, details).status is Status.FAILED
    assert details["contained_in_reference"] is False


def test_v9_sample_confirmations_recorded(all_certs):
    d = all_certs["V9"].details
    assert all(s["margin_lo"] >= 0.0 for s in d["small_phi_bound"]["samples"])
    assert all(s["margin_lo"] >= 0.0 for s in d["large_phi_bound"]["samples"])
    assert len(d["small_phi_bound"]["samples"]) >= 5
    assert len(d["large_phi_bound"]["samples"]) >= 5


def test_certificates_serialize_to_json(all_certs):
    for tid, cert in all_certs.items():
        blob = json.loads(cert.to_json())
        assert blob["task_id"] == tid
        assert blob["status"] == "proved"
        assert blob["witness"] is None
        assert blob["min_width"] > 0
        assert blob["rounding_mode"] == "nextafter-outward"
        assert isinstance(blob["wall_ms"], int)
        for region in blob["regions"]:
            for (dl, dh), (xl, xh) in zip(region["decimal"], region["hex"]):
                assert float.fromhex(xl) == dl
                assert float.fromhex(xh) == dh


def test_v2_is_honestly_inconclusive_when_too_coarse():
    cert = certify.run_task("V2", min_width=0.1)
    assert cert.status is Status.INCONCLUSIVE
    assert cert.witness is not None


def test_run_task_rejects_bad_input():
    with pytest.raises(ValueError):
        certify.run_task("V10")
    with pytest.raises(ValueError):
        certify.run_task("V2", min_width=-1.0)


def test_certificates_deterministic_across_worker_counts():
    for tid in ("V2", "V3", "V9"):
        dicts = []
        for workers in (1, 4, 16):
            d = certify.run_task(tid, workers=workers).to_json_dict()
            d.pop("wall_ms")
            dicts.append(d)
        assert dicts[0] == dicts[1] == dicts[2]


# ---------------------------------------------------------------------------
# Gradient lanes and the mean-value form on every form a certificate evaluates.

_HP = math.pi / 2


def _quad_min_float(p0, z):
    c0, c1, c2, _ = regions.P_cubic_coefficients(p0, _zmap(p0, z))
    return c0 - c1 * c1 / (4.0 * c2)


# name: (the form on a box, the same form on float arrays, the domain of its boxes)
CERTIFIED_FORMS = {
    "V1 a at v = 0": (lambda b: regions.coeff_a(*b.dims, Interval.point(0.0), INTERVAL),
                      lambda p0, ph: regions.eval_a(p0, ph, 0.0), [(0.0, _HP), (0.0, math.pi)]),
    "c0": (lambda b: certify.c0_iv(*b.dims), regions.coeff_c0, [(0.0, _HP), (0.0, _HP)]),
    "c1": (lambda b: certify.c1_iv(*b.dims), regions.coeff_c1, [(0.0, _HP), (0.0, _HP)]),
    "c2": (lambda b: certify.c2_iv(*b.dims), regions.coeff_c2, [(0.0, _HP), (0.0, _HP)]),
    "c0 in z": (lambda b: certify.c0_iv(b.dims[0], regions.phi_of_z(*b.dims, INTERVAL)),
                lambda p0, z: regions.coeff_c0(p0, _zmap(p0, z)), [(0.0, 0.4), (0.0, 1.0)]),
    "c1 in z": (lambda b: certify.c1_iv(b.dims[0], regions.phi_of_z(*b.dims, INTERVAL)),
                lambda p0, z: regions.coeff_c1(p0, _zmap(p0, z)), [(0.0, 1.0), (0.0, 1.0)]),
    # A widened to z >= 0, so that c2 reaches 0 on some boxes
    "quad_min": (certify._quad_min, _quad_min_float, [(0.0, 783 / 1024), (0.0, 1.0)]),
    "q0": (lambda b: regions.coeff_q0(b.dims[0], INTERVAL), regions.coeff_q0, [(math.pi / 8, 3.0)]),
}


def _random_lanes(domain, seed: int, n: int = 2000):
    """n random boxes in the domain, each dimension of zero width one time in five,
    as `Interval` lanes per dimension, and a random point of each box."""
    rng = np.random.default_rng(seed)
    lanes, points = [], []
    for a, b in domain:
        w = (b - a) * rng.uniform(0.0, 0.5, n) * (rng.uniform(size=n) > 0.2)
        lo = rng.uniform(a, b - w)
        lanes.append(Interval(lo, lo + w))
        points.append(np.clip(lo + rng.uniform(size=n) * w, lo, lo + w))
    return lanes, points


def _gradient_box(lanes) -> Box:
    return Box(tuple(GradientArray.variable(x, i, len(lanes)) for i, x in enumerate(lanes)))


def _with_centers(lanes) -> tuple[Box, list[Interval]]:
    """The lanes followed by their midpoints, as a `prove_lower_bound` level
    lays them out, and the midpoints alone."""
    centers = [Interval.point(x.midpoint()) for x in lanes]
    both = [Interval(np.concatenate((x.lo, c.lo)), np.concatenate((x.hi, c.hi)))
            for x, c in zip(lanes, centers)]
    return Box(tuple(both)), centers


@pytest.mark.parametrize("name", sorted(CERTIFIED_FORMS))
def test_gradient_lanes_enclose_every_certified_form_and_its_partials(name):
    # at a random point of each random box: row 0 holds the float value, and
    # partial row i a central difference in variable i, up to the
    # difference's own error (step 1e-6: about 1e-12 truncation, 1e-10 rounding)
    form, floats, domain = CERTIFIED_FORMS[name]
    lanes, points = _random_lanes(domain, 11)
    got = form(_gradient_box(lanes))
    assert isinstance(got, GradientArray) and got.lo.shape == (1 + len(domain), 2000)
    live = got.lo[0] > -1e30  # _quad_min's lanes where c2 may reach 0 carry no enclosure
    assert live.mean() > 0.5
    lo, hi = got.lo[:, live], got.hi[:, live]
    points = [p[live] for p in points]
    value = floats(*points)
    assert np.all((lo[0] <= value) & (value <= hi[0]))
    h = 1e-6
    for i in range(len(domain)):
        up = [p + h * (j == i) for j, p in enumerate(points)]
        down = [p - h * (j == i) for j, p in enumerate(points)]
        d = (floats(*up) - floats(*down)) / (2 * h)
        tol = 1e-6 * (1.0 + np.abs(d))
        assert np.all((lo[1 + i] - tol <= d) & (d <= hi[1 + i] + tol)), i


@pytest.mark.parametrize("name", sorted(CERTIFIED_FORMS))
def test_mean_value_enclosure_lies_inside_the_natural_one(name):
    form, floats, domain = CERTIFIED_FORMS[name]
    lanes, points = _random_lanes(domain, 12)
    natural = form(_gradient_box(lanes)).value  # row 0 is the natural evaluation
    box, centers = _with_centers(lanes)
    got = certify._mean_value(form)(box)
    assert isinstance(got, Interval) and len(got) == 4000
    # the center lanes carry the form's value at the centers
    at_centers = form(_gradient_box(centers)).value
    np.testing.assert_array_equal(got.lo[2000:], at_centers.lo)
    np.testing.assert_array_equal(got.hi[2000:], at_centers.hi)
    got = got[:2000]
    assert np.all((natural.lo <= got.lo) & (got.hi <= natural.hi))
    value = floats(*points)
    live = natural.lo > -1e30
    assert np.all((got.lo <= value) & (value <= got.hi) | ~live)
    # a lane that has no enclosure (where c2 may reach 0 in _quad_min) gains none
    assert np.all(got.lo[~live] < -1e20)
    assert live.all() == (name != "quad_min")


def test_mean_value_form_raises_on_disjoint_enclosures():
    # a form claiming slope 0 whose center value lies 5 above its natural
    # enclosure: the intersection is empty, and it is never clamped
    def unsound(b):
        x = b.dims[0]
        lo, hi = x.lo.copy(), x.hi.copy()
        lo[1:] = hi[1:] = 0.0
        n = lo.shape[1] // 2
        lo[0, n:] += 5.0
        hi[0, n:] += 5.0
        return GradientArray(lo, hi)

    box = Box.from_bounds([(0.0, 1.0)])
    with pytest.raises(ArithmeticError, match="disjoint in lane 0"):
        certify._mean_value(unsound)(Box((Interval([0.0, 0.5], [1.0, 0.5]),)))
    with pytest.raises(ArithmeticError, match="disjoint"):
        certify.prove_lower_bound(certify._mean_value(unsound), box, 0.0, 1e-3)


def test_mean_value_form_passes_a_constant_through():
    flat = Interval(0.01, 0.01)
    assert certify._mean_value(lambda b: flat)(Box((Interval([0.0, 0.5], [1.0, 0.5]),))) is flat


@pytest.mark.parametrize(
    "lo, hi",
    [
        ([0.0], [1.0]),  # an odd number of lanes
        ([0.0, 0.25], [1.0, 0.5]),  # a center lane that is not a point
        ([0.0, 1.5], [1.0, 1.5]),  # a center outside its box
    ],
)
def test_mean_value_form_takes_boxes_followed_by_their_centers(lo, hi):
    # the centered form is sound only for a center inside its box
    g = certify._mean_value(lambda b: b.dims[0] * b.dims[0])
    with pytest.raises(ValueError, match="point lane inside each"):
        g(Box((Interval(lo, hi),)))


# ---------------------------------------------------------------------------
# Soundness cross-checks of every Proved bound by dense float sampling.


def test_proved_bounds_survive_dense_sampling(all_certs):
    rng = np.random.default_rng(2026)
    n = 1_000_000
    hp = math.pi / 2

    p0 = rng.uniform(0.0, hp, n)
    ph = rng.uniform(0.0, math.pi, n)
    v = rng.uniform(-3.0, 3.0, n)
    assert np.min(regions.eval_a(p0, ph, v)) >= 0.1  # V1

    p0 = rng.uniform(0.4, hp, n)
    ph = rng.uniform(0.0, hp, n)
    assert np.min(regions.P_cubic_coefficients(p0, ph)[0]) >= 0.01  # V2

    p0 = rng.uniform(0.01, 0.4, n // 2)
    z = rng.uniform(0.0, 1.0, n // 2)
    assert np.min(regions.P_cubic_coefficients(p0, _zmap(p0, z))[0]) >= 0.01  # V3 region 1
    p0 = rng.uniform(0.0, 0.4, n // 2)
    z = rng.uniform(0.01, 1.0, n // 2)
    assert np.min(regions.P_cubic_coefficients(p0, _zmap(p0, z))[0]) >= 0.01  # V3 region 2

    p0 = rng.uniform(0.11, hp, n // 2)
    ph = rng.uniform(0.0, hp, n // 2)
    assert np.min(regions.P_cubic_coefficients(p0, ph)[2]) >= 0.01  # V5 region 1
    p0 = rng.uniform(0.0, hp, n // 2)
    ph = rng.uniform(0.0006, hp, n // 2)
    assert np.min(regions.P_cubic_coefficients(p0, ph)[2]) >= 0.01  # V5 region 2

    p0 = rng.uniform(1.0, hp, n)
    ph = rng.uniform(0.0, hp, n)
    assert np.min(regions.P_cubic_coefficients(p0, ph)[1]) >= 0.01  # V6

    p0 = rng.uniform(0.0, 783 / 1024, n)
    z = rng.uniform(779 / 1024, 1.0, n)
    c0, c1, c2, _ = regions.P_cubic_coefficients(p0, _zmap(p0, z))
    assert np.min(c2) > 0.0
    assert np.min(c0 - c1 * c1 / (4.0 * c2)) >= 0.5  # V8

    p0 = rng.uniform(783 / 1024, 1.0, n // 2)
    z = rng.uniform(0.0, 1.0, n // 2)
    assert np.min(regions.P_cubic_coefficients(p0, _zmap(p0, z))[1]) > 0.01  # V7 region 1
    p0 = rng.uniform(0.0, 1.0, n // 2)
    z = rng.uniform(0.0, 779 / 1024, n // 2)
    assert np.min(regions.P_cubic_coefficients(p0, _zmap(p0, z))[1]) > 0.01  # V7 region 2

    ph = rng.uniform(math.pi / 8, 3.0, n)
    assert np.min(regions.Q_cubic_coefficients(ph)[0]) > 1.9  # V9


def test_taylor_two_term_enclosure_is_sound():
    # c0(phi0, phi) must equal C3 phi0^3 + C1 phi for some values inside the
    # returned intervals, pointwise over the stated box.
    box = Box((Interval(0.0, 0.01), Interval(0.0, 0.021)))
    c3, c1 = certify.taylor_enclose_P_coeff("v0", box)
    rng = np.random.default_rng(8)
    p0 = rng.uniform(0.0, 0.01, 100_000)
    ph = rng.uniform(0.0, 0.021, 100_000)
    val = regions.P_cubic_coefficients(p0, ph)[0]
    lo = c3.lo * p0**3 + c1.lo * ph
    hi = c3.hi * p0**3 + c1.hi * ph
    assert np.all(val >= lo - 1e-13)
    assert np.all(val <= hi + 1e-13)

    box2 = Box((Interval(0.0, 0.11), Interval(0.0, 0.0006)))
    d3, d1 = certify.taylor_enclose_P_coeff("v2", box2)
    p0 = rng.uniform(0.0, 0.11, 100_000)
    ph = rng.uniform(0.0, 0.0006, 100_000)
    val = regions.P_cubic_coefficients(p0, ph)[2]
    lo = d3.lo * p0**3 + d1.lo * ph
    hi = d3.hi * p0**3 + d1.hi * ph
    assert np.all(val >= lo - 1e-13)
    assert np.all(val <= hi + 1e-13)


def test_taylor_narrows_on_smaller_boxes():
    full = Box((Interval(0.0, 0.01), Interval(0.0, 0.021)))
    smaller = Box((Interval(0.0, 0.005), Interval(0.0, 0.01)))
    f3, f1 = certify.taylor_enclose_P_coeff("v0", full)
    s3, s1 = certify.taylor_enclose_P_coeff("v0", smaller)
    assert f3.encloses(s3)
    assert f1.encloses(s1)


def test_taylor_rejects_out_of_domain_boxes():
    with pytest.raises(ValueError):
        certify.taylor_enclose_P_coeff("v0", Box((Interval(0.0, 0.02), Interval(0.0, 0.021))))
    with pytest.raises(ValueError):
        certify.taylor_enclose_P_coeff("v2", Box((Interval(-0.01, 0.1), Interval(0.0, 0.0005))))
    with pytest.raises(ValueError):
        certify.taylor_enclose_P_coeff("v1", Box((Interval(0.0, 0.01), Interval(0.0, 0.02))))


def test_sqrt6_rational_bracket():
    lo, hi = certify._SQRT6_LO, certify._SQRT6_HI
    assert lo * lo < 6 < hi * hi


def test_series_sin_and_cos_take_integer_multiples_of_one_variable():
    phi0, phi = certify._Sym.var("phi0"), certify._Sym.var("phi")
    assert (phi * -3).sin().poly[(0, 5)] == (Fraction(-243, 120), Fraction(0))
    assert (phi0 * 2).cos().fuzz == [(6, 0, Fraction(64, 720))]
    sqrt6 = certify._Sym.const(0, 1)
    for arg in (phi0 + phi, phi0 * phi, phi * sqrt6, phi + 1, phi.sin(), certify._Sym.const(1)):
        with pytest.raises(ValueError):
            arg.sin()
        with pytest.raises(ValueError):
            arg.cos()
