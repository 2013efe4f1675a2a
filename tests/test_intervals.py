import math
import operator

import numpy as np
import pytest

from biwind.intervals import (
    Box,
    GradientArray,
    Interval,
    IntervalArray,
    eighth_pi_iv,
    half_pi_iv,
    pi_iv,
    sqrt6_iv,
)


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    with pytest.raises(ValueError):
        Interval(0.0, math.inf)
    with pytest.raises(ValueError):
        Interval(math.nan, 1.0)
    iv = Interval(1.0, 1.0)
    assert iv.width == 0.0 and iv.midpoint() == 1.0


def test_mul_example_and_tightness():
    r = Interval(1.0, 2.0) * Interval(-1.0, 3.0)
    assert r.lo <= -2.0 and r.hi >= 6.0
    # within a couple of ulps of the exact endpoints
    assert r.lo >= math.nextafter(-2.0, -math.inf)
    assert r.hi <= math.nextafter(6.0, math.inf)


def test_add_sub_div_basics():
    a = Interval(1.0, 2.0)
    b = Interval(0.5, 4.0)
    s = a + b
    assert s.lo <= 1.5 and s.hi >= 6.0
    d = a - b
    assert d.lo <= -3.0 and d.hi >= 1.5
    q = a / Interval(2.0, 4.0)
    assert q.lo <= 0.25 and q.hi >= 1.0
    assert (3 + a).lo <= 4.0 <= (3 + a).hi + 1.0
    assert (1 - a).contains(-0.5)


def test_division_by_zero_straddling_interval_rejected():
    with pytest.raises(ZeroDivisionError):
        Interval(1.0, 2.0) / Interval(-1.0, 1.0)
    with pytest.raises(ZeroDivisionError):
        Interval(1.0, 2.0) / Interval(0.0, 1.0)
    with pytest.raises(ZeroDivisionError):
        Interval(1.0, 2.0) / Interval(-1.0, 0.0)


def test_power_sign_cases():
    assert Interval(-2.0, 2.0).power(2).lo == 0.0
    assert Interval(-2.0, 2.0).power(2).hi >= 4.0
    odd = Interval(-2.0, -1.0).power(3)
    assert odd.lo <= -8.0 and odd.hi >= -1.0 and odd.hi <= -0.999999
    pos = Interval(1.5, 2.0).power(4)
    assert pos.lo <= 1.5 ** 4 <= 2.0 ** 4 <= pos.hi
    strad = Interval(-1.0, 2.0).power(3)
    assert strad.lo <= -1.0 and strad.hi >= 8.0
    assert Interval(-3.0, 5.0).power(0) == Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(0.0, 1.0).power(-1)
    with pytest.raises(ValueError):
        Interval(0.0, 1.0).power(1.5)


def test_sin_over_zero_to_pi():
    r = pi_iv().hull(Interval.point(0.0)).sin()  # [0, pi-enclosure]
    assert r.lo <= 0.0
    assert r.hi >= 1.0
    assert r.hi <= 1.0  # clipped to the true range
    assert r.contains(0.5)


def test_cos_at_one_contains_reference_value():
    r = Interval(1.0, 1.0).cos()
    assert r.contains(0.5403023058681398)
    assert r.width < 1e-15


def test_trig_critical_points_and_clipping():
    assert Interval(1.5, 1.7).sin().hi == 1.0
    assert Interval(3.0, 3.3).cos().lo == -1.0
    assert Interval(-10.0, 10.0).sin() == Interval(-1.0, 1.0)
    r = Interval(0.1, 0.2).sin()
    assert 0.0 < r.lo < r.hi < 1.0


def test_constants_enclose_their_targets():
    p = pi_iv()
    assert p.lo == math.pi and p.hi == math.nextafter(math.pi, math.inf)
    assert p.sin().contains(0.0)
    assert half_pi_iv().contains(math.pi / 2)
    assert eighth_pi_iv().contains(math.pi / 8)
    s6 = sqrt6_iv()
    assert s6.power(2).contains(6.0)
    assert s6.width <= 3 * math.ulp(2.5)


def test_containment_fuzz_all_ops():
    # Random operand pairs, as lanes: random points inside the operands must
    # map into the interval result for every operation.  On every 100th pair
    # of each operation the scalar Interval, the reference, must give the
    # same bits and contain the point computed in scalar floats.
    rng = np.random.default_rng(101)
    n = 200_000
    a_lo, a_w, b_lo, b_w = (rng.uniform(lo, hi, n) for lo, hi in ((-3.0, 3.0), (0, 2), (-3.0, 3.0), (0, 2)))
    a, b = IntervalArray(a_lo, a_lo + a_w), IntervalArray(b_lo, b_lo + b_w)
    x, y = rng.uniform(a.lo, a.hi), rng.uniform(b.lo, b.hi)
    n_pow = rng.integers(0, 6, n)
    every = np.ones(n, dtype=bool)
    # name: (the pairs it takes, the interval operation, the same on float arrays, on floats)
    cases = {
        "add": (every, operator.add, operator.add, operator.add),
        "sub": (every, operator.sub, operator.sub, operator.sub),
        "mul": (every, operator.mul, operator.mul, operator.mul),
        "truediv": ((b.lo > 0.0) | (b.hi < 0.0), operator.truediv, operator.truediv, operator.truediv),
        "sin": (every, lambda p, q: p.sin(), lambda u, v: np.sin(u), lambda u, v: math.sin(u)),
        "cos": (every, lambda p, q: p.cos(), lambda u, v: np.cos(u), lambda u, v: math.cos(u)),
        **{f"power{k}": (n_pow == k, lambda p, q, k=k: p.power(k), lambda u, v, k=k: u**k,
                         lambda u, v, k=k: u**k) for k in range(6)},
    }
    for name, (pairs, op, on_arrays, on_floats) in cases.items():
        idx = np.flatnonzero(pairs)
        got = op(a[idx], b[idx])
        v = on_arrays(x[idx], y[idx])
        assert np.all((got.lo <= v) & (v <= got.hi)), name
        sample = np.arange(0, len(idx), 100)
        want = [op(_lane(a, i), _lane(b, i)) for i in idx[sample]]
        _assert_bitwise_lanes(got[sample], want)
        assert all(w.contains(on_floats(float(x[i]), float(y[i]))) for w, i in zip(want, idx[sample])), name


def _sample_expression(x: Interval, y: Interval) -> Interval:
    # composition touching every operation once
    return (x.sin() * 3 - y.power(2) / Interval(2.0, 2.5)) * (y.cos() + x * y + 1)


def test_monotone_refinement_on_subdivision():
    rng = np.random.default_rng(57)
    for _ in range(2_000):
        lo1, lo2 = rng.uniform(-2.0, 2.0, 2)
        box = Box.from_bounds([(lo1, lo1 + rng.uniform(0.1, 1.5)), (lo2, lo2 + rng.uniform(0.1, 1.5))])
        parent = _sample_expression(*box.dims)
        for child in box.bisect():
            got = _sample_expression(*child.dims)
            assert parent.encloses(got)


def test_box_basics():
    box = Box.from_bounds([(0.0, 1.0), (2.0, 2.5)])
    assert box.widths == (1.0, 0.5)
    assert box.widest_dim() == 0
    assert box.contains((0.5, 2.2))
    assert not box.contains((1.5, 2.2))
    left, right = box.bisect()
    assert left.dims[0] == Interval(0.0, 0.5)
    assert right.dims[0] == Interval(0.5, 1.0)
    assert left.dims[1] == box.dims[1]
    assert box.encloses(left) and box.encloses(right)
    with pytest.raises(ValueError):
        Box(())


def test_box_bisect_rejects_degenerate_width():
    thin = Box.from_bounds([(1.0, 1.0)])
    with pytest.raises(ValueError):
        thin.bisect()


# ---------------------------------------------------------------------------
# IntervalArray against the scalar Interval oracle.

LANES = 10_000


def _operand_lanes(seed: int) -> IntervalArray:
    """Points, narrow and wide intervals (some wider than 2 pi), negative ones,
    ones straddling 0 or ending at 0, ones starting at or within 1e-12 of a
    critical point k pi / 2 of sin and cos, and ones starting within 1e-3 of
    k pi / 2 for |k| near 1e6, where only the critical-point pad finds it."""
    rng = np.random.default_rng(seed)
    n = LANES
    width = rng.choice([0.0, 1e-12, 1e-3, 0.5, 3.0, 8.0], n) * rng.uniform(0.5, 1.0, n)
    lo = rng.uniform(-5.0, 5.0, n)
    kind = rng.integers(0, 5, n)
    near = rng.integers(-6, 7, n) * (math.pi / 2) + rng.choice([-1e-12, 0.0, 1e-12], n)
    far = rng.integers(-10**6, 10**6, n) * (math.pi / 2) + rng.uniform(-1e-3, 1e-3, n)
    lo = np.select(
        [kind == 1, kind == 2, kind == 3, kind == 4], [-width, np.zeros(n), near, far], lo
    )
    return IntervalArray(lo, lo + width)


def _lane(x: IntervalArray, i: int) -> Interval:
    return Interval(float(x.lo[i]), float(x.hi[i]))


def _assert_bitwise_lanes(got: IntervalArray, want: list[Interval]) -> None:
    assert len(got) == len(want)
    np.testing.assert_array_equal(got.lo.view(np.int64), np.array([w.lo for w in want]).view(np.int64))
    np.testing.assert_array_equal(got.hi.view(np.int64), np.array([w.hi for w in want]).view(np.int64))


def _nonzero_divisor(x: IntervalArray) -> IntervalArray:
    # shift every lane containing 0 clear of it
    zero = (x.lo <= 0.0) & (x.hi >= 0.0)
    return IntervalArray(np.where(zero, x.lo + 10.0, x.lo), np.where(zero, x.hi + 10.0, x.hi))


def _samples(x: IntervalArray, seed: int) -> np.ndarray:
    u = np.random.default_rng(seed).uniform(0.0, 1.0, len(x))
    return np.clip(x.lo + u * (x.hi - x.lo), x.lo, x.hi)


UNARY = {
    "neg": (lambda x: -x, np.negative),
    "sin": (lambda x: x.sin(), np.sin),
    "cos": (lambda x: x.cos(), np.cos),
    **{f"power{n}": (lambda x, n=n: x.power(n), lambda v, n=n: v**n) for n in range(6)},
}

BINARY = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "truediv": operator.truediv,
}


@pytest.mark.parametrize("name", sorted(UNARY))
def test_array_unary_ops_match_scalar_oracle_and_contain_samples(name):
    op, fn = UNARY[name]
    x = _operand_lanes(1)
    got = op(x)
    _assert_bitwise_lanes(got, [op(_lane(x, i)) for i in range(len(x))])
    v = fn(_samples(x, 2))
    assert np.all((got.lo <= v) & (v <= got.hi))


def test_array_operand_lanes_cover_the_named_cases():
    x = _operand_lanes(1)
    assert np.any((x.lo < 0.0) & (x.hi > 0.0))  # straddle 0
    assert np.any(x.hi < 0.0)  # negative
    assert np.any(x.hi - x.lo >= 2 * math.pi)  # wider than a period
    assert np.any(x.lo == 0.0) and np.any((x.hi == 0.0) & (x.lo < 0.0))
    sq = x.power(2)
    assert np.any((x.lo < 0.0) & (x.hi > 0.0) & (sq.lo == 0.0))  # power(2) across 0
    s, c = x.sin(), x.cos()
    assert np.any((s.hi == 1.0) & (x.hi - x.lo < 1e-9))  # thin lanes on a critical point
    assert np.any((c.lo == -1.0) & (x.hi - x.lo < 1e-9))


@pytest.mark.parametrize("name", sorted(BINARY))
def test_array_binary_ops_match_scalar_oracle_and_contain_samples(name):
    op = BINARY[name]
    a = _operand_lanes(3)
    b = _operand_lanes(4)
    if name == "truediv":
        b = _nonzero_divisor(b)
    got = op(a, b)
    _assert_bitwise_lanes(got, [op(_lane(a, i), _lane(b, i)) for i in range(len(a))])
    v = op(_samples(a, 5), _samples(b, 6))
    assert np.all((got.lo <= v) & (v <= got.hi))


@pytest.mark.parametrize("name", sorted(BINARY))
def test_mixed_operands_dispatch_to_the_lanes(name):
    op = BINARY[name]
    x = _nonzero_divisor(_operand_lanes(7))
    n = len(x)
    s = Interval(-1.5, 2.5) if name != "truediv" else Interval(0.5, 2.5)
    for left, right in ((s, x), (x, s), (2.5, x), (x, -3), (np.float64(1.25), x)):
        got = op(left, right)
        assert isinstance(got, IntervalArray)
        lane = lambda v, i: _lane(v, i) if isinstance(v, IntervalArray) else v
        want = [op(lane(left, i), lane(right, i)) for i in range(n)]
        _assert_bitwise_lanes(got, want)


def test_scalar_interval_defers_unknown_operands():
    x = IntervalArray([0.0, 1.0], [1.0, 2.0])
    assert Interval(1.0, 2.0).__mul__(x) is NotImplemented
    assert Interval(1.0, 2.0).__rsub__(x) is NotImplemented
    with pytest.raises(TypeError):
        Interval(1.0, 2.0) + "1"
    with pytest.raises(TypeError):
        x * "1"


def test_array_rejects_non_finite_and_inverted_lanes():
    with pytest.raises(ValueError, match="finite"):
        IntervalArray([0.0, 0.0], [1.0, math.inf])
    with pytest.raises(ValueError, match="finite"):
        IntervalArray([0.0, math.nan], [1.0, 1.0])
    with pytest.raises(ValueError, match="inverted"):
        IntervalArray([0.0, 2.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        IntervalArray([0.0, 1.0], [1.0])
    # a result lane that overflows is rejected like an Interval result
    with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore"):
        IntervalArray([1.0, 1e308], [2.0, 1e308]) * 10.0
    with pytest.raises(ValueError):
        IntervalArray([0.0], [1.0]).power(-1)
    with pytest.raises(ValueError):
        IntervalArray([0.0], [1.0]).power(1.5)


def test_array_division_by_a_lane_containing_zero_rejected():
    a = IntervalArray([1.0, 1.0], [2.0, 2.0])
    for divisor in (
        IntervalArray([1.0, -1.0], [2.0, 1.0]),
        IntervalArray([1.0, 0.0], [2.0, 1.0]),
        IntervalArray([-1.0, 1.0], [0.0, 2.0]),
    ):
        with pytest.raises(ZeroDivisionError):
            a / divisor
        with pytest.raises(ZeroDivisionError):
            Interval(1.0, 2.0) / divisor
        with pytest.raises(ZeroDivisionError):
            1.0 / divisor
    with pytest.raises(ZeroDivisionError):
        a / Interval(-1.0, 1.0)


def test_array_lane_selection():
    x = IntervalArray([0.0, 1.0, 2.0], [0.5, 1.5, 2.5])
    sub = x[np.array([2, 0])]
    assert sub.lo.tolist() == [2.0, 0.0] and sub.hi.tolist() == [2.5, 0.5]
    assert len(x[x.lo > 0.5]) == 2


# ---------------------------------------------------------------------------
# GradientArray: row 0 is the natural evaluation, the other rows enclose the
# partial derivatives.

# the derivative of each unary operation, and of each binary one in its two operands
UNARY_DERIVATIVES = {
    "neg": lambda v: -np.ones_like(v),
    "sin": np.cos,
    "cos": lambda v: -np.sin(v),
    **{f"power{n}": (lambda v, n=n: n * v ** max(n - 1, 0)) for n in range(6)},
}
BINARY_DERIVATIVES = {
    "add": lambda a, b: (np.ones_like(a), np.ones_like(b)),
    "sub": lambda a, b: (np.ones_like(a), -np.ones_like(b)),
    "mul": lambda a, b: (b, a),
    "truediv": lambda a, b: (1.0 / b, -(a / b) / b),
}


def _assert_rows_enclose(g: GradientArray, rows: list[np.ndarray]) -> None:
    for i, v in enumerate(rows):
        v = np.broadcast_to(v, g.lo[i].shape)
        assert np.all((g.lo[i] <= v) & (v <= g.hi[i])), i


@pytest.mark.parametrize("name", sorted(UNARY))
def test_gradient_unary_ops_keep_the_natural_value_and_enclose_the_derivative(name):
    op, fn = UNARY[name]
    x = _operand_lanes(1)
    # x as variable 0 of 2: the partial in variable 1 is 0
    got = op(GradientArray.variable(x, 0, 2))
    assert isinstance(got, GradientArray) and got.lo.shape == (3, LANES)
    _assert_bitwise_lanes(got.value, [op(_lane(x, i)) for i in range(len(x))])
    v = _samples(x, 2)
    _assert_rows_enclose(got, [fn(v), UNARY_DERIVATIVES[name](v), 0.0])


@pytest.mark.parametrize("name", sorted(BINARY))
def test_gradient_binary_ops_keep_the_natural_value_and_enclose_the_derivative(name):
    op = BINARY[name]
    a, b = _operand_lanes(3), _operand_lanes(4)
    if name == "truediv":
        b = _nonzero_divisor(b)
    got = op(GradientArray.variable(a, 0, 2), GradientArray.variable(b, 1, 2))
    _assert_bitwise_lanes(got.value, [op(_lane(a, i), _lane(b, i)) for i in range(len(a))])
    va, vb = _samples(a, 5), _samples(b, 6)
    _assert_rows_enclose(got, [op(va, vb), *BINARY_DERIVATIVES[name](va, vb)])


def _const_lane(c, i: int):
    return _lane(c, i) if isinstance(c, IntervalArray) else c


@pytest.mark.parametrize("name", sorted(BINARY))
def test_gradient_mixed_operands_are_constants(name):
    op = BINARY[name]
    x = _nonzero_divisor(_operand_lanes(7))
    gx = GradientArray.variable(x, 0, 1)
    v = _samples(x, 8)
    lanes = IntervalArray(np.full(LANES, 0.75), np.full(LANES, 0.75))
    for c in (Interval.point(2.5), 2.5, -3, np.float64(1.25), lanes):
        cv = c.lo if isinstance(c, (Interval, IntervalArray)) else float(c)
        for position in (0, 1):
            pair = (gx, c) if position == 0 else (c, gx)
            got = op(*pair)
            assert isinstance(got, GradientArray)
            want = [op(_lane(x, i), _const_lane(c, i)) if position == 0
                    else op(_const_lane(c, i), _lane(x, i)) for i in range(LANES)]
            _assert_bitwise_lanes(got.value, want)
            pair = (v, cv) if position == 0 else (cv, v)
            _assert_rows_enclose(got, [op(*pair), BINARY_DERIVATIVES[name](*pair)[position]])


def test_gradient_lanes_select_and_check_like_interval_lanes():
    g = GradientArray.variable(IntervalArray([0.0, 1.0, 2.0], [0.5, 1.5, 2.5]), 1, 2)
    assert g.lo.tolist() == [[0.0, 1.0, 2.0], [0.0] * 3, [1.0] * 3]
    sub = g[np.array([2, 0])]
    assert len(sub) == 2 and sub.hi.tolist() == [[2.5, 0.5], [0.0, 0.0], [1.0, 1.0]]
    assert len(g[g.lo[0] > 0.5]) == 2
    with pytest.raises(ValueError, match="inverted interval .* in row 1, lane 0"):
        GradientArray([[0.0], [1.0]], [[1.0], [0.0]])
    with pytest.raises(ValueError, match="finite"):
        GradientArray([[0.0], [0.0]], [[1.0], [math.inf]])
    with pytest.raises(ValueError, match="rows"):
        GradientArray([0.0], [1.0])
    with pytest.raises(ZeroDivisionError):
        g / GradientArray.variable(IntervalArray([-1.0, 1.0, 1.0], [1.0, 2.0, 2.0]), 0, 2)
