import math
import operator
from fractions import Fraction

import numpy as np
import pytest

from biwind import taylor
from biwind.intervals import (
    Box,
    GradientArray,
    Interval,
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
    one = Interval(-3.0, 5.0).power(0)
    assert (one.lo, one.hi) == (1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(0.0, 1.0).power(-1)
    with pytest.raises(ValueError):
        Interval(0.0, 1.0).power(1.5)


def test_sin_over_zero_to_pi():
    r = Interval(0.0, pi_iv().hi).sin()  # [0, pi-enclosure]
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
    full = Interval(-10.0, 10.0).sin()
    assert (full.lo, full.hi) == (-1.0, 1.0)
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
    # map into the interval result for every operation.
    rng = np.random.default_rng(101)
    n = 200_000
    a_lo, a_w, b_lo, b_w = (rng.uniform(lo, hi, n) for lo, hi in ((-3.0, 3.0), (0, 2), (-3.0, 3.0), (0, 2)))
    a, b = Interval(a_lo, a_lo + a_w), Interval(b_lo, b_lo + b_w)
    x, y = rng.uniform(a.lo, a.hi), rng.uniform(b.lo, b.hi)
    n_pow = rng.integers(0, 6, n)
    every = np.ones(n, dtype=bool)
    # name: (the pairs it takes, the interval operation, the same on float arrays)
    cases = {
        "add": (every, operator.add, operator.add),
        "sub": (every, operator.sub, operator.sub),
        "mul": (every, operator.mul, operator.mul),
        "truediv": ((b.lo > 0.0) | (b.hi < 0.0), operator.truediv, operator.truediv),
        "sin": (every, lambda p, q: p.sin(), lambda u, v: np.sin(u)),
        "cos": (every, lambda p, q: p.cos(), lambda u, v: np.cos(u)),
        **{f"power{k}": (n_pow == k, lambda p, q, k=k: p.power(k), lambda u, v, k=k: u**k)
           for k in range(6)},
    }
    for name, (pairs, op, on_arrays) in cases.items():
        idx = np.flatnonzero(pairs)
        got = op(a[idx], b[idx])
        v = on_arrays(x[idx], y[idx])
        assert np.all((got.lo <= v) & (v <= got.hi)), name


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
    assert (left.dims[0].lo, left.dims[0].hi) == (0.0, 0.5)
    assert (right.dims[0].lo, right.dims[0].hi) == (0.5, 1.0)
    assert left.dims[1] is box.dims[1]
    assert box.encloses(left) and box.encloses(right)
    with pytest.raises(ValueError):
        Box(())


def test_box_bisect_rejects_degenerate_width():
    thin = Box.from_bounds([(1.0, 1.0)])
    with pytest.raises(ValueError):
        thin.bisect()


# ---------------------------------------------------------------------------
# Lanes against a scalar oracle in exact arithmetic, lane by lane: Fraction
# for + - * / and power, 50-digit mpmath for sin and cos.

LANES = 10_000
MP = taylor.mp_context(50)


def _operand_lanes(seed: int) -> Interval:
    """Points, narrow and wide intervals (some wider than 2 pi), negative ones,
    ones straddling 0 or ending at 0, ones starting at or within 1e-12 of a
    critical point k pi / 2 of sin and cos, ones starting within 1e-3 of
    k pi / 2 for |k| up to 1e6, and ones starting at the float just below
    k pi / 2 for |k| from 1e10 to 1e11.  There the float test for a critical
    point errs by up to about 3e-5, a float's spacing, so only its pad finds
    the extremum of some lanes."""
    rng = np.random.default_rng(seed)
    n = LANES
    width = rng.choice([0.0, 1e-12, 1e-3, 0.5, 3.0, 8.0], n) * rng.uniform(0.5, 1.0, n)
    lo = rng.uniform(-5.0, 5.0, n)
    kind = rng.integers(0, 6, n)
    near = rng.integers(-6, 7, n) * (math.pi / 2) + rng.choice([-1e-12, 0.0, 1e-12], n)
    far = rng.integers(-10**6, 10**6, n) * (math.pi / 2) + rng.uniform(-1e-3, 1e-3, n)
    k_huge = rng.choice([-1, 1], n) * rng.integers(10**10, 10**11, n)
    huge = np.zeros(n)
    for i in np.flatnonzero(kind == 5):
        huge[i] = _floor(int(k_huge[i]) * MP.pi / 2)
    lo = np.select(
        [kind == 1, kind == 2, kind == 3, kind == 4, kind == 5],
        [-width, np.zeros(n), near, far, huge],
        lo,
    )
    return Interval(lo, lo + width)


def _assert_bitwise(got, want) -> None:
    """The same endpoint bits, of intervals or of gradient lanes."""
    assert got.lo.shape == want.lo.shape
    np.testing.assert_array_equal(got.lo.view(np.int64), want.lo.view(np.int64))
    np.testing.assert_array_equal(got.hi.view(np.int64), want.hi.view(np.int64))


def _nonzero_divisor(x: Interval) -> Interval:
    # shift every lane containing 0 clear of it
    zero = (x.lo <= 0.0) & (x.hi >= 0.0)
    return Interval(np.where(zero, x.lo + 10.0, x.lo), np.where(zero, x.hi + 10.0, x.hi))


def _samples(x: Interval, seed: int) -> np.ndarray:
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


def _hull(*values):
    return min(values), max(values)


def _exact_power(n: int):
    # x^n over [a, b] takes its extremes at the endpoints, or at 0 inside
    return lambda a, b: _hull(a**n, b**n, *((Fraction(0) ** n,) if a < 0 < b else ()))


# the exact range of each operation on exact endpoints, and how many floats
# beyond the exact range, rounded outward, its result may reach
EXACT = {
    "neg": (lambda a, b: (-b, -a), 0),
    "add": (lambda a, b, c, d: (a + c, b + d), 1),
    "sub": (lambda a, b, c, d: (a - d, b - c), 1),
    "mul": (lambda a, b, c, d: _hull(a * c, a * d, b * c, b * d), 1),
    "truediv": (lambda a, b, c, d: _hull(a / c, a / d, b / c, b / d), 1),
    **{f"power{n}": (_exact_power(n), max(2 * n - 3, 0)) for n in range(6)},
}


def _floor(q) -> float:
    """The largest float <= q, for a Fraction or an mpmath number q."""
    f = float(q)  # correctly rounded
    return f if f <= q else math.nextafter(f, -math.inf)


def _ceil(q) -> float:
    f = float(q)
    return f if f >= q else math.nextafter(f, math.inf)


def _steps(x: float, k: int, toward: float) -> float:
    for _ in range(k):
        x = math.nextafter(x, toward)
    return x


def _exact_trig(name: str, lo: float, hi: float) -> tuple:
    """The range of sin or cos over [lo, hi] in 50-digit arithmetic."""
    fn, peak, trough = (MP.sin, MP.pi / 2, 3 * MP.pi / 2) if name == "sin" else (MP.cos, 0, MP.pi)
    a, b = MP.mpf(lo), MP.mpf(hi)
    inside = lambda c: MP.ceil((a - c) / (2 * MP.pi)) <= MP.floor((b - c) / (2 * MP.pi))
    va, vb = fn(a), fn(b)
    return -1 if inside(trough) else min(va, vb), 1 if inside(peak) else max(va, vb)


def _assert_contains_the_exact_result(name: str, got: Interval, *operands: Interval) -> None:
    for i in range(LANES):
        ends = [float(e[i]) for x in operands for e in (x.lo, x.hi)]
        lo, hi = float(got.lo[i]), float(got.hi[i])
        if name in ("sin", "cos"):
            ex_lo, ex_hi = _exact_trig(name, *ends)
            assert MP.mpf(lo) <= ex_lo and ex_hi <= MP.mpf(hi), (name, ends, lo, hi)
            # an end not clipped to -1 or 1 reaches a float beyond the exact one
            # rounded outward: of its two steps, one covers libm's error
            assert lo == -1.0 or lo <= _steps(_floor(ex_lo), 1, -math.inf), (name, ends, lo)
            assert hi == 1.0 or hi >= _steps(_ceil(ex_hi), 1, math.inf), (name, ends, hi)
            continue
        exact, steps = EXACT[name]
        ex_lo, ex_hi = exact(*map(Fraction, ends))
        assert lo <= ex_lo and ex_hi <= hi, (name, ends, lo, hi)
        # within `steps` floats of the exact endpoints rounded outward
        assert lo >= _steps(_floor(ex_lo), steps, -math.inf), (name, ends, lo)
        assert hi <= _steps(_ceil(ex_hi), steps, math.inf), (name, ends, hi)


@pytest.mark.parametrize("name", sorted(UNARY))
def test_array_unary_ops_match_scalar_oracle_and_contain_samples(name):
    op, fn = UNARY[name]
    x = _operand_lanes(1)
    got = op(x)
    _assert_contains_the_exact_result(name, got, x)
    v = fn(_samples(x, 2))
    assert np.all((got.lo <= v) & (v <= got.hi))


@pytest.mark.parametrize("name", sorted(BINARY))
def test_array_binary_ops_match_scalar_oracle_and_contain_samples(name):
    op = BINARY[name]
    a = _operand_lanes(3)
    b = _operand_lanes(4)
    if name == "truediv":
        b = _nonzero_divisor(b)
    got = op(a, b)
    _assert_contains_the_exact_result(name, got, a, b)
    v = op(_samples(a, 5), _samples(b, 6))
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
    # lanes holding a peak of sin that the float test without its pad misses
    peak = (x.lo - math.pi / 2) / (2 * math.pi), (x.hi - math.pi / 2) / (2 * math.pi)
    unpadded = np.ceil(peak[0]) <= np.floor(peak[1])
    assert any(_exact_trig("sin", x.lo[i], x.hi[i])[1] == 1 for i in np.flatnonzero(~unpadded))
    assert np.any((c.lo == -1.0) & (x.hi - x.lo < 1e-9))


def _broadcast(c, n: int) -> Interval:
    """A single interval or a real as n equal lanes."""
    lo, hi = (c.lo, c.hi) if isinstance(c, Interval) else (c, c)
    return Interval(np.full(n, lo), np.full(n, hi))


SAMPLED = np.arange(0, LANES, 25)  # the lanes the single-interval checks take


@pytest.mark.parametrize("name", sorted(UNARY) + sorted(BINARY))
def test_single_intervals_get_the_bits_of_their_lane(name):
    # a single interval is a 0-d lane: alone, it gets the bits its lane gets
    # in an operation on lanes, and so does a 0-d constant of gradient lanes
    a, b = _operand_lanes(3), _nonzero_divisor(_operand_lanes(4))
    if name in UNARY:
        op = UNARY[name][0]
        want = op(a)
        for i in SAMPLED:
            got = op(a[i])
            assert got.lo.shape == ()
            _assert_bitwise(got, want[i])
        return
    op = BINARY[name]
    want = op(a, b)
    for i in SAMPLED:
        _assert_bitwise(op(a[i], b[i]), want[i])
    g = GradientArray.variable(b, 0, 2)
    for i in SAMPLED[:8]:
        c = b[i]
        for pair, lanes in (((g, c), (g, _broadcast(c, LANES))), ((c, g), (_broadcast(c, LANES), g))):
            _assert_bitwise(op(*pair), op(*lanes))


@pytest.mark.parametrize("name", sorted(BINARY))
def test_mixed_operands_dispatch_to_the_lanes(name):
    # single intervals and reals on either side get the bits of equal lanes
    op = BINARY[name]
    x = _nonzero_divisor(_operand_lanes(7))
    n = len(x)
    s = Interval(-1.5, 2.5) if name != "truediv" else Interval(0.5, 2.5)
    lanes = lambda v: v if isinstance(v, Interval) and v.lo.ndim else _broadcast(v, n)
    for left, right in ((s, x), (x, s), (2.5, x), (x, -3), (np.float64(1.25), x)):
        got = op(left, right)
        assert isinstance(got, Interval)
        _assert_bitwise(got, op(lanes(left), lanes(right)))


def test_scalar_interval_defers_unknown_operands():
    g = GradientArray.variable(Interval([0.0, 1.0], [1.0, 2.0]), 0, 1)
    assert Interval(1.0, 2.0).__mul__(g) is NotImplemented
    assert Interval(1.0, 2.0).__rsub__(g) is NotImplemented
    assert isinstance(Interval(1.0, 2.0) * g, GradientArray)
    with pytest.raises(TypeError):
        Interval(1.0, 2.0) + "1"
    with pytest.raises(TypeError):
        Interval([0.0, 1.0], [1.0, 2.0]) * "1"


def test_array_rejects_non_finite_and_inverted_lanes():
    with pytest.raises(ValueError, match="finite"):
        Interval([0.0, 0.0], [1.0, math.inf])
    with pytest.raises(ValueError, match="finite"):
        Interval([0.0, math.nan], [1.0, 1.0])
    with pytest.raises(ValueError, match="inverted"):
        Interval([0.0, 2.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        Interval([0.0, 1.0], [1.0])
    # a result lane that overflows is rejected
    with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore"):
        Interval([1.0, 1e308], [2.0, 1e308]) * 10.0
    with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore"):
        Interval(1e308, 1e308) * 10.0
    with pytest.raises(ValueError):
        Interval([0.0], [1.0]).power(-1)
    with pytest.raises(ValueError):
        Interval([0.0], [1.0]).power(1.5)


def test_array_division_by_a_lane_containing_zero_rejected():
    a = Interval([1.0, 1.0], [2.0, 2.0])
    for divisor in (
        Interval([1.0, -1.0], [2.0, 1.0]),
        Interval([1.0, 0.0], [2.0, 1.0]),
        Interval([-1.0, 1.0], [0.0, 2.0]),
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
    x = Interval([0.0, 1.0, 2.0], [0.5, 1.5, 2.5])
    sub = x[np.array([2, 0])]
    assert sub.lo.tolist() == [2.0, 0.0] and sub.hi.tolist() == [2.5, 0.5]
    assert len(x[x.lo > 0.5]) == 2
    one = x[1]
    assert one.lo.shape == () and (one.lo, one.hi) == (1.0, 1.5)


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
    _assert_bitwise(got.value, op(x))
    v = _samples(x, 2)
    _assert_rows_enclose(got, [fn(v), UNARY_DERIVATIVES[name](v), 0.0])


@pytest.mark.parametrize("name", sorted(BINARY))
def test_gradient_binary_ops_keep_the_natural_value_and_enclose_the_derivative(name):
    op = BINARY[name]
    a, b = _operand_lanes(3), _operand_lanes(4)
    if name == "truediv":
        b = _nonzero_divisor(b)
    got = op(GradientArray.variable(a, 0, 2), GradientArray.variable(b, 1, 2))
    _assert_bitwise(got.value, op(a, b))
    va, vb = _samples(a, 5), _samples(b, 6)
    _assert_rows_enclose(got, [op(va, vb), *BINARY_DERIVATIVES[name](va, vb)])


@pytest.mark.parametrize("name", sorted(BINARY))
def test_gradient_mixed_operands_are_constants(name):
    op = BINARY[name]
    x = _nonzero_divisor(_operand_lanes(7))
    gx = GradientArray.variable(x, 0, 1)
    v = _samples(x, 8)
    lanes = Interval(np.full(LANES, 0.75), np.full(LANES, 0.75))
    for c in (Interval.point(2.5), 2.5, -3, np.float64(1.25), lanes):
        cv = float(np.max(c.lo)) if isinstance(c, Interval) else float(c)
        for position in (0, 1):
            pair = (gx, c) if position == 0 else (c, gx)
            got = op(*pair)
            assert isinstance(got, GradientArray)
            _assert_bitwise(got.value, op(x, c) if position == 0 else op(c, x))
            pair = (v, cv) if position == 0 else (cv, v)
            _assert_rows_enclose(got, [op(*pair), BINARY_DERIVATIVES[name](*pair)[position]])


def test_gradient_lanes_select_and_check_like_interval_lanes():
    g = GradientArray.variable(Interval([0.0, 1.0, 2.0], [0.5, 1.5, 2.5]), 1, 2)
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
        g / GradientArray.variable(Interval([-1.0, 1.0, 1.0], [1.0, 2.0, 2.0]), 0, 2)
