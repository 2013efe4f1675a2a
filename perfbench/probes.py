"""Layer microbenchmarks and the worker-scaling probe, through public calls only.

One RK step, the per-step event scan and event refinement are not reachable
from outside `integrate`; the traced `integrate.us_per_step` stands in for
them until the library counts them itself.
"""

from __future__ import annotations

import math
import statistics
import time
import timeit

import numpy as np

from biwind import certify, core, manifold
from biwind.intervals import Box, Interval

REPEATS = 5


def _per_call(stmt: str, names: dict, number: int) -> float:
    """Median seconds per execution of `stmt` over REPEATS timed loops."""
    timer = timeit.Timer(stmt, globals=names)
    return statistics.median(timer.repeat(repeat=REPEATS, number=number)) / number


def _interval(rng: np.random.Generator, lo: float, hi: float, width: float) -> Interval:
    a = float(rng.uniform(lo, hi - width))
    return Interval(a, a + width)


def microbench(seed: int, scale: float = 1.0) -> dict[str, float]:
    """Per-call cost of one field evaluation, interval op, box evaluation and Taylor enclosure."""
    rng = np.random.default_rng(seed)
    n = lambda k: max(1, int(k * scale))
    x = rng.uniform(-1.0, 1.0, size=4)
    a = _interval(rng, -2.0, 2.0, 1e-3)
    b = _interval(rng, -2.0, 2.0, 1e-3)
    phi0 = _interval(rng, 0.4, 0.5 * math.pi, 1e-3)
    phi = _interval(rng, 0.0, 0.5 * math.pi, 1e-3)
    taylor_box = Box((_interval(rng, 0.0, 0.01, 1e-3), _interval(rng, 0.0, 0.021, 1e-3)))
    certify.taylor_enclose_P_coeff("v0", taylor_box)  # builds the cached exact series
    return {
        "core.vector_field.us": 1e6 * _per_call(
            "vf(5, x)", {"vf": core.vector_field, "x": x}, n(2000)),
        "intervals.mul_ns": 1e9 * _per_call("a * b", {"a": a, "b": b}, n(20000)),
        "intervals.sin_ns": 1e9 * _per_call("a.sin()", {"a": a}, n(10000)),
        "certify.box_eval_us": 1e6 * _per_call(
            "c0(p0, p); c1(p0, p); c2(p0, p)",
            {"c0": certify.c0_iv, "c1": certify.c1_iv, "c2": certify.c2_iv, "p0": phi0, "p": phi},
            n(1000)),
        "certify.taylor_us": 1e6 * _per_call(
            "tay('v0', box)", {"tay": certify.taylor_enclose_P_coeff, "box": taylor_box}, n(200)),
    }


def _seconds(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def worker_scaling(thetas, task: str) -> dict[str, float]:
    """workers=1 time over workers=2 time for one grid and one certificate."""
    grid = lambda w: manifold.classification_grid(thetas, workers=w)
    cert = lambda w: certify.run_task(task, workers=w)
    return {
        "manifold.grid_w2_speedup": _seconds(lambda: grid(1)) / _seconds(lambda: grid(2)),
        "certify.w2_speedup": _seconds(lambda: cert(1)) / _seconds(lambda: cert(2)),
    }
