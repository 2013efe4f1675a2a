"""perfbench's traced run reaches the library by name; these tests pin the names.

`perfbench/layers.py` counts interval operations by wrapping `Interval`'s
operators, and `perfbench/probes.py` times single intervals, boxes, the
certificate forms and the worker parameter through public calls.  Nothing
else runs the traced benchmark, so a library change that drops one of these
names would otherwise break it unseen.
"""

import math
import pathlib

import numpy as np
import pytest

from biwind.intervals import Interval

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import probes

    return layers, probes


def test_perfbench_counts_operators_the_interval_class_defines(perfbench):
    layers, _ = perfbench
    missing = [name for name in layers.INTERVAL_OPS if name not in Interval.__dict__]
    assert not missing


def test_perfbench_probes_run_on_the_library(perfbench):
    _, probes = perfbench
    layer = probes.microbench(1, scale=1e-3)
    assert set(layer) == {"core.vector_field.us", "intervals.mul_ns", "intervals.sin_ns",
                          "certify.box_eval_us", "certify.taylor_us"}
    assert all(v > 0.0 for v in layer.values())
    thetas = np.linspace(-0.5 * math.pi + 0.01, 0.7, 3)
    scaling = probes.worker_scaling(thetas, "V9")
    assert set(scaling) == {"manifold.grid_w2_speedup", "certify.w2_speedup"}
    assert all(v > 0.0 for v in scaling.values())
