"""Which library calls the traced run wraps, and the per-layer metrics derived.

Every public function (named in a module's `__all__`) of core, integrate,
regions, certify, manifold and profile gets a span, and so does
`biwind.cli.main`, which opens one job per command line.  Interval
arithmetic, `power`, `sin` and `cos` are counted without spans: there are
millions of them.  The interval constants (`pi_iv`, `sqrt6_iv`, ...) are
left unwrapped, so their time stays in the calling span.
"""

from __future__ import annotations

import importlib
import inspect

import numpy as np

from biwind import cli
from biwind.intervals import Interval
from tracer import SpanTable, Tracer

SPAN_MODULES = ("core", "integrate", "regions", "certify", "manifold", "profile")
INTERVAL_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "power", "sin", "cos",
)
TASKS = tuple(f"V{i}" for i in range(1, 10))


def _steps(counts, traj, _dur):
    counts["integrate.steps"] += len(traj.s) - 1


def _bnb(counts, out, _dur):
    counts["certify.bnb.boxes"] += out.boxes_examined


def _sublevel(counts, enc, _dur):
    counts["certify.sublevel.cells"] += enc.cells_examined


def _task(counts, cert, dur):
    counts[f"certify.{cert.task_id}.s"] += dur
    counts[f"certify.{cert.task_id}.boxes"] += cert.boxes_examined


def _orbit(counts, res, _dur):
    counts["manifold.undecided"] += res.outcome.value == "undecided"


HOOKS = {
    "integrate.integrate": _steps,
    "integrate.integrate_reversed": _steps,
    "certify.prove_lower_bound": _bnb,
    "certify.enclose_sublevel": _sublevel,
    "certify.run_task": _task,
    "manifold.classify_orbit": _orbit,
}


def install(tracer: Tracer) -> None:
    tracer.wrap_span(cli, "main", "cli.main", new_job=True)
    for layer in SPAN_MODULES:
        mod = importlib.import_module(f"biwind.{layer}")
        for attr in mod.__all__:
            fn = mod.__dict__.get(attr)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                name = f"{layer}.{attr}"
                tracer.wrap_span(mod, attr, name, hook=HOOKS.get(name))
    for attr in INTERVAL_OPS:
        tracer.wrap_count(Interval, attr, "intervals.ops")


def metrics(tracer: Tracer, reps: int, facts: dict, probes: dict) -> tuple[dict, dict]:
    """Per-layer values per repetition of the workload, and why any is absent.

    `facts` come from the traced repetitions' artifacts and output checks;
    `probes` from the microbenchmarks and the worker-scaling probe.
    """
    t = SpanTable(tracer)
    c = tracer.counts
    absent: dict[str, str] = {}

    def ratio(name: str, num: float, den: float, why: str) -> float:
        if den:
            return num / den
        absent[name] = why
        return 0.0

    integ = ("integrate.integrate", "integrate.integrate_reversed")
    integ_self = sum(t.self_time(n) for n in integ)
    orbit_ms = 1e3 * t.durations("manifold.classify_orbit")
    orbits = len(orbit_ms)
    m = {
        "cli.self_s": t.self_time("cli.main") / reps,
        "cli.artifact_bytes": facts["artifact_bytes"],
        "cli.artifacts_changed": facts["artifacts_changed"],
        "core.vector_field.calls": t.calls("core.vector_field") / reps,
        "core.energy.calls": t.calls("core.energy") / reps,
        "integrate.calls": sum(t.calls(n) for n in integ) / reps,
        "integrate.steps": c["integrate.steps"] / reps,
        "integrate.self_s": integ_self / reps,
        "integrate.us_per_step": 1e6 * ratio(
            "integrate.us_per_step", integ_self, c["integrate.steps"], "no integration steps"),
        "integrate.sample_at.calls": t.calls("integrate.sample_at") / reps,
        "integrate.sample_at.self_s": t.self_time("integrate.sample_at") / reps,
        "integrate.write_csv.s": t.total("integrate.write_csv") / reps,
        "regions.calls": t.calls("regions") / reps,
        "intervals.ops": c["intervals.ops"] / reps,
        "certify.bnb.self_s": t.self_time("certify.prove_lower_bound") / reps,
        "certify.us_per_box": 1e6 * ratio(
            "certify.us_per_box", t.total("certify.prove_lower_bound"),
            c["certify.bnb.boxes"], "no branch-and-bound boxes"),
        "certify.taylor.s": t.total("certify.taylor_enclose_P_coeff") / reps,
        "certify.sublevel.s": t.total("certify.enclose_sublevel") / reps,
        "certify.sublevel.cells": c["certify.sublevel.cells"] / reps,
        "manifold.orbits": orbits / reps,
        "manifold.orbit_ms.p50": float(np.percentile(orbit_ms, 50)) if orbits else 0.0,
        "manifold.orbit_ms.p95": float(np.percentile(orbit_ms, 95)) if orbits else 0.0,
        "manifold.undecided_frac": ratio(
            "manifold.undecided_frac", c["manifold.undecided"], orbits, "no classified orbits"),
        "profile.build.s": t.total("profile.build_winding_profile") / reps,
        "profile.to_radial.s": t.total("profile.to_radial") / reps,
        "profile.crossings.self_s": t.self_time("profile.build_winding_profile") / reps,
        "profile.diagnostics.s": t.total("profile.blowup_diagnostics") / reps,
        "profile.write_csv.s": t.total("profile.write_profile_csv") / reps,
        "trace.spans": len(t) / reps,
    }
    if not orbits:
        absent["manifold.orbit_ms.p50"] = absent["manifold.orbit_ms.p95"] = "no classified orbits"
    elif orbits < 200:
        absent["manifold.orbit_ms.p95"] = f"only {orbits} samples, fewer than 10 beyond p95"
    for task in TASKS:
        m[f"certify.{task}.s"] = c[f"certify.{task}.s"] / reps
        m[f"certify.{task}.boxes"] = c[f"certify.{task}.boxes"] / reps
    for key, why in (
        ("manifold.closest_approach", "no shoot job in this workload"),
        ("profile.winding_count.1e8", "no wind job in this workload"),
        ("profile.winding_count.1e10", "no wind job in this workload"),
    ):
        fact = key.split(".", 1)[1]
        if fact in facts:
            m[key] = facts[fact]
        else:
            m[key] = 0.0
            absent[key] = why
    m.update(probes)
    return m, absent
