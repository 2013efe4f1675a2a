"""One workload in a fresh interpreter; prints one JSON line with the results.

Started by run.py with PYTHONPATH=<checkout>/src and BIWIND_WORKERS=1.

  --setup-only  import and warm up, then exit (run.py times this as setup_s)
  --trace 0     repeat the workload for --seconds and report every wall time
  --trace 1     one untraced repetition, then traced ones, then the
                microbenchmarks and the worker-scaling probe; report the
                per-layer values
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import numpy as np
import scipy

import biwind
from biwind import cli

import layers
import probes
import workloads
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
MIN_TRACED_ORBITS = 200  # p95 then has at least 10 samples beyond it
PROBE_ANGLES = 8
PROBE_TASK = "V2"


def run_cli(argv: list[str]):
    """Exit code of one command line, with its stdout and stderr captured."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(argv)
    except SystemExit as stop:
        return stop.code
    except Exception:  # the job failed; count it and keep measuring
        traceback.print_exc(file=sys.stderr)
        return None


def run_rep(workload: str, job_list: list[list[str]], recorded: dict | None = None):
    """Run one repetition in a fresh output directory.

    Returns its wall time (jobs only) and the checked outcome.  Given
    `recorded` hashes, the outcome's facts also carry the artifacts' total
    size, their hashes, and how many differ from `recorded`.
    """
    os.makedirs(RUN_DIR, exist_ok=True)
    outdir = tempfile.mkdtemp(dir=RUN_DIR)
    cwd = os.getcwd()
    try:
        os.chdir(outdir)
        t0 = time.perf_counter()
        codes = [run_cli(argv) for argv in job_list]
        wall = time.perf_counter() - t0
        outcome = workloads.check(workload, outdir, job_list, codes)
        if recorded is not None:
            hashes = {workloads.job_key(a): workloads.job_hashes(outdir, a) for a in job_list}
            outcome.facts["hashes"] = hashes
            outcome.facts["artifact_bytes"] = sum(
                os.path.getsize(os.path.join(outdir, f)) for f in os.listdir(outdir))
            outcome.facts["artifacts_changed"] = workloads.count_changed(recorded, hashes)
        return wall, outcome
    finally:
        os.chdir(cwd)
        shutil.rmtree(outdir, ignore_errors=True)


def timed(workload: str, job_list: list[list[str]], seconds: float) -> dict:
    walls: list[float] = []
    attempted = failed = 0
    start = time.perf_counter()
    # Stop at the repetition count that ends nearest to `seconds`.
    while not walls or time.perf_counter() - start + statistics.median(walls) / 2 < seconds:
        wall, out = run_rep(workload, job_list)
        walls.append(wall)
        attempted += out.attempted
        failed += out.failed
    return {
        "walls": walls,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(workload: str, k: int, job_list: list[list[str]], seed: int, tiny: bool) -> dict:
    with open(os.path.join(HERE, "hashes.json")) as fh:
        recorded = json.load(fh).get(workload, {})
    untraced_wall, out = run_rep(workload, job_list)
    attempted, failed = out.attempted, out.failed
    reps = 1
    if workload == "classify" and not tiny:
        reps = math.ceil(MIN_TRACED_ORBITS / workloads.CLASSIFY_GRID)
    tracer = Tracer()
    walls, facts = [], {}
    layers.install(tracer)
    try:
        for _ in range(reps):
            wall, out = run_rep(workload, job_list, recorded)
            walls.append(wall)
            attempted += out.attempted
            failed += out.failed
            facts = out.facts
    finally:
        left = tracer.uninstall()
    if left:
        raise RuntimeError(f"wrappers left installed: {left}")
    tracer.save(os.path.join(RUN_DIR, f"spans-{workload}.npz"))
    lo, hi = workloads.classify_range(k)
    found = probes.worker_scaling(
        np.linspace(lo, hi, 3 if tiny else PROBE_ANGLES), "V9" if tiny else PROBE_TASK)
    found.update(probes.microbench(seed, scale=0.05 if tiny else 1.0))
    values, absent = layers.metrics(tracer, reps, facts, found)
    values["trace.overhead_s"] = statistics.median(walls) - untraced_wall
    return {
        "values": values,
        "absent": absent,
        "attempted": attempted,
        "failed": failed,
        "traced_reps": reps,
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": walls,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    src = os.path.join(ROOT, "src")
    if os.path.commonpath([os.path.abspath(biwind.__file__), src]) != src:
        print(f"biwind imported from {biwind.__file__}, not from {src}", file=sys.stderr)
        return 2
    k = workloads.variant(args.seed)
    if run_cli(workloads.warmup_job(args.workload, k)) != 0:
        print("warm-up job failed", file=sys.stderr)
        return 1
    if args.setup_only:
        return 0
    job_list = workloads.jobs(args.workload, k, args.tiny)
    if args.trace:
        result = traced(args.workload, k, job_list, args.seed, args.tiny)
    else:
        result = timed(args.workload, job_list, args.seconds)
    result["variant"] = k
    result["jobs"] = job_list
    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "biwind": biwind.__version__,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
