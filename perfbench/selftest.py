"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Checks that every workload, untraced and traced, prints exactly the metrics
BENCHMARK.json names with their units; that a traced job leaves no wrapper
installed in any library module; and that the benchmark refuses to run in a
directory that holds only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def check_metrics(spec: dict) -> None:
    for workload in ("certify", "classify", "shoot_wind"):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            out = subprocess.run(
                RUN + ["--workload", workload, "--seed", "7", "--seconds", "1",
                       "--trace", str(trace), "--tiny"],
                capture_output=True, text=True, timeout=180, check=True)
            res = json.loads(out.stdout.strip().splitlines()[-1])
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
            got = {n: m["unit"] for n, m in res["metrics"].items()}
            want = {m["name"]: m["unit"] for m in declared}
            assert got == want, sorted(set(got.items()) ^ set(want.items()))
            for name, m in res["metrics"].items():
                assert isinstance(m["value"], (int, float)), (name, m)
            print(f"ok: {workload} --trace {trace}: {len(got)} metrics with units")


def check_restored() -> None:
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import importlib

    import layers
    import worker
    from biwind.intervals import Interval
    from tracer import Tracer

    owners = [importlib.import_module(f"biwind.{m}") for m in layers.SPAN_MODULES + ("cli",)]
    owners.append(Interval)
    before = [dict(vars(o)) for o in owners]
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert worker.run_cli(["verify", "--task", "V9"]) == 0
        assert worker.run_cli(["wind", "--blowup-norm", "1e8"]) == 0
    finally:
        left = tracer.uninstall()
    assert not left, left
    for owner, snapshot in zip(owners, before):
        now = dict(vars(owner))
        changed = [k for k in snapshot if now.get(k) is not snapshot[k]]
        assert not changed and set(now) == set(snapshot), (owner, changed)
    assert tracer.counts["intervals.ops"] > 0 and len(tracer.names) > 5
    print(f"ok: {len(tracer.names)} span names recorded, every wrapper removed")


def check_refuses_without_sources() -> None:
    os.makedirs(os.path.join(ROOT, ".perfbench_run"), exist_ok=True)
    bare = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench_run"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        assert out.returncode != 0 and not out.stdout.strip(), (out.returncode, out.stdout)
    finally:
        shutil.rmtree(bare)
    print("ok: refuses to run without the library sources")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_metrics(spec)
    check_restored()
    check_refuses_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
