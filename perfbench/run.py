"""biwind benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload {certify,classify,shoot_wind} \
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; the library is imported from the
checkout's `src/`.  With --trace 0 the set-up is timed in fresh interpreters
(median of SETUP_SAMPLES) and the workload repeats for --seconds in one more;
the result carries setup_s, wall_s (median repetition), peak_rss_mb and
ok_frac.  With --trace 1 one worker runs the workload untraced and traced
and reports the per-layer metrics of BENCHMARK.json.  Earlier lines of
stdout hold the environment, a readable summary and, when traced, why a
metric reads 0; the last line is the result object.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Repeated from workloads.py: run.py imports nothing from the library, so it
# can refuse cleanly in a directory without src/.
WORKLOADS = ("certify", "classify", "shoot_wind")
SETUP_SAMPLES = 3
DEADLINE_S = 170  # every child is killed and waited for before 180 s


def _src_digest(src: str) -> str:
    """sha256 over the library sources, naming the code that ran."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _worker(args: argparse.Namespace, *extra: str) -> list[str]:
    return [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        *(["--tiny"] if args.tiny else []), *extra,
    ]


def _setup_seconds(args: argparse.Namespace, env: dict, deadline: float) -> list[float]:
    samples = []
    for _ in range(2 if args.tiny else SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(_worker(args, "--setup-only"), env=env, cwd=ROOT, check=True,
                       timeout=deadline - t0, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return samples


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for selftest.py")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "biwind", "__init__.py")):
        print(f"no biwind sources under {src}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["BIWIND_WORKERS"] = "1"
    load_start = os.getloadavg()[0]
    deadline = time.perf_counter() + DEADLINE_S
    try:
        setup = [] if args.trace else _setup_seconds(args, env, deadline)
        proc = subprocess.run(_worker(args), env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=deadline - time.perf_counter())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as err:
        print(f"benchmark worker failed: {err}", file=sys.stderr)
        return 1
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print(f"benchmark worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(proc.stdout.strip().splitlines()[-1])

    environment = {
        **res["versions"],
        "nproc": os.cpu_count(),
        "BIWIND_WORKERS": env["BIWIND_WORKERS"],
        "commit": _commit(),
        "src_sha256": _src_digest(src),
        "loadavg_1m_start": load_start,
        "loadavg_1m_end": os.getloadavg()[0],
        "workload": args.workload,
        "seed": args.seed,
        "variant": res["variant"],
        "jobs": res["jobs"],
    }
    print(json.dumps({"environment": environment}))
    if args.trace:
        values = res["values"]
        print(json.dumps({
            "absent": res["absent"],
            "traced_reps": res["traced_reps"],
            "untraced_wall_s": res["untraced_wall_s"],
            "traced_wall_s": res["traced_wall_s"],
        }))
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(res["walls"]),
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_frac": 1.0 - res["failed"] / res["attempted"],
        }
        print(
            f"{args.workload}: setup_s {values['setup_s']:.4f} s (median of {len(setup)}),"
            f" wall_s {values['wall_s']:.4f} s (median of {len(res['walls'])} runs:"
            f" {', '.join(f'{w:.3f}' for w in res['walls'])}),"
            f" peak_rss_mb {values['peak_rss_mb']:.1f} MB,"
            f" fail_frac {res['failed'] / res['attempted']:.4f}"
            f" ({res['failed']}/{res['attempted']} operations)"
        )
    if set(values) != set(units):
        print(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
