"""Record the artifact hashes that `cli.artifacts_changed` compares against.

    PYTHONPATH=src BIWIND_WORKERS=1 python3 perfbench/record_hashes.py

Runs one repetition of every input variant of every workload, requires its
output checks to pass, and rewrites perfbench/hashes.json.  Run it only at a
commit whose artifacts are the reference; a later commit that changes an
artifact shows up as a non-zero `cli.artifacts_changed` in traced runs.
"""

from __future__ import annotations

import json
import os
import sys

from biwind import manifold

import workloads
from worker import HERE, run_rep


def main() -> int:
    lo, hi = workloads.shoot_bracket()
    g = [manifold.classify_orbit(manifold.SeedSpec(workloads.EPS0, t)).g for t in (lo, hi)]
    if g != [-1, 1]:
        print(f"reference bracket [{lo}, {hi}] classifies as {g}, not [-1, 1]", file=sys.stderr)
        return 1
    table: dict[str, dict] = {}
    for workload in workloads.NAMES:
        table[workload] = {}
        seen = set()
        for k in range(workloads.VARIANTS):
            job_list = workloads.jobs(workload, k)
            key = tuple(map(workloads.job_key, job_list))
            if key in seen:
                continue
            seen.add(key)
            wall, out = run_rep(workload, job_list, recorded={})
            print(f"{workload} variant {k}: {wall:.2f} s, {out.failed}/{out.attempted} failed",
                  flush=True)
            if out.failed:
                return 1
            table[workload].update(out.facts["hashes"])
    with open(os.path.join(HERE, "hashes.json"), "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
