"""The three workloads: seeded inputs, CLI jobs, output checks, artifact hashes.

Each workload is a list of `biwind` command lines run in process through
`biwind.cli.main`.  The seed picks one of `VARIANTS` input variants, so every
input has artifact hashes recorded in `hashes.json` (see record_hashes.py).

certify     `verify --task all`: interval arithmetic, branch and bound, Taylor
            and sublevel enclosures; no ODE work.  The paper fixes the inputs,
            so the seed is recorded but unused.
classify    `classify --grid 50` over [-pi/2, theta0] pulled inward by 0.01 to
            0.04 at each end: many short independent orbits through the event
            scan and the gate events; no interval work.
shoot_wind  `shoot` at its defaults, then `wind` at theta0 + delta with
            delta in [0.1, 0.2] for blowup norms 1e8 and 1e10: long orbits in
            sequence (each bisection round waits for the last), random-access
            `sample_at` reads and CSV artifacts with derived columns.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

from biwind import certify, manifold

NAMES = ("certify", "classify", "shoot_wind")
VARIANTS = 16
EPS0 = 1e-3  # the CLI default for classify, shoot and wind
CLASSIFY_GRID = 50  # 4 traced repetitions give 200 orbit samples for p95
TINY_GRID = 6
WIND_THRESHOLDS = ("1e8", "1e10")
REFERENCE_GRID = 200
# Criterion 6's grid is linspace(-pi/2, theta0(EPS0), 200).  Its single g sign
# change lies between points 159 and 160; theta* from `shoot` must land there.
SHOOT_BRACKET_INDEX = 159
PSI_ORIGIN_LIMIT = 1e-3
_TARGET = np.array([0.5 * math.pi, 0.0, 0.0, 0.0])


def variant(seed: int) -> int:
    return random.Random(seed).randrange(VARIANTS)


def classify_range(k: int) -> tuple[float, float]:
    """Angle range of variant k: each end pulled inward by 0.01 to 0.04."""
    lo = -0.5 * math.pi + 0.01 * (1 + k % 4)
    hi = manifold.theta0(EPS0) - 0.01 * (1 + k // 4)
    return lo, hi


def wind_theta(k: int) -> float:
    """theta0 + delta with delta in [0.1, 0.2]; beyond ~0.25 the CLI rejects it."""
    return manifold.theta0(EPS0) + 0.1 + 0.1 * k / (VARIANTS - 1)


def shoot_bracket() -> tuple[float, float]:
    grid = np.linspace(-0.5 * math.pi, manifold.theta0(EPS0), REFERENCE_GRID)
    return float(grid[SHOOT_BRACKET_INDEX]), float(grid[SHOOT_BRACKET_INDEX + 1])


def jobs(workload: str, k: int, tiny: bool = False) -> list[list[str]]:
    """Command lines of one repetition; each ends with `--out <base>`."""
    if workload == "certify":
        return [["verify", "--task", "V9" if tiny else "all", "--out", "certs"]]
    if workload == "classify":
        lo, hi = classify_range(k)
        grid = TINY_GRID if tiny else CLASSIFY_GRID
        return [["classify", "--grid", str(grid), f"--theta-range={lo!r}:{hi!r}", "--out", "grid"]]
    if workload == "shoot_wind":
        shoot = ["shoot", "--theta-tol", "1e-3" if tiny else "1e-10", "--out", "hetero"]
        winds = [
            ["wind", "--theta", repr(wind_theta(k)), "--blowup-norm", b, "--out", f"wind{b}"]
            for b in WIND_THRESHOLDS
        ]
        return [shoot] + winds
    raise ValueError(f"unknown workload {workload!r}")


def warmup_job(workload: str, k: int) -> list[str]:
    """A short job of the same command, run before the first timed one."""
    if workload == "certify":
        return ["verify", "--task", "V4"]
    if workload == "classify":
        lo, hi = classify_range(k)
        return ["classify", "--grid", "2", f"--theta-range={lo!r}:{hi!r}"]
    return ["wind", "--theta", repr(wind_theta(k)), "--blowup-norm", WIND_THRESHOLDS[0]]


# ---------------------------------------------------------------------------
# Artifacts.


def artifacts(outdir: str, argv: list[str]) -> list[str]:
    """Files the job wrote: <base>.json, <base>.csv, <base>.manifest.json."""
    base = argv[argv.index("--out") + 1] + "."
    return sorted(f for f in os.listdir(outdir) if f.startswith(base))


def _strip_wall_ms(obj):
    if isinstance(obj, dict):
        return {k: _strip_wall_ms(v) for k, v in obj.items() if k != "wall_ms"}
    if isinstance(obj, list):
        return [_strip_wall_ms(v) for v in obj]
    return obj


def artifact_hash(path: str) -> str:
    """sha256 of the artifact; JSON is hashed with every `wall_ms` removed."""
    with open(path, "rb") as fh:
        data = fh.read()
    if path.endswith(".json"):
        obj = _strip_wall_ms(json.loads(data))
        data = (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()
    return hashlib.sha256(data).hexdigest()


def job_key(argv: list[str]) -> str:
    return " ".join(argv)


def job_hashes(outdir: str, argv: list[str]) -> dict[str, str]:
    return {f: artifact_hash(os.path.join(outdir, f)) for f in artifacts(outdir, argv)}


def count_changed(recorded: dict, hashes: dict) -> int:
    """Artifacts that differ from, or are missing against, the recorded hashes.

    Jobs without a recorded entry (the tiny self-test sizes) are not compared.
    """
    changed = 0
    for key, now in hashes.items():
        ref = recorded.get(key)
        if ref is not None:
            changed += sum(1 for f, h in ref.items() if now.get(f) != h)
            changed += sum(1 for f in now if f not in ref)
    return changed


# ---------------------------------------------------------------------------
# Output checks.  They test properties, not bytes, so a correct refactor or a
# finer certificate is not a failure.


@dataclass
class Outcome:
    attempted: int
    failed: int
    facts: dict = field(default_factory=dict)


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _read_csv(path: str) -> list[dict] | None:
    try:
        with open(path, newline="") as fh:
            return list(csv.DictReader(fh))
    except OSError:
        return None


def check(workload: str, outdir: str, job_list: list[list[str]], codes: list) -> Outcome:
    """Count failed operations of one repetition from its exit codes and artifacts."""
    if workload == "certify":
        return _check_certify(outdir, job_list, codes)
    if workload == "classify":
        return _check_classify(outdir, job_list, codes)
    return _check_shoot_wind(outdir, codes)


def _check_certify(outdir: str, job_list: list[list[str]], codes: list) -> Outcome:
    task = job_list[0][job_list[0].index("--task") + 1]
    expected = list(certify.TASK_IDS) if task == "all" else [task]
    certs = _read_json(os.path.join(outdir, "certs.json"))
    by_id = {c["task_id"]: c for c in certs or []}
    failed = 0
    for tid in expected:
        c = by_id.get(tid)
        ok = c is not None and c["status"] == "proved"
        if ok and tid == "V7":
            ok = c["details"].get("contained_in_reference") is True
        failed += not ok
    return Outcome(len(expected), failed)


def _check_classify(outdir: str, job_list: list[list[str]], codes: list) -> Outcome:
    n = int(job_list[0][job_list[0].index("--grid") + 1])
    rows = _read_csv(os.path.join(outdir, "grid.csv")) if codes[0] == 0 else None
    if rows is None:
        return Outcome(n, n)
    undecided = sum(1 for r in rows if r["outcome"] == "undecided")
    gs = [int(r["g"]) for r in rows if r["g"]]
    changes = sum(1 for a, b in zip(gs, gs[1:]) if a != b)
    one_change = bool(gs) and gs[0] == -1 and gs[-1] == 1 and changes == 1
    failed = n if not one_change else undecided + max(0, n - len(rows))
    return Outcome(n, failed, {"undecided": undecided})


def _closest_approach(rows: list[dict]) -> float:
    states = np.array([[float(r[c]) for c in ("phi", "dphi", "d2phi", "d3phi")] for r in rows])
    return float(np.min(np.linalg.norm(states - _TARGET, axis=1)))


def _check_shoot_wind(outdir: str, codes: list) -> Outcome:
    facts: dict = {}
    failed = 0
    report = _read_json(os.path.join(outdir, "hetero.json")) if codes[0] == 0 else None
    traj = _read_csv(os.path.join(outdir, "hetero.csv")) if report else None
    if report is None or not traj:
        failed += 1
    else:
        lo, hi = shoot_bracket()
        tol = report["theta_tol"]
        failed += not (lo - tol <= report["theta_star"] <= hi + tol)
        facts["closest_approach"] = _closest_approach(traj)
    counts = []
    for code, b in zip(codes[1:], WIND_THRESHOLDS):
        rep = _read_json(os.path.join(outdir, f"wind{b}.json")) if code == 0 else None
        prof = _read_csv(os.path.join(outdir, f"wind{b}.csv")) if rep else None
        ok = bool(rep) and bool(prof)
        if ok:
            crossings = rep["crossings"]
            ok = all(y > x for x, y in zip(crossings, crossings[1:]))
            ok = ok and abs(float(prof[0]["psi"])) < PSI_ORIGIN_LIMIT
            if counts and rep["winding_count"] < counts[-1]:
                ok = False
            counts.append(rep["winding_count"])
            facts[f"winding_count.{b}"] = rep["winding_count"]
        failed += not ok
    return Outcome(1 + len(WIND_THRESHOLDS), failed, facts)
