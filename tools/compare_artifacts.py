"""Run a fixed set of biwind commands from two source trees and compare artifacts.

    python tools/compare_artifacts.py PARENT_SRC CHANGE_SRC

Each SRC is a directory holding the `biwind` package (a checkout's `src`).
For each tree, one fresh interpreter with that directory first on its path
runs every command of `COMMANDS` through `biwind.cli.main` into a temporary
directory.  The artifacts are then compared with `biwind.cli._comparable`
(JSON without `wall_ms`, every other file as its bytes), and so are the exit
codes.  Prints each file that differs or exists on one side only, and exits
1 if any does, 0 if every artifact and exit code matches.  Under a differing
CSV it prints each differing column with the number of rows that differ in
it and the largest relative and absolute differences; under a differing
JSON file, each differing key with both values.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile

# (artifact base, command line); "{theta}" is theta0 + 0.15 at the wind eps0,
# computed by the tree that runs the command.  The shooting tolerance 1e-10
# is the default, spelled out so that the run stays pinned if it moves.
COMMANDS = (
    ("shoot", ["shoot"]),
    ("shoot_tol", ["shoot", "--theta-tol", "1e-10"]),
    ("wind", ["wind"]),
    ("wind_1e20", ["wind", "--blowup-norm", "1e20"]),
    ("wind_1e37", ["wind", "--blowup-norm", "1e37"]),
    ("wind_theta_1e8", ["wind", "--theta", "{theta}", "--blowup-norm", "1e8"]),
    ("wind_theta_1e10", ["wind", "--theta", "{theta}", "--blowup-norm", "1e10"]),
    ("classify", ["classify", "--grid", "200"]),
    ("verify", ["verify", "--task", "all"]),
    ("verify_coarse", ["verify", "--task", "all", "--min-width", "0.02"]),
    ("spectrum_4_even", ["spectrum", "--d", "4", "--parity", "even"]),
    ("spectrum_4_odd", ["spectrum", "--d", "4", "--parity", "odd"]),
    ("spectrum_5_even", ["spectrum", "--d", "5", "--parity", "even"]),
    ("spectrum_5_odd", ["spectrum", "--d", "5", "--parity", "odd"]),
    ("energy_5", ["energy", "--d", "5", "--mode", "monotonicity"]),
    ("energy_4", ["energy", "--d", "4", "--mode", "conservation"]),
    ("energy_7", ["energy", "--d", "7", "--mode", "monotonicity"]),
)

# Runs in the child, in the output directory, with the commands on stdin.
# The artifact bases are relative, so both trees' manifests name the same paths.
_RUNNER = """
import contextlib, io, json, sys
from biwind import cli, config, manifold
theta = repr(manifold.theta0(config.WIND_EPS0) + 0.15)
codes = {}
for base, argv in json.load(sys.stdin):
    argv = [a.replace("{theta}", theta) for a in argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes[base] = cli.main(argv + ["--out", base])
        except SystemExit as exc:
            codes[base] = exc.code
with open("exit_codes.json", "w") as fh:
    json.dump(codes, fh, indent=2, sort_keys=True)
"""


def run_tree(src: str, out: str) -> None:
    """Run every command of COMMANDS in `out` with the biwind package under `src`."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    subprocess.run(
        [sys.executable, "-c", _RUNNER],
        input=json.dumps(COMMANDS), text=True, env=env, cwd=out, check=True,
    )


def differing(parent: str, change: str, comparable) -> list[str]:
    """Names of the files of either directory whose comparable forms differ."""
    names = sorted(set(os.listdir(parent)) | set(os.listdir(change)))
    pairs = {
        name: (comparable(os.path.join(parent, name)), comparable(os.path.join(change, name)))
        for name in names
    }
    return [name for name, (old, new) in pairs.items() if old is None or old != new]


def csv_details(old: bytes, new: bytes) -> list[str]:
    """Per differing column: rows that differ, largest relative and absolute difference."""
    (head, *a), (new_head, *b) = (list(csv.reader(io.StringIO(x.decode()))) for x in (old, new))
    if head != new_head or len(a) != len(b):
        return [f"header or row count differs: {len(a)} -> {len(b)} rows"]
    lines = []
    for j, name in enumerate(head):
        pairs = [(r[j], q[j]) for r, q in zip(a, b) if r[j] != q[j]]
        if not pairs:
            continue
        try:
            gaps = [(abs(float(y) - float(x)), abs(float(x))) for x, y in pairs]
            rel = max(gap / ref if ref else math.inf for gap, ref in gaps)
            size = f", largest relative {rel:.3g}, absolute {max(g for g, _ in gaps):.3g}"
        except ValueError:
            size = ""
        lines.append(f"{name}: {len(pairs)} of {len(a)} rows{size}")
    return lines


def json_details(old, new, key: str = "") -> list[str]:
    """Each key whose values differ, with both values (lists of one length item by item)."""
    if isinstance(old, dict) and isinstance(new, dict):
        return [line for k in sorted(set(old) | set(new))
                for line in json_details(old.get(k), new.get(k), f"{key}.{k}" if key else k)]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [line for i, (x, y) in enumerate(zip(old, new))
                for line in json_details(x, y, f"{key}[{i}]")]
    return [] if old == new else [f"{key or '(document)'}: {old!r} -> {new!r}"]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 64
    parent_src, change_src = argv
    sys.path.insert(0, os.path.abspath(change_src))
    from biwind import cli

    with tempfile.TemporaryDirectory() as tmp:
        outs = [os.path.join(tmp, "parent"), os.path.join(tmp, "change")]
        for src, out in zip((parent_src, change_src), outs):
            os.mkdir(out)
            run_tree(src, out)
        diff = differing(*outs, cli._comparable)
        for name in diff:
            print(f"differs: {name}")
            old, new = (cli._comparable(os.path.join(out, name)) for out in outs)
            if old is None or new is None:
                continue
            if name.endswith(".csv"):
                details = csv_details(old, new)
            elif name.endswith(".json"):
                details = json_details(json.loads(old), json.loads(new))
            else:
                details = []
            for line in details:
                print(f"    {line}")
    print(f"{len(diff)} differing file(s)")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
