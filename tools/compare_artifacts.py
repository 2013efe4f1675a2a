"""Run a fixed set of biwind commands from two source trees and compare artifacts.

    python tools/compare_artifacts.py PARENT_SRC CHANGE_SRC

Each SRC is a directory holding the `biwind` package (a checkout's `src`).
For each tree, one fresh interpreter with that directory first on its path
runs every command of `COMMANDS` through `biwind.cli.main` into a temporary
directory.  The artifacts are then compared with `biwind.cli._comparable`
(JSON without `wall_ms`, every other file as its bytes), and so are the exit
codes.  Prints each file that differs or exists on one side only, and exits
1 if any does, 0 if every artifact and exit code matches.
"""

from __future__ import annotations

import json
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
    print(f"{len(diff)} differing file(s)")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
