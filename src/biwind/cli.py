"""Batch command line: certificates, shooting, grids, profiles, energy laws.

Every command takes one path through `_execute`: its flags are resolved
against the defaults in `config` into a parameters dict, its runner calls
the library and prints a short human summary, and (when --out is given) the
artifacts are written atomically next to a manifest that records the
parameters, the tool version, the rounding mode, the wall time and the
outputs.  Each parameter rule is checked once on that path, by the library
or by the runner; a params function checks only what needs the flags
themselves.  `replay` runs a manifest's parameters through the same path,
so it rejects what the command line rejects, and compares every output file
next to the manifest with its fresh copy.
Exit codes: 0 success / all proved, 1 failure (a Failed certificate, a
broken bracket, no blowup, a replayed artifact that differs), 2 at least
one Inconclusive certificate, 64 usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time

import numpy as np

from . import __version__, config, core, integrate, manifold, profile

__all__ = ["main"]

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit 2; scripts here expect 64."""

    def error(self, message: str):
        # argparse reads a value that starts with '-', such as a negative
        # angle, as a flag, and then finds the flag before it without a value
        for action in self._actions:
            flag = "/".join(action.option_strings)
            if flag and message == f"argument {flag}: expected one argument":
                form = f"{action.option_strings[-1]}={action.metavar or action.dest.upper()}"
                message += f"; give a value that starts with '-' as {form}"
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _write_json(path: str, obj) -> None:
    with integrate.atomic_open(path) as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _out_base(out: str) -> str:
    for suffix in (".json", ".csv"):
        if out.endswith(suffix):
            return out[: -len(suffix)]
    return out


def _execute(command: str, params: dict, out: str | None) -> tuple[int, list[str]]:
    """Run one command and write its artifacts and manifest under `out`.

    The runner gets the parameters and the artifact base (None without
    --out) and returns its exit code, its JSON report (None when it has
    none), and the other files it wrote.  The report goes to `<base>.json`.
    Returns the exit code and every output path.
    """
    started = time.perf_counter()
    base = None if out is None else _out_base(out)
    code, report, outputs = _RUNNERS[command](params, base)
    if base is not None and report is not None:
        _write_json(f"{base}.json", report)
        outputs = [f"{base}.json", *outputs]
    if outputs:
        manifest = {
            "command": command,
            "parameters": params,
            "tool_version": __version__,
            "rounding_mode": config.ROUNDING_MODE,
            "wall_ms": int(round((time.perf_counter() - started) * 1000.0)),
            "outputs": outputs,
        }
        _write_json(f"{base}.manifest.json", manifest)
    return code, outputs


# ---------------------------------------------------------------------------
# verify


def _verify_params(args, parser: _Parser) -> dict:
    return {"task": args.task, "min_width": args.min_width}


def _run_verify(params: dict, base: str | None) -> tuple[int, object, list[str]]:
    from . import certify  # only verify loads the interval engine

    tasks = list(certify.TASK_IDS) if params["task"] == "all" else [params["task"]]
    certs = [
        certify.run_task(tid, min_width=params["min_width"]) for tid in tasks
    ]
    for cert in certs:
        print(
            f"{cert.task_id}: {cert.status.value}"
            f" (boxes={cert.boxes_examined}, depth={cert.max_depth},"
            f" {cert.wall_ms} ms)"
        )
    statuses = {c.status for c in certs}
    if certify.Status.FAILED in statuses:
        code = EXIT_FAILED
    elif certify.Status.INCONCLUSIVE in statuses:
        code = EXIT_INCONCLUSIVE
    else:
        code = EXIT_OK
    return code, [c.to_json_dict() for c in certs], []


# ---------------------------------------------------------------------------
# shoot


def _shoot_params(args, parser: _Parser) -> dict:
    if args.d != manifold.D:
        parser.error(f"shooting is implemented for d={manifold.D} only, got --d {args.d}")
    # before the floor, which would lift a negative tolerance to a valid one
    if not (args.theta_tol > 0.0 and math.isfinite(args.theta_tol)):
        parser.error(f"--theta-tol must be positive, got {args.theta_tol}")
    resolved = max(args.theta_tol, config.THETA_TOL_FLOOR)
    if resolved != args.theta_tol:
        print(
            f"theta tolerance clamped to the floating-point floor {resolved:g}",
            file=sys.stderr,
        )
    return {
        "d": args.d,
        "eps0": args.eps0,
        "theta_tol": resolved,
        "theta_tol_requested": args.theta_tol,
        "span": args.span,
    }


def _run_shoot(params: dict, base: str | None) -> tuple[int, object, list[str]]:
    cfg = integrate.IntegrationConfig(max_span=params["span"])
    try:
        if base is None:
            theta_star, res = manifold.find_heteroclinic(
                theta_tol=params["theta_tol"], cfg=cfg, eps0=params["eps0"]
            )
            orbit = None
        else:
            # the same result, classified from the orbit that the CSV holds
            theta_star = manifold._connecting_angle(None, params["theta_tol"], cfg, params["eps0"])
            res, orbit = manifold._classified_orbit(manifold.SeedSpec(params["eps0"], theta_star), cfg)
    except manifold.BracketError as err:
        print(f"shoot: {err}", file=sys.stderr)
        return EXIT_FAILED, None, []
    end = res.end_state.as_array()
    distance = float(np.linalg.norm(end - manifold.TARGET))
    print(
        f"theta* = {theta_star!r} ({res.outcome.value}),"
        f" end distance to (pi/2,0,0,0) = {distance:.6e}"
    )
    report = {
        "theta_star": theta_star,
        "outcome": res.outcome.value,
        "g": res.g,
        "tau": res.tau,
        "end_state": [float(v) for v in end],
        "end_distance": distance,
        "eps0": params["eps0"],
        "theta_tol": params["theta_tol"],
        "theta_tol_requested": params["theta_tol_requested"],
        "span": params["span"],
    }
    if orbit is None:
        return EXIT_OK, report, []
    integrate.write_csv(orbit, f"{base}.csv")
    return EXIT_OK, report, [f"{base}.csv"]


# ---------------------------------------------------------------------------
# classify


def _parse_range(text: str, parser: _Parser) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        parser.error(f"--theta-range must look like '<lo>:<hi>', got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        parser.error(f"--theta-range endpoints must be numbers, got {text!r}")


def _classify_params(args, parser: _Parser) -> dict:
    if args.theta_range is None:
        lo, hi = -0.5 * math.pi, manifold.theta0(args.eps0)
    else:
        lo, hi = _parse_range(args.theta_range, parser)
    return {"grid": args.grid, "lo": lo, "hi": hi, "eps0": args.eps0}


def _run_classify(params: dict, base: str | None) -> tuple[int, object, list[str]]:
    if params["grid"] < 2:
        raise ValueError(f"grid must be at least 2, got {params['grid']}")
    if not -math.inf < params["lo"] < params["hi"] < math.inf:
        raise ValueError(f"theta range needs finite lo < hi, got {params['lo']}:{params['hi']}")
    thetas = np.linspace(params["lo"], params["hi"], params["grid"])
    results = manifold.classification_grid(thetas, eps0=params["eps0"])
    counts: dict[str, int] = {}
    for r in results:
        counts[r.outcome.value] = counts.get(r.outcome.value, 0) + 1
    print(
        f"classified {len(results)} angles on [{params['lo']:.6g}, {params['hi']:.6g}]: "
        + ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    )
    if base is None:
        return EXIT_OK, None, []
    manifold.write_grid_csv(results, f"{base}.csv")
    return EXIT_OK, None, [f"{base}.csv"]


# ---------------------------------------------------------------------------
# wind


def _wind_params(args, parser: _Parser) -> dict:
    if args.theta is None:
        offset = config.WIND_THETA_OFFSET
    else:
        offset = args.theta - manifold.theta0(args.eps0)
        if not 0.0 < offset < math.inf:  # NaN fails both comparisons
            parser.error(
                f"--theta must be finite and exceed the boundary angle theta0 = "
                f"{manifold.theta0(args.eps0):.6g}, got {args.theta}"
            )
    return {
        "eps0": args.eps0,
        "theta_offset": offset,
        "blowup_norm": args.blowup_norm,
        "span": args.span,
    }


def _run_wind(params: dict, base: str | None) -> tuple[int, object, list[str]]:
    cfg = integrate.IntegrationConfig(
        max_span=params["span"], blowup_norm=params["blowup_norm"]
    )
    policy = profile.SeedPolicy(eps0=params["eps0"], theta_offset=params["theta_offset"])
    try:
        traj, prof, report = profile.build_winding_profile(cfg=cfg, seed_policy=policy)
    except profile.WindingError as err:
        print(f"wind: {err}", file=sys.stderr)
        return EXIT_FAILED, None, []
    print(
        f"winding_count = {report.winding_count}, s_f estimate = {report.s_f_estimate!r},"
        f" blowup at s = {float(traj.s[-1])!r}"
    )
    if base is None:
        return EXIT_OK, report.to_json_dict(), []
    profile.write_profile_csv(prof, manifold.D, f"{base}.csv")
    return EXIT_OK, report.to_json_dict(), [f"{base}.csv"]


# ---------------------------------------------------------------------------
# energy


def _energy_params(args, parser: _Parser) -> dict:
    return {"d": args.d, "mode": args.mode, "orbits": 20, "seed": args.seed}


def _connection_state(rng: np.random.Generator) -> core.State:
    """Random member of the explicit d=4 connecting family at s = 0.

    The family is phi = 2 arctan(e^{s-c}) + k pi with jet (sech, -sech tanh,
    sech (tanh^2 - sech^2)) in the shifted variable, optionally reflected
    through phi = 0.  Every member is a bounded orbit with exactly conserved
    energy.
    """
    c = float(rng.uniform(-2.0, 2.0))
    k = int(rng.integers(-1, 4))
    reflect = bool(rng.integers(0, 2))
    sech = 1.0 / math.cosh(-c)
    tanh = math.tanh(-c)
    jet = (2.0 * math.atan(math.exp(-c)), sech, -sech * tanh, sech * (tanh * tanh - sech * sech))
    x = core.symmetry_shift(jet, k)
    return core.symmetry_reflect(x, 0) if reflect else x


def _run_energy(params: dict, base: str | None) -> tuple[int, object, list[str]]:
    d, mode = params["d"], params["mode"]
    if mode not in ("conservation", "monotonicity"):
        raise ValueError(f"mode must be conservation or monotonicity, got {mode!r}")
    if mode == "conservation" and d != 4:
        raise ValueError(f"mode conservation requires d = 4 (energy is conserved only there), "
                         f"got {d}")
    if mode == "monotonicity" and d not in (5, 6, 7):
        raise ValueError(f"mode monotonicity requires d in {{5, 6, 7}}, got {d}")
    # JSON true is a bool, and a bool is an int: it must not pass as 1
    orbits, seed = params["orbits"], params["seed"]
    if isinstance(orbits, bool) or not isinstance(orbits, int) or orbits < 1:
        raise ValueError(f"orbits must be a positive integer, got {orbits!r}")
    if isinstance(seed, bool):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    spans: list[float] = []
    for _ in range(orbits):
        if mode == "conservation":
            x0 = _connection_state(rng)
            cfg = integrate.IntegrationConfig(max_span=10.0, blowup_norm=20.0)
        else:
            x0 = rng.uniform(-0.5, 0.5, size=4)
            cfg = integrate.IntegrationConfig(max_span=10.0, blowup_norm=1e3)
        traj = integrate.integrate(d, x0, cfg=cfg)
        totals = core.energy(d, traj.states.T).total
        spans.append(float(traj.s[-1]))
        if mode == "conservation":
            worst = max(worst, float(np.max(np.abs(totals - totals[0]))))
        else:
            increments = np.diff(totals)
            if len(increments):
                worst = min(worst, float(np.min(increments)))
    label = "conservation defect" if mode == "conservation" else "worst energy increment"
    print(f"d={d} {mode}: {label} over {params['orbits']} orbits = {worst!r}")
    report = {
        "d": d,
        "mode": mode,
        "orbits": params["orbits"],
        "seed": params["seed"],
        "worst": worst,
        "spans": spans,
    }
    return EXIT_OK, report, []


# ---------------------------------------------------------------------------
# spectrum


def _spectrum_params(args, parser: _Parser) -> dict:
    return {"d": args.d, "parity": args.parity}


def _run_spectrum(params: dict, base: str | None) -> tuple[int, object, list[str]]:
    lin = core.linearization(params["d"], params["parity"])
    print(f"linearization matrix (d={params['d']}, {params['parity']} parity):")
    for row in lin.matrix:
        print("  [" + ", ".join(f"{v:g}" for v in row) + "]")
    if lin.eigenvalues is not None:
        print("eigenvalues:", ", ".join(f"{v:g}" for v in lin.eigenvalues))
        print("eigenvectors (columns, (1, lam, lam^2, lam^3)):")
        for row in lin.eigenvectors:
            print("  [" + ", ".join(f"{v:g}" for v in row) + "]")
        eigs = list(lin.eigenvalues)
        vecs = [[float(v) for v in row] for row in lin.eigenvectors]
    else:
        numeric = sorted(np.linalg.eigvals(lin.matrix), key=lambda z: z.real)
        print(
            "numeric eigenvalues:",
            ", ".join(f"{z.real:.6g}{z.imag:+.6g}i" for z in numeric),
        )
        eigs = [[z.real, z.imag] for z in numeric]
        vecs = None
    report = {
        "d": params["d"],
        "parity": params["parity"],
        "matrix": [[float(v) for v in row] for row in lin.matrix],
        "eigenvalues": eigs,
        "eigenvectors": vecs,
    }
    return EXIT_OK, report, []


_RUNNERS = {
    "verify": _run_verify,
    "shoot": _run_shoot,
    "classify": _run_classify,
    "wind": _run_wind,
    "energy": _run_energy,
    "spectrum": _run_spectrum,
}


# ---------------------------------------------------------------------------
# replay


def _without_wall_ms(value):
    if isinstance(value, dict):
        return {k: _without_wall_ms(v) for k, v in value.items() if k != "wall_ms"}
    if isinstance(value, list):
        return [_without_wall_ms(v) for v in value]
    return value


def _comparable(path: str) -> str | bytes | None:
    """What replay compares of one output: JSON as canonical text without
    any `wall_ms`, every other file as its bytes; None if unreadable."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        if not path.endswith(".json"):
            return data
        # compared as text, so a tuple matches its list and NaN matches NaN
        return json.dumps(_without_wall_ms(json.loads(data)), sort_keys=True)
    except (OSError, ValueError):
        return None


def _replay(args, parser: _Parser) -> int:
    try:
        with open(args.manifest) as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        parser.error(f"cannot read manifest {args.manifest!r}: {err}")
    if not isinstance(manifest, dict) or manifest.get("command") not in _RUNNERS:
        parser.error(f"manifest {args.manifest!r} names no known command")
    params = manifest.get("parameters")
    if not isinstance(params, dict):
        parser.error(f"manifest {args.manifest!r} has no parameters")
    if not isinstance(manifest.get("outputs", []), list):
        parser.error(f"manifest {args.manifest!r} has no list of outputs")
    here = os.path.dirname(args.manifest)
    with tempfile.TemporaryDirectory() as tmp:
        out = args.out or os.path.join(tmp, "replay")
        try:
            # Every output is <base>.<suffix> next to <base>.manifest.json.  Read
            # them first: `--out` may name the recorded base and overwrite them.
            paths = [os.path.join(here, os.path.basename(p)) for p in manifest.get("outputs", [])]
            recorded = {path: _comparable(path) for path in paths}
            code, outputs = _execute(manifest["command"], params, out)
        except KeyError as err:
            parser.error(f"manifest parameters lack {err}")
        except TypeError as err:
            # argparse types what `main` gets; a manifest can record anything
            parser.error(str(err))
        fresh = {os.path.splitext(p)[1]: _comparable(p) for p in outputs}
    if not recorded:
        return code
    differing = [
        path
        for path, data in recorded.items()
        if data is None or data != fresh.get(os.path.splitext(path)[1])
    ]
    for path in differing:
        why = "cannot be read" if recorded[path] is None else "differs from the re-run"
        print(f"replay: {path} {why}", file=sys.stderr)
    if differing:
        return EXIT_FAILED
    print("replay: results match the recorded artifacts")
    return code


# ---------------------------------------------------------------------------
# parser wiring


def _build_parser() -> _Parser:
    parser = _Parser(prog="biwind", description=__doc__)
    parser.add_argument("--version", action="version", version=f"biwind {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run interval-arithmetic certificate tasks")
    p.add_argument("--task", default="all", help="one certificate task id, or all (the default)")
    p.add_argument("--min-width", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(params=_verify_params)

    p = sub.add_parser(
        "shoot", help="locate the connecting orbit by an ITP search on its escape time"
    )
    p.add_argument("--d", type=int, default=manifold.D)
    p.add_argument("--eps0", type=float, default=config.EPS0)
    p.add_argument("--theta-tol", type=float, default=config.THETA_TOL)
    p.add_argument("--span", type=float, default=config.SHOOT_SPAN)
    p.add_argument("--out", default=None)
    p.set_defaults(params=_shoot_params)

    p = sub.add_parser("classify", help="classify seeded orbits over an angle grid")
    p.add_argument("--grid", type=int, default=200)
    p.add_argument("--theta-range", default=None, metavar="LO:HI")
    p.add_argument("--eps0", type=float, default=config.EPS0)
    p.add_argument("--out", default=None)
    p.set_defaults(params=_classify_params)

    p = sub.add_parser("wind", help="build the winding radial profile")
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--eps0", type=float, default=config.WIND_EPS0)
    p.add_argument("--blowup-norm", type=float, default=config.BLOWUP_NORM)
    p.add_argument("--span", type=float, default=config.MAX_SPAN)
    p.add_argument("--out", default=None)
    p.set_defaults(params=_wind_params)

    p = sub.add_parser("energy", help="sample energy conservation or monotonicity")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--mode", required=True, choices=["conservation", "monotonicity"])
    p.add_argument("--seed", type=int, default=5)
    p.add_argument("--out", default=None)
    p.set_defaults(params=_energy_params)

    p = sub.add_parser("spectrum", help="print a linearization and its eigensystem")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--parity", default="even", choices=["even", "odd"])
    p.add_argument("--out", default=None)
    p.set_defaults(params=_spectrum_params)

    p = sub.add_parser("replay", help="re-run a command from its manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "replay":
            return _replay(args, parser)
        return _execute(args.command, args.params(args, parser), args.out)[0]
    except ValueError as err:
        # the library rejected a parameter that the flag checks let through
        parser.error(str(err))


if __name__ == "__main__":
    sys.exit(main())
