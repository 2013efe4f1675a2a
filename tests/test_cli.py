import csv
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from biwind import __version__, certify, cli, config, integrate, manifold, profile


def run(argv):
    """Invoke the CLI in-process and return its integer exit code."""
    return cli.main(argv)


def usage_code(argv):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    return err.value.code


def read_manifest(base):
    with open(f"{base}.manifest.json") as fh:
        return json.load(fh)


def read_csv_rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


# ---------------------------------------------------------------------------
# verify


@pytest.fixture(scope="module")
def verify_all(tmp_path_factory):
    base = tmp_path_factory.mktemp("verify") / "all"
    code = run(["verify", "--task", "all", "--out", str(base)])
    with open(f"{base}.json") as fh:
        certs = json.load(fh)
    return code, certs, str(base)


def test_verify_all_tasks_proved(verify_all):
    code, certs, _ = verify_all
    assert code == 0
    assert [c["task_id"] for c in certs] == list(certify.TASK_IDS)
    assert all(c["status"] == "proved" for c in certs)


def test_verify_absurd_min_width_inconclusive(tmp_path, capsys):
    code = run(["verify", "--task", "V2", "--min-width", "10"])
    assert code == 2
    assert "inconclusive" in capsys.readouterr().out


def test_verify_usage_errors():
    assert usage_code(["verify", "--task", "V10"]) == 64
    assert usage_code(["verify", "--min-width", "-1"]) == 64
    assert usage_code(["verify", "--min-width", "0"]) == 64
    assert usage_code(["verify", "--min-width", "nan"]) == 64


def test_only_verify_loads_the_interval_engine():
    code = (
        "import sys\n"
        "import biwind.cli\n"
        "loaded = lambda: [m for m in ('biwind.certify', 'biwind.intervals') if m in sys.modules]\n"
        "assert not loaded(), loaded()\n"
        "assert biwind.cli.main(['classify', '--grid', '2']) == 0\n"
        "assert not loaded(), loaded()\n"
        "assert biwind.cli.main(['verify', '--task', 'V1']) == 0\n"
        "assert loaded() == ['biwind.certify', 'biwind.intervals'], loaded()\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, timeout=120)


def test_no_subcommand_is_usage_error():
    assert usage_code([]) == 64


def test_version_flag_exits_zero(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["--version"])
    assert err.value.code == 0
    assert __version__ in capsys.readouterr().out


# ---------------------------------------------------------------------------
# shoot


def test_shoot_wrong_dimension_is_usage_error():
    assert usage_code(["shoot", "--d", "6"]) == 64
    assert usage_code(["shoot", "--eps0", "0.5"]) == 64
    assert usage_code(["shoot", "--theta-tol", "-1e-10"]) == 64  # argparse: a flag without its value
    assert usage_code(["shoot", "--theta-tol=-1e-10"]) == 64  # the library: a negative tolerance
    assert usage_code(["shoot", "--span", "0"]) == 64


def test_shoot_theta_tol_floor_recorded(tmp_path):
    base = tmp_path / "shoot"
    code = run(
        [
            "shoot",
            "--theta-tol",
            "1e-14",
            "--span",
            "6",
            "--eps0",
            "0.05",
            "--out",
            str(base),
        ]
    )
    assert code == 0
    manifest = read_manifest(base)
    assert manifest["parameters"]["theta_tol_requested"] == 1e-14
    assert manifest["parameters"]["theta_tol"] == config.THETA_TOL_FLOOR
    with open(f"{base}.json") as fh:
        report = json.load(fh)
    assert abs(report["theta_star"] - math.pi / 4) < 0.01
    header, rows = read_csv_rows(f"{base}.csv")
    assert header == ["s", "phi", "dphi", "d2phi", "d3phi", "energy_total", "energy_rate"]
    assert len(rows) > 10
    assert float(rows[0][1]) == pytest.approx(0.05 * math.cos(report["theta_star"]))


@pytest.mark.parametrize("args", [[], ["--span", "6", "--eps0", "0.05"]])
def test_shoot_reports_alike_with_and_without_out(tmp_path, capsys, args):
    # With --out, theta* is classified from the orbit the CSV holds; the
    # short span's orbit exhausts it, and its classification is integrated.
    assert run(["shoot", *args]) == 0
    bare = capsys.readouterr().out
    base = tmp_path / "shoot"
    assert run(["shoot", *args, "--out", str(base)]) == 0
    assert capsys.readouterr().out == bare
    assert bare.startswith("theta* = ")


def test_shoot_bracket_failure_exits_one(capsys):
    # Span 0.5 exhausts before either gate fires, so both bracket endpoints
    # classify as undecided and the sign-change precondition fails.
    code = run(["shoot", "--span", "0.5"])
    assert code == 1
    assert "shoot" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# classify


def test_classify_above_boundary_all_plus(tmp_path, monkeypatch):
    theta0 = manifold.theta0(config.EPS0)
    base = tmp_path / "grid"
    code = run(
        [
            "classify",
            "--grid",
            "50",
            "--theta-range",
            f"{theta0 + 0.01}:{math.pi / 2}",
            "--out",
            str(base),
        ]
    )
    assert code == 0
    header, rows = read_csv_rows(f"{base}.csv")
    assert header == ["theta", "outcome", "g", "tau", "phi", "dphi", "d2phi", "d3phi"]
    assert len(rows) == 50
    assert all(row[1] == "blowup_plus" and row[2] == "1" for row in rows)
    thetas = [float(row[0]) for row in rows]
    assert thetas == sorted(thetas)


def test_classify_usage_errors(capsys):
    assert usage_code(["classify", "--grid", "1"]) == 64
    assert usage_code(["classify", "--theta-range", "2:1"]) == 64
    assert usage_code(["classify", "--theta-range", "abc:1"]) == 64
    assert usage_code(["classify", "--theta-range", "1"]) == 64
    assert usage_code(["classify", "--eps0", "0"]) == 64
    # argparse takes a negative LO for a flag: the error names the form that parses
    capsys.readouterr()
    assert usage_code(["classify", "--theta-range", "-1.5:0.5"]) == 64
    assert "--theta-range=LO:HI" in capsys.readouterr().err
    args = cli._build_parser().parse_args(["classify", "--theta-range=-1.5:0.5"])
    assert cli._classify_params(args, None) == {"grid": 200, "lo": -1.5, "hi": 0.5, "eps0": config.EPS0}


# ---------------------------------------------------------------------------
# wind


@pytest.fixture(scope="module")
def wind_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("wind") / "wind"
    code = run(["wind", "--out", str(base)])
    return code, str(base)


def test_wind_defaults_write_profile_and_report(wind_run):
    code, base = wind_run
    assert code == 0
    with open(f"{base}.json") as fh:
        report = json.load(fh)
    assert set(report) == {"s_f_estimate", "crossings", "winding_count", "seed"}
    assert report["winding_count"] >= 1
    assert report["winding_count"] == len(report["crossings"])
    assert report["seed"]["eps0"] == config.WIND_EPS0
    header, rows = read_csv_rows(f"{base}.csv")
    assert header == ["r", "psi", "dpsi", "d2psi", "L0f0", "L1f1"]
    radii = [float(row[0]) for row in rows]
    assert radii == sorted(radii)
    assert radii[-1] == pytest.approx(1.0)


def test_wind_usage_and_failure_exits(capsys):
    theta0 = manifold.theta0(config.WIND_EPS0)
    assert usage_code(["wind", "--theta", str(theta0 - 0.1)]) == 64
    for theta in ("nan", "inf"):
        assert usage_code(["wind", "--theta", theta]) == 64
        err = capsys.readouterr().err
        assert "--theta must be finite and exceed the boundary angle" in err
        assert f"got {theta}" in err and "theta_offset" not in err
    assert usage_code(["wind", "--blowup-norm", "-1"]) == 64
    assert usage_code(["wind", "--eps0", "0.2"]) == 64
    code = run(["wind", "--span", "1.0"])
    assert code == 1
    assert "wind" in capsys.readouterr().err


def test_wind_explicit_theta_matches_default(tmp_path):
    theta = manifold.theta0(config.WIND_EPS0) + config.WIND_THETA_OFFSET
    base = tmp_path / "explicit"
    assert run(["wind", "--theta", str(theta), "--out", str(base)]) == 0
    manifest = read_manifest(base)
    assert manifest["parameters"]["theta_offset"] == pytest.approx(
        config.WIND_THETA_OFFSET
    )


# ---------------------------------------------------------------------------
# energy


def test_energy_conservation_spec_example(capsys):
    assert run(["energy", "--d", "4", "--mode", "conservation"]) == 0
    out = capsys.readouterr().out
    worst = float(out.rstrip().rsplit("=", 1)[1])
    assert worst < 1e-7


def test_energy_monotonicity_defect_small(tmp_path):
    base = tmp_path / "mono"
    assert run(["energy", "--d", "5", "--mode", "monotonicity", "--out", str(base)]) == 0
    with open(f"{base}.json") as fh:
        report = json.load(fh)
    assert report["worst"] > -1e-8
    assert report["orbits"] == 20
    assert len(report["spans"]) == 20


def test_energy_usage_errors():
    assert usage_code(["energy", "--d", "5", "--mode", "conservation"]) == 64
    assert usage_code(["energy", "--d", "4", "--mode", "monotonicity"]) == 64
    assert usage_code(["energy", "--d", "8", "--mode", "monotonicity"]) == 64
    assert usage_code(["energy", "--d", "4", "--mode", "average"]) == 64
    assert usage_code(["energy", "--mode", "conservation"]) == 64


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_even_prints_closed_form(tmp_path, capsys):
    base = tmp_path / "spec5"
    assert run(["spectrum", "--d", "5", "--parity", "even", "--out", str(base)]) == 0
    assert "3, 1, -4, -2" in capsys.readouterr().out
    with open(f"{base}.json") as fh:
        report = json.load(fh)
    assert report["eigenvalues"] == [3.0, 1.0, -4.0, -2.0]
    assert report["eigenvectors"] is not None


def test_spectrum_odd_reports_numeric_pairs(tmp_path):
    base = tmp_path / "spec5o"
    assert run(["spectrum", "--d", "5", "--parity", "odd", "--out", str(base)]) == 0
    with open(f"{base}.json") as fh:
        report = json.load(fh)
    eigs = [complex(re, im) for re, im in report["eigenvalues"]]
    assert report["eigenvectors"] is None
    assert sorted(e.real for e in eigs)[-1] == pytest.approx(2.49909364, abs=1e-6)
    complex_pair = [e for e in eigs if abs(e.imag) > 1e-9]
    assert len(complex_pair) == 2
    assert complex_pair[0].real == pytest.approx(-0.5, abs=1e-9)


def test_spectrum_usage_errors():
    assert usage_code(["spectrum", "--d", "11", "--parity", "even"]) == 64
    assert usage_code(["spectrum", "--d", "5", "--parity", "mixed"]) == 64


# ---------------------------------------------------------------------------
# manifests, schemas, atomicity


def test_manifest_schema_and_outputs_exist(verify_all, wind_run, tmp_path):
    spectrum_base = tmp_path / "sp"
    run(["spectrum", "--d", "6", "--parity", "even", "--out", str(spectrum_base)])
    for base in (verify_all[2], wind_run[1], str(spectrum_base)):
        manifest = read_manifest(base)
        assert set(manifest) == {
            "command",
            "parameters",
            "tool_version",
            "rounding_mode",
            "wall_ms",
            "outputs",
        }
        assert manifest["tool_version"] == __version__
        assert manifest["rounding_mode"] == config.ROUNDING_MODE == "nextafter-outward"
        assert isinstance(manifest["wall_ms"], int) and manifest["wall_ms"] >= 0
        assert manifest["outputs"]
        for path in manifest["outputs"]:
            # Schema validation: every emitted file parses in its format.
            if path.endswith(".json"):
                with open(path) as fh:
                    json.load(fh)
            else:
                header, rows = read_csv_rows(path)
                assert header and rows
                for row in rows:
                    assert len(row) == len(header)


def test_out_suffix_is_normalized(tmp_path):
    base = tmp_path / "named"
    assert run(["spectrum", "--d", "5", "--parity", "even", "--out", f"{base}.json"]) == 0
    assert (tmp_path / "named.json").exists()
    assert (tmp_path / "named.manifest.json").exists()
    assert not (tmp_path / "named.json.json").exists()


def test_no_temp_files_left_behind(verify_all, wind_run, tmp_path):
    for base in (verify_all[2], wind_run[1]):
        parent = type(tmp_path)(base).parent
        assert not list(parent.glob("*.tmp"))


# The float-side artifacts, pinned by the sha256 of what replay compares:
# JSON without `wall_ms`, every other file as its bytes.  They take libm's
# pow and exp, never numpy's AVX-512 loops, so they do not depend on numpy's
# CPU dispatch.
PINNED_ARTIFACTS = {
    ("classify", "--grid", "6"): {
        "classify.csv": "0ec59f2652e34e17e8e4374e97485d9d29ddb38367905a1730eb06ac318fa68a",
    },
    ("wind",): {
        "wind.json": "9a10221af02ce555f3efb3fca49cb58fc423729600398e1cd4ed2f65f2feedf7",
        "wind.csv": "39f40dc1f5991d1b886ba5823bf0f2764c9d315f19fe1966fe6ee99768c39cdb",
    },
    ("shoot", "--theta-tol", "1e-3"): {
        "shoot.json": "80d9090ff0d08c3f21cbaed3ad9c7a811b461c0c45636b22821903dffc3c4a5e",
        "shoot.csv": "3aa9e08b5368e89135249b72e0c0c3a9c07a170a649ac40c42bc7075c7d0d35d",
    },
    # Every matrix entry of the linearization is an integer; a zero that
    # flips its sign changes these.
    ("spectrum", "--d", "4", "--parity", "even"): {
        "spectrum.json": "014297e598e103c9b69b210cae001aa8e172ae9aae5e42d9b3f8f8a6630871d6",
    },
    ("spectrum", "--d", "4", "--parity", "odd"): {
        "spectrum.json": "b8de8f8f6f7c0ba5312c966101f3715085414db3e1d8d908ebd1b20b97a874e4",
    },
}


@pytest.mark.parametrize("argv", list(PINNED_ARTIFACTS), ids=lambda argv: argv[0])
def test_float_artifacts_are_pinned(tmp_path, argv):
    base = tmp_path / argv[0]
    assert run([*argv, "--out", str(base)]) == 0
    got = {}
    for path in read_manifest(base)["outputs"]:
        data = cli._comparable(path)
        data = data.encode() if isinstance(data, str) else data
        got[os.path.basename(path)] = hashlib.sha256(data).hexdigest()
    assert got == PINNED_ARTIFACTS[argv]


def _numpy_dispatches_avx512():
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        return False
    return any(__cpu_features__.get(target) for target in __cpu_dispatch__
               if target.startswith("AVX512") or target == "X86_V4")


def _outputs_by_dispatch(tmp_path, script, *args):
    """For numpy's default CPU dispatch and then with its AVX-512 code
    disabled, the files that `script`, run with `args` in a child interpreter,
    leaves in its working directory, as `cli._comparable` reads them."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    outputs = []
    for disabled in (None, "AVX512_SPR AVX512_ICL X86_V4"):
        env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
        env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
        if disabled:
            env["NPY_DISABLE_CPU_FEATURES"] = disabled
        out = tmp_path / ("disabled" if disabled else "default")
        out.mkdir()
        subprocess.run([sys.executable, "-c", script, *args], cwd=out, env=env, check=True, timeout=600)
        outputs.append({p.name: cli._comparable(str(p)) for p in out.iterdir()})
    return outputs


# Runs in a child, in its output directory: every command of argv[1] into it.
_ALL_COMMANDS = """
import contextlib, io, json, sys
from biwind import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([*argv, "--out", argv[0]]) == 0, argv
"""


@pytest.mark.skipif(not _numpy_dispatches_avx512(), reason="numpy dispatches no AVX-512 code here")
def test_float_artifacts_do_not_depend_on_numpy_cpu_dispatch(tmp_path):
    # numpy's AVX-512 pow and exp round differently from libm; with them
    # switched off numpy takes libm's, so equal artifacts show that none of
    # them reaches an artifact.
    commands = [["shoot"], ["wind"], ["classify", "--grid", "6"],
                ["energy", "--d", "5", "--mode", "monotonicity"]]
    artifacts = _outputs_by_dispatch(tmp_path, _ALL_COMMANDS, json.dumps(commands))
    assert len(artifacts[0]) == 10  # the four commands' manifests, JSON reports and CSV files
    assert artifacts[0] == artifacts[1]


# Every array column of the default winding profile, one .npy file each.
_PROFILE_COLUMNS = """
import dataclasses
import numpy as np
from biwind import profile
_, prof, _ = profile.build_winding_profile()
for field in dataclasses.fields(prof):
    if isinstance(getattr(prof, field.name), np.ndarray):
        np.save(field.name, getattr(prof, field.name))
"""


@pytest.mark.skipif(not _numpy_dispatches_avx512(), reason="numpy dispatches no AVX-512 code here")
def test_profile_columns_do_not_depend_on_numpy_cpu_dispatch(tmp_path):
    # The columns the wind CSV leaves out as well: d3psi and d4psi divide by
    # r^3 and r^4.
    columns = _outputs_by_dispatch(tmp_path, _PROFILE_COLUMNS)
    assert sorted(columns[0]) == [f"{name}.npy" for name in ("d2psi", "d3psi", "d4psi", "dpsi", "psi", "r")]
    assert columns[0] == columns[1]


# The blowup polynomial and its growth sandwich at 10,000 seeded points of
# the d = 5 cone, one .npy file each.
_GROWTH_ARRAYS = """
import numpy as np
from biwind import core, regions
rng = np.random.default_rng(19)
xi0 = rng.uniform(-10.0, 10.0, 10_000)
xi1 = rng.uniform(0.0, 1e3, 10_000)
xi2 = core.c_star(5) + rng.uniform(0.0, 1e3, 10_000)
np.save("p_value", regions.p_value(5, xi0, xi1, xi2))
for name, values in zip(("lower", "p", "upper"), regions.growth_bounds(5, xi0, xi1, xi2)):
    np.save(name, values)
"""


@pytest.mark.skipif(not _numpy_dispatches_avx512(), reason="numpy dispatches no AVX-512 code here")
def test_growth_polynomial_does_not_depend_on_numpy_cpu_dispatch(tmp_path):
    # Both take xi1^3, which numpy's AVX-512 pow rounds otherwise than libm.
    arrays = _outputs_by_dispatch(tmp_path, _GROWTH_ARRAYS)
    assert sorted(arrays[0]) == ["lower.npy", "p.npy", "p_value.npy", "upper.npy"]
    assert arrays[0] == arrays[1]


def _raise_on_call(n, real):
    """`real`, except that its call number n (from 0) raises."""
    calls = itertools.count()

    def wrapped(*args):
        if next(calls) == n:
            raise RuntimeError("writer died")
        return real(*args)

    return wrapped


@pytest.mark.parametrize("writer", ["trajectory", "grid", "profile"])
def test_a_csv_writer_that_dies_leaves_no_file(tmp_path, monkeypatch, writer):
    path = str(tmp_path / "a.csv")
    if writer == "trajectory":
        cfg = integrate.IntegrationConfig(max_span=1.0)
        traj = integrate.integrate(4, [0.5, 0.1, 0.0, 0.0], cfg=cfg)
        write_rows = integrate.write_rows

        def rows_that_die(path, header, rows):
            # the trajectory's rows run out after 3, inside the one CSV writer
            def rows_then_death():
                yield from itertools.islice(rows, 3)
                raise RuntimeError("writer died")

            write_rows(path, header, rows_then_death())

        monkeypatch.setattr(integrate, "write_rows", rows_that_die)
        write = lambda: integrate.write_csv(traj, path)
    elif writer == "grid":
        results = manifold.classification_grid([1.4, 1.5])

        def rows():
            yield from results
            raise RuntimeError("writer died")

        write = lambda: manifold.write_grid_csv(rows(), path)
    else:
        _, prof, _ = profile.build_winding_profile()
        monkeypatch.setattr(profile, "_laplacian_at", _raise_on_call(3, profile._laplacian_at))
        write = lambda: profile.write_profile_csv(prof, 5, path)
    with pytest.raises(RuntimeError, match="writer died"):
        write()
    assert not os.path.exists(path)
    assert not os.path.exists(path + ".tmp")


def test_no_output_without_out_flag(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(["spectrum", "--d", "5", "--parity", "even"]) == 0
    capsys.readouterr()
    assert not list(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# replay


def test_replay_verify_reproduces_statuses(verify_all, capsys):
    _, _, base = verify_all
    assert run(["replay", "--manifest", f"{base}.manifest.json"]) == 0
    assert "match" in capsys.readouterr().out


def test_replay_detects_tampered_statuses(tmp_path, capsys):
    base = tmp_path / "v2"
    assert run(["verify", "--task", "V2", "--out", str(base)]) == 0
    with open(f"{base}.json") as fh:
        certs = json.load(fh)
    certs[0]["status"] = "failed"
    with open(f"{base}.json", "w") as fh:
        json.dump(certs, fh)
    capsys.readouterr()
    assert run(["replay", "--manifest", f"{base}.manifest.json"]) == 1
    assert "differ" in capsys.readouterr().err


def test_replay_classify_reproduces_grid(tmp_path, monkeypatch, capsys):
    base = tmp_path / "grid"
    assert (
        run(["classify", "--grid", "6", "--theta-range", "1.4:1.5", "--out", str(base)])
        == 0
    )
    capsys.readouterr()
    assert run(["replay", "--manifest", f"{base}.manifest.json"]) == 0
    assert "match" in capsys.readouterr().out


@pytest.mark.parametrize("onto_original", [False, True])
def test_replay_detects_a_tampered_grid(tmp_path, capsys, onto_original):
    # with --out naming the recorded base, the re-run overwrites grid.csv; the
    # comparison must still be against what was recorded
    base = tmp_path / "g"
    argv = ["classify", "--grid", "4", "--theta-range", "1.4:1.5", "--out", str(base)]
    assert run(argv) == 0
    path = tmp_path / "g.csv"
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[2] = str(-int(cells[2]))
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    replay = ["replay", "--manifest", f"{base}.manifest.json"]
    if onto_original:
        replay += ["--out", str(base)]
    assert run(replay) == 1
    assert "differ" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["shoot", "--span", "6", "--eps0", "0.05"],
        ["energy", "--d", "5", "--mode", "monotonicity"],
        ["spectrum", "--d", "5", "--parity", "odd"],
        ["wind"],
    ],
)
def test_replay_reproduces_json_reports(tmp_path, capsys, argv):
    base = tmp_path / "report"
    assert run(argv + ["--out", str(base)]) == 0
    capsys.readouterr()
    assert run(["replay", "--manifest", f"{base}.manifest.json"]) == 0
    assert "match" in capsys.readouterr().out


@pytest.mark.parametrize("onto_original", [False, True])
def test_replay_detects_a_tampered_wind_report(tmp_path, capsys, onto_original):
    base = tmp_path / "w"
    assert run(["wind", "--out", str(base)]) == 0
    path = tmp_path / "w.json"
    report = json.loads(path.read_text())
    report["winding_count"] += 1
    path.write_text(json.dumps(report))
    capsys.readouterr()
    replay = ["replay", "--manifest", f"{base}.manifest.json"]
    if onto_original:
        replay += ["--out", str(base)]
    assert run(replay) == 1
    assert "differ" in capsys.readouterr().err


@pytest.mark.parametrize("onto_original", [False, True])
def test_replay_names_a_tampered_wind_profile(tmp_path, capsys, onto_original):
    base = tmp_path / "w"
    assert run(["wind", "--out", str(base)]) == 0
    path = tmp_path / "w.csv"
    lines = path.read_text().splitlines()
    lines[1] = lines[1].replace("0", "1", 1)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    replay = ["replay", "--manifest", f"{base}.manifest.json"]
    if onto_original:
        replay += ["--out", str(base)]
    assert run(replay) == 1
    err = capsys.readouterr().err
    assert str(path) in err
    assert str(tmp_path / "w.json") not in err


def test_replay_counts_a_corrupt_recorded_json_as_differing(tmp_path, capsys):
    base = tmp_path / "s"
    assert run(["spectrum", "--d", "5", "--parity", "even", "--out", str(base)]) == 0
    (tmp_path / "s.json").write_text("{broken")
    capsys.readouterr()
    assert run(["replay", "--manifest", f"{base}.manifest.json"]) == 1
    err = capsys.readouterr().err
    assert str(tmp_path / "s.json") in err
    assert "Traceback" not in err


def test_replay_ignores_a_recorded_workers_parameter(tmp_path, capsys):
    base = tmp_path / "grid"
    assert run(["classify", "--grid", "4", "--theta-range", "1.4:1.5", "--out", str(base)]) == 0
    manifest = read_manifest(base)
    manifest["parameters"]["workers"] = 4
    (tmp_path / "grid.manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run(["replay", "--manifest", f"{base}.manifest.json"]) == 0
    assert "match" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command, parameters, message",
    [
        ("spectrum", {"d": 12, "parity": "even"}, "d=12 outside"),
        (
            "wind",
            {"eps0": 0.5, "theta_offset": 0.2, "blowup_norm": 1e8, "span": 25.0},
            "eps0 must lie in",
        ),
        (
            "shoot",
            {"eps0": 0.5, "theta_tol": 1e-10, "theta_tol_requested": 1e-10, "span": 6.0},
            "eps0 must lie in",
        ),
        ("spectrum", {"d": 5}, "'parity'"),
        ("spectrum", None, "no parameters"),
        ("spectrum", {"d": "5", "parity": "even"}, "dimension must be an integer"),
        ("classify", {"grid": 1, "lo": 0.0, "hi": 1.0, "eps0": 0.1}, "grid must be at least 2"),
        ("classify", {"grid": 4, "lo": 1.0, "hi": 0.0, "eps0": 0.1}, "needs finite lo < hi"),
        (
            "energy",
            {"d": 5, "mode": "conservation", "orbits": 20, "seed": 5},
            "mode conservation requires d = 4",
        ),
        (
            "energy",
            {"d": 5, "mode": "average", "orbits": 20, "seed": 5},
            "mode must be conservation or monotonicity",
        ),
        ("verify", {"task": "V1", "min_width": math.nan}, "min_width must be positive and finite"),
        ("verify", {"task": "V1", "min_width": math.inf}, "min_width must be positive and finite"),
        # JSON true is a bool, and a bool is an int: it must not pass as 1
        ("verify", {"task": "V1", "min_width": True}, "min_width must be positive and finite"),
        (
            "wind",
            {"eps0": 0.1, "theta_offset": 0.2, "blowup_norm": 1e8, "span": True},
            "max_span must be a positive finite number",
        ),
        (
            "wind",
            {"eps0": 0.1, "theta_offset": True, "blowup_norm": 1e8, "span": 25.0},
            "theta_offset must be positive",
        ),
        (
            "shoot",
            {"eps0": 0.001, "theta_tol": True, "theta_tol_requested": True, "span": 6.0},
            "theta_tol must be positive",
        ),
        # zero orbits would pass the energy law vacuously
        (
            "energy",
            {"d": 5, "mode": "monotonicity", "orbits": 0, "seed": 5},
            "orbits must be a positive integer",
        ),
        (
            "energy",
            {"d": 4, "mode": "conservation", "orbits": True, "seed": 5},
            "orbits must be a positive integer",
        ),
        (
            "energy",
            {"d": 5, "mode": "monotonicity", "orbits": 20, "seed": True},
            "seed must be an integer",
        ),
    ],
)
def test_replay_rejects_bad_recorded_parameters(tmp_path, capsys, command, parameters, message):
    path = tmp_path / "bad.manifest.json"
    manifest = {"command": command, "outputs": []}
    if parameters is not None:
        manifest["parameters"] = parameters
    path.write_text(json.dumps(manifest))
    assert usage_code(["replay", "--manifest", str(path)]) == 64
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("spoil", ["tamper", "delete"])
def test_replay_compares_the_files_next_to_the_manifest(tmp_path, monkeypatch, capsys, spoil):
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path)
    assert run(["spectrum", "--d", "5", "--parity", "even", "--out", "sub/sp"]) == 0
    path = tmp_path / "sub" / "sp.json"
    if spoil == "tamper":
        report = json.loads(path.read_text())
        report["d"] = 6
        path.write_text(json.dumps(report))
    else:
        path.unlink()
    monkeypatch.chdir(tmp_path / "sub")
    capsys.readouterr()
    assert run(["replay", "--manifest", "sp.manifest.json"]) == 1
    assert "sp.json" in capsys.readouterr().err


def test_replay_usage_errors(tmp_path):
    assert usage_code(["replay", "--manifest", str(tmp_path / "missing.json")]) == 64
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"command": "dance", "parameters": {}}))
    assert usage_code(["replay", "--manifest", str(bad)]) == 64
    spectrum = {"d": 5, "parity": "even"}
    bad.write_text(json.dumps({"command": "spectrum", "parameters": spectrum, "outputs": "s.json"}))
    assert usage_code(["replay", "--manifest", str(bad)]) == 64


# ---------------------------------------------------------------------------
# seeded end-to-end coherence: shoot report against a library rerun


def test_shoot_report_matches_library(tmp_path):
    base = tmp_path / "shoot"
    assert (
        run(["shoot", "--span", "6", "--eps0", "0.05", "--out", str(base)]) == 0
    )
    with open(f"{base}.json") as fh:
        report = json.load(fh)
    import biwind.integrate as integrate

    cfg = integrate.IntegrationConfig(max_span=6.0)
    theta_star, res = manifold.find_heteroclinic(
        theta_tol=config.THETA_TOL, cfg=cfg, eps0=0.05
    )
    assert report["theta_star"] == theta_star
    assert report["outcome"] == res.outcome.value
    end = np.array(report["end_state"])
    assert np.array_equal(end, res.end_state.as_array())
