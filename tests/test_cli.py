import io
import json
import os
import pathlib
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plans import spread_plan
from stiffcal import cli
from stiffcal.cli import build_parser, main
from stiffcal.compensator import equivalent_joint_stiffness
from stiffcal.doe import PLAN_CSV_HEADER, save_plan_csv
from stiffcal.elasto_id import DEFLECTION_CSV_HEADER, load_deflection_csv

pytestmark = pytest.mark.usefixtures("model_path", "table1_path")

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _readme_commands():
    """argv of each ``stiffcal`` command in the README's command-line block."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Command line.*?```sh\n(.*?)```", text, re.S).group(1)
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                if line.strip() and not line.lstrip().startswith("#")]
    assert commands and all(c[0] == "stiffcal" for c in commands)
    return [c[1:] for c in commands]


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestExitCodes:
    def test_no_subcommand(self, capsys):
        assert main([]) == 1
        assert "no subcommand" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert main(["geom-ident", "--bogus"]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert main(["geom-ident"]) == 1

    def test_calibration_failure_is_2(self, tmp_path, model_path, capsys):
        bad = tmp_path / "short.csv"
        bad.write_text("q2_deg,P1_x,P1_y,P01_x,P01_y,P02_x,P02_y\n"
                       "0,1,0,2,0,3,0\n-60,0.5,0.9,1,1.7,1.5,2.6\n")
        assert main(["geom-ident", "--markers", str(bad),
                     "--out", str(tmp_path / "o")]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command, text, where", [
        pytest.param("geom-ident", "0,1,0,2,0,3,0\n-60,0.5,0.9,1,1.7,1.5\n",
                     ":3: expected 7 fields, got 6", id="marker-ragged"),
        pytest.param("geom-ident", "0,1,oops,2,0,3,0\n",
                     ":2: column P1_y: could not convert", id="marker-cell"),
        pytest.param("geom-ident", "0,1,0,2,0,3,0\n-60,0.5,0.9,1,1.7,nan,2.6\n",
                     ":3: column P02_x must be finite", id="marker-nan"),
        pytest.param("simulate deflections", "0,-30,0,0,0,0,0,0,-2600,0,0,0,1\n"
                     "0,-60,0,0,0,0,0,0,-2600,0,0,0,0\n",
                     ":3: repeats must be >= 1", id="plan-repeats"),
        pytest.param("simulate deflections", "0,-30,0,0,0,0,0,0,-2600,0,0,0,1000000000000\n",
                     ":2: repeats must be <= 10000, got 1000000000000",
                     id="plan-repeats-huge"),
    ])
    def test_bad_data_file_is_2(self, tmp_path, model_path, capsys, command,
                                text, where):
        header = ("q2_deg,P1_x,P1_y,P01_x,P01_y,P02_x,P02_y" if command == "geom-ident"
                  else ",".join(PLAN_CSV_HEADER))
        bad = tmp_path / "bad.csv"
        bad.write_text(header + "\n" + text)
        flag = "--markers" if command == "geom-ident" else "--plan"
        argv = command.split() + [flag, str(bad), "--out", str(tmp_path / "o")]
        if command != "geom-ident":
            argv += ["--model", str(model_path)]
        assert main(argv) == 2
        assert f"{bad}{where}" in capsys.readouterr().err

    def test_satellite_without_y_column_is_2(self, tmp_path, table1_path, capsys):
        bad = tmp_path / "markers.csv"
        lines = table1_path.read_text().splitlines()
        bad.write_text("\n".join([lines[0] + ",P03_x"]
                                 + [line + ",1.0" for line in lines[1:]]) + "\n")
        assert main(["geom-ident", "--markers", str(bad),
                     "--out", str(tmp_path / "o")]) == 2
        assert f"{bad}: missing column P03_y" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        pytest.param(["simulate", "geometry", "--q2=-140:0:5"], id="geometry"),
        pytest.param(["simulate", "deflections", "--plan=plan.csv"], id="deflections"),
    ])
    def test_overflowing_noise_is_2(self, tmp_path, model_path, capsys, argv):
        """A noise level that overflows the simulated data fails at the input:
        no numpy warning, no file with inf in it."""
        plan = tmp_path / "plan.csv"
        plan.write_text(",".join(PLAN_CSV_HEADER)
                        + "\n0,-30,0,0,0,0,0,0,-2600,0,0,0,1\n")
        argv = [a.replace("plan.csv", str(plan)) for a in argv]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(argv + ["--noise=1e308", "--model", str(model_path),
                              "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "noise sigma 1e+308 mm" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_overflow_scale_markers_are_2(self, tmp_path, model_path, capsys):
        """Finite markers too large for the circle fits fail naming the
        marker data, with no numpy warning on the way."""
        sweep = tmp_path / "sweep"
        assert main(["simulate", "geometry", "--q2=-140:0:15", "--noise=1e300",
                     "--seed=1", "--model", str(model_path), "--out", str(sweep)]) == 0
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            rc = main(["geom-ident", "--markers", str(sweep / "markers.csv"),
                       "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "marker data out of range" in err
        assert "RuntimeWarning" not in err
        assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]

    def test_huge_sweep_angle_is_2(self, tmp_path, model_path, capsys):
        """A finite sweep angle too large to count among the distinct
        angles fails naming its file and line, with no numpy warning."""
        sweep = tmp_path / "sweep"
        assert main(["simulate", "geometry", "--q2=-140:0:5", "--model", str(model_path),
                     "--out", str(sweep)]) == 0
        capsys.readouterr()
        markers = sweep / "markers.csv"
        rows = markers.read_text().splitlines()
        rows[2] = ",".join(["1.7e308"] + rows[2].split(",")[1:])
        markers.write_text("\n".join(rows) + "\n")
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            rc = main(["geom-ident", "--markers", str(markers), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert (f"error: {markers}:3: column q2_deg out of range, got 1.7e+308"
                in capsys.readouterr().err)
        assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        pytest.param(["predict", "--q=0,-10,0,0,0,0", "--wrench=0,0,1e308,0,0,0"],
                     id="predict-wrench"),
        pytest.param(["eta-curve", "--s0=458", "--q2=-1e308:1e308:3"], id="eta-grid"),
        pytest.param(["simulate", "geometry", "--q2=1e308,0,-40"], id="sweep-angles"),
    ])
    def test_overflowing_flag_values_are_2(self, tmp_path, model_path, capsys, argv):
        """Finite flag values that overflow the numerics exit 2 naming the
        overflow, with no numpy warning on the way."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(argv + ["--model", str(model_path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "error: input values out of range: overflow" in capsys.readouterr().err

    @pytest.mark.parametrize("column", ["marker_id", "repeat"])
    def test_huge_count_cell_is_2(self, tmp_path, model_path, capsys, column):
        """A ``marker_id`` or ``repeat`` beyond int64 fails naming its line and
        column, with no traceback; the int64 maximum itself reads exactly."""
        path = tmp_path / "records.csv"

        def write(value):
            cells = ["0"] * len(DEFLECTION_CSV_HEADER)
            cells[DEFLECTION_CSV_HEADER.index(column)] = str(value)
            path.write_text(",".join(DEFLECTION_CSV_HEADER) + "\n" + ",".join(cells) + "\n")

        write(2**63 - 1)
        assert getattr(load_deflection_csv(path), column).tolist() == [2**63 - 1]
        write(10**30)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["elasto-ident", "--model", str(model_path), "--records", str(path),
                       "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{path}:2: column {column} must be <= {2**63 - 1}, got {10**30}\n" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        pytest.param(["simulate", "geometry", "--q2=-140:0:8"], id="simulate-geometry"),
        pytest.param(["predict", "--q=0,-45,0,0,0,0"], id="predict"),
    ])
    def test_failed_write_prints_no_result(self, tmp_path, model_path, capsys, argv):
        """An ``--out`` that names a file exits 2 with no result line printed."""
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(argv + ["--model", str(model_path), "--out", str(taken)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "File exists" in err

    def test_unconverged_prediction_is_2(self, tmp_path, model_path, capsys):
        """A load whose equilibrium does not converge fails before any output."""
        rc = main(["predict", "--model", str(model_path), "--q=-17,38,-102,113,-74,-33",
                   "--wrench=0,0,-641773,0,0,0", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "did not converge" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_simulate_without_kind(self, capsys):
        assert main(["simulate"]) == 1
        assert "KIND" in capsys.readouterr().err


class TestGeomIdent:
    def test_reference_table(self, tmp_path, table1_path, capsys):
        out = tmp_path / "geo"
        rc = main(["geom-ident", "--markers", str(table1_path),
                   "--out", str(out), "--ci-samples", "24"])
        assert rc == 0
        payload = _load_json(out / "geometry.json")
        assert payload["L_mm"] == pytest.approx(184.719478, abs=1e-5)
        assert payload["ax_mm"] == pytest.approx(685.993407, abs=1e-5)
        assert payload["ay_mm"] == pytest.approx(119.411819, abs=1e-5)
        assert payload["crank_angle_sign"] == -1
        assert (out / "fit_tracks.csv").exists()
        text = capsys.readouterr().out
        assert "L  =" in text and "+/-" in text

    def test_manifest_contents(self, tmp_path, table1_path):
        out = tmp_path / "geo"
        main(["geom-ident", "--markers", str(table1_path), "--out", str(out),
              "--ci-samples", "8", "--seed", "5"])
        man = _load_json(out / "manifest.json")
        assert man["tool"] == "stiffcal"
        assert man["subcommand"] == "geom-ident"
        assert man["seed"] == 5
        assert len(man["inputs"]["markers"]["sha256"]) == 64
        assert sorted(man["outputs"]) == ["fit_tracks.csv", "geometry.json"]

    def test_deterministic_output_bytes(self, tmp_path, table1_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            main(["geom-ident", "--markers", str(table1_path),
                  "--out", str(out), "--ci-samples", "16"])
        assert (out1 / "geometry.json").read_bytes() == \
            (out2 / "geometry.json").read_bytes()
        assert (out1 / "fit_tracks.csv").read_bytes() == \
            (out2 / "fit_tracks.csv").read_bytes()


class TestPipelineRoundTrip:
    def test_simulate_then_identify(self, tmp_path, model_path):
        sim = tmp_path / "sim"
        rc = main(["simulate", "geometry", "--model", str(model_path),
                   "--q2=-140:0:8", "--out", str(sim)])
        assert rc == 0
        geo = tmp_path / "geo"
        rc = main(["geom-ident", "--markers", str(sim / "markers.csv"),
                   "--out", str(geo), "--ci-samples", "8"])
        assert rc == 0
        payload = _load_json(geo / "geometry.json")
        assert payload["L_mm"] == pytest.approx(185.0, abs=1e-4)
        assert payload["ax_mm"] == pytest.approx(25.0, abs=1e-3)
        assert payload["ay_mm"] == pytest.approx(695.0, abs=1e-3)

    def test_doe_then_simulate_then_elasto(self, tmp_path, model_path):
        doe = tmp_path / "doe"
        rc = main(["doe", "--model", str(model_path),
                   "--test-q=79.20,-0.01,-5.57,51.00,-97.52,-91.67",
                   "--buckets=-0.01,-45,-90,-140",
                   "--out", str(doe), "--starts", "1", "--repeats", "1",
                   "--configs-per-bucket", "2"])
        assert rc == 0
        assert (doe / "plan.csv").exists()
        acc = _load_json(doe / "doe.json")
        assert acc["rho0_mm"] > 0
        assert len(acc["per_bucket_mm2"]) == 4
        assert acc["searched_joints"] == [3, 4, 5, 6]   # q1 idle under the -z load

        sim = tmp_path / "rec"
        rc = main(["simulate", "deflections", "--model", str(model_path),
                   "--plan", str(doe / "plan.csv"), "--out", str(sim),
                   "--noise", "0.02", "--response", "linear", "--seed", "3"])
        assert rc == 0

        est = tmp_path / "est"
        rc = main(["elasto-ident", "--model", str(model_path),
                   "--records", str(sim / "records.csv"), "--out", str(est),
                   "--ci-samples", "32"])
        assert rc == 0
        payload = _load_json(est / "elasto.json")
        by_name = {p["name"]: p for p in payload["parameters"]}
        truth = _load_json(sim / "truth.json")
        tv = dict(zip(truth["labels"], truth["values"]))
        assert by_name["k3"]["value"] == pytest.approx(tv["k3"], rel=0.05)
        assert by_name["Kc"]["value"] == pytest.approx(tv["Kc"], rel=0.5)
        assert len(payload["joint2_buckets_deg"]) == 4
        assert payload["ci_samples"] == 32
        assert 0 <= payload["ci_failed"] <= 16

    def test_doe_output_bytes_repeat(self, tmp_path, model_path):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main(["doe", "--model", str(model_path),
                         "--test-q=79.20,-0.01,-5.57,51.00,-97.52,-91.67",
                         "--buckets=-0.01,-90,-140", "--out", str(out),
                         "--starts", "3", "--configs-per-bucket", "2"]) == 0
        for name in ("plan.csv", "doe.json", "bucket_contributions.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_predict(self, tmp_path, model_path):
        out = tmp_path / "pred"
        rc = main(["predict", "--model", str(model_path),
                   "--q=79.20,-0.01,-5.57,51.00,-97.52,-91.67",
                   "--wrench=0,0,-2600,0,0,0", "--out", str(out)])
        assert rc == 0
        payload = _load_json(out / "prediction.json")
        assert payload["converged"] is True
        K = np.array(payload["cartesian_stiffness"])
        assert K.shape == (6, 6)
        assert np.allclose(K, K.T, atol=1e-6 * np.max(np.abs(K)))
        sag = np.array(payload["linear_tool_twist"][:3])
        assert 0.5 < np.linalg.norm(sag) < 50.0

    def test_eta_curve(self, tmp_path, model_path, capsys):
        out = tmp_path / "eta"
        rc = main(["eta-curve", "--model", str(model_path),
                   "--s0", "458,600", "--q2=-140:0:15", "--out", str(out)])
        assert rc == 0
        rows = (out / "eta.csv").read_text().strip().splitlines()
        assert rows[0] == "q2_deg,s0_mm,eta"
        assert len(rows) == 1 + 2 * 15
        # working free length keeps the compensator stiffening everywhere
        vals = [r.split(",") for r in rows[1:] if r.split(",")[1] == "458"]
        assert all(float(v[2]) > 0 for v in vals)
        plot = (out / "eta_plot.csv").read_text().splitlines()
        assert plot[0] == "x,series,y"
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:] == [
            "s0= 458.0 mm: eta in [+0.104, +0.315], 0 non-positive",
            "s0= 600.0 mm: eta in [-0.174, +0.269], 5 non-positive"]


class TestMirroredCompensator:
    """A model with ``q2_sign: -1``: every command follows the model's sign."""

    def test_eta_curve_matches_the_joint_stiffness(self, tmp_path, mirrored,
                                                   mirrored_model_path, capsys):
        out = tmp_path / "eta"
        assert main(["eta-curve", "--model", str(mirrored_model_path), "--s0=458",
                     "--q2=-140:0:31", "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[1] == \
            "s0= 458.0 mm: eta in [-0.480, +0.140], 27 non-positive"
        comp = mirrored.compensator
        K0 = 1.0 / mirrored.compliances[1]
        scale = comp.elastics.Kc_N_per_mm * comp.geometry.a_mm * comp.geometry.L_mm
        q2_deg = np.linspace(-140.0, 0.0, 31)
        with warnings.catch_warnings():     # the joint softens below K0 here
            warnings.simplefilter("ignore", RuntimeWarning)
            k = equivalent_joint_stiffness(comp, K0, np.radians(q2_deg))
        # the law's eta at each angle, written as eta.csv writes it
        want = [float(f"{v:.10g}") for v in (k - K0) / scale]
        table = np.loadtxt(out / "eta.csv", delimiter=",", skiprows=1)
        assert table[:, 0].tolist() == [float(f"{v:.10g}") for v in q2_deg]
        np.testing.assert_allclose(table[:, 2], want, rtol=1e-12, atol=0.0)

    def test_geometry_sweep_turns_the_crank_by_the_model_sign(self, tmp_path,
                                                              mirrored_model_path):
        sim, geo = tmp_path / "sim", tmp_path / "geo"
        assert main(["simulate", "geometry", "--model", str(mirrored_model_path),
                     "--q2=-140:0:8", "--out", str(sim)]) == 0
        assert main(["geom-ident", "--markers", str(sim / "markers.csv"),
                     "--out", str(geo), "--ci-samples", "8"]) == 0
        assert _load_json(geo / "geometry.json")["crank_angle_sign"] == -1


class TestUsageParsing:
    def test_bad_grid(self, tmp_path, model_path, capsys):
        rc = main(["eta-curve", "--model", str(model_path), "--s0", "458",
                   "--q2=-140:0", "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "start:stop:count" in capsys.readouterr().err

    def test_bad_test_q_count(self, tmp_path, model_path, capsys):
        rc = main(["doe", "--model", str(model_path), "--test-q=1,2,3",
                   "--buckets=-10,-60,-120", "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "needs 6 comma-separated values" in capsys.readouterr().err

    @pytest.mark.parametrize("limits, text", [
        ("1:2", "six lo:hi pairs"),
        ("-185:185,-0.001:-140,-120:155,-350:350,-122.5:122.5,-350:350",
         "--limits entry 2: lo must be below hi"),
    ])
    def test_bad_limits(self, tmp_path, model_path, capsys, limits, text):
        rc = main(["doe", "--model", str(model_path),
                   "--test-q=0,-45,0,0,0,0", "--buckets=-10,-60,-120",
                   f"--limits={limits}", "--out", str(tmp_path / "x")])
        assert rc == 1
        assert text in capsys.readouterr().err

    @pytest.mark.parametrize("windows, text", [
        ("10", "--q1-windows"),
        ("10:0", "--q1-windows entry 1: lo must be below hi"),
        ("200:260", "--q1-windows: q1 window 200..260 deg outside joint 1's "
                    "limits -185..185 deg"),
    ])
    def test_bad_q1_windows(self, tmp_path, model_path, capsys, windows, text):
        rc = main(["doe", "--model", str(model_path),
                   "--test-q=0,-45,0,0,0,0", "--buckets=-10,-60,-120",
                   f"--q1-windows={windows}", "--out", str(tmp_path / "x")])
        assert rc == 1
        assert text in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("argv, flag", [
        pytest.param(["predict", "--q=0,-90,nan,0,0,0"], "--q", id="q"),
        pytest.param(["predict", "--q=0,-90,0,0,0,0", "--wrench=0,0,inf,0,0,0"],
                     "--wrench", id="wrench"),
        pytest.param(["eta-curve", "--s0=inf", "--q2=-140:0:5"], "--s0", id="s0"),
        pytest.param(["eta-curve", "--s0=458", "--q2=nan:0:5"], "--q2", id="q2-range"),
        pytest.param(["eta-curve", "--s0=458", "--q2=-140,-inf,0"], "--q2",
                     id="q2-list"),
        pytest.param(["doe", "--test-q=0,-45,0,nan,0,0", "--buckets=-10,-60,-120"],
                     "--test-q", id="test-q"),
        pytest.param(["doe", "--test-q=0,-45,0,0,0,0", "--buckets=-10,nan,-120"],
                     "--buckets", id="buckets"),
        pytest.param(["doe", "--test-q=0,-45,0,0,0,0", "--buckets=-10,-60,-120",
                      "--limits=-185:185,-140:-0.001,-120:inf,-350:350,"
                      "-122.5:122.5,-350:350"], "--limits", id="limits"),
        pytest.param(["doe", "--test-q=0,-45,0,0,0,0", "--buckets=-10,-60,-120",
                      "--q1-windows=-inf:30"], "--q1-windows", id="q1-windows"),
        pytest.param(["doe", "--test-q=0,-45,0,0,0,0", "--buckets=-10,-60,-120",
                      "--load=inf"], "--load", id="load"),
        pytest.param(["doe", "--test-q=0,-45,0,0,0,0", "--buckets=-10,-60,-120",
                      "--noise=nan"], "--noise", id="doe-noise"),
        pytest.param(["simulate", "deflections", "--plan=plan.csv", "--noise=nan"],
                     "--noise", id="deflections-noise"),
        pytest.param(["simulate", "geometry", "--q2=-140:0:5", "--noise=nan"],
                     "--noise", id="geometry-noise"),
    ])
    def test_non_finite_values_rejected(self, tmp_path, model_path, capsys,
                                        argv, flag):
        rc = main(argv + ["--model", str(model_path), "--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{flag}:" in err or f"{flag} entry" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--starts", "0"), ("--configs-per-bucket", "0"), ("--repeats", "0"),
        ("--repeats", "10001"), ("--starts", "10001"), ("--configs-per-bucket", "10001"),
        ("--load", "0"), ("--noise", "-0.01"),
    ])
    def test_numeric_doe_flags_bounded(self, tmp_path, model_path, capsys,
                                       flag, value):
        rc = main(["doe", "--model", str(model_path), "--test-q=0,-45,0,0,0,0",
                   "--buckets=-10,-60,-120", f"{flag}={value}",
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        assert f"{flag}:" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("argv, flag", [
        pytest.param(["geom-ident", "--seed=-1"], "--seed", id="geom-ident-seed"),
        pytest.param(["elasto-ident", "--records=r.csv", "--seed=-1"], "--seed",
                     id="elasto-ident-seed"),
        pytest.param(["doe", "--test-q=0,-45,0,0,0,0", "--buckets=-10,-60,-120",
                      "--seed=-1"], "--seed", id="doe-seed"),
        pytest.param(["simulate", "geometry", "--q2=-140:0:5", "--seed=-1"], "--seed",
                     id="geometry-seed"),
        pytest.param(["simulate", "deflections", "--plan=plan.csv", "--seed=-1"],
                     "--seed", id="deflections-seed"),
        pytest.param(["geom-ident", "--ci-samples=-3"], "--ci-samples",
                     id="geom-ident-ci-negative"),
        pytest.param(["elasto-ident", "--records=r.csv", "--ci-samples=-1"],
                     "--ci-samples", id="elasto-ident-ci-negative"),
        pytest.param(["geom-ident", "--ci-samples=10001"], "--ci-samples",
                     id="ci-over-cap"),
        pytest.param(["simulate", "geometry", "--q2=0:1:10001"], "--q2",
                     id="geometry-grid-over-cap"),
        pytest.param(["eta-curve", "--s0=458", "--q2=0:1:10001"], "--q2",
                     id="eta-grid-over-cap"),
        pytest.param(["doe", "--test-q=0,-45,0,0,0,0", "--buckets=-10:-120:10001"],
                     "--buckets", id="buckets-over-cap"),
        pytest.param(["doe", "--test-q=0,-45,0,0,0,0", "--buckets=-10,-50,30"],
                     "--buckets", id="buckets-outside-joint2-limits"),
        # 10000 starts x 3 buckets x 34 is just over the search's 10**6 configurations
        pytest.param(["doe", "--test-q=0,-45,0,0,0,0", "--buckets=-10,-60,-120",
                      "--starts=10000", "--configs-per-bucket=34"],
                     "--configs-per-bucket", id="doe-search-over-cap"),
        pytest.param(["doe", "--test-q=0,-45,0,0,0,0", "--buckets=-10,-10.1,-50"],
                     "--buckets", id="buckets-too-close"),
        # argparse before Python 3.12 reads these as empty lists
        pytest.param(["eta-curve", "--s0=458", "--q2=--"], "--q2", id="q2-dashes"),
        pytest.param(["geom-ident", "--seed=--"], "--seed", id="seed-dashes"),
        pytest.param(["eta-curve", "--s0=", "--q2=-140:0:5"], "--s0", id="s0-empty"),
        pytest.param(["eta-curve", "--s0=458,-50", "--q2=-140:0:5"], "--s0",
                     id="s0-negative"),
        pytest.param(["eta-curve", "--s0=458", "--q2="], "--q2", id="eta-q2-empty"),
        pytest.param(["simulate", "geometry", "--q2="], "--q2", id="geometry-q2-empty"),
        pytest.param(["doe", "--test-q=0,-45,0,0,0,0", "--buckets="], "--buckets",
                     id="buckets-empty"),
    ])
    def test_seed_and_count_flags_bounded(self, tmp_path, model_path, table1_path,
                                          capsys, argv, flag):
        extra = ["--markers", str(table1_path)] if argv[0] == "geom-ident" else \
            ["--model", str(model_path)]
        rc = main(argv + extra + ["--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{flag}:" in err and "non-negative integer" not in err
        assert not (tmp_path / "x").exists()

    def test_count_bounds_are_inclusive(self, tmp_path, model_path, table1_path):
        assert main(["geom-ident", "--markers", str(table1_path), "--seed=0",
                     "--ci-samples=0", "--out", str(tmp_path / "g")]) == 0
        assert _load_json(tmp_path / "g" / "geometry.json")["ci_samples"] == 0
        assert main(["eta-curve", "--model", str(model_path), "--s0=458",
                     "--q2=-140:0:10000", "--out", str(tmp_path / "e")]) == 0

    def test_elasto_ident_one_resample_writes_null_widths(self, tmp_path, model_path,
                                                          capsys):
        """One resample of noisy records has no spread: every ``ci3`` and
        ``ci3_percent`` is null, and no line prints a zero-width interval."""
        save_plan_csv(tmp_path / "plan.csv", spread_plan())
        assert main(["simulate", "deflections", "--model", str(model_path),
                     "--plan", str(tmp_path / "plan.csv"), "--noise=0.02",
                     "--out", str(tmp_path / "rec")]) == 0
        capsys.readouterr()
        assert main(["elasto-ident", "--model", str(model_path), "--records",
                     str(tmp_path / "rec" / "records.csv"), "--ci-samples=1",
                     "--out", str(tmp_path / "el")]) == 0
        params = _load_json(tmp_path / "el" / "elasto.json")["parameters"]
        assert [(p["ci3"], p["ci3_percent"]) for p in params] == [(None, None)] * 7
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 7 and all(line.endswith(cli._NO_CI) for line in out)
        assert "+/-" not in "".join(out) and "nan" not in "".join(out)

    def test_geom_ident_no_resamples_writes_null_widths(self, tmp_path, table1_path,
                                                        capsys):
        assert main(["geom-ident", "--markers", str(table1_path), "--ci-samples=0",
                     "--out", str(tmp_path / "g")]) == 0
        payload = _load_json(tmp_path / "g" / "geometry.json")
        assert payload["ci3"] == {"L_mm": None, "ax_mm": None, "ay_mm": None}
        assert payload["noise_sigma_mm"]["crank"] > 0
        out = capsys.readouterr().out.splitlines()
        assert [line.split("=")[0] for line in out] == ["L  ", "ax ", "ay "]
        assert all(line.endswith(f" mm {cli._NO_CI}") for line in out)
        assert "+/-" not in "".join(out) and "nan" not in "".join(out)

    def test_non_finite_model_number_is_2_without_traceback(self, tmp_path, model_path):
        """A model file with an infinite link length fails as bad data naming
        the field, with no numpy warning or traceback on the way."""
        bad = tmp_path / "bad.yaml"
        bad.write_text(model_path.read_text().replace("[350.0, 0.0, 675.0]",
                                                      "[350.0, 0.0, .inf]"))
        src = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
        env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning", PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-m", "stiffcal.cli", "predict", "--model", str(bad),
             "--q=10,-30,20,40,50,60", "--wrench=0,0,-2600,0,0,0",
             "--out", str(tmp_path / "o")],
            env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 2, run.stderr
        assert "joints[0]: link_translation_mm must be finite" in run.stderr
        assert "Traceback" not in run.stderr and "Warning" not in run.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", [
        ["eta-curve", "--s0", "458", "--q2=-140:0:5"],
        ["simulate", "geometry", "--q2=-140:0:8"],
        ["simulate", "deflections", "--plan", "{plan}"],
        ["elasto-ident", "--records", "{records}"],
    ], ids=["eta-curve", "simulate-geometry", "simulate-deflections", "elasto-ident"])
    def test_model_without_compensator(self, tmp_path, model_path, capsys, command):
        """A usage error before any output, with readable plan and records."""
        bare = tmp_path / "bare.yaml"
        bare.write_text(
            "joints:\n" + "".join(
                f"  - {{axis: [0, 0, 1], link_translation_mm: [100, 0, 0], "
                f"compliance_rad_per_Nmm: 1.0e-9}}\n" for _ in range(6)))
        plan, rec = tmp_path / "plan.csv", tmp_path / "rec"
        save_plan_csv(plan, spread_plan())
        assert main(["simulate", "deflections", "--model", str(model_path),
                     "--plan", str(plan), "--out", str(rec)]) == 0
        capsys.readouterr()
        out = tmp_path / "x"
        rc = main([a.format(plan=plan, records=rec / "records.csv") for a in command]
                  + ["--model", str(bare), "--out", str(out)])
        assert rc == 1
        assert f"{bare}: model has no compensator section" in capsys.readouterr().err
        assert not out.exists()

    def test_version(self, capsys):
        for _ in range(2):      # the cached parser exits the same way again
            with pytest.raises(SystemExit) as exc:
                main(["--version"])
            assert exc.value.code == 0
            assert capsys.readouterr().out.startswith("stiffcal ")


class TestInProcessReuse:
    """``main`` run again and again in one process on the one cached parser."""

    @staticmethod
    def _readme_outputs(root, monkeypatch, cold):
        for name in ("configs", "data"):
            shutil.copytree(ROOT / name, root / name)
        monkeypatch.chdir(root)
        stdout = io.StringIO()
        with redirect_stdout(stdout):
            for argv in _readme_commands():
                if cold:
                    cli._shared_parser.cache_clear()
                assert main(argv) == 0, argv
        files = {p.relative_to(root).as_posix(): p.read_bytes()
                 for p in sorted((root / "out").rglob("*"))
                 if p.is_file() and p.name != "manifest.json"}
        return files, stdout.getvalue()

    def test_readme_block_cold_and_warm_parser_agree(self, tmp_path, monkeypatch):
        cold = self._readme_outputs(tmp_path / "cold", monkeypatch, cold=True)
        warm = self._readme_outputs(tmp_path / "warm", monkeypatch, cold=False)
        assert "out/meas/records.csv" in cold[0] and len(cold[0]) == 15
        assert warm == cold

    def test_warm_parser_gives_fresh_namespaces(self):
        commands = _readme_commands()
        for argv in commands:
            cli._shared_parser().parse_args(argv)
        for argv in commands:
            assert vars(cli._shared_parser().parse_args(argv)) == \
                vars(build_parser().parse_args(argv))

    def test_usage_error_then_valid_command(self, tmp_path, model_path, capsys):
        valid = ["eta-curve", "--model", str(model_path), "--s0=458",
                 "--q2=-140:0:5", "--out", str(tmp_path / "eta")]
        assert main(valid + ["--bogus"]) == 1
        assert main(valid) == 0
        assert main(["doe", "--model", str(model_path), "--test-q=0,0,0,0,0,0",
                     "--buckets=-10,-50,-90", "--repeats=0",
                     "--out", str(tmp_path / "plan")]) == 1
        assert main(valid) == 0
        err = capsys.readouterr().err
        assert "--bogus" in err and "--repeats" in err


def test_readme_manifests_record_every_flag(tmp_path, monkeypatch):
    """Each README command's manifest lists exactly the files in its ``--out``
    and holds every flag given but ``--out``: the file flags as inputs,
    ``--seed`` as the seed, the rest as overrides."""
    TestInProcessReuse._readme_outputs(tmp_path, monkeypatch, cold=False)
    for argv in _readme_commands():
        given_flags, i = {}, 0
        while i < len(argv):
            if argv[i].startswith("--"):
                name, eq, value = argv[i][2:].partition("=")
                if not eq:
                    i += 1
                    value = argv[i]
                given_flags[name.replace("-", "_")] = value
            i += 1
        out = tmp_path / given_flags.pop("out")
        man = _load_json(out / "manifest.json")
        assert sorted(man["outputs"]) == sorted(
            p.name for p in out.iterdir() if p.name != "manifest.json"), argv
        for name, value in given_flags.items():
            if name in man["inputs"]:
                assert man["inputs"][name]["path"] == os.path.abspath(value), argv
            elif name == "seed":
                assert man["seed"] == int(value), argv
            else:
                assert str(man["overrides"][name]) == value, (argv, name)


NUMS = ["0", "1", "-45", "2.5", "-0", "1e3", "1e308", "-1e400", "nan", "inf"]
COUNTS = ["-3", "0", "1", "2", "7", "10001", "99999999999", "2.5", "x", ""]
TOKENS = NUMS + [",", ";", ":", " ", "e", "-", ".", "x", "="]
number = st.one_of(st.sampled_from(NUMS), st.floats(-360.0, 360.0).map(repr))


def numbers(lo, hi):
    return st.lists(number, min_size=lo, max_size=hi).map(",".join)


# each flag gets free text or text shaped like its own valid values
junk = st.lists(st.sampled_from(TOKENS), max_size=12).map("".join)
FLAG_TEXT = {
    "--q": numbers(5, 7), "--wrench": numbers(5, 7), "--s0": numbers(0, 3),
    "--q2": st.one_of(numbers(0, 8), st.tuples(number, number, st.sampled_from(COUNTS))
                      .map(":".join)),
    "--seed": st.one_of(st.integers(-5, 2**70).map(str), st.sampled_from(COUNTS)),
    "--noise": number,
}
FUZZED_FLAGS = {"predict": ("--q", "--wrench"), "eta-curve": ("--s0", "--q2"),
                "simulate geometry": ("--seed", "--noise", "--q2")}


@given(command=st.sampled_from(sorted(FUZZED_FLAGS)), data=st.data())
@settings(max_examples=80, deadline=None)
def test_flag_parsers_fuzzed(model_path, command, data):
    """Any flag text ends in exit 0, 1 or 2 without a traceback, and a usage
    error (exit 1) names a flag it was given."""
    flags = FUZZED_FLAGS[command]
    values = [f"{flag}={data.draw(st.one_of(junk, FLAG_TEXT[flag]), label=flag)}"
              for flag in flags]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()), \
            redirect_stderr(err):
        rc = main(command.split() + ["--model", str(model_path), "--out", f"{tmp}/o"]
                  + values)
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if rc == 1:
        assert any(re.search(rf"{flag}(?![\w-])", err.getvalue()) for flag in flags), \
            err.getvalue()
