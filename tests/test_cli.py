import json

import numpy as np
import pytest

from stiffcal.cli import main

pytestmark = pytest.mark.usefixtures("model_path", "table1_path")


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

    def test_bad_limits(self, tmp_path, model_path, capsys):
        rc = main(["doe", "--model", str(model_path),
                   "--test-q=0,-45,0,0,0,0", "--buckets=-10,-60,-120",
                   "--limits=1:2", "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "six lo:hi pairs" in capsys.readouterr().err

    def test_bad_q1_windows(self, tmp_path, model_path, capsys):
        rc = main(["doe", "--model", str(model_path),
                   "--test-q=0,-45,0,0,0,0", "--buckets=-10,-60,-120",
                   "--q1-windows=10", "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "--q1-windows" in capsys.readouterr().err

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

    def test_model_without_compensator(self, tmp_path, capsys):
        bare = tmp_path / "bare.yaml"
        bare.write_text(
            "joints:\n" + "".join(
                f"  - {{axis: [0, 0, 1], link_translation_mm: [100, 0, 0], "
                f"compliance_rad_per_Nmm: 1.0e-9}}\n" for _ in range(6)))
        rc = main(["eta-curve", "--model", str(bare), "--s0", "458",
                   "--q2=-140:0:5", "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "no compensator" in capsys.readouterr().err

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "stiffcal" in capsys.readouterr().out
