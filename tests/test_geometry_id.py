import os
import pathlib
import re
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

import oracles
from stiffcal.circle_fit import (_arc_centre, _fit_signed, fit_circle_procrustes,
                                 fit_concentric_arcs)
from stiffcal.cli import main
from stiffcal.compensator import CompensatorGeometry
from stiffcal.errors import (AngleDirectionError, DataLayoutError,
                             DegenerateGeometryError)
from stiffcal.geometry_id import (
    MarkerDataset,
    confidence_intervals_geometry,
    identify_compensator_geometry,
    load_marker_csv,
    residual_noise_sigma,
    save_marker_csv,
)
from stiffcal.sim import simulate_geometry_dataset

GEOM = CompensatorGeometry(L_mm=185.0, ax_mm=25.0, ay_mm=695.0)
MIRRORED = replace(GEOM, q2_sign=-1.0)
SWEEP = np.radians(np.linspace(-140.0, -0.01, 8))
ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_noiseless_round_trip():
    ds = simulate_geometry_dataset(MIRRORED, SWEEP, p2_xy=(0.16, 1.84),
                                   crank_phase_rad=0.3)
    est = identify_compensator_geometry(ds)
    assert est.L_mm == pytest.approx(185.0, abs=1e-9)
    assert est.ax_mm == pytest.approx(25.0, abs=1e-9)
    assert est.ay_mm == pytest.approx(695.0, abs=1e-9)
    assert np.allclose(est.p2, [0.16, 1.84], atol=1e-9)
    assert est.crank_fit.angle_sign == -1


def test_round_trip_robust_to_phase_and_sign():
    for geom in (GEOM, MIRRORED):
        for phase in (0.0, 1.1, -2.0):
            ds = simulate_geometry_dataset(geom, SWEEP, crank_phase_rad=phase)
            est = identify_compensator_geometry(ds)
            assert est.L_mm == pytest.approx(185.0, abs=1e-8)
            assert est.ax_mm == pytest.approx(25.0, abs=1e-7)
            assert est.ay_mm == pytest.approx(695.0, abs=1e-7)


def test_noisy_recovery_close():
    ds = simulate_geometry_dataset(GEOM, SWEEP, noise_mm=0.05, seed=11)
    est = identify_compensator_geometry(ds)
    assert est.L_mm == pytest.approx(185.0, abs=0.2)
    assert est.ax_mm == pytest.approx(25.0, abs=2.0)
    assert est.ay_mm == pytest.approx(695.0, abs=2.0)


def test_needs_two_satellites():
    ds = simulate_geometry_dataset(GEOM, SWEEP)
    one = MarkerDataset(q2_rad=ds.q2_rad, crank=ds.crank,
                        satellites=ds.satellites[:1])
    with pytest.raises(DegenerateGeometryError, match="satellite"):
        identify_compensator_geometry(one)


class TestDatasetValidation:
    def test_three_distinct_angles_required(self):
        """Angles equal after rounding to 1e-9 rad, and -0.0 and 0.0, count
        once, as ``np.unique`` of the rounded angles counts them."""
        q = np.radians([0.0, 0.0, -60.0])
        pts = np.zeros((3, 2))
        with pytest.raises(ValueError, match="3 distinct joint angles"):
            MarkerDataset(q2_rad=q, crank=pts, satellites=(pts,))
        pts = np.zeros((4, 2))
        same = np.array([0.0, -0.0, 4e-10, -1.0])
        assert np.unique(np.round(same, 9)).size == 2
        with pytest.raises(ValueError, match="3 distinct joint angles"):
            MarkerDataset(q2_rad=same, crank=pts, satellites=(pts,))
        apart = np.array([0.0, -0.0, 2e-9, -1.0])
        assert np.unique(np.round(apart, 9)).size == 3
        MarkerDataset(q2_rad=apart, crank=pts, satellites=(pts,))

    def test_building_a_dataset_imports_no_masked_arrays(self):
        """Building a dataset leaves ``numpy.ma`` unimported in a fresh
        process (``np.unique`` would import it on numpy 2)."""
        code = ("import sys\n"
                "import numpy as np\n"
                "from stiffcal.geometry_id import MarkerDataset\n"
                "before = 'numpy.ma' in sys.modules\n"
                "MarkerDataset(q2_rad=np.radians([0.0, -60.0, -120.0]),\n"
                "              crank=np.zeros((3, 2)), satellites=())\n"
                "print(before, 'numpy.ma' in sys.modules)\n")
        src = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
        run = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        before, after = run.stdout.split()
        assert after == before

    def test_span_guard(self):
        q = np.radians([0.0, -5.0, -10.0, -20.0])
        pts = np.zeros((4, 2))
        with pytest.raises(ValueError, match="span below 30 degrees"):
            MarkerDataset(q2_rad=q, crank=pts, satellites=(pts,))

    def test_row_alignment(self):
        q = np.radians([0.0, -60.0, -120.0])
        with pytest.raises(ValueError, match="one row per angle"):
            MarkerDataset(q2_rad=q, crank=np.zeros((4, 2)), satellites=())

    def test_satellite_shape_mismatch(self):
        q = np.radians([0.0, -60.0, -120.0])
        with pytest.raises(ValueError, match="satellite track 0"):
            MarkerDataset(q2_rad=q, crank=np.zeros((3, 2)),
                          satellites=(np.zeros((3, 3)),))

    def test_non_finite_rejected(self):
        q = np.radians([0.0, -60.0, -120.0])
        crank = np.zeros((3, 2))
        crank[1, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            MarkerDataset(q2_rad=q, crank=crank, satellites=())


class TestCsv:
    def test_reference_table_loads(self, table1_path):
        ds = load_marker_csv(table1_path)
        assert ds.n_poses == 6
        assert len(ds.satellites) == 2
        assert ds.q2_rad[0] == pytest.approx(np.radians(-0.01))
        assert ds.crank.shape == (6, 2)

    def test_z_columns_kept(self, tmp_path):
        p = tmp_path / "sweep.csv"
        p.write_text(
            "q2_deg,P1_x,P1_y,P1_z,P01_x,P01_y,P01_z\n"
            "0,1,0,5,2,0,5\n-60,0.5,0.866,5,1,1.7,5\n-120,-0.5,0.866,5,-1,1.7,5\n")
        ds = load_marker_csv(p)
        assert ds.crank.shape == (3, 3)
        assert np.allclose(ds.crank[:, 2], 5.0)

    def test_a_huge_angle_names_its_line(self, tmp_path):
        """An angle too large to round to 1e-9 rad among the distinct
        angles is refused naming its line, with no numpy warning; the
        largest one that rounds loads."""
        p = tmp_path / "sweep.csv"
        save_marker_csv(p, simulate_geometry_dataset(GEOM, SWEEP))
        rows = p.read_text().splitlines()
        largest = np.rad2deg(np.finfo(float).max / 1e9)
        for angle in (largest, np.nextafter(largest, np.inf), -1.7e308):
            row = ",".join([repr(float(angle))] + rows[3].split(",")[1:])
            p.write_text("\n".join(rows[:3] + [row] + rows[4:]))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                if angle == largest:
                    assert load_marker_csv(p).q2_rad[2] == np.deg2rad(largest)
                    continue
                with pytest.raises(DataLayoutError, match=(
                        f"^{re.escape(str(p))}:4: column q2_deg out of range, got ")):
                    load_marker_csv(p)

    def test_eleven_satellite_groups_round_trip(self, tmp_path):
        """Satellite groups load in the order of their number (P02 before
        P010), so a written sweep with ten or more of them reads back as it
        was written."""
        ds = simulate_geometry_dataset(GEOM, SWEEP)
        sats = tuple(ds.satellites[0] + 10.0 * j for j in range(11))
        p = tmp_path / "sweep.csv"
        save_marker_csv(p, MarkerDataset(q2_rad=ds.q2_rad, crank=ds.crank, satellites=sats))
        back = load_marker_csv(p)
        assert len(back.satellites) == len(sats)
        for got, want in zip(back.satellites, sats):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)

    def test_two_spellings_of_one_satellite_refused(self, tmp_path):
        """``P01`` and ``P001`` both number satellite 1: the header is
        refused naming both groups, and ``geom-ident`` exits 2."""
        ds = simulate_geometry_dataset(GEOM, SWEEP)
        p = tmp_path / "sweep.csv"
        save_marker_csv(p, ds)
        rows = p.read_text().splitlines()
        extra = [",".join(r.split(",")[3:5]) for r in rows[1:]]
        p.write_text("\n".join([rows[0] + ",P001_x,P001_y"]
                               + [r + "," + e for r, e in zip(rows[1:], extra)]) + "\n")
        with pytest.raises(DataLayoutError, match=(
                f"^{re.escape(str(p))}: satellite groups P001 and P01 both number "
                "satellite 1$")):
            load_marker_csv(p)
        assert main(["geom-ident", "--markers", str(p), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    def test_missing_crank_columns(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("q2_deg,P01_x,P01_y\n0,1,2\n-60,2,3\n-120,3,4\n")
        with pytest.raises(ValueError, match="P1_x/P1_y"):
            load_marker_csv(p)

    def test_satellite_group_needs_x_and_y(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("q2_deg,P1_x,P1_y,P01_x,P01_y,P02_y\n"
                     "0,1,0,2,0,3\n-60,0.5,0.9,1,1.7,2.6\n-120,-0.5,0.9,-1,1.7,2.6\n")
        with pytest.raises(DataLayoutError,
                           match=f"{re.escape(str(p))}: missing column P02_x"):
            load_marker_csv(p)

    def test_missing_angle_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("angle,P1_x,P1_y\n0,1,2\n")
        with pytest.raises(ValueError, match="q2_deg"):
            load_marker_csv(p)

    def test_duplicate_column_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("q2_deg,P1_x,P1_y,P1_x\n0,1,2,3\n-60,2,3,4\n-120,3,4,5\n")
        with pytest.raises(ValueError, match="duplicate column name"):
            load_marker_csv(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="empty file"):
            load_marker_csv(p)

    def test_blank_rows_skipped(self, tmp_path, table1_path):
        lines = table1_path.read_text().splitlines()
        p = tmp_path / "gappy.csv"
        p.write_text("\n".join(lines[:3] + [",,,,,,", " , ,,,,,"] + lines[3:]) + "\n")
        ds, ref = load_marker_csv(p), load_marker_csv(table1_path)
        assert np.array_equal(ds.q2_rad, ref.q2_rad)
        assert np.array_equal(ds.crank, ref.crank)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_save_load_round_trip(self, tmp_path, dim):
        ds = simulate_geometry_dataset(GEOM, SWEEP, noise_mm=0.05, seed=1)
        if dim == 3:
            ds = MarkerDataset(ds.q2_rad, np.column_stack([ds.crank, np.full(8, 5.0)]),
                               tuple(np.column_stack([s, np.arange(8.0)])
                                     for s in ds.satellites))
        p = tmp_path / "markers.csv"
        save_marker_csv(p, ds)
        back = load_marker_csv(p)
        assert np.allclose(back.q2_rad, ds.q2_rad, rtol=1e-9, atol=0.0)
        assert np.allclose(back.crank, ds.crank, rtol=0.0, atol=5e-7)
        assert len(back.satellites) == len(ds.satellites)
        for a, b in zip(ds.satellites, back.satellites):
            assert np.allclose(a, b, rtol=0.0, atol=5e-7)


class TestConfidence:
    def test_zero_noise_vanishing_width(self):
        ds = simulate_geometry_dataset(GEOM, SWEEP)
        est = identify_compensator_geometry(ds)
        ci = confidence_intervals_geometry(ds, est, n_samples=16, seed=0)
        assert ci.halfwidth3_L_mm < 1e-9
        assert ci.halfwidth3_ax_mm < 1e-9
        assert ci.sigma_crank_mm < 1e-9

    @pytest.mark.parametrize("n_samples", [0, 1])
    def test_fewer_than_two_samples_give_no_width(self, monkeypatch, n_samples):
        """Noisy tracks with fewer than two resamples have no spread to
        report: NaN widths, not zeros; exact zero residuals keep zeros."""
        from stiffcal import geometry_id
        ds = simulate_geometry_dataset(GEOM, SWEEP, noise_mm=0.05, seed=4)
        est = identify_compensator_geometry(ds)
        ci = confidence_intervals_geometry(ds, est, n_samples=n_samples, seed=0)
        widths = (ci.halfwidth3_L_mm, ci.halfwidth3_ax_mm, ci.halfwidth3_ay_mm)
        assert np.isnan(widths).all() and ci.sigma_crank_mm > 0
        monkeypatch.setattr(geometry_id, "residual_noise_sigma", lambda e: (0.0, 0.0))
        ci = confidence_intervals_geometry(ds, est, n_samples=n_samples, seed=0)
        assert (ci.halfwidth3_L_mm, ci.halfwidth3_ax_mm, ci.halfwidth3_ay_mm) == (0, 0, 0)

    def test_sigma_estimates_track_injected_noise(self):
        ds = simulate_geometry_dataset(GEOM, np.radians(np.linspace(-140, 0, 40)),
                                       noise_mm=0.05, seed=2)
        est = identify_compensator_geometry(ds)
        s_crank, s_sat = residual_noise_sigma(est)
        assert 0.02 < s_crank < 0.09
        assert 0.02 < s_sat < 0.09

    @pytest.mark.parametrize("source", ["table1", 0, 1, 2, 3, 4])
    def test_sigma_estimates_match_direct_residuals(self, table1_path, source):
        """The noise levels read off the fits equal those of residuals
        recomputed from the data and the fitted models."""
        if source == "table1":
            ds = load_marker_csv(table1_path)
        else:
            sweep = np.radians(np.linspace(-140, 0, 8 + source))
            ds = simulate_geometry_dataset(GEOM, sweep, noise_mm=0.01 * (source + 1),
                                           seed=source)
        est = identify_compensator_geometry(ds)
        m = ds.n_poses
        crank = ds.crank[:, :2] - est.crank_fit.predict(ds.q2_rad)
        radial = np.concatenate([np.linalg.norm(s - est.p0, axis=1) - R
                                 for s, R in zip(ds.satellites, est.satellite_fit.radii)])
        dof = radial.size - ds.satellites[0].shape[1] - len(ds.satellites)
        direct = (np.sqrt((crank**2).sum() / (2 * m - 4)),
                  np.sqrt((radial**2).sum() / dof))
        np.testing.assert_allclose(residual_noise_sigma(est), direct, rtol=1e-12,
                                   atol=0.0)

    def test_reproducible_and_order_free(self):
        ds = simulate_geometry_dataset(GEOM, SWEEP, noise_mm=0.05, seed=4)
        est = identify_compensator_geometry(ds)
        a = confidence_intervals_geometry(ds, est, n_samples=24, seed=7)
        b = confidence_intervals_geometry(ds, est, n_samples=24, seed=7)
        assert a.halfwidth3_L_mm == b.halfwidth3_L_mm
        assert a.halfwidth3_ay_mm == b.halfwidth3_ay_mm
        c = confidence_intervals_geometry(ds, est, n_samples=24, seed=8)
        assert a.halfwidth3_L_mm != c.halfwidth3_L_mm

    def test_coverage_small(self):
        # quick sanity check; the full 200-trial version runs in acceptance
        hits = 0
        trials = 20
        for t in range(trials):
            ds = simulate_geometry_dataset(GEOM, SWEEP, noise_mm=0.05,
                                           seed=100 + t)
            est = identify_compensator_geometry(ds)
            ci = confidence_intervals_geometry(ds, est, n_samples=60,
                                               seed=200 + t)
            ok = (abs(est.L_mm - 185.0) <= ci.halfwidth3_L_mm
                  and abs(est.ax_mm - 25.0) <= ci.halfwidth3_ax_mm
                  and abs(est.ay_mm - 695.0) <= ci.halfwidth3_ay_mm)
            hits += ok
        assert hits >= trials - 2


class TestStackedResampler:
    """All resamples refit as one stack, checked against one fit per sample."""

    @staticmethod
    def _datasets(table1_path):
        yield load_marker_csv(table1_path)
        for n, noise, geom in ((16, 0.05, GEOM), (8, 0.5, MIRRORED), (30, 0.01, GEOM)):
            yield simulate_geometry_dataset(geom, np.radians(np.linspace(-140, 0, n)),
                                            noise_mm=noise, seed=3)
        ds = simulate_geometry_dataset(GEOM, SWEEP, noise_mm=0.05, seed=1)
        rng = np.random.default_rng(0)
        lift = [np.column_stack([t, 10.0 + rng.normal(0.0, 0.05, len(t))])
                for t in (ds.crank,) + ds.satellites]
        yield MarkerDataset(ds.q2_rad, lift[0], tuple(lift[1:]))    # 3-D tracks

    def test_halfwidths_equal_per_sample_loop(self, table1_path):
        for ds in self._datasets(table1_path):
            est = identify_compensator_geometry(ds)
            ci = confidence_intervals_geometry(ds, est, n_samples=64, seed=2)
            ref = oracles.confidence_intervals_geometry_loop(ds, est, n_samples=64, seed=2)
            got = [ci.halfwidth3_L_mm, ci.halfwidth3_ax_mm, ci.halfwidth3_ay_mm]
            assert got == ref.tolist()

    def test_one_generator_per_call(self, rng_calls):
        ds = simulate_geometry_dataset(GEOM, SWEEP, noise_mm=0.05, seed=1)
        est = identify_compensator_geometry(ds)
        rng_calls.clear()
        confidence_intervals_geometry(ds, est, n_samples=200, seed=2)
        assert rng_calls == [(2,)]

    def test_mirror_diagnostic_kept_for_resamples(self):
        # three crank points of pure noise: the point fit picks its better
        # sign, and some resamples fit the mirrored sign far better
        ds = simulate_geometry_dataset(GEOM, np.radians([-60.0, -30.0, 0.0]),
                                       noise_mm=0.05, seed=0)
        crank = np.random.default_rng(0).normal(0.0, 0.05, (3, 2))
        ds = MarkerDataset(ds.q2_rad, crank, ds.satellites)
        est = identify_compensator_geometry(ds)
        with pytest.raises(AngleDirectionError):
            oracles.confidence_intervals_geometry_loop(ds, est, n_samples=200)
        with pytest.raises(AngleDirectionError):
            confidence_intervals_geometry(ds, est, n_samples=200)

    def test_one_bad_sample_fails_the_stack(self):
        ds = simulate_geometry_dataset(GEOM, SWEEP, noise_mm=0.05, seed=5)
        a = ds.q2_rad
        mirrored = ds.crank.copy()
        mirrored[:, 1] *= -1.0                  # angles rotate the other way
        line = np.column_stack([np.linspace(0.0, 100.0, a.size), np.zeros(a.size)])
        for bad, error in ((mirrored, AngleDirectionError), (line, DegenerateGeometryError)):
            with pytest.raises(error):
                fit_circle_procrustes(bad, a, angle_sign=1)
            with pytest.raises(error):
                _fit_signed(np.stack([ds.crank, bad, ds.crank]), a, 1)
        sign, mu, _, t, _ = _fit_signed(np.stack([ds.crank, ds.crank]), a, 1)
        single = fit_circle_procrustes(ds.crank, a, angle_sign=1)
        assert sign == single.angle_sign == 1
        assert mu.tolist() == [single.radius] * 2 and t[1].tolist() == single.center.tolist()
        sats = [np.stack([s, s]) for s in ds.satellites]
        for k, s in enumerate(sats):             # sample 1: arcs along one line
            s[1] = line + 7.0 * k
            s[1][:, 1] = 0.0
        with pytest.raises(DegenerateGeometryError):
            fit_concentric_arcs([s[1] for s in sats])
        with pytest.raises(DegenerateGeometryError):
            _arc_centre(sats)


def test_reference_table_regression(table1_path):
    """Frozen values for the shipped sweep table."""
    ds = load_marker_csv(table1_path)
    est = identify_compensator_geometry(ds)
    assert est.L_mm == pytest.approx(184.719478, abs=1e-5)
    assert est.ax_mm == pytest.approx(685.993407, abs=1e-5)
    assert est.ay_mm == pytest.approx(119.411819, abs=1e-5)
    assert np.allclose(est.p2, [0.160400, 1.841212], atol=1e-5)
    assert est.crank_fit.angle_sign == -1
    assert est.crank_fit.residual_rms == pytest.approx(0.064963, abs=1e-5)
