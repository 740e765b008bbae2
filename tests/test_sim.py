import numpy as np
import pytest

import oracles
from plans import spread_plan
from stiffcal.compensator import CompensatorGeometry
from stiffcal.doe import CalibrationPlan, PlanEntry
from stiffcal.errors import ConvergenceError
from stiffcal.sim import (
    DEFAULT_SATELLITE_OFFSETS,
    GroundTruth,
    simulate_deflection_records,
    simulate_geometry_dataset,
)

GEOM = CompensatorGeometry(L_mm=185.0, ax_mm=25.0, ay_mm=695.0)
SWEEP = np.radians(np.linspace(-140.0, -0.01, 9))


class TestGeometryDataset:
    def test_crank_rides_its_circle(self):
        ds = simulate_geometry_dataset(GEOM, SWEEP, p2_xy=(3.0, -7.0))
        r = np.linalg.norm(ds.crank - [3.0, -7.0], axis=1)
        assert np.allclose(r, 185.0, atol=1e-12)

    def test_satellites_ride_rigidly_with_the_cylinder(self):
        ds = simulate_geometry_dataset(GEOM, SWEEP)
        p0 = np.array([-25.0, -695.0])
        for off, track in zip(DEFAULT_SATELLITE_OFFSETS, ds.satellites):
            r = np.linalg.norm(track - p0, axis=1)
            assert np.allclose(r, np.hypot(*off), atol=1e-12)
        # pairwise distance between satellites is constant (rigid body)
        d01 = np.linalg.norm(ds.satellites[0] - ds.satellites[1], axis=1)
        assert np.ptp(d01) < 1e-12

    def test_cylinder_points_at_the_pin(self):
        ds = simulate_geometry_dataset(GEOM, SWEEP, p2_xy=(100.0, 50.0))
        p0 = np.array([100.0 - 25.0, 50.0 - 695.0])
        # first satellite sits at +40 mm lateral offset: its bearing from the
        # pivot leads/lags the pin bearing by a fixed angle
        b_pin = np.arctan2(ds.crank[:, 1] - p0[1], ds.crank[:, 0] - p0[0])
        b_sat = np.arctan2(ds.satellites[0][:, 1] - p0[1],
                           ds.satellites[0][:, 0] - p0[0])
        rel = np.unwrap(b_sat - b_pin)
        assert np.ptp(rel) < 1e-12

    def test_angle_sign_mirrors_the_sweep(self):
        a = simulate_geometry_dataset(GEOM, SWEEP, angle_sign=1)
        b = simulate_geometry_dataset(GEOM, SWEEP, angle_sign=-1)
        assert np.allclose(a.crank[:, 0], b.crank[:, 0], atol=1e-12)
        assert np.allclose(a.crank[:, 1], -b.crank[:, 1], atol=1e-12)

    def test_noise_reproducible(self):
        a = simulate_geometry_dataset(GEOM, SWEEP, noise_mm=0.05, seed=3)
        b = simulate_geometry_dataset(GEOM, SWEEP, noise_mm=0.05, seed=3)
        c = simulate_geometry_dataset(GEOM, SWEEP, noise_mm=0.05, seed=4)
        assert np.array_equal(a.crank, b.crank)
        assert not np.array_equal(a.crank, c.crank)

    def test_input_guards(self):
        with pytest.raises(ValueError, match="at least 3 sweep angles"):
            simulate_geometry_dataset(GEOM, np.radians([-10.0, -80.0]))
        with pytest.raises(ValueError, match="angle_sign"):
            simulate_geometry_dataset(GEOM, SWEEP, angle_sign=2)


class TestDeflectionRecords:
    def test_counts_and_bookkeeping(self, model):
        plan = spread_plan(configs_per_bucket=1, repeats=2)
        recs = simulate_deflection_records(model, plan, response="linear")
        assert len(recs) == plan.n_entries * 2 * len(model.markers)
        reps = {r.repeat for r in recs}
        marks = {r.marker_id for r in recs}
        assert reps == {0, 1}
        assert marks == {0, 1, 2}

    def test_linear_matches_prediction_exactly(self, model):
        from stiffcal.stiffness import predict_marker_deflections
        plan = spread_plan(buckets_deg=(-45.0,), configs_per_bucket=1, repeats=1)
        recs = simulate_deflection_records(model, plan, response="linear")
        e = plan.entries[0]
        pred = predict_marker_deflections(model, model.compensator, e.q, e.w)
        for r in recs:
            assert np.allclose(r.deflection_mm, pred[r.marker_id], atol=1e-15)

    def test_nonlinear_close_to_linear_but_not_identical(self, model):
        plan = spread_plan(buckets_deg=(-45.0,), configs_per_bucket=2, repeats=1)
        lin = simulate_deflection_records(model, plan, response="linear")
        non = simulate_deflection_records(model, plan, response="nonlinear")
        for a, b in zip(lin, non):
            gap = np.linalg.norm(a.deflection_mm - b.deflection_mm)
            scale = np.linalg.norm(a.deflection_mm)
            assert gap > 0.0
            assert gap < 0.1 * scale

    def test_noise_variance_doubles(self, model):
        """Differencing loaded minus unloaded doubles the position variance."""
        plan = CalibrationPlan((PlanEntry(
            tuple(np.radians([10, -45, -20, 30, -40, 50])),
            (0.0, 0.0, -2600.0, 0.0, 0.0, 0.0), repeats=4000),))
        recs = simulate_deflection_records(model, plan, noise_mm=0.05,
                                           seed=8, response="linear")
        clean = simulate_deflection_records(model, plan.replicated(1),
                                            response="linear")[0]
        resid = np.array([r.deflection_mm - clean.deflection_mm
                          for r in recs if r.marker_id == 0])
        var = resid.var()
        assert var == pytest.approx(2.0 * 0.05**2, rel=0.1)

    def test_seeded_per_entry(self, model):
        plan = spread_plan(buckets_deg=(-30.0, -100.0), configs_per_bucket=1,
                           repeats=1)
        full = simulate_deflection_records(model, plan, noise_mm=0.05, seed=5,
                                           response="linear")
        # dropping the first entry must not change the second entry's noise
        sub = CalibrationPlan(plan.entries[1:])
        part = simulate_deflection_records(model, sub, noise_mm=0.05, seed=5,
                                           response="linear")
        # entry index is part of the stream key, so records differ here;
        # same plan, same seed must reproduce instead
        again = simulate_deflection_records(model, plan, noise_mm=0.05, seed=5,
                                            response="linear")
        for a, b in zip(full, again):
            assert np.array_equal(a.deflection_mm, b.deflection_mm)
        assert len(part) == len(full) // 2

    def test_unknown_response_rejected(self, model):
        plan = spread_plan(buckets_deg=(-45.0,), configs_per_bucket=1)
        with pytest.raises(ValueError, match="unknown response model"):
            simulate_deflection_records(model, plan, response="quadratic")

    def test_no_markers_rejected(self, model):
        from stiffcal.robot import ManipulatorModel
        bare = ManipulatorModel(joints=model.joints, base=model.base,
                                tool=model.tool, compensator=model.compensator)
        plan = spread_plan(buckets_deg=(-45.0,), configs_per_bucket=1)
        with pytest.raises(ValueError, match="no markers"):
            simulate_deflection_records(bare, plan)

    def test_nonconvergence_names_entry(self, model):
        good = PlanEntry(tuple(np.radians([10.0, -90.0, -20.0, 30.0, -40.0, 50.0])),
                         (0.0, 0.0, -2600.0, 0.0, 0.0, 0.0))
        diverging = PlanEntry(tuple(np.radians([0.0, -45.0, 0.0, 0.0, 0.0, 0.0])),
                              (0.0, 0.0, -1e9, 0.0, 0.0, 0.0))
        with pytest.raises(ConvergenceError, match=r"plan entry 0 \(q2=-45\.0 deg\)"):
            simulate_deflection_records(model, CalibrationPlan((diverging,)))
        # inside a stack, the diverging pose is named by its own index ...
        with pytest.raises(ConvergenceError, match=r"plan entry 1 \(q2=-45\.0 deg\)"):
            simulate_deflection_records(model, CalibrationPlan((good, diverging)))
        with pytest.raises(ConvergenceError, match=r"plan entry 1 \(q2=-45\.0 deg\)"):
            simulate_deflection_records(model, CalibrationPlan((good, diverging, diverging)))
        # ... and the stack without it gives the records of one entry at a time
        alone = CalibrationPlan((good,))
        recs = simulate_deflection_records(model, alone, noise_mm=0.01, seed=2)
        ref = oracles.simulate_deflection_records_loop(model, alone, noise_mm=0.01, seed=2)
        assert [r.deflection_mm.tolist() for r in recs] == [r[3].tolist() for r in ref]

    @pytest.mark.parametrize("response", ["nonlinear", "linear"])
    @pytest.mark.parametrize("noise_mm", [0.0, 0.02])
    def test_records_match_per_entry_loop(self, model, response, noise_mm):
        """One stacked solve (or row call) for the whole plan gives each
        entry's records as solving the entries one by one does."""
        plan = spread_plan()
        recs = simulate_deflection_records(model, plan, noise_mm=noise_mm, seed=4,
                                           response=response)
        ref = oracles.simulate_deflection_records_loop(model, plan, noise_mm=noise_mm,
                                                       seed=4, response=response)
        assert len(recs) == len(ref) == 15 * 3 * 3
        for r, (q, w, m, d, rep) in zip(recs, ref):
            assert (r.marker_id, r.repeat) == (m, rep)
            assert np.array_equal(r.q_rad, q) and np.array_equal(r.wrench, w)
            assert np.abs(r.deflection_mm - d).max() <= 1e-15


class TestGroundTruth:
    def test_from_reference_model(self, model):
        truth = GroundTruth.from_model(model)
        assert truth.labels == ("k2", "k3", "k4", "k5", "k6", "Kc", "s0")
        assert truth.values[0] == pytest.approx(3.02e-10)
        assert truth.values[-2:] == pytest.approx([6000.0, 458.0])

    def test_needs_compensator(self, model):
        from stiffcal.robot import ManipulatorModel
        bare = ManipulatorModel(joints=model.joints, base=model.base,
                                tool=model.tool, markers=list(model.markers))
        with pytest.raises(ValueError, match="no compensator"):
            GroundTruth.from_model(bare)
