import math
import warnings

import numpy as np
import pytest

from plans import spread_plan
from stiffcal.elasto_id import (
    DEFLECTION_CSV_HEADER,
    DeflectionRecord,
    ParameterLayout,
    build_regressor,
    confidence_intervals_elasto,
    identify_compliances,
    identify_elastostatics,
    load_deflection_csv,
    save_deflection_csv,
    separate_compensator,
    separation_matrix,
)
from stiffcal.compensator import equivalent_joint_stiffness
from stiffcal.doe import PLAN_CSV_HEADER, load_plan_csv, sensitivity_rows
from stiffcal.errors import DataLayoutError, IdentifiabilityError
from stiffcal.sim import GroundTruth, simulate_deflection_records


@pytest.fixture(scope="module")
def plan():
    return spread_plan()


@pytest.fixture(scope="module")
def clean_records(model, plan):
    return simulate_deflection_records(model, plan, response="linear")


class TestLayout:
    def test_from_records_clusters_and_sorts(self, clean_records):
        lay = ParameterLayout.from_records(clean_records)
        assert lay.n_buckets == 5
        assert list(lay.bucket_q2_rad) == sorted(lay.bucket_q2_rad, reverse=True)
        assert lay.n_params == 9

    def test_include_joint1_adds_column(self, clean_records):
        lay = ParameterLayout.from_records(clean_records, include_joint1=True)
        assert lay.n_params == 10
        assert lay.column_labels()[0] == "k1"
        assert lay.column_of(1) == 0

    def test_column_map_roundtrip(self):
        lay = ParameterLayout(tuple(np.radians([-10.0, -50.0, -90.0])))
        assert lay.column_of(1) is None
        assert lay.column_of(2, 0) == 0
        assert lay.column_of(2, 2) == 2
        assert lay.column_of(3) == 3
        assert lay.column_of(6) == 6
        assert lay.column_labels() == (
            "k2[-10.00deg]", "k2[-50.00deg]", "k2[-90.00deg]",
            "k3", "k4", "k5", "k6")

    def test_joint2_needs_bucket(self):
        lay = ParameterLayout((0.0,))
        with pytest.raises(ValueError, match="bucket index"):
            lay.column_of(2)

    def test_unmatched_angle_names_record(self):
        lay = ParameterLayout(tuple(np.radians([-10.0, -90.0])))
        with pytest.raises(DataLayoutError, match="record 12: joint-2 angle"):
            lay.bucket_of(np.radians(-40.0), context="record 12")

    def test_buckets_too_close_rejected(self):
        with pytest.raises(ValueError, match="closer than twice"):
            ParameterLayout((0.0, np.radians(0.15)))

    def test_empty_layout_rejected(self):
        with pytest.raises(ValueError, match="at least one joint-2 bucket"):
            ParameterLayout(())


class TestRegressor:
    def test_row_count(self, model, plan, clean_records):
        # configs x repeats x markers, 3 displacement rows each
        lay = ParameterLayout.from_records(clean_records)
        B, y = build_regressor(model, clean_records, lay)
        n_expected = plan.n_entries * 3 * len(model.markers)
        assert len(clean_records) == n_expected == 135
        assert B.shape == (405, 9)
        assert y.shape == (405,)

    def test_truth_solves_exactly(self, model, clean_records):
        lay = ParameterLayout.from_records(clean_records)
        B, y = build_regressor(model, clean_records, lay)
        comp = model.compensator
        k_true = np.empty(9)
        for i, b in enumerate(lay.bucket_q2_rad):
            K2 = equivalent_joint_stiffness(comp, 1.0 / model.compliances[1], b)
            k_true[i] = 1.0 / K2
        k_true[5:] = model.compliances[2:]
        assert np.linalg.norm(y - B @ k_true) / np.linalg.norm(y) < 1e-12

    @pytest.mark.parametrize("include_joint1", [False, True])
    def test_two_wrenches_at_one_pose(self, model, plan, include_joint1):
        """Records sharing a pose but not the wrench get their own rows."""
        e = plan.entries[4]
        other = np.array([300.0, -150.0, -900.0, 2e4, -1e4, 5e3])
        recs = [DeflectionRecord(e.q, w, m, np.zeros(3))
                for w in (e.w, other, e.w) for m in range(len(model.markers))]
        lay = ParameterLayout.from_records(recs, include_joint1=include_joint1)
        B, _ = build_regressor(model, recs, lay)
        first = 0 if include_joint1 else 1   # one bucket: joint order is column order
        for i, r in enumerate(recs):
            A = sensitivity_rows(model, r.q_rad, r.wrench, include_joint1=True)
            ref = A[3 * r.marker_id:3 * r.marker_id + 3, first:]
            np.testing.assert_allclose(B[3 * i:3 * i + 3], ref, rtol=1e-12,
                                       atol=1e-12 * np.abs(ref).max())

    def test_bad_marker_id(self, model, clean_records):
        lay = ParameterLayout.from_records(clean_records)
        bad = DeflectionRecord(q_rad=clean_records[0].q_rad,
                               wrench=clean_records[0].wrench,
                               marker_id=17, deflection_mm=np.zeros(3))
        with pytest.raises(DataLayoutError, match="marker id 17 outside model range"):
            build_regressor(model, [bad], lay)

    def test_empty_records(self, model):
        lay = ParameterLayout((0.0,))
        with pytest.raises(DataLayoutError, match="no deflection records"):
            build_regressor(model, [], lay)


class TestStageOne:
    def test_noiseless_recovery(self, model, clean_records):
        fit = identify_compliances(model, clean_records)
        comp = model.compensator
        for i, b in enumerate(fit.layout.bucket_q2_rad):
            K2 = equivalent_joint_stiffness(comp, 1.0 / model.compliances[1], b)
            assert fit.values[i] == pytest.approx(1.0 / K2, rel=1e-9)
        assert np.allclose(fit.values[5:], model.compliances[2:], rtol=1e-9)
        assert fit.rank == 9
        assert fit.sigma_hat_mm < 1e-12

    def test_rank_deficiency_reported(self, model, clean_records):
        # one config, one marker: 3 rows cannot pin down 5 parameters
        few = [clean_records[0]]
        lay = ParameterLayout.from_records(few)
        with pytest.raises(IdentifiabilityError) as err:
            identify_compliances(model, few)
        assert err.value.null_directions is not None
        assert err.value.null_directions.shape[0] == lay.n_params
        assert "not identifiable" in str(err.value)

    def test_nonpositive_estimate_warns(self, model, clean_records):
        flipped = [DeflectionRecord(r.q_rad, r.wrench, r.marker_id,
                                    -r.deflection_mm, r.repeat)
                   for r in clean_records]
        with pytest.warns(RuntimeWarning, match="non-positive"):
            identify_compliances(model, flipped)

    def test_joint2_stiffnesses_guard(self, model, clean_records):
        flipped = [DeflectionRecord(r.q_rad, r.wrench, r.marker_id,
                                    -r.deflection_mm, r.repeat)
                   for r in clean_records]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            fit = identify_compliances(model, flipped)
        with pytest.raises(IdentifiabilityError, match="non-positive joint-2"):
            fit.joint2_stiffnesses()


class TestSeparation:
    def test_consistent_with_forward_model(self, model):
        comp = model.compensator
        buckets = tuple(np.radians([-1.0, -40.0, -80.0, -120.0]))
        lay = ParameterLayout(buckets)
        K2 = np.array([equivalent_joint_stiffness(comp, 1.0 / model.compliances[1], b)
                       for b in buckets])
        sep = separate_compensator(lay, K2, comp.geometry, comp.q2_sign)
        assert sep.K0_Nmm_per_rad == pytest.approx(1.0 / model.compliances[1], rel=1e-9)
        assert sep.Kc_N_per_mm == pytest.approx(comp.elastics.Kc_N_per_mm, rel=1e-9)
        assert sep.s0_mm == pytest.approx(comp.elastics.s0_mm, rel=1e-9)
        assert sep.residual_rel < 1e-12

    def test_needs_three_buckets(self, model):
        comp = model.compensator
        lay = ParameterLayout(tuple(np.radians([-10.0, -80.0])))
        with pytest.raises(IdentifiabilityError, match="at least 3 distinct"):
            separate_compensator(lay, np.ones(2), comp.geometry)

    def test_row_count_checked(self, model):
        lay = ParameterLayout(tuple(np.radians([-10.0, -50.0, -90.0])))
        with pytest.raises(ValueError, match="one joint-2 stiffness per bucket"):
            separate_compensator(lay, np.ones(2), model.compensator.geometry)

    def test_matrix_shape_and_first_column(self, model):
        C = separation_matrix(model.compensator.geometry,
                              np.radians([-5.0, -60.0, -120.0]))
        assert C.shape == (3, 3)
        assert np.allclose(C[:, 0], 1.0)

    def test_nonphysical_signs_warn(self, model):
        comp = model.compensator
        lay = ParameterLayout(tuple(np.radians([-1.0, -60.0, -120.0])))
        C = separation_matrix(comp.geometry, lay.bucket_q2_rad)
        K2 = C @ np.array([1.0e5, -3.0, -3.0 * 458.0])  # negative spring rate
        with pytest.warns(RuntimeWarning, match="non-physical signs"):
            separate_compensator(lay, K2, comp.geometry)


class TestFullPipeline:
    def test_noiseless_round_trip_all_seven(self, model, clean_records):
        est = identify_elastostatics(model, clean_records)
        truth = GroundTruth.from_model(model)
        vals = est.parameter_values()
        assert est.parameter_labels() == tuple(truth.labels)
        rel = np.abs(vals - truth.values) / np.abs(truth.values)
        assert np.max(rel) < 1e-6

    def test_joint_compliances_layout(self, model, clean_records):
        est = identify_elastostatics(model, clean_records)
        kk = est.joint_compliances
        assert np.isnan(kk[0])  # joint 1 excluded by default
        assert kk[1] == pytest.approx(model.compliances[1], rel=1e-6)
        assert np.allclose(kk[2:], model.compliances[2:], rtol=1e-6)

    def test_model_without_compensator_rejected(self, model, clean_records):
        import dataclasses
        from stiffcal.robot import ManipulatorModel
        bare = ManipulatorModel(joints=model.joints, base=model.base,
                                tool=model.tool, markers=list(model.markers))
        with pytest.raises(ValueError, match="no compensator section"):
            identify_elastostatics(bare, clean_records)

    def test_noisy_recovery_within_percent(self, model, plan):
        records = simulate_deflection_records(model, plan, noise_mm=0.05,
                                              seed=3, response="linear")
        est = identify_elastostatics(model, records)
        truth = GroundTruth.from_model(model)
        rel = np.abs(est.parameter_values() - truth.values) / np.abs(truth.values)
        # compensator constants are the hard ones; joints come in much tighter
        assert np.max(rel[:4]) < 0.05
        assert np.max(rel) < 0.25


class TestCsvRoundTrip:
    def test_save_load_identity(self, tmp_path, clean_records):
        p = tmp_path / "records.csv"
        save_deflection_csv(p, clean_records[:10])
        back = load_deflection_csv(p)
        assert len(back) == 10
        for a, b in zip(clean_records[:10], back):
            assert np.allclose(a.q_rad, b.q_rad, atol=1e-12)
            assert np.allclose(a.wrench, b.wrench, atol=1e-9)
            assert a.marker_id == b.marker_id
            assert np.allclose(a.deflection_mm, b.deflection_mm, atol=1e-9)
            assert a.repeat == b.repeat

    def test_header_checked(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DataLayoutError, match="expected deflection header"):
            load_deflection_csv(p)

    def test_field_count_checked(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text(",".join(DEFLECTION_CSV_HEADER) + "\n1,2,3\n")
        with pytest.raises(DataLayoutError, match="expected 17 fields, got 3"):
            load_deflection_csv(p)

    def test_bad_value_reports_line(self, tmp_path):
        row = ["0"] * 12 + ["0", "0", "0", "0", "0"]
        row[3] = "oops"
        p = tmp_path / "bad.csv"
        p.write_text(",".join(DEFLECTION_CSV_HEADER) + "\n" + ",".join(row) + "\n")
        with pytest.raises(DataLayoutError, match=r"bad\.csv:2"):
            load_deflection_csv(p)

    def test_empty_body(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text(",".join(DEFLECTION_CSV_HEADER) + "\n")
        with pytest.raises(DataLayoutError, match="no deflection records"):
            load_deflection_csv(p)

    @pytest.mark.parametrize("loader, header, column", [
        (load_deflection_csv, DEFLECTION_CSV_HEADER, "q2_deg"),
        (load_deflection_csv, DEFLECTION_CSV_HEADER, "Mz_Nmm"),
        (load_deflection_csv, DEFLECTION_CSV_HEADER, "dy_mm"),
        (load_plan_csv, PLAN_CSV_HEADER, "q5_deg"),
        (load_plan_csv, PLAN_CSV_HEADER, "Fz_N"),
    ])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_field_names_line_and_column(self, tmp_path, loader,
                                                    header, column, value):
        good = ["1"] * len(header)
        bad = list(good)
        bad[header.index(column)] = value
        p = tmp_path / "bad.csv"
        p.write_text("\n".join(",".join(r) for r in (header, good, bad)) + "\n")
        with pytest.raises(DataLayoutError, match=rf"bad\.csv:3: column {column} "):
            loader(p)


class TestConfidence:
    def test_zero_noise_vanishing_widths(self, model, clean_records):
        ci = confidence_intervals_elasto(model, clean_records, n_samples=8)
        assert np.all(ci.halfwidth3 <= 1e-9 * np.abs(ci.values))

    def test_reproducible(self, model, plan):
        records = simulate_deflection_records(model, plan, noise_mm=0.05,
                                              seed=5, response="linear")
        a = confidence_intervals_elasto(model, records, n_samples=32, seed=1)
        b = confidence_intervals_elasto(model, records, n_samples=32, seed=1)
        assert np.array_equal(a.halfwidth3, b.halfwidth3)

    def test_widths_bracket_truth(self, model, plan):
        records = simulate_deflection_records(model, plan, noise_mm=0.05,
                                              seed=9, response="linear")
        est = identify_elastostatics(model, records)
        ci = confidence_intervals_elasto(model, records, est, n_samples=100,
                                         seed=10)
        truth = GroundTruth.from_model(model)
        inside = np.abs(ci.values - truth.values) <= ci.halfwidth3
        assert inside.sum() >= len(inside) - 1  # 3-sigma misses are rare

    def test_ordering_joints_tight_compensator_wide(self, model, plan):
        records = simulate_deflection_records(model, plan, noise_mm=0.05,
                                              seed=12, response="linear")
        ci = confidence_intervals_elasto(model, records, n_samples=100, seed=13)
        pct = dict(zip(ci.labels, ci.percent))
        tightest = min(pct, key=pct.get)
        widest = max(pct, key=pct.get)
        assert tightest in ("k2", "k3")
        assert widest in ("Kc", "s0")
