import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from plans import spread_plan
from record_tables import rows, table, take
from stiffcal.elasto_id import (
    BUCKET_TOL_RAD,
    DEFLECTION_CSV_HEADER,
    PARAMETER_LABELS,
    RANK_TOL,
    ParameterLayout,
    build_regressor,
    confidence_intervals_elasto,
    identify_compliances,
    identify_elastostatics,
    load_deflection_csv,
    save_deflection_csv,
    separate_compensator,
)
from stiffcal.compensator import (CompensatorGeometry, equivalent_joint_stiffness,
                                  separation_matrix)
from stiffcal.doe import PLAN_CSV_HEADER, load_plan_csv, sensitivity_rows
from stiffcal.errors import DataLayoutError, IdentifiabilityError
from stiffcal.geometry_id import load_marker_csv
from stiffcal.sim import GroundTruth, simulate_deflection_records

MARKER_HEADER = ("q2_deg", "P1_x", "P1_y", "P01_x", "P01_y", "P02_x", "P02_y")


@pytest.fixture(scope="module")
def plan():
    return spread_plan()


@pytest.fixture(scope="module")
def clean_records(model, plan):
    return simulate_deflection_records(model, plan, response="linear")


def layout_of(records):
    return ParameterLayout.from_q2(records.q_rad[:, 1])


class TestRecordsTable:
    def test_columns_of_unequal_length_rejected(self, clean_records):
        for f in dataclasses.fields(clean_records):
            with pytest.raises(ValueError, match="columns differ in length"):
                dataclasses.replace(clean_records,
                                    **{f.name: getattr(clean_records, f.name)[:-1]})


class TestLayout:
    def test_from_q2_clusters_and_sorts(self, clean_records):
        lay = layout_of(clean_records)
        assert lay.n_buckets == 5
        assert list(lay.bucket_q2_rad) == sorted(lay.bucket_q2_rad, reverse=True)
        assert lay.n_params == 9

    def test_column_map_roundtrip(self):
        lay = ParameterLayout(tuple(np.radians([-10.0, -50.0, -90.0])))
        assert lay.column_labels() == (
            "k2[-10.00deg]", "k2[-50.00deg]", "k2[-90.00deg]",
            "k3", "k4", "k5", "k6")
        A = np.array([[1.0, 2.0, 3.0, 4.0, 5.0],
                      [6.0, 7.0, 8.0, 9.0, 10.0]])      # columns k2..k6
        assert np.array_equal(lay.place(A, 1), [
            [0.0, 1.0, 0.0, 2.0, 3.0, 4.0, 5.0],
            [0.0, 6.0, 0.0, 7.0, 8.0, 9.0, 10.0]])
        stacked = lay.place(np.stack([A, -A, 2 * A]), np.array([1, 0, 2]))
        assert stacked.tobytes() == np.stack(
            [lay.place(A, 1), lay.place(-A, 0), lay.place(2 * A, 2)]).tobytes()

    def test_unmatched_angle_names_record(self):
        lay = ParameterLayout(tuple(np.radians([-10.0, -90.0])))
        q2 = np.radians([-10.0] * 12 + [-40.0, -50.0, -90.0])
        with pytest.raises(DataLayoutError, match="record 12: joint-2 angle -40.000"):
            lay.bucket_of(q2)

    @given(st.lists(st.sampled_from([-10.0, -10.1, -9.9, -90.0, -90.05, -40.0, 0.0]),
                    min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_lookup_matches_bucket_by_bucket_loop(self, q2_deg):
        """Each angle gets the first bucket within tolerance, as the scalar
        loop finds it, and the first unmatched angle raises the loop's message."""
        lay = ParameterLayout(tuple(np.radians([0.0, -10.0, -90.0])))
        q2 = np.radians(q2_deg)
        try:
            want = [oracles.bucket_of_loop(lay, float(v), f"record {i}")
                    for i, v in enumerate(q2)]
        except DataLayoutError as exc:
            with pytest.raises(DataLayoutError) as got:
                lay.bucket_of(q2)
            assert str(got.value) == str(exc)
        else:
            assert lay.bucket_of(q2).tolist() == want

    @staticmethod
    def _from_q2(cluster, angles):
        """The bucket bits ``cluster(angles)`` gives, or the ``ValueError`` text
        (a NaN or infinite bucket may leave the layout check's sort and
        difference warning about inf - inf; that warning is not compared)."""
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                return [b.hex() for b in cluster(angles).bucket_q2_rad]
        except ValueError as exc:
            return str(exc)

    TOL = BUCKET_TOL_RAD
    EDGES = [0.0, TOL, -TOL, 0.9 * TOL, 1.8 * TOL, 2.1 * TOL, -2.1 * TOL,
             np.nextafter(TOL, 1.0), 3.5 * TOL, -1.0, -1.0 + TOL, -1.0 - TOL,
             -1.0 + 2.5 * TOL, math.nan, math.inf, -math.inf]

    @given(st.lists(st.sampled_from(EDGES), max_size=14))
    @settings(max_examples=300, deadline=None)
    def test_from_q2_matches_record_by_record_loop(self, angles):
        """Angles at exactly the tolerance, a later angle that would have been
        a better centre, NaN and infinite angles: the per-bucket clustering
        gives the loop's buckets, bit for bit, or its error."""
        want = self._from_q2(oracles.layout_from_q2_loop, angles)
        assert self._from_q2(ParameterLayout.from_q2, np.array(angles)) == want
        assert self._from_q2(ParameterLayout.from_q2, (a for a in angles)) == want

    def test_from_q2_keeps_the_first_centre(self):
        """0.9 tol would split the three angles evenly, but 0 comes first: it
        takes 0.9 tol, and 2.1 tol opens a bucket of its own."""
        lay = ParameterLayout.from_q2(iter([0.0, 0.9 * self.TOL, 2.1 * self.TOL]))
        assert lay.bucket_q2_rad == (2.1 * self.TOL, 0.0)

    def test_from_q2_at_exactly_the_tolerance(self):
        """Angles at exactly +-tol join the centre; one ulp further opens a
        second bucket, which the layout then rejects as too close."""
        lay = ParameterLayout.from_q2([0.0, self.TOL, -self.TOL, -1.0])
        assert lay.bucket_q2_rad == (0.0, -1.0)
        with pytest.raises(ValueError, match="closer than twice"):
            ParameterLayout.from_q2([0.0, np.nextafter(self.TOL, 1.0)])

    def test_from_q2_nan_and_inf_angles_are_buckets_of_their_own(self):
        lay = ParameterLayout.from_q2([math.nan, 0.0, math.nan, math.inf, -math.inf])
        assert lay.n_buckets == 5
        assert sum(math.isnan(b) for b in lay.bucket_q2_rad) == 2

    def test_buckets_too_close_rejected(self):
        with pytest.raises(ValueError, match="closer than twice"):
            ParameterLayout((0.0, np.radians(0.15)))

    def test_empty_layout_rejected(self):
        with pytest.raises(ValueError, match="at least one joint-2 bucket"):
            ParameterLayout(())


class TestRegressor:
    def test_row_count(self, model, plan, clean_records):
        # configs x repeats x markers, 3 displacement rows each
        lay = layout_of(clean_records)
        B, y = build_regressor(model, clean_records, lay)
        n_expected = plan.n_entries * 3 * len(model.markers)
        assert len(clean_records) == n_expected == 135
        assert B.shape == (405, 9)
        assert y.shape == (405,)

    def test_truth_solves_exactly(self, model, clean_records):
        lay = layout_of(clean_records)
        B, y = build_regressor(model, clean_records, lay)
        comp = model.compensator
        k_true = np.empty(9)
        for i, b in enumerate(lay.bucket_q2_rad):
            K2 = equivalent_joint_stiffness(comp, 1.0 / model.compliances[1], b)
            k_true[i] = 1.0 / K2
        k_true[5:] = model.compliances[2:]
        assert np.linalg.norm(y - B @ k_true) / np.linalg.norm(y) < 1e-12

    def test_two_wrenches_at_one_pose(self, model, plan):
        """Records sharing a pose but not the wrench get their own rows."""
        e = plan.entries[4]
        other = np.array([300.0, -150.0, -900.0, 2e4, -1e4, 5e3])
        recs = table((e.q, w, m, np.zeros(3))
                     for w in (e.w, other, e.w) for m in range(len(model.markers)))
        B, _ = build_regressor(model, recs, layout_of(recs))
        # one bucket: joint order is column order
        for i, (q, w, m, _, _) in enumerate(rows(recs)):
            A = sensitivity_rows(model, q, w)
            ref = A[3 * m:3 * m + 3]
            np.testing.assert_allclose(B[3 * i:3 * i + 3], ref, rtol=1e-12,
                                       atol=1e-12 * np.abs(ref).max())

    def test_rows_land_in_their_bucket(self, model, clean_records):
        """Each record's k2 sensitivity fills its own bucket's column only."""
        lay = layout_of(clean_records)
        assert lay.n_buckets > 1
        B, _ = build_regressor(model, clean_records, lay)
        for i, (q, w, m, _, _) in enumerate(rows(clean_records)):
            A = sensitivity_rows(model, q, w)
            A = A[3 * m:3 * m + 3]
            ref = lay.place(A, lay.bucket_of(q[1]))
            np.testing.assert_allclose(B[3 * i:3 * i + 3], ref, rtol=1e-12,
                                       atol=1e-12 * np.abs(ref).max())

    def test_bad_marker_id(self, model, clean_records):
        lay = layout_of(clean_records)
        bad = dataclasses.replace(take(clean_records, [0]), marker_id=np.array([17]))
        with pytest.raises(DataLayoutError, match="marker id 17 outside model range"):
            build_regressor(model, bad, lay)

    def test_empty_records(self, model, clean_records):
        lay = ParameterLayout((0.0,))
        with pytest.raises(DataLayoutError, match="no deflection records"):
            build_regressor(model, take(clean_records, slice(0, 0)), lay)


class TestRegressorMatchesLoop:
    """``build_regressor`` against the per-record loop of
    ``oracles.build_regressor_loop``, bit for bit."""

    @staticmethod
    def _same(model, records):
        lay = layout_of(records)
        B, y = build_regressor(model, records, lay)
        B0, y0 = oracles.build_regressor_loop(model, records, lay)
        assert B.shape == B0.shape and B.tobytes() == B0.tobytes()
        assert y.shape == y0.shape and y.tobytes() == y0.tobytes()
        return B

    def test_fixture_records(self, model, clean_records):
        self._same(model, clean_records)

    def test_shuffled_records(self, model, clean_records):
        order = np.random.default_rng(3).permutation(len(clean_records))
        self._same(model, take(clean_records, order))

    def test_two_wrenches_at_one_pose(self, model, plan):
        e = plan.entries[4]
        other = np.array([300.0, -150.0, -900.0, 2e4, -1e4, 5e3])
        self._same(model, table((e.q, w, m, np.full(3, m + 0.5)) for w in (e.w, other, e.w)
                                for m in range(len(model.markers))))

    def test_repeated_records(self, model, clean_records):
        self._same(model, take(clean_records, np.tile(np.arange(9), 3)))

    def test_single_record(self, model, clean_records):
        self._same(model, take(clean_records, slice(7, 8)))

    def test_signed_zero_of_rounded_q_is_one_pose(self, model, plan):
        """q1 = +1e-14 and -1e-14 both round to zero: one pose, whose
        sensitivity block is taken at the record seen first."""
        e = plan.entries[0]
        n = len(model.markers)
        recs = table((np.r_[q1, e.q[1:]], e.w, m, np.zeros(3))
                     for q1 in (1e-14, -1e-14) for m in range(n))
        B = self._same(model, recs)
        assert B[:3 * n].tobytes() == B[3 * n:].tobytes()

    def test_first_bad_record_named_marker_before_bucket(self, model, clean_records):
        lay = layout_of(clean_records)
        q, w, _, d, _ = rows(clean_records)[0]
        good = (q, w, 0, d)
        off_bucket = (np.r_[q[0], np.radians(-40.0), q[2:]], w, 0, d)
        cases = [
            (table([good, off_bucket, (q, w, 9, d)]),
             "record 1: joint-2 angle -40.000 deg matches no layout bucket"),
            (table([good, (q, w, 9, d), off_bucket]),
             "record 1: marker id 9 outside model range 0..2"),
            (table([good, good, (off_bucket[0], w, -1, d), off_bucket]),
             "record 2: marker id -1 outside model range"),
        ]
        for recs, message in cases:
            with pytest.raises(DataLayoutError) as got:
                build_regressor(model, recs, lay)
            with pytest.raises(DataLayoutError) as want:
                oracles.build_regressor_loop(model, recs, lay)
            assert str(got.value) == str(want.value)
            assert str(got.value).startswith(message)


class TestStageOne:
    def test_noiseless_recovery(self, model, clean_records):
        fit = identify_compliances(model, clean_records)
        comp = model.compensator
        for i, b in enumerate(fit.layout.bucket_q2_rad):
            K2 = equivalent_joint_stiffness(comp, 1.0 / model.compliances[1], b)
            assert fit.values[i] == pytest.approx(1.0 / K2, rel=1e-9)
        assert np.allclose(fit.values[5:], model.compliances[2:], rtol=1e-9)
        B, _ = build_regressor(model, clean_records, fit.layout)
        assert fit.condition == pytest.approx(np.linalg.cond(B), rel=1e-9)
        assert fit.condition < 1.0 / RANK_TOL
        assert fit.sigma_hat_mm < 1e-12

    def test_rank_deficiency_reported(self, model, clean_records):
        # one config, one marker: 3 rows cannot pin down 5 parameters
        few = take(clean_records, slice(0, 1))
        lay = layout_of(few)
        with pytest.raises(IdentifiabilityError) as err:
            identify_compliances(model, few)
        assert err.value.null_directions is not None
        # the whole null space, though B has fewer rows than columns
        assert err.value.null_directions.shape == (lay.n_params, lay.n_params - 3)
        assert "not identifiable" in str(err.value)

    def test_nonpositive_estimate_warns(self, model, clean_records):
        flipped = dataclasses.replace(clean_records,
                                      deflection_mm=-clean_records.deflection_mm)
        with pytest.warns(RuntimeWarning, match="non-positive"):
            identify_compliances(model, flipped)

    def test_joint2_stiffnesses_guard(self, model, clean_records):
        flipped = dataclasses.replace(clean_records,
                                      deflection_mm=-clean_records.deflection_mm)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            fit = identify_compliances(model, flipped)
        with pytest.raises(IdentifiabilityError, match="non-positive joint-2"):
            fit.joint2_stiffnesses()

    def test_joint2_stiffnesses_guard_names_only_buckets(self, model, clean_records):
        fit = identify_compliances(model, clean_records)
        values = fit.values.copy()
        bucket = 1     # the second joint-2 bucket
        values[[bucket, fit.labels.index("k3")]] = -1e-9
        with pytest.raises(IdentifiabilityError) as err:
            dataclasses.replace(fit, values=values).joint2_stiffnesses()
        assert fit.labels[bucket].startswith("k2[")
        assert f"estimate ({fit.labels[bucket]});" in str(err.value)


class TestSeparation:
    def test_consistent_with_forward_model(self, model):
        comp = model.compensator
        buckets = tuple(np.radians([-1.0, -40.0, -80.0, -120.0]))
        lay = ParameterLayout(buckets)
        K2 = np.array([equivalent_joint_stiffness(comp, 1.0 / model.compliances[1], b)
                       for b in buckets])
        sep = separate_compensator(lay, K2, comp.geometry)
        assert sep.K0_Nmm_per_rad == pytest.approx(1.0 / model.compliances[1], rel=1e-9)
        assert sep.Kc_N_per_mm == pytest.approx(comp.elastics.Kc_N_per_mm, rel=1e-9)
        assert sep.s0_mm == pytest.approx(comp.elastics.s0_mm, rel=1e-9)
        assert sep.residual_rel < 1e-12

    def test_needs_three_buckets(self, model):
        comp = model.compensator
        lay = ParameterLayout(tuple(np.radians([-10.0, -80.0])))
        with pytest.raises(IdentifiabilityError, match="at least 3 distinct"):
            separate_compensator(lay, np.ones(2), comp.geometry)

    def test_mirror_buckets_cannot_separate(self):
        """q2 and its mirror under gamma -> -gamma (gamma = alpha - q2) span
        the spring equally, so their separation rows are equal and three
        buckets holding both leave a null direction."""
        geom = CompensatorGeometry(L_mm=185.0, ax_mm=25.0, ay_mm=695.0, q2_sign=1.0)
        q2 = np.radians(-60.0)
        mirror = 2.0 * geom.alpha_rad - q2 - 2.0 * np.pi
        assert np.degrees(mirror) == pytest.approx(-124.12, abs=0.005)
        rows = separation_matrix(geom, [q2, mirror])
        assert np.allclose(rows[0], rows[1], rtol=1e-12, atol=0.0)
        lay = ParameterLayout((np.radians(-0.01), q2, mirror))
        with pytest.raises(IdentifiabilityError,
                           match="do not vary the spring geometry enough") as err:
            separate_compensator(lay, np.ones(3), geom)
        assert err.value.null_directions.shape == (3, 1)

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
        assert PARAMETER_LABELS == tuple(truth.labels)
        rel = np.abs(vals - truth.values) / np.abs(truth.values)
        assert np.max(rel) < 1e-6

    def test_noiseless_round_trip_mirrored_compensator(self, mirrored, plan):
        """A controller counting joint 2 against the linkage: the separation
        follows the model's sign and recovers every parameter."""
        assert mirrored.compensator.geometry.q2_sign == -1.0
        records = simulate_deflection_records(mirrored, plan, response="linear")
        vals = identify_elastostatics(mirrored, records).parameter_values()
        truth = GroundTruth.from_model(mirrored)
        assert np.max(np.abs(vals - truth.values) / np.abs(truth.values)) < 1e-6

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
        first = take(clean_records, slice(0, 10))
        save_deflection_csv(p, first)
        back = load_deflection_csv(p)
        assert len(back) == 10
        assert np.allclose(first.q_rad, back.q_rad, atol=1e-12)
        assert np.allclose(first.wrench, back.wrench, atol=1e-9)
        assert np.array_equal(first.marker_id, back.marker_id)
        assert np.allclose(first.deflection_mm, back.deflection_mm, atol=1e-9)
        assert np.array_equal(first.repeat, back.repeat)
        assert back.marker_id.dtype.kind == back.repeat.dtype.kind == "i"

    def test_golden_bytes(self, tmp_path):
        """Ten significant digits, signed zeros kept, ``\\r\\n`` line ends."""
        recs = table([
            ([-0.0, 0, 0, 0, 0, 0], [0, 0, -2600, -0.0, 0, 0], 0, [-0.0, 0.0, 1.5], 0),
            (np.radians([10, -90, 45, 0, 0, 180]), np.zeros(6), 1,
             [1e-300, -2.5e-7, 0.0], 1),
            (np.zeros(6), [0, 0, 0, 1e5, 0, -123456789.123], 2,
             [123456789.123, 0.1, -3.0], 12),
        ])
        p = tmp_path / "records.csv"
        save_deflection_csv(p, recs)
        assert p.read_bytes() == (
            ",".join(DEFLECTION_CSV_HEADER) + "\r\n"
            "-0,0,0,0,0,0,0,0,-2600,-0,0,0,0,-0,0,1.5,0\r\n"
            "10,-90,45,0,0,180,0,0,0,0,0,0,1,1e-300,-2.5e-07,0,1\r\n"
            "0,0,0,0,0,0,0,0,0,100000,0,-123456789.1,2,123456789.1,0.1,-3,12\r\n"
        ).encode()

    def test_load_save_round_trip_bytes(self, tmp_path, model):
        recs = simulate_deflection_records(model, spread_plan(repeats=2),
                                           noise_mm=0.02, seed=4)
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        save_deflection_csv(first, recs)
        save_deflection_csv(second, load_deflection_csv(first))
        assert second.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("column, value", [("marker_id", "-1"), ("repeat", "-5")])
    def test_negative_count_column_names_line(self, tmp_path, column, value):
        good = ["0"] * len(DEFLECTION_CSV_HEADER)
        bad = list(good)
        bad[DEFLECTION_CSV_HEADER.index(column)] = value
        p = tmp_path / "bad.csv"
        p.write_text("\n".join(",".join(r) for r in (DEFLECTION_CSV_HEADER, good, bad)))
        with pytest.raises(DataLayoutError,
                           match=rf"bad\.csv:3: column {column} must be >= 0, got {value}$"):
            load_deflection_csv(p)

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
        (load_marker_csv, MARKER_HEADER, "q2_deg"),
        (load_marker_csv, MARKER_HEADER, "P02_y"),
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
        est = identify_elastostatics(model, clean_records)
        ci = confidence_intervals_elasto(est, n_samples=8)
        assert np.all(ci.halfwidth3 <= 1e-9 * np.abs(ci.values))

    def test_reproducible(self, model, plan):
        records = simulate_deflection_records(model, plan, noise_mm=0.05,
                                              seed=5, response="linear")
        est = identify_elastostatics(model, records)
        a = confidence_intervals_elasto(est, n_samples=32, seed=1)
        b = confidence_intervals_elasto(est, n_samples=32, seed=1)
        assert np.array_equal(a.halfwidth3, b.halfwidth3)

    def test_widths_bracket_truth(self, model, plan):
        records = simulate_deflection_records(model, plan, noise_mm=0.05,
                                              seed=9, response="linear")
        est = identify_elastostatics(model, records)
        ci = confidence_intervals_elasto(est, n_samples=100, seed=10)
        truth = GroundTruth.from_model(model)
        inside = np.abs(ci.values - truth.values) <= ci.halfwidth3
        assert inside.sum() >= len(inside) - 1  # 3-sigma misses are rare

    def test_ordering_joints_tight_compensator_wide(self, model, plan):
        records = simulate_deflection_records(model, plan, noise_mm=0.05,
                                              seed=12, response="linear")
        est = identify_elastostatics(model, records)
        ci = confidence_intervals_elasto(est, n_samples=100, seed=13)
        pct = dict(zip(ci.labels, ci.percent))
        tightest = min(pct, key=pct.get)
        widest = max(pct, key=pct.get)
        assert tightest in ("k2", "k3")
        assert widest in ("Kc", "s0")


class TestStackedResampler:
    """One product per sample, then one separation for all samples, checked
    against one separation per sample."""

    @pytest.mark.parametrize("noise_mm, repeats, seed", [(0.05, 3, 5), (0.5, 1, 2)])
    def test_halfwidths_match_per_sample_loop(self, model, noise_mm, repeats, seed):
        records = simulate_deflection_records(model, spread_plan(repeats=repeats),
                                              noise_mm=noise_mm, seed=seed,
                                              response="linear")
        est = identify_elastostatics(model, records)
        ci = confidence_intervals_elasto(est, n_samples=200, seed=0)
        ref, failed = oracles.confidence_intervals_elasto_loop(model, est, 200, 0)
        assert np.allclose(ci.halfwidth3, ref, rtol=1e-12, atol=0.0)
        assert ci.n_failed == failed

    def test_parameter_space_draw_matches_record_space_refits(self, model):
        """Drawing in parameter space through the fit's root gives the
        widths of refitting noisy records through the pseudo-inverse of B."""
        records = simulate_deflection_records(model, spread_plan(repeats=3),
                                              noise_mm=0.05, seed=5, response="linear")
        est = identify_elastostatics(model, records)
        ci = confidence_intervals_elasto(est, n_samples=20000, seed=6)
        fit = est.fit
        B, _ = build_regressor(model, records, fit.layout)
        P = np.linalg.pinv(B)
        rng = np.random.default_rng(7)
        y = (B @ fit.values)[:, None]
        z = (rng.standard_normal((len(B), 1000)) for _ in range(20))  # 1,000 at a time
        k_star = np.vstack([(P @ (y + fit.sigma_hat_mm * zi)).T for zi in z])
        nb = fit.layout.n_buckets
        comp = model.compensator
        C = separation_matrix(comp.geometry, fit.layout.bucket_q2_rad)
        x = np.linalg.lstsq(C, 1.0 / k_star[:, :nb].T, rcond=None)[0].T
        arr = np.column_stack([1.0 / x[:, 0], k_star[:, nb:], x[:, 1], x[:, 2] / x[:, 1]])
        ref = 3.0 * arr.std(axis=0, ddof=1)
        assert ci.n_failed == 0 and np.all(k_star[:, :nb] > 0)
        np.testing.assert_allclose(ci.halfwidth3, ref, rtol=0.03, atol=0.0)

    def test_reuses_the_estimate_separation(self, model, monkeypatch):
        """The resampler separates with the factors the estimate stored and
        never factors the separation system again."""
        from stiffcal import elasto_id
        records = simulate_deflection_records(model, spread_plan(), noise_mm=0.05,
                                              seed=5, response="linear")
        est = identify_elastostatics(model, records)
        base = confidence_intervals_elasto(est, n_samples=200, seed=4)

        def refactor(*args):
            raise AssertionError("separation factored again")

        monkeypatch.setattr(elasto_id, "_separation_factors", refactor)
        ci = confidence_intervals_elasto(est, n_samples=200, seed=4)
        assert ci.halfwidth3.tobytes() == base.halfwidth3.tobytes()
        assert ci.n_failed == base.n_failed

    def test_one_generator_per_call(self, model, rng_calls):
        records = simulate_deflection_records(model, spread_plan(), noise_mm=0.05,
                                              seed=5, response="linear")
        est = identify_elastostatics(model, records)
        rng_calls.clear()
        confidence_intervals_elasto(est, n_samples=200, seed=3)
        assert rng_calls == [(3,)]

    def test_failed_resamples_counted(self, model):
        # noisy enough that some resamples lose a positive joint-2 compliance
        # or the spring rate, but fewer than half
        records = simulate_deflection_records(model, spread_plan(), noise_mm=1.5,
                                              seed=2, response="linear")
        est = identify_elastostatics(model, records)
        ci = confidence_intervals_elasto(est, n_samples=200, seed=0)
        ref, failed = oracles.confidence_intervals_elasto_loop(model, est, 200, 0)
        assert 0 < failed <= 100
        assert ci.n_failed == failed
        assert np.allclose(ci.halfwidth3, ref, rtol=1e-12, atol=0.0)

    def test_separation_failures_counted(self, model, monkeypatch):
        from stiffcal import elasto_id
        records = simulate_deflection_records(model, spread_plan(), noise_mm=1.5,
                                              seed=2, response="linear")
        est = identify_elastostatics(model, records)
        base = confidence_intervals_elasto(est, n_samples=200, seed=0)
        real = elasto_id._separate

        def every_fourth_unseparable(factors, K2):
            x, ok = real(factors, K2)
            ok[::4] = False
            return x, ok

        monkeypatch.setattr(elasto_id, "_separate", every_fourth_unseparable)
        ci = confidence_intervals_elasto(est, n_samples=200, seed=0)
        reached = 200 - base.n_failed          # resamples with positive k2
        assert ci.n_failed == base.n_failed + len(range(0, reached, 4))

    def test_stacked_separation_flags_zero_spring_rate(self, model):
        from stiffcal.elasto_id import _separate, _separation_factors
        comp = model.compensator
        lay = ParameterLayout(tuple(np.radians([-1.0, -40.0, -80.0, -120.0])))
        C = separation_matrix(comp.geometry, lay.bucket_q2_rad)
        K2 = np.stack([C @ [3.3e9, 6000.0, 6000.0 * 458.0], C @ [3.3e9, 0.0, 0.0],
                       C @ [3.0e9, 5000.0, 5000.0 * 400.0]])
        x, ok = _separate(_separation_factors(lay, comp.geometry), K2)
        assert ok.tolist() == [True, False, True]
        with pytest.raises(IdentifiabilityError, match="indistinguishable from zero"):
            separate_compensator(lay, K2[1], comp.geometry)
        for i in (0, 2):
            sep = separate_compensator(lay, K2[i], comp.geometry)
            assert [sep.K0_Nmm_per_rad, sep.Kc_N_per_mm] == x[i, :2].tolist()
            assert sep.s0_mm == x[i, 2] / x[i, 1]

    def test_refuses_when_most_resamples_fail(self, model):
        records = simulate_deflection_records(model, spread_plan(repeats=1),
                                              noise_mm=8.0, seed=1, response="linear")
        with warnings.catch_warnings():     # the point fit itself is non-physical
            warnings.simplefilter("ignore", RuntimeWarning)
            est = identify_elastostatics(model, records)
        with pytest.raises(IdentifiabilityError, match=r"1\d\d/200 resamples failed"):
            oracles.confidence_intervals_elasto_loop(model, est, 200, 0)
        with pytest.raises(IdentifiabilityError, match=r"1\d\d/200 resamples failed"):
            confidence_intervals_elasto(est, n_samples=200, seed=0)

    def test_noise_free_reports_no_failures(self, model, clean_records):
        est = identify_elastostatics(model, clean_records)
        assert confidence_intervals_elasto(est, n_samples=8).n_failed == 0
