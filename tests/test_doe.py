import math

import numpy as np
import pytest

from plans import BUCKETS_DEG, LIMITS_DEG, TEST_Q_DEG, spread_plan
from stiffcal.doe import (
    CalibrationPlan,
    NoiseModel,
    PlanConstraints,
    PlanEntry,
    TestPose,
    load_plan_csv,
    optimize_plan,
    parameter_covariance,
    save_plan_csv,
    sensitivity_rows,
)
from stiffcal.doe import test_pose_accuracy as pose_accuracy
from stiffcal.elasto_id import DeflectionRecord, ParameterLayout, build_regressor
from stiffcal.errors import DataLayoutError, IdentifiabilityError

CONSTRAINTS = PlanConstraints(
    joint_limits_rad=tuple((math.radians(a), math.radians(b))
                           for a, b in LIMITS_DEG),
    load_magnitude_N=2600.0)
NOISE = NoiseModel(sigma_mm=0.05)


@pytest.fixture(scope="module")
def plan():
    return spread_plan()


@pytest.fixture(scope="module")
def test_pose():
    return TestPose(tuple(np.radians(TEST_Q_DEG)), tuple(CONSTRAINTS.wrench()))


class TestEntryAndPlan:
    def test_entry_validation(self):
        with pytest.raises(ValueError, match="6 joint angles"):
            PlanEntry((0.0,) * 5, (0.0,) * 6)
        with pytest.raises(ValueError, match="repeats"):
            PlanEntry((0.0,) * 6, (0.0,) * 6, repeats=0)

    def test_empty_plan_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            CalibrationPlan(())

    def test_replicated_multiplies_repeats(self, plan):
        doubled = plan.replicated(2)
        assert all(d.repeats == 2 * e.repeats
                   for d, e in zip(doubled.entries, plan.entries))

    def test_layout_from_plan(self, plan):
        lay = plan.layout()
        assert lay.n_buckets == len(BUCKETS_DEG)
        assert np.allclose(np.degrees(lay.bucket_q2_rad),
                           sorted(BUCKETS_DEG, reverse=True))


class TestSensitivityRows:
    def test_matches_regressor_rows(self, model, plan):
        """Per-config sensitivities are the same rows the estimator stacks."""
        e = plan.entries[4]
        lay = ParameterLayout((e.q_rad[1],))
        recs = [DeflectionRecord(e.q, e.w, m, np.zeros(3))
                for m in range(len(model.markers))]
        B, _ = build_regressor(model, recs, lay)
        A = sensitivity_rows(model, e.q, e.w)
        assert A.shape == B.shape
        assert np.allclose(A, B, atol=1e-12)

    def test_tool_only_three_rows(self, model, test_pose):
        A = sensitivity_rows(model, test_pose.q, test_pose.w, tool_only=True)
        assert A.shape == (3, 5)

    def test_include_joint1_widens(self, model, test_pose):
        A = sensitivity_rows(model, test_pose.q, test_pose.w,
                             include_joint1=True, tool_only=True)
        assert A.shape == (3, 6)
        # vertical load through the vertical base axis: zero lever
        assert np.allclose(A[:, 0], 0.0, atol=1e-9)


class TestAccuracyMetric:
    def test_replication_halves_exactly(self, model, plan, test_pose):
        acc1 = pose_accuracy(model, plan, test_pose, NOISE)
        acc2 = pose_accuracy(model, plan.replicated(2), test_pose, NOISE)
        assert acc2.rho0_sq_mm2 == pytest.approx(acc1.rho0_sq_mm2 / 2.0, rel=1e-12)

    def test_additive_over_buckets(self, model, plan, test_pose):
        acc = pose_accuracy(model, plan, test_pose, NOISE)
        assert acc.rho0_sq_mm2 == pytest.approx(sum(acc.per_bucket_mm2), rel=1e-12)
        assert acc.rho0_mm == pytest.approx(math.sqrt(acc.rho0_sq_mm2))
        assert len(acc.per_bucket_mm2) == len(BUCKETS_DEG)

    def test_scales_with_noise_variance(self, model, plan, test_pose):
        a = pose_accuracy(model, plan, test_pose, NoiseModel(0.05))
        b = pose_accuracy(model, plan, test_pose, NoiseModel(0.10))
        assert b.rho0_sq_mm2 == pytest.approx(4.0 * a.rho0_sq_mm2, rel=1e-12)

    def test_few_buckets_warns(self, model, test_pose):
        short = spread_plan(buckets_deg=(-10.0, -90.0))
        with pytest.warns(RuntimeWarning, match="joint-2 angle"):
            pose_accuracy(model, short, test_pose, NOISE)

    def test_singular_bucket_raises(self, model, test_pose):
        # a zero-wrench entry contributes nothing: its bucket stays singular
        dead = PlanEntry(tuple(np.radians([0, -70, 0, 0, 0, 0])), (0.0,) * 6)
        live = spread_plan(buckets_deg=(-0.01, -120.0)).entries
        plan = CalibrationPlan(live + (dead,))
        import warnings as _w
        with _w.catch_warnings():
            _w.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(IdentifiabilityError, match=r"bucket at -70\.00 deg"):
                pose_accuracy(model, plan, test_pose, NOISE)

    def test_monte_carlo_agreement_small(self, model, test_pose):
        """rho0^2 equals the simulated estimator error within MC tolerance.

        Mirrors the metric's estimator: each bucket solves its own reduced
        least squares from noisy rows, and the error is propagated to the
        test-pose tool deflection.  Small trial count here; the full-size
        comparison runs in the acceptance suite.
        """
        plan = spread_plan(buckets_deg=(-0.01, -56.9, -140.0),
                           configs_per_bucket=2, repeats=1)
        lay = plan.layout()
        acc = pose_accuracy(model, plan, test_pose, NOISE)
        A0 = sensitivity_rows(model, test_pose.q, test_pose.w, tool_only=True)

        by_bucket = {b: [] for b in range(lay.n_buckets)}
        for e in plan.entries:
            A = sensitivity_rows(model, e.q, e.w)
            by_bucket[lay.bucket_of(e.q_rad[1])].append((A, e.repeats))

        k_red = np.empty(5)
        rng_true = np.random.default_rng(0)
        err_sq = 0.0
        trials = 150
        for t in range(trials):
            rng = np.random.default_rng((17, t))
            for b in range(lay.n_buckets):
                rows = []
                rhs = []
                for A, reps in by_bucket[b]:
                    for _ in range(reps):
                        rows.append(A)
                        rhs.append(NOISE.sigma_mm * rng.standard_normal(A.shape[0]))
                Bmat = np.vstack(rows)
                yvec = np.concatenate(rhs)
                dk, *_ = np.linalg.lstsq(Bmat, yvec, rcond=None)
                err_sq += float(np.sum((A0 @ dk) ** 2))
        mc = err_sq / trials
        assert mc == pytest.approx(acc.rho0_sq_mm2, rel=0.2)


class TestParameterCovariance:
    def test_duplicating_plan_halves_covariance(self, model, plan):
        c1 = parameter_covariance(model, plan, NOISE)
        c2 = parameter_covariance(model, plan.replicated(2), NOISE)
        assert np.allclose(c2, c1 / 2.0, rtol=1e-9)

    def test_isotropic_axis_cov_matches_sigma(self, model, plan):
        iso = NoiseModel(sigma_mm=0.05,
                         axis_cov=0.05**2 * np.eye(3))
        c_plain = parameter_covariance(model, plan, NOISE)
        c_axis = parameter_covariance(model, plan, iso)
        assert np.allclose(c_axis, c_plain, rtol=1e-9)

    def test_anisotropic_axis_cov_matches_dense_sandwich(self, model, plan):
        C = np.array([[3e-3, 4e-4, -2e-4], [4e-4, 1.5e-3, 1e-4],
                      [-2e-4, 1e-4, 5e-3]])
        cov = parameter_covariance(model, plan, NoiseModel(0.05, axis_cov=C))
        # oracle: one dummy record per marker and repeat, dense block-diagonal
        # noise covariance over all of them
        records = [DeflectionRecord(e.q, e.w, m, np.zeros(3), r)
                   for e in plan.entries for m in range(len(model.markers))
                   for r in range(e.repeats)]
        B, _ = build_regressor(model, records, plan.layout())
        U, s, Vt = np.linalg.svd(B.T @ B)
        inv = Vt.T @ np.diag(1.0 / s) @ U.T
        ref = inv @ (B.T @ np.kron(np.eye(len(records)), C) @ B) @ inv
        assert np.linalg.norm(cov - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_singular_plan_reports_unobservable(self, model):
        dead = CalibrationPlan((PlanEntry(
            tuple(np.radians([0, -70, 0, 0, 0, 0])), (0.0,) * 6),))
        with pytest.raises(IdentifiabilityError, match="unobservable"):
            parameter_covariance(model, dead, NOISE)


class TestPlanCsv:
    def test_round_trip(self, tmp_path, plan):
        p = tmp_path / "plan.csv"
        save_plan_csv(p, plan)
        back = load_plan_csv(p)
        assert back.n_entries == plan.n_entries
        for a, b in zip(plan.entries, back.entries):
            assert np.allclose(a.q_rad, b.q_rad, atol=1e-12)
            assert np.allclose(a.wrench, b.wrench, atol=1e-9)
            assert a.repeats == b.repeats

    def test_header_checked(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(DataLayoutError, match="expected plan header"):
            load_plan_csv(p)

    def test_empty_body(self, tmp_path):
        from stiffcal.doe import PLAN_CSV_HEADER
        p = tmp_path / "empty.csv"
        p.write_text(",".join(PLAN_CSV_HEADER) + "\n")
        with pytest.raises(DataLayoutError, match="no plan entries"):
            load_plan_csv(p)


class TestOptimizer:
    def test_beats_its_random_starts(self, model, test_pose):
        opt = optimize_plan(model, test_pose, np.radians(BUCKETS_DEG),
                            CONSTRAINTS, NOISE, n_starts=2, seed=0)
        assert opt.accuracy.rho0_sq_mm2 <= min(opt.start_values_mm2) + 1e-15
        assert opt.plan.n_entries == 3 * len(BUCKETS_DEG)
        assert opt.n_evaluations > 0

    def test_deterministic(self, model, test_pose):
        a = optimize_plan(model, test_pose, np.radians((-0.01, -70.0, -140.0)),
                          CONSTRAINTS, NOISE, n_starts=1,
                          configs_per_bucket=2, repeats=1, seed=3)
        b = optimize_plan(model, test_pose, np.radians((-0.01, -70.0, -140.0)),
                          CONSTRAINTS, NOISE, n_starts=1,
                          configs_per_bucket=2, repeats=1, seed=3)
        qa = np.array([e.q_rad for e in a.plan.entries])
        qb = np.array([e.q_rad for e in b.plan.entries])
        assert np.array_equal(qa, qb)
        assert a.accuracy.rho0_sq_mm2 == b.accuracy.rho0_sq_mm2

    def test_respects_limits_and_pinned_q2(self, model, test_pose):
        windows = ((math.radians(-30.0), math.radians(30.0)),)
        cons = PlanConstraints(joint_limits_rad=CONSTRAINTS.joint_limits_rad,
                               q1_intervals_rad=windows)
        buckets = np.radians((-0.01, -70.0, -140.0))
        opt = optimize_plan(model, test_pose, buckets, cons, NOISE,
                            n_starts=1, configs_per_bucket=1, repeats=1, seed=1)
        for e in opt.plan.entries:
            assert windows[0][0] <= e.q_rad[0] <= windows[0][1]
            assert any(abs(e.q_rad[1] - b) < 1e-12 for b in buckets)
            for j in range(2, 6):
                lo, hi = cons.joint_limits_rad[j]
                assert lo - 1e-12 <= e.q_rad[j] <= hi + 1e-12
            assert np.allclose(e.wrench, cons.wrench())

    def test_needs_buckets(self, model, test_pose):
        with pytest.raises(ValueError, match="at least one joint-2 bucket"):
            optimize_plan(model, test_pose, [], CONSTRAINTS, NOISE)

    @pytest.mark.parametrize("count", ["configs_per_bucket", "repeats", "n_starts"])
    def test_counts_below_one_rejected(self, model, test_pose, count):
        with pytest.raises(ValueError, match=f"{count} must be >= 1"):
            optimize_plan(model, test_pose, np.radians(BUCKETS_DEG),
                          CONSTRAINTS, NOISE, **{count: 0})

    def test_no_finite_start_raises(self, model, test_pose):
        cons = PlanConstraints(joint_limits_rad=CONSTRAINTS.joint_limits_rad,
                               load_magnitude_N=math.inf)
        with np.errstate(invalid="ignore"), \
                pytest.raises(IdentifiabilityError, match="no random start"):
            optimize_plan(model, test_pose, np.radians(BUCKETS_DEG), cons, NOISE,
                          n_starts=1, configs_per_bucket=1, n_grid=3, n_levels=1)


class TestConstraints:
    def test_limit_validation(self):
        with pytest.raises(ValueError, match="six"):
            PlanConstraints(joint_limits_rad=((0.0, 1.0),) * 5)
        with pytest.raises(ValueError, match="load magnitude"):
            PlanConstraints(joint_limits_rad=((0.0, 1.0),) * 6,
                            load_magnitude_N=-5.0)

    def test_wrench_is_gravity_direction(self):
        w = CONSTRAINTS.wrench()
        assert np.allclose(w, [0, 0, -2600.0, 0, 0, 0])

    def test_q1_windows_default_to_limits(self):
        assert CONSTRAINTS.q1_windows() == (CONSTRAINTS.joint_limits_rad[0],)
