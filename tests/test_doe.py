import csv
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bucket_variance_qr, optimize_plan_sequential, sensitivity_rows_loop
from plans import BUCKETS_DEG, LIMITS_DEG, TEST_Q_DEG, replicated, spread_plan
from record_tables import table
from stiffcal import doe
from stiffcal.doe import (
    CalibrationPlan,
    NoiseModel,
    PlanConstraints,
    PlanEntry,
    TestPose,
    load_plan_csv,
    optimize_plan,
    save_plan_csv,
    sensitivity_rows,
    _bucket_variance,
    _candidate_grids,
    _candidates,
    _frames,
    _information,
    _random_config,
)
from stiffcal.doe import test_pose_accuracy as pose_accuracy
from stiffcal.elasto_id import ParameterLayout, build_regressor, factor_regressor
from stiffcal.errors import DataLayoutError, IdentifiabilityError
from stiffcal.robot import FrameSpec, _marker_points, chain_state
from stiffcal.sim import simulate_deflection_records

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
        doubled = replicated(plan, 2)
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
        recs = table((e.q, e.w, m, np.zeros(3)) for m in range(len(model.markers)))
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

    def test_joint1_column_idle_across_plan(self, model, plan):
        """No plan load has a lever about joint 1, which is why the stage-one
        layout has no k1 column; the other columns are the default block."""
        q = np.array([e.q_rad for e in plan.entries])
        w = np.array([e.wrench for e in plan.entries])
        wide = sensitivity_rows(model, q, w, include_joint1=True)
        assert np.abs(wide[..., 0]).max() <= 1e-9 * np.abs(wide).max()
        assert np.array_equal(wide[..., 1:], sensitivity_rows(model, q, w))


    @pytest.mark.parametrize("tool_only", [False, True])
    @pytest.mark.parametrize("include_joint1", [False, True])
    def test_stack_matches_single_calls(self, model, include_joint1, tool_only):
        """A (2, 4) stack of poses, each with its own wrench (lateral forces
        and moments) or one shared wrench, gives each pose's rows bit for bit.
        Every block is C-contiguous: the information products read it in
        memory order, so another layout can move rho0^2 in its last bits."""
        rng = np.random.default_rng(5)
        q = rng.uniform(-np.pi, np.pi, (2, 4, 6))
        w = np.concatenate([rng.normal(0.0, 800.0, (2, 4, 3)),
                            rng.normal(0.0, 2e5, (2, 4, 3))], axis=-1)
        kw = dict(include_joint1=include_joint1, tool_only=tool_only)
        rows = 3 if tool_only else 3 * len(model.markers)
        each = sensitivity_rows(model, q, w, **kw)
        shared = sensitivity_rows(model, q, w[1, 2], **kw)
        assert each.shape == shared.shape == (2, 4, rows, 6 if include_joint1 else 5)
        assert each.flags.c_contiguous and shared.flags.c_contiguous
        for idx in np.ndindex(2, 4):
            one = sensitivity_rows(model, q[idx], w[idx], **kw)
            assert one.flags.c_contiguous
            assert np.array_equal(each[idx], one)
            assert np.array_equal(shared[idx],
                                  sensitivity_rows(model, q[idx], w[1, 2], **kw))

    @pytest.mark.parametrize("tool_only", [False, True])
    @pytest.mark.parametrize("include_joint1", [False, True])
    def test_rows_match_the_chain_state_reference(self, model, include_joint1, tool_only):
        """A (2, 3) stack of rows equals, bit for bit, the rows built one
        configuration and one point at a time from each configuration's own
        chain state."""
        rng = np.random.default_rng(12)
        q = rng.uniform(-np.pi, np.pi, (2, 3, 6))
        w = np.concatenate([rng.normal(0.0, 800.0, (2, 3, 3)),
                            rng.normal(0.0, 2e5, (2, 3, 3))], axis=-1)
        kw = dict(include_joint1=include_joint1, tool_only=tool_only)
        for wrench in (w, w[0, 1]):
            assert (sensitivity_rows(model, q, wrench, **kw).tobytes()
                    == sensitivity_rows_loop(model, q, wrench, **kw).tobytes())


class TestFrames:
    """The plan search carries each configuration's frames and turns them
    for its line-search candidates instead of rebuilding the chain."""

    def test_frames_hold_the_chain_state(self, model):
        """Joint i's centre and axis at rows 2i and 2i + 1, then the tool
        point, then the markers."""
        q = np.random.default_rng(3).uniform(-np.pi, np.pi, (2, 3, 6))
        F = _frames(model, q)
        cs = chain_state(model, q, np.zeros(6))
        assert F.shape == (2, 3, 13 + len(model.markers), 3)
        assert np.array_equal(F[..., 0:12:2, :], cs.joint_p)
        assert np.array_equal(F[..., 1:12:2, :], cs.joint_axis)
        assert np.array_equal(F[..., 12, :], cs.tool_p)
        assert np.array_equal(F[..., 13:, :], _marker_points(model, cs.tool_R, cs.tool_p))

    def test_information_of_chain_frames_is_from_sensitivity_rows(self, model):
        """The search's information blocks, built from the rows of a frames
        array, are ``repeats * A^T A`` of the rows built point by point from
        the chain state, bit for bit."""
        rng = np.random.default_rng(8)
        q = rng.uniform(-np.pi, np.pi, (2, 4, 6))
        w = rng.normal(0.0, 1e3, (2, 4, 6))
        A = sensitivity_rows_loop(model, q, w)
        assert (_information(_frames(model, q), w, 3).tobytes()
                == (3 * (A.swapaxes(-1, -2) @ A)).tobytes())

    @given(st.integers(0, 2**32 - 1), st.integers(0, 5), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_turned_frames_match_the_chain(self, model, seed, joint, tilt):
        """Turning each pose's frames about ``joint`` to every grid value
        gives the frames ``chain_state`` builds at the new angle, for a stack
        of poses with their own grid sizes, and for a base that tilts joint 1."""
        if tilt:
            model = dataclasses.replace(model, base=TestOptimizer.ROLLED)
        rng = np.random.default_rng(seed)
        q = rng.uniform(-np.pi, np.pi, (3, 6))
        counts = rng.integers(0, 5, 3)
        grid = np.repeat(q[:, joint], counts) + rng.uniform(-np.pi, np.pi, counts.sum())
        q_try, F_try = _candidates(q, _frames(model, q), joint, counts, grid)
        expected = np.repeat(q, counts, axis=0)
        expected[:, joint] = grid
        assert np.array_equal(q_try, expected)
        np.testing.assert_allclose(F_try, _frames(model, q_try), rtol=0.0, atol=1e-9)


def _candidate_grids_linspace(joint, centres, span, constraints, n_grid):
    """``doe._candidate_grids`` as written over ``np.linspace``."""
    windows = (constraints.q1_windows() if joint == 0
               else (constraints.joint_limits_rad[joint],))
    g = np.sort(np.concatenate([
        np.linspace(np.maximum(lo, c - span), np.minimum(hi, c + span), n_grid, axis=-1)
        for lo, hi in windows for c in (np.clip(centres, lo, hi),)], axis=-1), axis=-1)
    keep = g != centres[:, None]
    keep[:, 1:] &= g[:, 1:] != g[:, :-1]
    return keep.sum(axis=1), g[keep]


@given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.integers(0, 4),
       st.sampled_from([1.0, 1e-3, 1e-20]))
@settings(max_examples=150, deadline=None)
def test_candidate_grids_match_linspace(seed, n_grid, case, span_scale):
    """The line-search grids equal ``np.linspace``'s bit for bit: one window,
    two windows (given in descending order, overlapping, or sharing an end),
    and joints 3..6 on their limits; a span below the centres' rounding
    (1e-20) takes numpy's vanishing-step path."""
    rng = np.random.default_rng(seed)
    windows = (None, ((0.3, 0.6), (-1.0, -0.2)), ((-1.0, 0.4), (-0.5, 0.6)),
               ((-1.0, -0.2), (-0.2, 0.6)), ((-1.0, 0.6),))[case]
    cons = PlanConstraints(CONSTRAINTS.joint_limits_rad, q1_intervals_rad=windows)
    joint = 0 if windows else int(rng.integers(2, 6))
    lo, hi = cons.q1_windows()[0] if windows else cons.joint_limits_rad[joint]
    centres = rng.uniform(lo - 0.2, hi + 0.2, 12)
    centres[:4] = (lo, hi, 0.0, -0.2)                    # on the limits and the shared end
    span = span_scale * rng.uniform(0.01, 2.0)
    got = _candidate_grids(joint, centres, span, cons, n_grid)
    want = _candidate_grids_linspace(joint, centres, span, cons, n_grid)
    assert np.array_equal(got[0], want[0])
    assert got[1].tobytes() == want[1].tobytes()


def _rows_at_cond(rng, cond, n_rows=27):
    """Random 5-column rows whose singular values run from 1 down to 1/cond."""
    U = np.linalg.qr(rng.normal(size=(n_rows, 5)))[0]
    V = np.linalg.qr(rng.normal(size=(5, 5)))[0]
    return (U * np.logspace(0.0, -math.log10(cond), 5)) @ V.T


class TestBucketVariance:
    """The search's stacked scorer, trace(A0 M^-1 A0^T) from one Cholesky
    factor of each M bordered by the test-pose rows A0."""

    A0 = np.random.default_rng(7).normal(size=(3, 5))

    @pytest.mark.parametrize("cond", [1.0, 10.0, 100.0])
    def test_matches_a_qr_oracle(self, cond):
        """On rows at cond <= 100 (information at cond <= 1e4) every score is
        within 1e-9 of ||A0 R^-1||^2 from the rows' QR factor R, stacked and
        alone, and a stack scores each member as alone, bit for bit."""
        rng = np.random.default_rng(int(cond))
        X = np.array([_rows_at_cond(rng, cond) for _ in range(40)])
        M = X.swapaxes(-1, -2) @ X
        want = [bucket_variance_qr(x, self.A0) for x in X]
        single = np.array([_bucket_variance(m, self.A0) for m in M])
        np.testing.assert_allclose(single, want, rtol=1e-9, atol=0.0)
        stacked = _bucket_variance(M.reshape(4, 10, 5, 5), self.A0)
        assert stacked.shape == (4, 10)
        assert stacked.reshape(-1).tobytes() == single.tobytes()

    @pytest.mark.parametrize("cond", [1e6, 1e8, 1e9, 1e10])
    def test_ill_conditioned_scores_are_never_negative(self, cond):
        """Near-singular information gives a finite, non-negative score or
        inf, never a negative score or NaN, and nothing raises."""
        rng = np.random.default_rng(int(math.log10(cond)))
        X = np.array([_rows_at_cond(rng, cond) for _ in range(100)])
        t = _bucket_variance(X.swapaxes(-1, -2) @ X, self.A0)
        assert not np.isnan(t).any()
        assert (t >= 0.0).all()
        if cond >= 1e8:
            assert np.isinf(t).any()

    def test_pivot_rule(self):
        """A positive-definite member scores inf once a pivot falls to
        1e-12 of its diagonal entry, and is scored just above: the last
        pivot of a unit 2x2 block with off-diagonal c is 1 - c^2."""
        M = np.stack([np.diag([1.0, 2.0, 3.0, 1.0, 1.0]) for _ in range(2)])
        for m, r in zip(M, (1e-11, 1e-13)):
            m[3, 4] = m[4, 3] = math.sqrt(1.0 - r)
        t = _bucket_variance(M, self.A0)
        want = np.trace(self.A0 @ np.linalg.solve(M[0], self.A0.T))
        assert t[0] == pytest.approx(want, rel=1e-4)
        assert t[1] == math.inf

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1e-150, 1e-4, 1.0, 1e4, 1e150]))
    @settings(max_examples=100, deadline=None)
    def test_any_symmetric_stack_scores_non_negative_or_inf(self, seed, scale):
        """Symmetric members of any sign and scale (entries up to 1e+-300),
        some of them indefinite, singular or NaN: every score is >= 0 or
        inf, never NaN."""
        rng = np.random.default_rng(seed)
        S = rng.normal(size=(12, 5, 5)) * scale
        M = S @ S.swapaxes(-1, -2)
        M[::3] = S[::3] + S[::3].swapaxes(-1, -2)          # indefinite
        M[1, :, 2] = M[1, 2, :] = 0.0                       # singular
        M[4, 0, 0] = math.nan
        t = _bucket_variance(M, self.A0 * rng.uniform(1e-3, 1e3))
        assert not np.isnan(t).any()
        assert (t >= 0.0).all()
        assert np.isinf(t[[1, 4]]).all()

    @pytest.mark.parametrize("bad", [0, 37, 63])
    def test_refused_stack_is_halved(self, monkeypatch, bad):
        """One member of 64 that is not positive definite scores inf and
        every other member its own single call's bits, with the stack halved
        down to the refused member: 1 + 2 log2(64) Cholesky calls, not one
        per member."""
        rng = np.random.default_rng(bad)
        X = np.array([_rows_at_cond(rng, 10.0) for _ in range(64)])
        M = X.swapaxes(-1, -2) @ X
        M[bad] *= -1.0
        single = np.array([_bucket_variance(m, self.A0) for m in M])
        calls = []
        cholesky = np.linalg.cholesky

        def counted(a, *args, **kwargs):
            calls.append(len(a))
            return cholesky(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        t = _bucket_variance(M, self.A0)
        assert t.tobytes() == single.tobytes()
        assert np.isinf(t[bad]) and np.isfinite(np.delete(t, bad)).all()
        assert sorted(calls, reverse=True) == [64, 32, 32, 16, 16, 8, 8, 4, 4, 2, 2, 1, 1]


class TestAccuracyMetric:
    def test_bucket_variance_stack_with_singular_member(self, model, plan, test_pose):
        """A stack scores each member as alone; a member that is not
        positive definite (zero, or negated) scores inf."""
        A0 = sensitivity_rows(model, test_pose.q, test_pose.w, tool_only=True)
        rows = sensitivity_rows(model, np.array([e.q_rad for e in plan.entries[:6]]),
                                test_pose.w)
        Ms = (rows.swapaxes(1, 2) @ rows).reshape(2, 3, 5, 5)
        single = np.array([[_bucket_variance(M, A0) for M in row] for row in Ms])
        assert np.isfinite(single).all()
        assert np.array_equal(_bucket_variance(Ms, A0), single)
        Ms[1, 0] = 0.0
        Ms[0, 2] *= -1.0
        expected = single.copy()
        expected[1, 0] = expected[0, 2] = np.inf
        assert _bucket_variance(Ms[1, 0], A0) == math.inf
        assert _bucket_variance(Ms[0, 2], A0) == math.inf
        assert np.array_equal(_bucket_variance(Ms, A0), expected)

    def test_information_matches_per_entry_rows(self, model, plan, test_pose):
        """Each bucket's term is read from the SVD of its entries' own rows,
        each scaled by the square root of its repeats under its own wrench,
        stacked in entry order."""
        rng = np.random.default_rng(2)
        mixed = CalibrationPlan(tuple(
            PlanEntry(e.q_rad, tuple(rng.normal(0.0, 1e3, 6)), e.repeats + i % 2)
            for i, e in enumerate(plan.entries)))
        lay = mixed.layout()
        rows = [[] for _ in range(lay.n_buckets)]
        for e in mixed.entries:
            rows[lay.bucket_of(e.q_rad[1])].append(
                math.sqrt(e.repeats) * sensitivity_rows(model, e.q, e.w))
        A0 = sensitivity_rows(model, test_pose.q, test_pose.w, tool_only=True)
        want = []
        for block in rows:
            _, s, Vt = np.linalg.svd(np.vstack(block), full_matrices=False)
            Y = A0 @ (Vt.T / s)
            want.append(NOISE.sigma_mm**2 * float(np.sum(Y * Y)))
        acc = pose_accuracy(model, mixed, test_pose, NOISE)
        assert np.isfinite(want).all()
        assert np.array(acc.per_bucket_mm2).tobytes() == np.array(want).tobytes()

    def test_ill_conditioned_buckets_match_a_qr_oracle(self, model, test_pose):
        """Single-configuration buckets with the wrist nearly straight
        (q5 = 1e-6 rad, each block's sigma_min / sigma_max 2.6e-10 to 1.2e-9)
        pass the rank rule, and each term matches sigma^2 ||A0 R^-1||^2 of
        the QR factor R of its rows to 1e-9: a solve against A^T A had
        missed it by up to 6e-4."""
        plan = CalibrationPlan(tuple(
            PlanEntry((0.3, math.radians(b), 0.2, 0.5, 1e-6, 0.1), test_pose.wrench, 3)
            for b in (-25.24, -56.9, -99.85)))
        A0 = sensitivity_rows(model, test_pose.q, test_pose.w, tool_only=True)
        acc = pose_accuracy(model, plan, test_pose, NOISE)
        for e, got in zip(plan.entries, acc.per_bucket_mm2):
            X = math.sqrt(e.repeats) * sensitivity_rows(model, e.q, e.w)
            s = np.linalg.svd(X, compute_uv=False)
            assert 1e-10 < s[-1] / s[0] < 2e-9
            want = NOISE.sigma_mm**2 * bucket_variance_qr(X, A0)
            assert got == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_model_without_markers_is_refused(self, model, plan, test_pose):
        """A model with no markers gives each bucket no rows: the rank rule
        refuses the first bucket."""
        bare = dataclasses.replace(model, markers=())
        with pytest.raises(IdentifiabilityError, match="rank-deficient information"):
            pose_accuracy(bare, plan, test_pose, NOISE)

    def test_replication_halves_exactly(self, model, plan, test_pose):
        acc1 = pose_accuracy(model, plan, test_pose, NOISE)
        acc2 = pose_accuracy(model, replicated(plan, 2), test_pose, NOISE)
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

    def test_near_singular_bucket_raises(self, model, test_pose):
        """One configuration per bucket with the wrist all but straight
        (q5 = 1e-9 rad): the rank rule refuses the plan at the -0.01 deg
        bucket, which must not pass for a tiny variance."""
        plan = CalibrationPlan(tuple(
            PlanEntry((0.3, math.radians(b), 0.2, 0.5, 1e-9, 0.1), test_pose.wrench)
            for b in (-0.01, -25.24, -140.0)))
        with pytest.raises(IdentifiabilityError, match=r"bucket at -0\.01 deg"):
            pose_accuracy(model, plan, test_pose, NOISE)

    def test_rank_deficient_bucket_raises(self, model, test_pose):
        """Three single-configuration buckets with the wrist all but straight:
        every block's sigma_min / sigma_max is about 1e-12, below the
        identification's RANK_TOL, so the first bucket is named, although
        each trace comes out positive (rho0 read 2.6e8 mm before the rule)."""
        plan = CalibrationPlan(tuple(
            PlanEntry((0.3, math.radians(b), 0.2, 0.5, 1e-9, 0.1), test_pose.wrench, 3)
            for b in (-25.24, -56.9, -99.85)))
        q = np.array([e.q_rad for e in plan.entries])
        for block in np.sqrt(3.0) * sensitivity_rows(model, q, test_pose.w):
            s = np.linalg.svd(block, compute_uv=False)
            assert s[-1] <= 1e-10 * s[0]
        A0 = sensitivity_rows(model, test_pose.q, test_pose.w, tool_only=True)
        info = _information(_frames(model, q), test_pose.w, 3)
        assert (_bucket_variance(info, A0) > 0).all()
        with pytest.raises(IdentifiabilityError,
                           match=r"rank-deficient information for joint-2 bucket at -25\.24 deg"):
            pose_accuracy(model, plan, test_pose, NOISE)

    def test_rank_rule_stacks_each_bucket_rows(self, model, test_pose):
        """A bucket passes when its configurations' rows together have full
        rank, though the first alone has not: the rule reads the stacked
        rows of the bucket, not its entries one by one."""
        wrist = [(0.3, 0.2, 0.5, 1e-9, 0.1), (1.2, -0.7, 1.9, 1.1, -2.0),
                 (-0.9, 0.6, -1.3, 0.7, 2.4)]
        plan = CalibrationPlan(tuple(
            PlanEntry((q1, math.radians(b), q3, q4, q5, q6), test_pose.wrench, 3)
            for b in (-0.01, -56.9, -140.0) for q1, q3, q4, q5, q6 in wrist))
        acc = pose_accuracy(model, plan, test_pose, NOISE)
        assert math.isfinite(acc.rho0_mm)
        single = CalibrationPlan(plan.entries[:1] + plan.entries[4:])
        with pytest.raises(IdentifiabilityError, match=r"bucket at -0\.01 deg"):
            pose_accuracy(model, single, test_pose, NOISE)

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


def _plan_lsq(model, plan: CalibrationPlan):
    """The stage-one regressor of the plan's noise-free linear records,
    factored and rank-checked as the identification does."""
    records = simulate_deflection_records(model, plan, response="linear")
    return factor_regressor(build_regressor(model, records, plan.layout())[0],
                            plan.layout())


def _plan_covariance(model, plan: CalibrationPlan) -> np.ndarray:
    """sigma^2 root root^T of the plan's factored stage-one regressor."""
    root = _plan_lsq(model, plan).root
    return NOISE.sigma_mm**2 * root @ root.T


class TestParameterCovariance:
    """The compliance covariance a plan implies, read off the factored
    stage-one regressor of its records."""

    def test_duplicating_plan_halves_covariance(self, model, plan):
        c1 = _plan_covariance(model, plan)
        c2 = _plan_covariance(model, replicated(plan, 2))
        assert np.allclose(c2, c1 / 2.0, rtol=1e-9, atol=0.0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            NoiseModel(sigma_mm=-0.01)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="sigma_mm must be finite and non-negative"):
            NoiseModel(sigma_mm=sigma)

    def test_matches_dense_regressor(self, model, plan):
        cov = _plan_covariance(model, plan)
        # oracle: sigma^2 (B^T B)^-1 of the dense regressor of one dummy
        # record per marker and repeat
        records = table((e.q, e.w, m, np.zeros(3), r)
                        for e in plan.entries for m in range(len(model.markers))
                        for r in range(e.repeats))
        B, _ = build_regressor(model, records, plan.layout())
        ref = NOISE.sigma_mm**2 * np.linalg.inv(B.T @ B)
        assert np.linalg.norm(cov - ref) <= 1e-9 * np.linalg.norm(ref)

    def test_singular_plan_reports_unobservable(self, model):
        dead = CalibrationPlan((PlanEntry(
            tuple(np.radians([0, -70, 0, 0, 0, 0])), (0.0,) * 6),))
        with pytest.raises(IdentifiabilityError, match="unobservable"):
            _plan_lsq(model, dead)

    def test_matches_fit_pseudo_inverse(self, model, plan):
        ref = _fit_covariance(model, plan)
        cov = _plan_covariance(model, plan)
        assert np.linalg.norm(cov - ref) <= 1e-9 * np.linalg.norm(ref)


def _fit_covariance(model, plan: CalibrationPlan) -> np.ndarray:
    """sigma^2 P P^T, with P numpy's pseudo-inverse of the stage-one
    regressor of the plan's noise-free linear records."""
    P = np.linalg.pinv(build_regressor(
        model, simulate_deflection_records(model, plan, response="linear"),
        plan.layout())[0])
    return NOISE.sigma_mm**2 * P @ P.T


def _weak_bucket_plan(scale: float) -> CalibrationPlan:
    """``spread_plan()`` plus entry 0's pose in a new -70 deg bucket under
    ``scale`` times its wrench: the regressor's smallest singular value,
    relative to its largest, falls to about 2.6e-1 * scale."""
    base = spread_plan()
    e0 = base.entries[0]
    q = (e0.q_rad[0], math.radians(-70.0)) + e0.q_rad[2:]
    weak = PlanEntry(q, tuple(scale * w for w in e0.wrench), e0.repeats)
    return CalibrationPlan(base.entries + (weak,))


class TestOneRankRule:
    """The stage-one rank cut ``RANK_TOL`` keeps a weak bucket and rejects
    a rank-deficient one, naming its null direction."""

    @pytest.mark.parametrize("scale", [1e-3, 1e-5, 1e-7])
    def test_weak_bucket_accepted(self, model, scale):
        plan = _weak_bucket_plan(scale)
        ref = _fit_covariance(model, plan)
        cov = _plan_covariance(model, plan)
        assert np.linalg.norm(cov - ref) <= 1e-6 * np.linalg.norm(ref)

    def test_rank_deficient_bucket_rejected(self, model):
        plan = _weak_bucket_plan(1e-11)
        with pytest.raises(IdentifiabilityError, match="unobservable") as err:
            _plan_lsq(model, plan)
        assert err.value.null_directions.shape == (plan.layout().n_params, 1)


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

    def test_pinned_result(self, model, test_pose):
        """q2..q6 and rho0^2 of a small search, as recorded before the line
        search scored its grid as one stack (q1 does not move rho0 under a
        vertical load, so its ties are not pinned)."""
        opt = optimize_plan(model, test_pose, np.radians((-0.01, -70.0, -140.0)),
                            CONSTRAINTS, NOISE, n_starts=1, configs_per_bucket=2,
                            repeats=1, n_grid=5, n_levels=2, seed=3)
        expected = [
            [-0.00017453292519943296, -0.5945027764605684, 4.444343506773226,
             0.35132952211905755, 1.5271630954950384],
            [-0.00017453292519943296, 0.5048645333837298, -4.920654926942245,
             1.6035212502697904, -4.7198866714654],
            [-1.2217304763960306, 1.5053464798451093, 3.817907738737596,
             0.0, 2.1421551839867674],
            [-1.2217304763960306, -1.1944597068336191, 1.8148465007293444,
             1.3362677085581587, -2.532393780559865],
            [-2.443460952792061, -0.8944812416470937, 4.581489286485115,
             -0.8017606251348952, 4.785653527045611],
            [-2.443460952792061, -0.13224956775858554, 1.811545416368273,
             -1.7047077090271914, 1.7649741013794311],
        ]
        q = np.array([e.q_rad[1:] for e in opt.plan.entries])
        np.testing.assert_allclose(q, expected, rtol=1e-12, atol=0.0)
        assert opt.accuracy.rho0_sq_mm2 == pytest.approx(0.0048589076105281645,
                                                         rel=1e-12)

    SMALL = dict(configs_per_bucket=2, repeats=1, n_grid=5, n_levels=2)
    BUCKETS3 = tuple(np.radians((-0.01, -70.0, -140.0)))
    TWO_WINDOWS = ((math.radians(-60.0), math.radians(-20.0)),
                   (math.radians(10.0), math.radians(50.0)))
    ROLLED = FrameSpec(rotation_rpy_rad=(math.pi / 2, 0.0, 0.0))   # joint 1 horizontal

    def q1_draws(self, cons, seed):
        """q1 of each entry of the first random start."""
        rng = np.random.default_rng((seed, 0))
        return [_random_config(rng, b, cons)[0] for b in sorted(self.BUCKETS3, reverse=True)
                for _ in range(self.SMALL["configs_per_bucket"])]

    # the ``design`` benchmark workload's size: about 100 accepted moves per
    # start, each carrying its turned frames into the next line search
    DESIGN = dict(configs_per_bucket=3, repeats=3, n_grid=7, n_levels=3)

    @pytest.mark.parametrize("n_starts, windows, seed, tilt, design", [
        (1, None, 3, False, False),            # the pinned problem
        (3, TWO_WINDOWS, 11, False, False),
        (3, TWO_WINDOWS, 11, True, False),     # q1 searched over both windows
        (2, ((-1.0, -0.2), (-0.2, 0.6)), 5, True, False),   # windows sharing an end
        (2, None, 1, False, True),             # the design workload, seed 1
    ])
    def test_lockstep_matches_sequential_search(self, model, test_pose, n_starts,
                                                windows, seed, tilt, design):
        """Stacking every start and bucket into one line search picks the
        same q2..q6 as searching them one at a time, q1 included (and the
        same q1 where it moves rho0)."""
        if tilt:
            model = dataclasses.replace(model, base=self.ROLLED)
        cons = PlanConstraints(CONSTRAINTS.joint_limits_rad, q1_intervals_rad=windows)
        buckets = tuple(np.radians(BUCKETS_DEG)) if design else self.BUCKETS3
        kw = dict(self.DESIGN if design else self.SMALL, n_starts=n_starts, seed=seed)
        opt = optimize_plan(model, test_pose, buckets, cons, NOISE, **kw)
        plan, rho_sq, start_values, n_eval = optimize_plan_sequential(
            model, test_pose, buckets, cons, NOISE, **kw)
        q = np.array([e.q_rad for e in opt.plan.entries])
        q_seq = np.array([e.q_rad for e in plan.entries])
        first = 0 if tilt else 1
        assert np.array_equal(q[:, first:], q_seq[:, first:])
        assert opt.accuracy.rho0_sq_mm2 == pytest.approx(rho_sq, rel=1e-12)
        assert opt.start_values_mm2 == start_values
        if tilt:   # the same grids, whose sizes the counts add up
            assert opt.n_evaluations == n_eval

    def test_starts_do_not_interact(self, model, test_pose):
        kw = dict(self.SMALL, seed=4)
        two = optimize_plan(model, test_pose, self.BUCKETS3, CONSTRAINTS, NOISE,
                            n_starts=2, **kw)
        four = optimize_plan(model, test_pose, self.BUCKETS3, CONSTRAINTS, NOISE,
                             n_starts=4, **kw)
        assert len(four.start_values_mm2) == 4
        assert four.start_values_mm2[:2] == two.start_values_mm2
        assert four.accuracy.rho0_sq_mm2 <= two.accuracy.rho0_sq_mm2 * (1.0 + 1e-12)

    def test_q1_keeps_its_draw_under_axial_load(self, model, test_pose, tmp_path,
                                                monkeypatch):
        """Under the vertical load q1 cannot move rho0: plan.csv holds the
        random draw, and no evaluated pose has a q1 off the draws."""
        seen = []
        frames, candidates = doe._frames, doe._candidates

        def framing(model, q):
            if np.ndim(q) > 1:   # the starts and the final plan, not the test pose
                seen.append(np.reshape(q, (-1, 6)))
            return frames(model, q)

        def turning(q, F, joint, counts, grid):
            q_try, F_try = candidates(q, F, joint, counts, grid)
            seen.append(q_try)
            return q_try, F_try

        monkeypatch.setattr(doe, "_frames", framing)
        monkeypatch.setattr(doe, "_candidates", turning)
        cons = PlanConstraints(CONSTRAINTS.joint_limits_rad,
                               q1_intervals_rad=self.TWO_WINDOWS)
        opt = optimize_plan(model, test_pose, self.BUCKETS3, cons, NOISE,
                            n_starts=1, seed=2, **self.SMALL)
        assert opt.searched_joints == (3, 4, 5, 6)
        draws = self.q1_draws(cons, seed=2)
        save_plan_csv(tmp_path / "plan.csv", opt.plan)
        with open(tmp_path / "plan.csv", newline="") as fh:
            q1_deg = [row["q1_deg"] for row in csv.DictReader(fh)]
        assert q1_deg == [f"{math.degrees(v):.10g}" for v in draws]
        # the last recorded frames score the final plan; the rest are the search's
        evaluated = np.concatenate(seen[:-1])
        assert len(evaluated) == opt.n_evaluations
        assert set(evaluated[:, 0].tolist()) == set(draws)

    def test_q1_searched_when_its_axis_is_horizontal(self, model, test_pose):
        """A base rolled by 90 deg lays joint 1 horizontal: the vertical load
        then has a lever about it, so q1 is searched, inside its windows."""
        tilted = dataclasses.replace(model, base=self.ROLLED)
        cons = PlanConstraints(CONSTRAINTS.joint_limits_rad,
                               q1_intervals_rad=self.TWO_WINDOWS)
        opt = optimize_plan(tilted, test_pose, self.BUCKETS3, cons, NOISE,
                            n_starts=1, seed=2, **self.SMALL)
        assert opt.searched_joints == (1, 3, 4, 5, 6)
        draws = self.q1_draws(cons, seed=2)
        q1 = [e.q_rad[0] for e in opt.plan.entries]
        assert q1 != draws
        assert all(any(lo <= v <= hi for lo, hi in self.TWO_WINDOWS) for v in q1)

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

    @pytest.mark.parametrize("bucket_deg", [30.0, -140.001, 0.0])
    def test_bucket_outside_joint2_limits_rejected(self, model, test_pose, bucket_deg):
        """Joint 2 is pinned to each bucket, so each must lie within its
        limits; the limits themselves are allowed (the -140 deg bucket)."""
        buckets = np.radians((-0.01, -70.0, -140.0, bucket_deg))
        with pytest.raises(ValueError, match="outside joint 2's limits"):
            optimize_plan(model, test_pose, buckets, CONSTRAINTS, NOISE, n_starts=1)

    @pytest.mark.parametrize("count, value, least", [
        ("configs_per_bucket", 0, 1), ("repeats", 0, 1), ("n_starts", 0, 1),
        ("n_grid", 1, 2), ("n_grid", 0, 2), ("n_grid", -1, 2), ("n_levels", -1, 0)])
    def test_counts_below_their_least_rejected(self, model, test_pose, count, value,
                                               least):
        with pytest.raises(ValueError, match=f"{count} must be >= {least}, got {value}"):
            optimize_plan(model, test_pose, np.radians(BUCKETS_DEG),
                          CONSTRAINTS, NOISE, **{count: value})

    def test_no_levels_keeps_the_best_start(self, model, test_pose):
        opt = optimize_plan(model, test_pose, self.BUCKETS3, CONSTRAINTS, NOISE,
                            n_starts=3, n_levels=0, seed=4, configs_per_bucket=2)
        assert opt.n_evaluations == 3 * 3 * 2
        assert opt.accuracy.rho0_sq_mm2 == pytest.approx(min(opt.start_values_mm2),
                                                         rel=1e-12)

    def test_no_finite_start_raises(self, model, test_pose):
        """A load so small that every information matrix underflows to zero
        leaves every bucket of every candidate singular."""
        cons = PlanConstraints(joint_limits_rad=CONSTRAINTS.joint_limits_rad,
                               load_magnitude_N=1e-300)
        with pytest.raises(IdentifiabilityError, match="no random start"):
            optimize_plan(model, test_pose, np.radians(BUCKETS_DEG), cons, NOISE,
                          n_starts=1, configs_per_bucket=1, n_grid=3, n_levels=1)

    def test_singular_bucket_does_not_freeze_its_start(self, model, test_pose,
                                                       monkeypatch):
        """q5 = 0 aligns joints 4 and 6 in every random configuration of the
        -56.9 deg bucket, so the start's metric is infinite.  Each bucket
        descends on its own, so the search still ends on a finite plan."""
        draw = doe._random_config

        def aligned(rng, q2, constraints):
            q = draw(rng, q2, constraints)
            if q2 == pytest.approx(math.radians(-56.9)):
                q[4] = 0.0
            return q

        monkeypatch.setattr(doe, "_random_config", aligned)
        opt = optimize_plan(model, test_pose, np.radians(BUCKETS_DEG), CONSTRAINTS, NOISE,
                            n_starts=1, seed=0, repeats=1, configs_per_bucket=2)
        assert opt.start_values_mm2 == (math.inf,)
        assert math.isfinite(opt.accuracy.rho0_mm)
        assert opt.accuracy.rho0_mm < 0.1


class TestConstraints:
    def test_limit_validation(self):
        with pytest.raises(ValueError, match="six"):
            PlanConstraints(joint_limits_rad=((0.0, 1.0),) * 5)
        with pytest.raises(ValueError, match="load magnitude"):
            PlanConstraints(joint_limits_rad=((0.0, 1.0),) * 6,
                            load_magnitude_N=-5.0)

    @pytest.mark.parametrize("field, kwargs", [
        ("load_magnitude_N", dict(load_magnitude_N=math.nan)),
        ("load_magnitude_N", dict(load_magnitude_N=math.inf)),
        ("joint_limits_rad", dict(joint_limits_rad=((0.0, 1.0),) * 5 + ((math.nan, 1.0),))),
        ("joint_limits_rad", dict(joint_limits_rad=((0.0, 1.0),) * 5 + ((0.0, math.inf),))),
        ("q1_intervals_rad", dict(q1_intervals_rad=((math.nan, 0.5),))),
    ])
    def test_non_finite_values_rejected(self, field, kwargs):
        kwargs = dict(joint_limits_rad=((0.0, 1.0),) * 6) | kwargs
        with pytest.raises(ValueError, match=field):
            PlanConstraints(**kwargs)

    def test_wrench_is_gravity_direction(self):
        w = CONSTRAINTS.wrench()
        assert np.allclose(w, [0, 0, -2600.0, 0, 0, 0])

    def test_q1_windows_inside_joint1_limits(self):
        lim = CONSTRAINTS.joint_limits_rad
        edge = PlanConstraints(lim, q1_intervals_rad=(lim[0],))     # ends included
        assert edge.q1_windows() == (lim[0],)
        with pytest.raises(ValueError, match=r"q1 window 200\.\.260 deg outside "
                                             r"joint 1's limits -185\.\.185 deg"):
            PlanConstraints(lim, q1_intervals_rad=((0.0, 0.5),
                                                   (math.radians(200.0),
                                                    math.radians(260.0))))

    def test_q1_windows_default_to_limits(self):
        assert CONSTRAINTS.q1_windows() == (CONSTRAINTS.joint_limits_rad[0],)
