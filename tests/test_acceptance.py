"""End-to-end acceptance checks.

Each criterion runs as one test with a wall-clock budget and reports a
single PASS/FAIL line (echoed in the terminal summary).  Tolerances are the
contract: loosening them here is not an option, fix the library instead.
"""
import math
import time
import warnings
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from oracles import fd_jacobian, kasa_fit
from plans import BUCKETS_DEG, LIMITS_DEG, TEST_Q_DEG, replicated, spread_plan
from stiffcal.circle_fit import fit_circle_procrustes
from stiffcal.compensator import (CompensatorElastics, CompensatorGeometry,
                                  CompensatorParams, compensator_torque,
                                  equivalent_joint_stiffness)
from stiffcal.doe import NoiseModel, PlanConstraints, TestPose
from stiffcal.doe import test_pose_accuracy as pose_accuracy
from stiffcal.doe import optimize_plan, sensitivity_rows, CalibrationPlan, PlanEntry
from stiffcal.elasto_id import (build_regressor, confidence_intervals_elasto,
                                identify_elastostatics, ParameterLayout)
from stiffcal.errors import IdentifiabilityError
from stiffcal.geometry_id import (confidence_intervals_geometry,
                                  identify_compensator_geometry, load_marker_csv)
from stiffcal.robot import (chain_state, gravity_loading, hessian_theta,
                            load_torques, _point_jacobian)
from stiffcal.sim import (GroundTruth, simulate_deflection_records,
                          simulate_geometry_dataset)
from stiffcal.stiffness import (cartesian_stiffness, joint_stiffnesses,
                                solve_equilibrium)
from stiffcal.robot import Pose
from stiffcal.transforms import pose_difference, rot_from_rotvec

TRUE_GEOM = CompensatorGeometry(L_mm=185.0, ax_mm=25.0, ay_mm=695.0)
LIMITS_RAD = tuple((math.radians(a), math.radians(b)) for a, b in LIMITS_DEG)
CONSTRAINTS = PlanConstraints(joint_limits_rad=LIMITS_RAD, load_magnitude_N=2600.0)
TEST = TestPose(tuple(np.radians(TEST_Q_DEG)), tuple(CONSTRAINTS.wrench()))
NOISE = NoiseModel(sigma_mm=0.05)


@contextmanager
def criterion(request, num, desc, budget_s):
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        dt = time.perf_counter() - t0
        assert dt <= budget_s, (
            f"criterion {num} blew its {budget_s:.0f} s budget: {dt:.1f} s")
        ok = True
    finally:
        dt = time.perf_counter() - t0
        line = (f"criterion {num}: {desc}: {'PASS' if ok else 'FAIL'} "
                f"({dt:.2f} s / budget {budget_s:.0f} s)")
        lines = getattr(request.config, "_criterion_lines", [])
        request.config._criterion_lines = lines + [line]
        print(line)


def test_criterion_1_linkage_geometry_from_sweep_table(request, table1_path):
    with criterion(request, 1, "linkage geometry from the shipped sweep table", 1.0):
        ds = load_marker_csv(table1_path)
        est = identify_compensator_geometry(ds)
        assert abs(est.L_mm - 184.72) <= 0.2
        assert abs(est.ax_mm - 685.93) <= 2.0
        assert abs(est.ay_mm - 120.30) <= 2.0


def test_criterion_2_geometry_round_trip_and_coverage(request):
    with criterion(request, 2, "geometric identification round trip + CI coverage",
                   30.0):
        sweep = np.radians(np.linspace(-140.0, -0.01, 8))
        # noise-free round trip to numerical precision
        ds = simulate_geometry_dataset(replace(TRUE_GEOM, q2_sign=-1.0), sweep,
                                       p2_xy=(0.16, 1.84), crank_phase_rad=0.4)
        est = identify_compensator_geometry(ds)
        assert abs(est.L_mm - 185.0) < 1e-9
        assert abs(est.ax_mm - 25.0) < 1e-9
        assert abs(est.ay_mm - 695.0) < 1e-9
        # noisy trials: the 3-sigma intervals must cover the truth >= 95%
        trials = 200
        hits = 0
        for t in range(trials):
            noisy = simulate_geometry_dataset(TRUE_GEOM, sweep, noise_mm=0.05,
                                              seed=2000 + t)
            e = identify_compensator_geometry(noisy)
            ci = confidence_intervals_geometry(noisy, e, n_samples=100,
                                               seed=3000 + t)
            hits += (abs(e.L_mm - 185.0) <= ci.halfwidth3_L_mm
                     and abs(e.ax_mm - 25.0) <= ci.halfwidth3_ax_mm
                     and abs(e.ay_mm - 695.0) <= ci.halfwidth3_ay_mm)
        assert hits >= 0.95 * trials, f"coverage {hits}/{trials}"


def test_criterion_3_elasto_round_trip_coverage_ordering(request, model):
    with criterion(request, 3, "elastostatic round trip + CI coverage/ordering",
                   120.0):
        plan = spread_plan()
        truth = GroundTruth.from_model(model)
        # noise-free: every one of the seven parameters to 1e-6 relative
        clean = simulate_deflection_records(model, plan, response="linear")
        est0 = identify_elastostatics(model, clean)
        rel = np.abs(est0.parameter_values() - truth.values) / np.abs(truth.values)
        assert np.max(rel) < 1e-6, f"worst relative error {np.max(rel):.2e}"
        # noisy trials: 3-sigma intervals cover all seven params >= 95%
        trials = 200
        hits = 0
        pct_sum = None
        for t in range(trials):
            recs = simulate_deflection_records(model, plan, noise_mm=0.05,
                                               seed=5000 + t, response="linear")
            e = identify_elastostatics(model, recs)
            ci = confidence_intervals_elasto(e, n_samples=150, seed=6000 + t)
            hits += bool(np.all(np.abs(ci.values - truth.values)
                                <= ci.halfwidth3))
            pct_sum = ci.percent if pct_sum is None else pct_sum + ci.percent
        assert hits >= 0.95 * trials, f"coverage {hits}/{trials}"
        # interval ordering: arm joints sharpest, compensator constants widest
        mean_pct = dict(zip(ci.labels, pct_sum / trials))
        tightest = min(mean_pct, key=mean_pct.get)
        widest = max(mean_pct, key=mean_pct.get)
        assert tightest in ("k2", "k3"), f"tightest was {tightest}"
        assert widest in ("Kc", "s0"), f"widest was {widest}"


def test_criterion_4_compensator_stiffness_torque_consistency(request):
    with criterion(request, 4, "equivalent stiffness equals -dM/dq2", 5.0):
        rng = np.random.default_rng(42)
        h = 1e-6
        worst = 0.0
        for _ in range(1000):
            L = rng.uniform(100.0, 250.0)
            a = rng.uniform(1.3 * L, 5.0 * L)
            alpha = rng.uniform(-math.pi, math.pi)
            el = CompensatorElastics(Kc_N_per_mm=rng.uniform(500.0, 10000.0),
                                     s0_mm=rng.uniform(0.0, 700.0))
            geom = CompensatorGeometry(L_mm=L, ax_mm=a * math.cos(alpha),
                                       ay_mm=a * math.sin(alpha),
                                       q2_sign=rng.choice([-1.0, 1.0]))
            params = CompensatorParams(geometry=geom, elastics=el)
            q2 = rng.uniform(-2.5, 2.5)
            K0 = rng.uniform(1e7, 1e9)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                keq = equivalent_joint_stiffness(params, K0, q2)
            dM = (compensator_torque(params, q2 + h)
                  - compensator_torque(params, q2 - h)) / (2.0 * h)
            analytic = keq - K0
            scale = el.Kc_N_per_mm * geom.a_mm * geom.L_mm
            rel = abs(analytic + dM) / max(abs(analytic), 1e-6 * scale)
            worst = max(worst, rel)
        assert worst < 1e-6, f"worst relative mismatch {worst:.2e}"


def test_criterion_5_cartesian_stiffness_exactness(request, model, weightless):
    with criterion(request, 5, "Cartesian stiffness symmetry/reduction/FD probes",
                   30.0):
        comp = model.compensator
        q = np.radians(TEST_Q_DEG)
        # symmetry of the compliance form before any cleanup
        st = solve_equilibrium(model, comp, q,
                               tool_wrench=(0, 0, -2600.0, 0, 0, 0))
        K = np.diag(joint_stiffnesses(model, comp, q))
        cs = chain_state(model, q, st.theta)
        H = hessian_theta(cs, gravity_loading(model), st.tool_wrench)
        J = _point_jacobian(cs, cs.tool_p)
        S = J @ np.linalg.solve(K - H, J.T)
        assert np.max(np.abs(S - S.T)) <= 1e-9 * np.max(np.abs(S))
        Kc = cartesian_stiffness(model, comp, st).matrix
        assert np.max(np.abs(Kc - Kc.T)) <= 1e-9 * np.max(np.abs(Kc))
        # no gravity, no load: collapse to the kinematic formula
        st0 = solve_equilibrium(weightless, comp, q)
        Kc0 = cartesian_stiffness(weightless, comp, st0).matrix
        cs0 = chain_state(weightless, q, np.zeros(6))
        J0 = _point_jacobian(cs0, cs0.tool_p)
        ref = np.linalg.inv(J0 @ np.linalg.solve(K, J0.T))
        assert np.max(np.abs(Kc0 - ref)) <= 1e-9 * np.max(np.abs(ref))
        # finite-difference probes across three load decades
        for F_mag in (26.0, 260.0, 2600.0):
            w = np.array([0.0, 0.0, -F_mag, 0.0, 0.0, 0.0])
            stf = solve_equilibrium(model, comp, q, tool_wrench=w)
            Kc = cartesian_stiffness(model, comp, stf).matrix
            for k in range(6):
                h = 1e-3 if k < 3 else 1e-6
                tw = np.zeros(6)
                tw[k] = h
                plus = Pose(stf.pose.p + tw[:3],
                            rot_from_rotvec(tw[3:]) @ stf.pose.R)
                minus = Pose(stf.pose.p - tw[:3],
                             rot_from_rotvec(-tw[3:]) @ stf.pose.R)
                Fp = solve_equilibrium(model, comp, q, target=plus).tool_wrench
                Fm = solve_equilibrium(model, comp, q, target=minus).tool_wrench
                col = (Fp - Fm) / (2.0 * h)
                err = np.linalg.norm(col - Kc[:, k])
                assert err <= 1e-3 * np.linalg.norm(Kc[:, k]), (
                    f"F={F_mag} N, twist axis {k}: relative error "
                    f"{err / np.linalg.norm(Kc[:, k]):.2e}")


def test_criterion_6_jacobian_hessian_vs_finite_differences(request, model):
    with criterion(request, 6, "chain Jacobian/Hessian against finite differences",
                   10.0):
        rng = np.random.default_rng(6)
        h = 1e-6
        worst_J = 0.0
        worst_H = 0.0
        for _ in range(100):
            q = np.array([rng.uniform(lo, hi) for lo, hi in LIMITS_RAD])
            theta = 1e-3 * rng.standard_normal(6)
            # marker Jacobian, all six twist rows
            st = chain_state(model, q, theta)
            Jan = _point_jacobian(st, st.tool_R @ model.markers[0] + st.tool_p)
            Jfd = np.zeros((6, 6))
            for j in range(6):
                e = np.zeros(6)
                e[j] = h
                stp = chain_state(model, q, theta + e)
                stm = chain_state(model, q, theta - e)
                pp = stp.tool_R @ model.markers[0] + stp.tool_p
                pm = stm.tool_R @ model.markers[0] + stm.tool_p
                Jfd[:, j] = pose_difference(pp, stp.tool_R, pm, stm.tool_R) / (2 * h)
            worst_J = max(worst_J, np.linalg.norm(Jfd - Jan)
                          / np.linalg.norm(Jan))
            # load Hessian: gravity plus a random full wrench
            loading = gravity_loading(model)
            F = np.concatenate([rng.normal(0.0, 2600.0, 3),
                                rng.normal(0.0, 1e5, 3)])
            Han = hessian_theta(st, loading, F)

            def tau(th):
                return load_torques(chain_state(model, q, th), loading, F)

            Hfd = fd_jacobian(tau, theta, h=3e-5)
            Hfd = 0.5 * (Hfd + Hfd.T)
            worst_H = max(worst_H, np.linalg.norm(Hfd - Han)
                          / np.linalg.norm(Han))
        assert worst_J < 1e-6, f"worst Jacobian mismatch {worst_J:.2e}"
        assert worst_H < 1e-4, f"worst Hessian mismatch {worst_H:.2e}"


def test_criterion_7_design_metric_and_optimizer(request, model):
    with criterion(request, 7, "design metric vs Monte Carlo + optimizer quality",
                   180.0):
        # (a) the closed-form variance equals brute-force simulation
        small = spread_plan(buckets_deg=(-0.01, -56.9, -140.0),
                            configs_per_bucket=2, repeats=1)
        lay = small.layout()
        acc = pose_accuracy(model, small, TEST, NOISE)
        A0 = sensitivity_rows(model, TEST.q, TEST.w, tool_only=True)
        stacks = []
        for b in range(lay.n_buckets):
            rows = [sensitivity_rows(model, e.q, e.w)
                    for e in small.entries
                    if lay.bucket_of(e.q_rad[1]) == b]
            stacks.append(np.vstack(rows))
        trials = 400
        err_sq = 0.0
        for t in range(trials):
            rng = np.random.default_rng((77, t))
            for Bm in stacks:
                y = NOISE.sigma_mm * rng.standard_normal(Bm.shape[0])
                dk, *_ = np.linalg.lstsq(Bm, y, rcond=None)
                err_sq += float(np.sum((A0 @ dk) ** 2))
        mc = err_sq / trials
        assert abs(mc - acc.rho0_sq_mm2) <= 0.10 * acc.rho0_sq_mm2, (
            f"MC {mc:.4e} vs metric {acc.rho0_sq_mm2:.4e}")
        # (b) replication of a plan halves the variance exactly
        acc2 = pose_accuracy(model, replicated(small, 2), TEST, NOISE)
        assert abs(acc2.rho0_sq_mm2 - acc.rho0_sq_mm2 / 2) <= 1e-12 * acc.rho0_sq_mm2
        # (c) the search beats the best of 100 random feasible plans
        opt = optimize_plan(model, TEST, np.radians(BUCKETS_DEG), CONSTRAINTS,
                            NOISE, n_starts=5, seed=0)
        rng = np.random.default_rng(123)
        best_random = math.inf
        for _ in range(100):
            entries = []
            for b_deg in BUCKETS_DEG:
                for _c in range(3):
                    qv = [rng.uniform(lo, hi) for lo, hi in LIMITS_RAD]
                    qv[1] = math.radians(b_deg)
                    entries.append(PlanEntry(tuple(qv),
                                             tuple(CONSTRAINTS.wrench()), 3))
            try:
                val = pose_accuracy(model, CalibrationPlan(tuple(entries)),
                                    TEST, NOISE).rho0_sq_mm2
            except IdentifiabilityError:
                continue
            best_random = min(best_random, val)
        assert opt.accuracy.rho0_sq_mm2 <= best_random, (
            f"optimized {opt.accuracy.rho0_sq_mm2:.4e} vs best random "
            f"{best_random:.4e}")


def test_criterion_8_regressor_shape_from_reference_plan(request, model):
    with criterion(request, 8, "reference plan yields the full regressor stack",
                   10.0):
        plan = spread_plan()  # 5 buckets x 3 configurations, 3 repeats
        records = simulate_deflection_records(model, plan, response="linear")
        assert len(records) == 5 * 3 * 3 * 3  # buckets x configs x repeats x markers
        B, y = build_regressor(model, records,
                               ParameterLayout.from_q2(records.q_rad[:, 1]))
        assert B.shape == (405, 9)  # 135 records x 3 axes; 5 + 4 parameters
        assert y.shape == (405,)
        assert np.linalg.matrix_rank(B) == 9


def test_criterion_9_annotated_fit_beats_algebraic_on_short_arcs(request):
    with criterion(request, 9, "angle-annotated circle fit vs algebraic baseline",
                   30.0):
        rng = np.random.default_rng(99)
        sq_proc = 0.0
        sq_kasa = 0.0
        for _ in range(100):
            span = rng.uniform(math.radians(30.0), math.radians(85.0))
            angles = np.linspace(-span, 0.0, 10)
            center = rng.uniform(-50.0, 50.0, 2)
            phase = rng.uniform(-math.pi, math.pi)
            pts = center + 200.0 * np.stack(
                [np.cos(angles + phase), np.sin(angles + phase)], axis=1)
            pts = pts + 0.5 * rng.standard_normal(pts.shape)
            cp = fit_circle_procrustes(pts, angles).center
            ck, _ = kasa_fit(pts)
            sq_proc += float(np.sum((cp - center) ** 2))
            sq_kasa += float(np.sum((ck - center) ** 2))
        rmse_proc = math.sqrt(sq_proc / 100.0)
        rmse_kasa = math.sqrt(sq_kasa / 100.0)
        assert rmse_proc <= rmse_kasa, (
            f"annotated fit RMSE {rmse_proc:.3f} mm vs algebraic "
            f"{rmse_kasa:.3f} mm")
