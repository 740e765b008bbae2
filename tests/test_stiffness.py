import dataclasses

import numpy as np
import pytest

import oracles
from stiffcal import load_model, stiffness
from plans import LIMITS_DEG
from stiffcal.errors import ConvergenceError, SingularConfigurationError
from stiffcal.robot import (ManipulatorModel, Pose, _marker_points, _point_jacobian,
                            chain_state, fk, gravity_loading, hessian_theta)
from stiffcal.stiffness import (
    cartesian_stiffness,
    compensate_target,
    joint_stiffnesses,
    loaded_equilibrium,
    predict_marker_deflections,
    predict_tool_deflection,
    solve_equilibria,
    solve_equilibrium,
)

TEST_Q = np.radians([79.20, -0.01, -5.57, 51.00, -97.52, -91.67])
LOAD = np.array([0.0, 0.0, -2600.0, 0.0, 0.0, 0.0])
# wrist straight (q5 = 0): joints 4 and 6 turn about one line, the tool
# Jacobian at theta = 0 loses a rank
WRIST_STRAIGHT_Q = np.radians([10.0, -60.0, 20.0, 30.0, 0.0, 40.0])


@pytest.fixture(scope="module")
def comp(model):
    return model.compensator


class TestJointStiffness:
    def test_diagonal_inverse_compliance(self, model):
        K = joint_stiffnesses(model, None, TEST_Q)
        assert K.shape == (6,)
        assert np.allclose(K, 1.0 / model.compliances)

    def test_compensator_changes_only_joint2(self, model, comp):
        K0 = joint_stiffnesses(model, None, TEST_Q)
        K1 = joint_stiffnesses(model, comp, TEST_Q)
        d = K1 - K0
        assert d[1] != 0.0
        d[1] = 0.0
        assert np.allclose(d, 0.0)

    def test_zero_compliance_rejected(self, model, comp):
        """A model with zero compliances builds without a warning and is
        refused, naming those joints as plain numbers, on every call, with
        or without a compensator; the other models keep their stiffnesses."""
        joints = list(model.joints)
        for i in (0, 2):
            joints[i] = dataclasses.replace(joints[i], compliance_rad_per_Nmm=0.0)
        broken = ManipulatorModel(joints=joints, base=model.base, tool=model.tool)
        for _ in range(2):
            for c in (None, comp):
                with pytest.raises(SingularConfigurationError, match=(
                        r"^zero compliance at joint\(s\) \[1, 3\]: "
                        "infinite stiffness unsupported in inverse form$")):
                    joint_stiffnesses(broken, c, TEST_Q)
        with pytest.raises(SingularConfigurationError, match="infinite stiffness"):
            solve_equilibrium(broken, comp, TEST_Q)
        assert joint_stiffnesses(model, None, TEST_Q).tobytes() == (
            1.0 / model.compliances).tobytes()


class TestEquilibrium:
    def test_no_load_no_gravity_is_rigid(self, weightless, comp):
        st = solve_equilibrium(weightless, comp, TEST_Q)
        assert st.converged
        assert np.allclose(st.theta, 0.0, atol=1e-15)
        rigid = fk(weightless, TEST_Q)
        assert np.allclose(st.pose.p, rigid.p, atol=1e-12)

    def test_gravity_sag_is_small_but_nonzero(self, model, comp):
        st = solve_equilibrium(model, comp, TEST_Q)
        assert st.converged
        rigid = fk(model, TEST_Q)
        sag = np.linalg.norm(st.pose.p - rigid.p)
        assert 0.1 < sag < 20.0

    def test_vertical_load_pushes_tool_down(self, model, comp):
        st_g = solve_equilibrium(model, comp, TEST_Q)
        st_f = solve_equilibrium(model, comp, TEST_Q, tool_wrench=LOAD)
        assert st_f.converged
        drop = st_f.pose.p[2] - st_g.pose.p[2]
        assert -20.0 < drop < -0.5

    def test_dual_recovers_primal_wrench(self, model, comp):
        st_f = solve_equilibrium(model, comp, TEST_Q, tool_wrench=LOAD)
        st_d = solve_equilibrium(model, comp, TEST_Q, target=st_f.pose)
        assert st_d.converged
        # dual stops on position residual; wrench agreement follows to ~1e-4 rel
        assert np.allclose(st_d.tool_wrench, LOAD, atol=0.5)
        assert np.allclose(st_d.theta, st_f.theta, atol=1e-9)

    def test_both_load_descriptions_rejected(self, model, comp):
        pose = Pose(np.zeros(3), np.eye(3))
        with pytest.raises(ValueError, match="not both"):
            solve_equilibrium(model, comp, TEST_Q, tool_wrench=LOAD, target=pose)

    def test_iteration_cap_flags_not_raises(self, model, comp, monkeypatch):
        monkeypatch.setattr(stiffness, "_MAX_ITER", 1)
        st = solve_equilibrium(model, comp, TEST_Q, tool_wrench=LOAD)
        assert not st.converged
        assert st.iterations == 1

    def test_dual_zero_iteration_cap_flags_not_raises(self, model, comp, monkeypatch):
        monkeypatch.setattr(stiffness, "_MAX_ITER", 0)
        st = solve_equilibrium(model, comp, TEST_Q, target=fk(model, TEST_Q))
        assert not st.converged and st.iterations == 0
        assert np.array_equal(st.theta, np.zeros(6))

    def test_dual_at_singular_pose_raises(self, model, comp):
        with pytest.raises(SingularConfigurationError, match="singular tool Jacobian"):
            solve_equilibrium(model, comp, WRIST_STRAIGHT_Q,
                              target=fk(model, WRIST_STRAIGHT_Q))

    def test_wrench_balance_residual_small(self, model, comp):
        st = solve_equilibrium(model, comp, TEST_Q, tool_wrench=LOAD)
        assert st.residual_wrench_rel < 1e-10

    def test_primal_mode_reports_no_position_residual(self, model, comp):
        """Primal mode has no target to measure against: nan, as a float for
        one pose and one per pose for a stack; dual mode measures its own."""
        one = solve_equilibrium(model, comp, TEST_Q, tool_wrench=LOAD)
        assert type(one.residual_position_mm) is float and np.isnan(one.residual_position_mm)
        stack = solve_equilibria(model, comp, np.stack([TEST_Q] * 3), np.stack([LOAD] * 3))
        assert stack.residual_position_mm.shape == (3,)
        assert np.isnan(stack.residual_position_mm).all()
        dual = solve_equilibrium(model, comp, TEST_Q, target=one.pose)
        assert 0.0 <= dual.residual_position_mm < 1e-6


def _outcome(fn, *args):
    """``fn(*args)``, or the type and message of what it raised."""
    try:
        return fn(*args)
    except SingularConfigurationError as exc:
        return type(exc), str(exc)


class TestDualOneStackPerChainState:
    @pytest.mark.parametrize("seed", [1, 7, 20131127])
    def test_matches_the_loop_that_built_each_term_apart(self, model, comp, seed):
        """On 64 seeded poses, each at its rigid pose and at that pose moved
        by N(0, 0.5 mm), the dual reading one loaded-Jacobian stack per chain
        state gives the bits of the solver that built the tool Jacobian, the
        gravity torques and the final stack by their own calls: the state,
        the stack it keeps, and the Cartesian stiffness read from that stack
        and built again for a copy without it."""
        rng = np.random.default_rng(seed)
        lim = np.radians(LIMITS_DEG)
        poses = rng.uniform(lim[:, 0], lim[:, 1], size=(64, 6))
        shifts = rng.normal(0.0, 0.5, size=(64, 3))
        for q, shift in zip(poses, shifts):
            K = joint_stiffnesses(model, comp, q)
            rigid = fk(model, q)
            for target in (rigid, Pose(rigid.p + shift, rigid.R)):
                got = _outcome(stiffness._solve_dual, model, comp, q, K, target)
                want = _outcome(oracles.solve_dual_loop, model, comp, q, K, target)
                if isinstance(want, tuple):
                    assert got == want
                    continue
                for name in ("theta", "tool_wrench"):
                    assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
                assert got.pose.p.tobytes() == want.pose.p.tobytes()
                assert got.pose.R.tobytes() == want.pose.R.tobytes()
                for name in ("residual_position_mm", "residual_wrench_rel",
                             "iterations", "converged"):
                    assert getattr(got, name) == getattr(want, name), name
                assert got._loaded[:2] == (model, comp)
                for a, b in zip(got._loaded[2:], want._loaded[2:]):
                    assert a.shape == b.shape and a.tobytes() == b.tobytes()
                kc = _outcome(cartesian_stiffness, model, comp, got)
                again = _outcome(cartesian_stiffness, model, comp,
                                 dataclasses.replace(got))
                if isinstance(again, tuple):
                    assert kc == again
                else:
                    assert kc.matrix.tobytes() == again.matrix.tobytes()


def _stiffness_formula(model, comp, st, tool_wrench):
    """``(J (K - H)^-1 J^T)^-1`` at ``st`` from ``hessian_theta`` and the tool
    point's own ``_point_jacobian``, symmetrized as ``cartesian_stiffness`` does."""
    cs = chain_state(model, st.q, st.theta)
    H = hessian_theta(cs, gravity_loading(model), tool_wrench)
    Keff = joint_stiffnesses(model, comp, st.q)[:, None] * np.eye(6) - H
    J = _point_jacobian(cs, cs.tool_p)
    S = J @ np.linalg.solve(Keff, J.T)
    ref = np.linalg.inv(0.5 * (S + S.T))
    return 0.5 * (ref + ref.T)


class TestCartesianStiffness:
    def test_symmetric(self, model, comp):
        st = solve_equilibrium(model, comp, TEST_Q, tool_wrench=LOAD)
        Kc = cartesian_stiffness(model, comp, st).matrix
        assert np.max(np.abs(Kc - Kc.T)) <= 1e-9 * np.max(np.abs(Kc))

    def test_unloaded_no_gravity_reduces_to_kinematic_form(self, weightless, comp):
        st = solve_equilibrium(weightless, comp, TEST_Q)
        Kc = cartesian_stiffness(weightless, comp, st).matrix
        K = np.diag(joint_stiffnesses(weightless, comp, TEST_Q))
        cs = chain_state(weightless, TEST_Q, np.zeros(6))
        J = _point_jacobian(cs, cs.tool_p)
        ref = np.linalg.inv(J @ np.linalg.solve(K, J.T))
        assert np.allclose(Kc, ref, rtol=1e-9, atol=1e-9 * np.max(np.abs(ref)))

    def test_singular_pose_raises(self, weightless, comp):
        """Without gravity the equilibrium stays at theta = 0, on the
        singularity (the model's gravity moves theta off it)."""
        st = solve_equilibrium(weightless, comp, WRIST_STRAIGHT_Q)
        assert np.array_equal(st.theta, np.zeros(6))
        with pytest.raises(SingularConfigurationError, match="singular tool Jacobian"):
            cartesian_stiffness(weightless, comp, st)

    def test_indefinite_tangent_raises(self, model, comp):
        """A 1e7 N push leaves the primal unconverged at a state whose
        ``K - H`` is indefinite although not singular; 3e5 N still converges
        to a positive definite stiffness."""
        st = solve_equilibrium(model, comp, TEST_Q, tool_wrench=[0, 0, -1e7, 0, 0, 0])
        assert not st.converged
        with pytest.raises(SingularConfigurationError,
                           match="not positive definite: buckling-like instability"):
            cartesian_stiffness(model, comp, st)
        st = solve_equilibrium(model, comp, TEST_Q, tool_wrench=[0, 0, -3e5, 0, 0, 0])
        assert st.converged
        assert np.linalg.eigvalsh(cartesian_stiffness(model, comp, st).matrix)[0] > 0.0

    def test_force_probe_matches_derivative(self, model, comp):
        """K_C predicts the wrench change for a small prescribed pose shift."""
        st = solve_equilibrium(model, comp, TEST_Q, tool_wrench=LOAD)
        Kc = cartesian_stiffness(model, comp, st).matrix
        h = 1e-3  # mm
        for axis in (0, 2):
            p_shift = st.pose.p.copy()
            p_shift[axis] += h
            st_d = solve_equilibrium(model, comp, TEST_Q,
                                     target=Pose(p_shift, st.pose.R))
            dF = (st_d.tool_wrench - st.tool_wrench) / h
            assert np.allclose(dF, Kc[:, axis],
                               rtol=2e-3, atol=2e-3 * np.linalg.norm(Kc[:, axis]))

    @pytest.mark.parametrize("seed", range(4))
    def test_is_the_formula_of_the_tool_jacobian_bit_for_bit(self, model, comp, seed,
                                                             monkeypatch):
        """At a primal, a dual and a ``loaded_equilibrium`` state the
        stiffness is, byte for byte, ``(J (K - H)^-1 J^T)^-1`` built from
        ``hessian_theta`` and the tool point's own ``_point_jacobian``, and
        it builds no chain state: it reads the stack the solve ended on."""
        rng = np.random.default_rng(seed)
        lim = np.radians(LIMITS_DEG)
        q = rng.uniform(lim[:, 0], lim[:, 1])
        wrench = np.concatenate([rng.normal(0.0, 1500.0, 3), rng.normal(0.0, 1e5, 3)])
        states = [solve_equilibrium(model, comp, q, tool_wrench=wrench),
                  solve_equilibrium(model, comp, q, target=fk(model, q)),
                  loaded_equilibrium(model, comp, q, wrench)[0]]
        refs = [_stiffness_formula(model, comp, st, st.tool_wrench) for st in states]
        calls = []
        monkeypatch.setattr(stiffness, "chain_state",
                            lambda *a: calls.append(a) or chain_state(*a))
        for st, ref in zip(states, refs):
            assert cartesian_stiffness(model, comp, st).matrix.tobytes() == ref.tobytes()
        assert calls == []

    @pytest.mark.parametrize("which", ["model", "weightless"])
    def test_a_state_without_tool_wrench_is_gravity_only(self, which, comp, request):
        """A caller-built state with ``tool_wrench=None`` gets the gravity-only
        H and the tool point's Jacobian, also on a model with no weight."""
        m = request.getfixturevalue(which)
        st = dataclasses.replace(solve_equilibrium(m, comp, TEST_Q), tool_wrench=None)
        ref = _stiffness_formula(m, comp, st, None)
        assert cartesian_stiffness(m, comp, st).matrix.tobytes() == ref.tobytes()

    def test_a_copied_state_or_another_model_rebuilds_the_stack(self, model, comp,
                                                                model_path, monkeypatch):
        """A state copied by ``dataclasses.replace``, or a second load of the
        model file, carries no stack the stiffness may read: it builds one,
        with the same bytes."""
        st, _ = loaded_equilibrium(model, comp, TEST_Q, LOAD)
        want = cartesian_stiffness(model, comp, st).matrix.tobytes()
        again = load_model(model_path)
        calls = []
        monkeypatch.setattr(stiffness, "chain_state",
                            lambda *a: calls.append(a) or chain_state(*a))
        copy = dataclasses.replace(st)
        assert copy == st and copy._loaded is None and st._loaded is not None
        assert cartesian_stiffness(model, comp, copy).matrix.tobytes() == want
        assert cartesian_stiffness(again, again.compensator, st).matrix.tobytes() == want
        assert len(calls) == 2

    def test_the_joint_stiffnesses_are_the_compensator_passed(self, model, comp,
                                                              monkeypatch):
        """The stiffness reads the joint stiffnesses a state was solved with
        only when it is given the same compensator object: a state solved
        with one compensator, or with none, and passed with another gets the
        joint stiffnesses of the one passed."""
        stiffer = dataclasses.replace(comp, elastics=dataclasses.replace(
            comp.elastics, Kc_N_per_mm=2.0 * comp.elastics.Kc_N_per_mm))
        calls = []
        real = stiffness.equivalent_joint_stiffness
        monkeypatch.setattr(stiffness, "equivalent_joint_stiffness",
                            lambda *a: calls.append(a) or real(*a))
        for solved_with in (comp, None):
            st = solve_equilibrium(model, solved_with, TEST_Q, tool_wrench=LOAD)
            for passed in (comp, stiffer, None):
                want = _stiffness_formula(model, passed, st, LOAD).tobytes()
                del calls[:]
                assert cartesian_stiffness(model, passed, st).matrix.tobytes() == want
                assert len(calls) == (0 if passed is solved_with or passed is None else 1)

    def test_positive_definite_translational_block(self, model, comp):
        st = solve_equilibrium(model, comp, TEST_Q, tool_wrench=LOAD)
        Kc = cartesian_stiffness(model, comp, st).matrix
        w = np.linalg.eigvalsh(Kc[:3, :3])
        assert np.all(w > 0.0)

    def test_load_softening_visible(self, weightless, comp):
        """The load Hessian shifts the stiffness away from the unloaded value."""
        st0 = solve_equilibrium(weightless, comp, TEST_Q)
        K0 = cartesian_stiffness(weightless, comp, st0).matrix
        stF = solve_equilibrium(weightless, comp, TEST_Q, tool_wrench=10.0 * LOAD)
        KF = cartesian_stiffness(weightless, comp, stF).matrix
        assert np.max(np.abs(KF - K0)) / np.max(np.abs(K0)) > 1e-4


class TestDeflectionPrediction:
    def test_tool_prediction_matches_small_load_equilibrium(self, weightless, comp):
        F = LOAD / 100.0
        st_g = solve_equilibrium(weightless, comp, TEST_Q)
        st_f = solve_equilibrium(weightless, comp, TEST_Q, tool_wrench=F)
        d_nl = st_f.pose.p - st_g.pose.p
        d_lin = predict_tool_deflection(weightless, comp, TEST_Q, F)[:3]
        assert np.allclose(d_lin, d_nl, rtol=5e-3, atol=1e-6)

    def test_marker_prediction_close_to_nonlinear(self, model, comp):
        st_g = solve_equilibrium(model, comp, TEST_Q)
        st_f = solve_equilibrium(model, comp, TEST_Q, tool_wrench=LOAD)
        d_nl = (_marker_points(model, st_f.pose.R, st_f.pose.p)
                - _marker_points(model, st_g.pose.R, st_g.pose.p))
        d_lin = predict_marker_deflections(model, comp, TEST_Q, LOAD)
        rel = np.linalg.norm(d_lin - d_nl) / np.linalg.norm(d_nl)
        assert rel < 0.02

    def test_linear_in_load(self, model, comp):
        d1 = predict_marker_deflections(model, comp, TEST_Q, LOAD)
        d2 = predict_marker_deflections(model, comp, TEST_Q, 2.0 * LOAD)
        assert np.allclose(d2, 2.0 * d1, rtol=1e-12)

    @pytest.mark.parametrize("with_comp", [False, True])
    def test_marker_prediction_matches_dense_formula(self, model, comp, with_comp):
        c = comp if with_comp else None
        q = np.radians([35.0, -70.0, 10.0, 45.0, -80.0, 20.0])
        F = np.array([300.0, -150.0, -2600.0, 2e4, -4e4, 1e4])
        st = chain_state(model, q, np.zeros(6))
        Jt = _point_jacobian(st, st.tool_p)
        dtheta = np.linalg.solve(np.diag(joint_stiffnesses(model, c, q)), Jt.T @ F)
        ref = np.array([_point_jacobian(st, st.tool_R @ off + st.tool_p)[:3] @ dtheta
                        for off in model.markers])
        d = predict_marker_deflections(model, c, q, F)
        assert np.max(np.abs(d - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_marker_count(self, model, comp):
        d = predict_marker_deflections(model, comp, TEST_Q, LOAD)
        assert d.shape == (len(model.markers), 3)

    def test_no_markers(self, model, comp):
        bare = dataclasses.replace(model, markers=())
        assert predict_marker_deflections(bare, comp, TEST_Q, LOAD).shape == (0, 3)


class TestCompensateTarget:
    def test_target_is_mirrored_by_the_load_deflection(self, model, comp):
        st_g = solve_equilibrium(model, comp, TEST_Q)
        st_f = solve_equilibrium(model, comp, TEST_Q, tool_wrench=LOAD)
        deflection = st_f.pose.p - st_g.pose.p
        assert np.linalg.norm(deflection) > 0.1
        desired = Pose(np.array([1800.0, 200.0, 1200.0]), np.eye(3))
        cmd = compensate_target(model, comp, TEST_Q, LOAD, desired)
        # the command sits exactly one deflection upstream of the desired pose
        assert np.allclose(desired.p - cmd.p, deflection, atol=1e-9)

    def test_zero_wrench_identity(self, model, comp):
        desired = Pose(np.array([1000.0, 0.0, 1500.0]), np.eye(3))
        cmd = compensate_target(model, comp, TEST_Q, np.zeros(6), desired)
        assert np.allclose(cmd.p, desired.p, atol=1e-9)
        assert np.allclose(cmd.R, desired.R, atol=1e-12)


def test_marker_positions_follow_theta(model):
    q = TEST_Q
    theta = np.full(6, 1e-3)
    via_state = chain_state(model, q, theta)
    direct = _marker_points(model, via_state.tool_R, via_state.tool_p)
    offs = np.stack(model.markers)
    expect = (via_state.tool_R @ offs.T).T + via_state.tool_p
    assert np.allclose(direct, expect, atol=1e-12)


class TestStackedPrimal:
    # poses (deg) and downward tool loads (N): the damped fixed point of
    # oracles.solve_primal_loop converges after 6, 10 and 22 iterations (the
    # last one halving its step on the way) and leaves the fourth unconverged
    # at the 100-iteration cap
    POSES = np.radians([[55, 35, -49, 34, 45, -48],
                        [-24, 135, -81, 45, -48, 85],
                        [109, 94, -43, 90, 20, -7],
                        [-17, 38, -102, 113, -74, -33]])
    LOADS_N = (10086.0, 48802.0, 857418.0, 641773.0)

    def _stack(self):
        q = np.vstack([self.POSES, TEST_Q])
        w = np.zeros((5, 6))
        w[:4, 2] = [-f for f in self.LOADS_N]
        return q, w

    def test_each_pose_as_if_solved_alone(self, model, comp):
        q, w = self._stack()
        st = solve_equilibria(model, comp, q, w)
        refs = [oracles.solve_primal_loop(model, comp, qi, wi) for qi, wi in zip(q, w)]
        assert [r[1] for r in refs] == [6, 10, 22, 100, 4]
        assert [r[2] for r in refs] == [True, True, True, False, True]
        assert refs[2][4] > 0
        # stepping through K - H reaches the same equilibria in fewer steps;
        # the 48,802 N pose and TEST_Q stop on a negligible next update,
        # which they do not take, and the 641,773 N pose stops unconverged
        # as soon as its residual grows
        assert st.iterations.tolist() == [4, 5, 45, 2, 2]
        assert st.converged.tolist() == [True, True, True, False, True]
        for i in (0, 1, 2, 4):
            assert np.abs(st.theta[i] - refs[i][0]).max() <= 1e-11, i
        # the loaded pose of every entry is its chain state at its theta
        assert np.array_equal(st.pose.p, chain_state(model, q, st.theta).tool_p)

    def test_a_negligible_update_is_not_taken(self, model, comp, monkeypatch):
        """The 48,802 N pose stops on the update criterion: its last update
        taken is not negligible, and the next one is tested on the state
        already built, so the solve builds one chain state per update taken
        and one at theta = 0."""
        q, w = self.POSES[1], np.array([0.0, 0.0, -self.LOADS_N[1], 0.0, 0.0, 0.0])
        calls = []
        monkeypatch.setattr(stiffness, "chain_state",
                            lambda *a: calls.append(a) or chain_state(*a))
        st = solve_equilibrium(model, comp, q, tool_wrench=w)
        assert st.converged and st.residual_wrench_rel >= 1e-12
        assert len(calls) == st.iterations + 1
        monkeypatch.setattr(stiffness, "_MAX_ITER", st.iterations - 1)
        short = solve_equilibrium(model, comp, q, tool_wrench=w)
        assert short.iterations == st.iterations - 1
        assert np.linalg.norm(st.theta - short.theta) >= stiffness._THETA_TOL_RAD

    def test_divergence_stops_at_once(self, model, comp):
        # a 1e9 N load and the 641,773 N pose above: the fixed point runs both
        # to the 100-iteration cap, the solver stops them when the residual grows
        q = np.vstack([np.radians([0.0, -45.0, 0.0, 0.0, 0.0, 0.0]), self.POSES[3]])
        w = np.zeros((2, 6))
        w[:, 2] = [-1e9, -self.LOADS_N[3]]
        st = solve_equilibria(model, comp, q, w)
        assert st.converged.tolist() == [False, False]
        assert st.iterations.max() <= 3

    def test_random_poses_match_the_fixed_point(self, model, comp):
        # 200 poses within the plan limits, |F| <= 5e4 N and |M| <= 5e6 N*mm
        rng = np.random.default_rng(7)
        n = 200
        lim = np.radians(np.array(LIMITS_DEG, dtype=float))
        q = rng.uniform(lim[:, 0], lim[:, 1], (n, 6))
        u = rng.standard_normal((n, 2, 3))
        r = np.array([[5e4], [5e6]]) * rng.uniform(0.0, 1.0, (n, 2, 1))
        w = (r * u / np.linalg.norm(u, axis=2, keepdims=True)).reshape(n, 6)
        st = solve_equilibria(model, comp, q, w)
        assert st.converged.all()
        for i in range(n):
            theta, _, converged, _, _ = oracles.solve_primal_loop(model, comp, q[i], w[i])
            assert converged and np.abs(st.theta[i] - theta).max() <= 1e-11, i

    def test_order_of_the_stack_does_not_matter(self, model, comp):
        q, w = self._stack()
        st = solve_equilibria(model, comp, q, w)
        flip = solve_equilibria(model, comp, q[::-1], w[::-1])
        assert np.array_equal(flip.theta[::-1], st.theta)
        assert np.array_equal(flip.iterations[::-1], st.iterations)

    def test_one_pose_is_a_stack_of_one(self, model, comp):
        q, w = self._stack()
        st = solve_equilibria(model, comp, q, w)
        for i in (0, 2, 3):
            one = solve_equilibrium(model, comp, q[i], tool_wrench=w[i])
            assert np.array_equal(one.theta, st.theta[i])
            assert type(one.iterations) is int and one.iterations == st.iterations[i]
            assert type(one.converged) is bool and one.converged == st.converged[i]
            assert isinstance(one.residual_wrench_rel, float)
            assert one.pose.p.shape == (3,) and one.pose.R.shape == (3, 3)

    def test_compensation_solves_both_loads_as_one_stack(self, model, comp):
        from stiffcal.transforms import pose_difference, rot_from_rotvec
        desired = fk(model, TEST_Q)
        g = solve_equilibrium(model, comp, TEST_Q)
        f = solve_equilibrium(model, comp, TEST_Q, tool_wrench=LOAD)
        delta = pose_difference(f.pose.p, f.pose.R, g.pose.p, g.pose.R)
        out = compensate_target(model, comp, TEST_Q, LOAD, desired)
        assert np.array_equal(out.p, desired.p - delta[:3])
        assert np.array_equal(out.R, rot_from_rotvec(-delta[3:]) @ desired.R)

    def test_loaded_equilibrium_is_the_loaded_solve(self, model, comp):
        """The loaded half of one [gravity only, loaded] stack is the state a
        loaded solve_equilibrium gives, field by field and bit for bit, and
        the pose change is the one between the two solo solves."""
        from stiffcal.transforms import pose_difference
        q, w = self._stack()
        for i in (0, 1, 2, 4):
            g = solve_equilibrium(model, comp, q[i])
            f = solve_equilibrium(model, comp, q[i], tool_wrench=w[i])
            state, delta = loaded_equilibrium(model, comp, q[i], w[i])
            for field in dataclasses.fields(f):
                got, want = getattr(state, field.name), getattr(f, field.name)
                if isinstance(want, Pose):
                    got, want = np.concatenate([got.p, got.R.ravel()]), np.concatenate(
                        [want.p, want.R.ravel()])
                assert type(got) is type(want), field.name
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), field.name
            assert np.array_equal(
                delta, pose_difference(f.pose.p, f.pose.R, g.pose.p, g.pose.R))

    def test_compensation_of_an_unconverged_load_raises(self, model, comp):
        # the 641,773 N pose: its loaded equilibrium stops after 2 iterations
        w = np.array([0.0, 0.0, -self.LOADS_N[3], 0.0, 0.0, 0.0])
        with pytest.raises(ConvergenceError,
                           match=r"pose 0 \(q2=38\.0 deg\) after 2 iterations$"):
            compensate_target(model, comp, self.POSES[3], w, fk(model, self.POSES[3]))

    def test_stacked_linear_deflections(self, model, comp):
        q, w = self._stack()
        d = predict_marker_deflections(model, comp, q, w)
        assert d.shape == (5, len(model.markers), 3)
        for i in range(5):
            assert np.array_equal(d[i], predict_marker_deflections(model, comp, q[i], w[i]))
