import dataclasses

import numpy as np
import pytest

from stiffcal.errors import SingularConfigurationError
from stiffcal.robot import (ManipulatorModel, Pose, _point_jacobian, chain_state, fk,
                            marker_positions)
from stiffcal.stiffness import (
    cartesian_stiffness,
    compensate_target,
    joint_stiffness_matrix,
    predict_marker_deflections,
    predict_tool_deflection,
    solve_equilibrium,
)

TEST_Q = np.radians([79.20, -0.01, -5.57, 51.00, -97.52, -91.67])
LOAD = np.array([0.0, 0.0, -2600.0, 0.0, 0.0, 0.0])


@pytest.fixture(scope="module")
def comp(model):
    return model.compensator


class TestJointStiffness:
    def test_diagonal_inverse_compliance(self, model):
        K = joint_stiffness_matrix(model, None, TEST_Q)
        assert np.allclose(np.diag(K), 1.0 / model.compliances)
        assert np.allclose(K - np.diag(np.diag(K)), 0.0)

    def test_compensator_changes_only_joint2(self, model, comp):
        K0 = joint_stiffness_matrix(model, None, TEST_Q)
        K1 = joint_stiffness_matrix(model, comp, TEST_Q)
        d = K1 - K0
        assert d[1, 1] != 0.0
        d[1, 1] = 0.0
        assert np.allclose(d, 0.0)

    def test_zero_compliance_rejected(self, model):
        j0 = dataclasses.replace(model.joints[0], compliance_rad_per_Nmm=0.0)
        broken = ManipulatorModel(joints=[j0] + list(model.joints[1:]),
                                  base=model.base, tool=model.tool)
        with pytest.raises(SingularConfigurationError, match="infinite stiffness"):
            joint_stiffness_matrix(broken, None, TEST_Q)


class TestEquilibrium:
    def test_no_load_no_gravity_is_rigid(self, model, comp):
        st = solve_equilibrium(model, comp, TEST_Q, include_gravity=False)
        assert st.converged
        assert np.allclose(st.theta, 0.0, atol=1e-15)
        rigid = fk(model, TEST_Q)
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

    def test_iteration_cap_flags_not_raises(self, model, comp):
        st = solve_equilibrium(model, comp, TEST_Q, tool_wrench=LOAD, max_iter=1)
        assert not st.converged
        assert st.iterations == 1

    def test_wrench_balance_residual_small(self, model, comp):
        st = solve_equilibrium(model, comp, TEST_Q, tool_wrench=LOAD)
        assert st.residual_wrench_rel < 1e-10


class TestCartesianStiffness:
    def test_symmetric(self, model, comp):
        st = solve_equilibrium(model, comp, TEST_Q, tool_wrench=LOAD)
        Kc = cartesian_stiffness(model, comp, st).matrix
        assert np.max(np.abs(Kc - Kc.T)) <= 1e-9 * np.max(np.abs(Kc))

    def test_unloaded_no_gravity_reduces_to_kinematic_form(self, model, comp):
        st = solve_equilibrium(model, comp, TEST_Q, include_gravity=False)
        Kc = cartesian_stiffness(model, comp, st, include_gravity=False).matrix
        K = joint_stiffness_matrix(model, comp, TEST_Q)
        cs = chain_state(model, TEST_Q, np.zeros(6))
        from stiffcal.robot import _point_jacobian
        J = _point_jacobian(cs, cs.tool_p, 6)
        ref = np.linalg.inv(J @ np.linalg.solve(K, J.T))
        assert np.allclose(Kc, ref, rtol=1e-9, atol=1e-9 * np.max(np.abs(ref)))

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

    def test_positive_definite_translational_block(self, model, comp):
        st = solve_equilibrium(model, comp, TEST_Q, tool_wrench=LOAD)
        Kc = cartesian_stiffness(model, comp, st).matrix
        w = np.linalg.eigvalsh(Kc[:3, :3])
        assert np.all(w > 0.0)

    def test_load_softening_visible(self, model, comp):
        """The load Hessian shifts the stiffness away from the unloaded value."""
        st0 = solve_equilibrium(model, comp, TEST_Q, include_gravity=False)
        K0 = cartesian_stiffness(model, comp, st0, include_gravity=False).matrix
        stF = solve_equilibrium(model, comp, TEST_Q, tool_wrench=10.0 * LOAD,
                                include_gravity=False)
        KF = cartesian_stiffness(model, comp, stF, include_gravity=False).matrix
        assert np.max(np.abs(KF - K0)) / np.max(np.abs(K0)) > 1e-4


class TestDeflectionPrediction:
    def test_tool_prediction_matches_small_load_equilibrium(self, model, comp):
        F = LOAD / 100.0
        st_g = solve_equilibrium(model, comp, TEST_Q, include_gravity=False)
        st_f = solve_equilibrium(model, comp, TEST_Q, tool_wrench=F,
                                 include_gravity=False)
        d_nl = st_f.pose.p - st_g.pose.p
        d_lin = predict_tool_deflection(model, comp, TEST_Q, F)[:3]
        assert np.allclose(d_lin, d_nl, rtol=5e-3, atol=1e-6)

    def test_marker_prediction_close_to_nonlinear(self, model, comp):
        st_g = solve_equilibrium(model, comp, TEST_Q)
        st_f = solve_equilibrium(model, comp, TEST_Q, tool_wrench=LOAD)
        d_nl = (marker_positions(model, st_f.q, st_f.theta)
                - marker_positions(model, st_g.q, st_g.theta))
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
        Jt = _point_jacobian(st, st.tool_p, 6)
        dtheta = np.linalg.solve(joint_stiffness_matrix(model, c, q), Jt.T @ F)
        ref = np.array([_point_jacobian(st, st.tool_R @ off + st.tool_p, 6)[:3] @ dtheta
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
    direct = marker_positions(model, q, theta)
    via_state = chain_state(model, q, theta)
    offs = np.stack(model.markers)
    expect = (via_state.tool_R @ offs.T).T + via_state.tool_p
    assert np.allclose(direct, expect, atol=1e-12)
