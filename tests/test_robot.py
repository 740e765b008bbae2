import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import fd_hessian, fd_jacobian, planar_2r_force_hessian
from stiffcal.robot import (JointSpec, ManipulatorModel, NodeLoading,
                            _point_jacobian, chain_state, fk, gravity_loading,
                            hessian_theta, load_torques, marker_positions)
from stiffcal.transforms import rotvec_from_matrix


def _jacobian(model, q, theta, point=lambda cs: cs.tool_p, n_cols=6):
    """Chain Jacobian of ``point(chain_state)``, columns beyond ``n_cols`` zero."""
    cs = chain_state(model, q, theta)
    return _point_jacobian(cs, point(cs), n_cols)


def _planar_2r(l1=500.0, l2=300.0):
    """Planar 2R arm embedded in the 6-joint chain (joints 3..6 inert)."""
    z = (0.0, 0.0, 1.0)
    zero = (0.0, 0.0, 0.0)
    joints = [
        JointSpec(axis=z, link_translation_mm=(l1, 0.0, 0.0),
                  link_rotation_rpy_rad=zero, compliance_rad_per_Nmm=1e-9),
        JointSpec(axis=z, link_translation_mm=(l2, 0.0, 0.0),
                  link_rotation_rpy_rad=zero, compliance_rad_per_Nmm=1e-9),
    ] + [JointSpec(axis=z, link_translation_mm=zero,
                   link_rotation_rpy_rad=zero, compliance_rad_per_Nmm=1e-9)
         for _ in range(4)]
    return ManipulatorModel(joints=joints)


def test_fk_planar_2r_closed_form():
    m = _planar_2r()
    t1, t2 = 0.4, -1.1
    q = np.array([t1, t2, 0.0, 0.0, 0.0, 0.0])
    pose = fk(m, q)
    ref = [500.0 * np.cos(t1) + 300.0 * np.cos(t1 + t2),
           500.0 * np.sin(t1) + 300.0 * np.sin(t1 + t2), 0.0]
    assert np.allclose(pose.p, ref, atol=1e-12)


def test_q_theta_enter_as_sum():
    m = _planar_2r()
    rng = np.random.default_rng(0)
    q = rng.normal(size=6)
    th = rng.normal(scale=1e-2, size=6)
    assert np.allclose(fk(m, q + th).p, fk(m, q, th).p, atol=1e-12)


def test_hessian_planar_2r_closed_form():
    # independent oracle: hand-derived second derivatives of F . p
    l1, l2 = 500.0, 300.0
    m = _planar_2r(l1, l2)
    fx, fy = 80.0, -140.0
    F = np.array([fx, fy, 0.0, 0.0, 0.0, 0.0])
    t1, t2 = 0.7, -0.9
    q = np.array([t1, t2, 0.0, 0.0, 0.0, 0.0])
    H = hessian_theta(m, q, np.zeros(6), loading=None, tool_wrench=F)
    Href = planar_2r_force_hessian(l1, l2, t1, t2, fx, fy)
    assert np.allclose(H[:2, :2], Href, atol=1e-9)
    # joints stacked at the tip contribute nothing
    assert np.allclose(H[2:, :], 0.0, atol=1e-9)
    assert np.allclose(H[:, 2:], 0.0, atol=1e-9)


@pytest.fixture(scope="module")
def random_states(model):
    rng = np.random.default_rng(2024)
    qs = rng.uniform(-1.6, 1.6, size=(8, 6))
    ths = rng.normal(scale=2e-3, size=(8, 6))
    return list(zip(qs, ths))


def test_tool_jacobian_vs_fd(model, random_states):
    for q, th in random_states:
        J = _jacobian(model, q, th)

        def f(t):
            pose = fk(model, q, t)
            return np.concatenate([
                pose.p, rotvec_from_matrix(pose.R @ fk(model, q, th).R.T)])

        Jfd = fd_jacobian(f, th)
        assert np.linalg.norm(J - Jfd) / np.linalg.norm(J) < 1e-6


def test_node_jacobian_truncates(model):
    q = np.radians([20.0, -50.0, 30.0, 15.0, -40.0, 60.0])
    for node in (1, 2, 3, 4, 5):
        J = _jacobian(model, q, np.zeros(6), lambda cs: cs.node_p[node], node)
        assert np.allclose(J[:, node:], 0.0)
        assert np.any(J[:3, :node] != 0.0)


def test_marker_jacobian_vs_fd(model):
    q = np.radians([35.0, -70.0, 10.0, 45.0, -80.0, 20.0])
    th0 = np.full(6, 1e-3)
    for mk in range(len(model.markers)):
        J = _jacobian(model, q, th0, lambda cs: cs.tool_R @ model.markers[mk] + cs.tool_p)
        Jfd = fd_jacobian(lambda t: marker_positions(model, q, t)[mk], th0)
        assert np.linalg.norm(J[:3] - Jfd) / np.linalg.norm(Jfd) < 1e-6


def test_gravity_loading_conserves_weight(model):
    load = gravity_loading(model)
    total = model.total_mass() * np.asarray(model.gravity)
    assert np.allclose(load.total_force(), total, rtol=1e-12)
    # wrench values do not depend on the configuration
    load2 = gravity_loading(model, q=np.radians([10, -90, 40, 0, 30, 0]))
    assert np.allclose(load.wrenches, load2.wrenches)


def test_gravity_torques_vs_potential_gradient(model):
    # tau_G must be minus the gradient of the gravitational potential
    q = np.radians([25.0, -60.0, 20.0, 30.0, -45.0, 50.0])
    load = gravity_loading(model)

    def potential(th):
        st = chain_state(model, q, th)
        # wrench rows hold node forces; potential decreases along them
        return -sum(load.wrenches[j, :3] @ st.node_p[j] for j in range(1, 7))

    th = np.zeros(6)
    st = chain_state(model, q, th)
    tau = load_torques(model, st, load, None)
    g = np.zeros(6)
    h = 1e-6
    for i in range(6):
        e = np.zeros(6)
        e[i] = h
        g[i] = (potential(th + e) - potential(th - e)) / (2.0 * h)
    assert np.allclose(tau, -g, atol=1e-4 * max(1.0, np.abs(tau).max()))


def test_hessian_vs_fd_with_gravity_and_wrench(model):
    rng = np.random.default_rng(7)
    q = rng.uniform(-1.4, 1.4, 6)
    th = rng.normal(scale=2e-3, size=6)
    load = gravity_loading(model)
    F = np.array([150.0, -300.0, -2000.0, 4e4, -2e4, 1e4])
    H = hessian_theta(model, q, th, load, F)
    assert np.allclose(H, H.T, atol=1e-9 * np.abs(H).max())

    def U(t):
        st = chain_state(model, q, t)
        tot = sum(load.wrenches[j, :3] @ st.node_p[j] for j in range(1, 7))
        tot += F[:3] @ st.tool_p
        tot += F[3:] @ rotvec_from_matrix(
            st.tool_R @ chain_state(model, q, th).tool_R.T)
        return tot

    Hfd = fd_hessian(U, th)
    assert np.linalg.norm(H - Hfd) / np.linalg.norm(H) < 1e-4


@pytest.mark.parametrize("deepest", [3, 5])
def test_hessian_of_node_forces_and_moments_vs_fd(model, deepest):
    # gravity never loads a node with a moment; random inner-node wrenches do
    rng = np.random.default_rng(deepest)
    q = rng.uniform(-1.4, 1.4, 6)
    th = rng.normal(scale=2e-3, size=6)
    W = np.zeros((7, 6))
    W[:deepest + 1, :3] = rng.normal(scale=500.0, size=(deepest + 1, 3))
    W[:deepest + 1, 3:] = rng.normal(scale=3e4, size=(deepest + 1, 3))
    load = NodeLoading(W)
    H = hessian_theta(model, q, th, load)
    D = fd_jacobian(lambda t: load_torques(model, chain_state(model, q, t), load), th)
    Dsym = 0.5 * (D + D.T)
    assert np.linalg.norm(H - Dsym) / np.linalg.norm(Dsym) < 1e-4
    assert np.array_equal(H, H.T)
    assert not H[deepest:, :].any() and not H[:, deepest:].any()


def test_exactly_six_joints_required():
    z = (0.0, 0.0, 1.0)
    js = [JointSpec(axis=z, link_translation_mm=(100.0, 0.0, 0.0),
                    link_rotation_rpy_rad=(0.0, 0.0, 0.0),
                    compliance_rad_per_Nmm=1e-9) for _ in range(5)]
    with pytest.raises(ValueError, match="exactly 6 joints"):
        ManipulatorModel(joints=js)


def test_non_unit_axis_rejected():
    with pytest.raises(ValueError):
        JointSpec(axis=(0.0, 0.0, 2.0), link_translation_mm=(1.0, 0.0, 0.0),
                  link_rotation_rpy_rad=(0.0, 0.0, 0.0),
                  compliance_rad_per_Nmm=1e-9)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_jacobian_columns_are_axis_cross_lever(model, seed):
    # each column must equal [omega x (p - p_j); omega] for its own joint
    rng = np.random.default_rng(seed)
    q = rng.uniform(-2.0, 2.0, 6)
    st_ = chain_state(model, q, np.zeros(6))
    J = _jacobian(model, q, np.zeros(6))
    for j in range(6):
        w = st_.joint_axis[j]
        col = np.concatenate([np.cross(w, st_.tool_p - st_.joint_p[j]), w])
        assert np.allclose(J[:, j], col, atol=1e-9)
