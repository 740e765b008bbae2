import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import (fd_hessian, fd_jacobian, hessian_theta_loop, load_torques_loop,
                     planar_2r_force_hessian)
from stiffcal.robot import (JointSpec, ManipulatorModel, NodeLoading, _cross,
                            _point_jacobian, chain_state, fk, gravity_loading,
                            hessian_theta, load_torques, marker_positions)
from stiffcal.transforms import rot_axis, rot_rpy, rotvec_from_matrix


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
    H = hessian_theta(m, chain_state(m, q, np.zeros(6)), loading=None, tool_wrench=F)
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
    H = hessian_theta(model, chain_state(model, q, th), load, F)
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
    H = hessian_theta(model, chain_state(model, q, th), load)
    D = fd_jacobian(lambda t: load_torques(model, chain_state(model, q, t), load), th)
    Dsym = 0.5 * (D + D.T)
    assert np.linalg.norm(H - Dsym) / np.linalg.norm(Dsym) < 1e-4
    assert np.array_equal(H, H.T)
    assert not H[deepest:, :].any() and not H[:, deepest:].any()


@given(st.sampled_from([((3,), (3,)), ((6, 3), (3,)), ((5, 6, 3), (6, 3)),
                        ((6, 3), (4, 1, 3))]), st.data())
@settings(max_examples=60, deadline=None)
def test_cross_matches_numpy_bit_for_bit(shapes, data):
    """Signed zeros, subnormals and huge values included."""
    floats = st.floats(allow_nan=False, allow_infinity=False)
    a = data.draw(arrays(np.float64, shapes[0], elements=floats))
    b = data.draw(arrays(np.float64, shapes[1], elements=floats))
    with np.errstate(over="ignore", invalid="ignore"):   # inf - inf is nan in both
        ref = np.cross(a, b)
        got = _cross(a, b)
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def _massless_joint6(model):
    joints = model.joints[:5] + (dataclasses.replace(model.joints[5], mass_kg=0.0),)
    model = dataclasses.replace(model, joints=joints)
    return model, gravity_loading(model)     # node 6 carries no weight


def _node_wrenches(model):
    """Forces and moments on nodes 1, 3 and 4 only."""
    rng = np.random.default_rng(11)
    W = np.zeros((7, 6))
    W[[1, 3, 4]] = np.hstack([rng.normal(scale=500.0, size=(3, 3)),
                              rng.normal(scale=3e4, size=(3, 3))])
    return model, NodeLoading(W)


@pytest.mark.parametrize("loads", [
    pytest.param(lambda m: (m, gravity_loading(m)), id="gravity"),
    pytest.param(_massless_joint6, id="gravity-massless-joint6"),
    pytest.param(_node_wrenches, id="node-wrenches"),
    pytest.param(lambda m: (m, None), id="no-loading"),
])
@pytest.mark.parametrize("tool", [np.array([150.0, -300.0, -2000.0, 4e4, -2e4, 1e4]), None],
                         ids=["tool-wrench", "no-tool-wrench"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_load_terms_match_point_loop_bit_for_bit(model, loads, tool, seed):
    """One stacked Jacobian call gives the per-point loop's torques and
    Hessian to the last bit; nothing loaded gives zeros."""
    model, loading = loads(model)
    rng = np.random.default_rng(seed)
    q = rng.uniform(-np.pi, np.pi, 6)
    th = rng.normal(scale=2e-3, size=6)
    st_ = chain_state(model, q, th)
    tau = load_torques(model, st_, loading, tool)
    H = hessian_theta(model, st_, loading, tool)
    assert tau.tobytes() == load_torques_loop(st_, loading, tool).tobytes()
    assert H.tobytes() == hessian_theta_loop(st_, loading, tool).tobytes()
    if loading is None and tool is None:
        assert tau.tobytes() == np.zeros(6).tobytes() and not H.any()


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


FRAMES = ("joint_p", "joint_axis", "node_p", "node_R", "tool_p", "tool_R")


def _random_axes_model(rng):
    """A chain with random unit axes, link offsets and link rotations."""
    axes = rng.normal(size=(6, 3))
    joints = [JointSpec(axis=a / np.linalg.norm(a),
                        link_translation_mm=rng.uniform(-500.0, 500.0, 3),
                        link_rotation_rpy_rad=rng.uniform(-3.0, 3.0, 3),
                        compliance_rad_per_Nmm=1e-9) for a in axes]
    return ManipulatorModel(joints=joints)


@given(st.integers(0, 2**32 - 1), st.floats(-20.0, 20.0))
@settings(max_examples=60, deadline=None)
def test_cached_rodrigues_terms_give_rot_axis(seed, angle):
    m = _random_axes_model(np.random.default_rng(seed))
    c, s = np.cos(angle), np.sin(angle)
    for i, k in enumerate(m._axes):
        R = c * np.eye(3) + s * m._axis_K[i] + (1.0 - c) * m._axis_kk[i]
        assert np.array_equal(R, rot_axis(k, angle))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_chain_state_is_the_rot_axis_product(seed):
    """One pose: the frames of the product of per-joint rot_axis, bit for bit."""
    rng = np.random.default_rng(seed)
    m = _random_axes_model(rng)
    q, th = rng.uniform(-4.0, 4.0, 6), rng.normal(scale=1e-3, size=6)
    R, p = np.eye(3), np.zeros(3)
    cs = chain_state(m, q, th)
    for i, j in enumerate(m.joints):
        assert np.array_equal(cs.joint_p[i], p)
        assert np.array_equal(cs.joint_axis[i], R @ j.axis)
        R = R @ rot_axis(j.axis, q[i] + th[i])
        p = R @ j.link_translation_mm + p
        R = R @ rot_rpy(j.link_rotation_rpy_rad)
        assert np.array_equal(cs.node_R[i], R) and np.array_equal(cs.node_p[i + 1], p)


@given(st.integers(0, 2**32 - 1), st.sampled_from([(5,), (3, 4)]), st.booleans())
@settings(max_examples=30, deadline=None)
def test_batched_chain_state_matches_each_pose(model, seed, shape, shared_theta):
    """A stack of poses gives each pose's frames and Jacobians bit for bit;
    a theta of shape (6,) broadcasts over the stack."""
    rng = np.random.default_rng(seed)
    q = rng.uniform(-np.pi, np.pi, shape + (6,))
    theta = rng.normal(scale=1e-3, size=(6,) if shared_theta else shape + (6,))
    batch = chain_state(model, q, theta)
    assert batch.node_R.shape == shape + (6, 3, 3)
    J_tool = _point_jacobian(batch, batch.tool_p, 6)
    J_node = _point_jacobian(batch, batch.node_p[..., 4, :], 4)
    for idx in np.ndindex(*shape):
        one = chain_state(model, q[idx], theta if shared_theta else theta[idx])
        for name in FRAMES:
            assert np.array_equal(getattr(batch, name)[idx], getattr(one, name)), name
        assert np.array_equal(J_tool[idx], _point_jacobian(one, one.tool_p, 6))
        assert np.array_equal(J_node[idx], _point_jacobian(one, one.node_p[4], 4))


def test_chain_state_rejects_wrong_last_axis(model):
    with pytest.raises(ValueError, match="6-vectors"):
        chain_state(model, np.zeros((4, 5)), np.zeros(6))
    with pytest.raises(ValueError, match="6-vectors"):
        chain_state(model, np.zeros(6), np.zeros((6, 1)))
