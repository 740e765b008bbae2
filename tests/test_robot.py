import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import (fd_hessian, fd_jacobian, gravity_loading_loop, hessian_theta_loop,
                     load_torques_loop, node_jacobian_loop, planar_2r_force_hessian,
                     point_jacobian_loop)
from stiffcal.robot import (FrameSpec, JointSpec, ManipulatorModel, NodeLoading,
                            _cross, _loaded_jacobians, _point_jacobian, chain_state, fk,
                            gravity_loading, hessian_theta, load_torques)
from stiffcal.transforms import rot_axis, rot_rpy, rotvec_from_matrix


def _jacobian(model, q, theta, point=lambda cs: cs.tool_p):
    """Chain Jacobian of ``point(chain_state)``."""
    cs = chain_state(model, q, theta)
    return _point_jacobian(cs, point(cs))


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
    H = hessian_theta(chain_state(m, q, np.zeros(6)), loading=None, tool_wrench=F)
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


@given(st.integers(0, 2**32 - 1), st.sampled_from([(), (4,), (2, 3)]),
       st.sampled_from([(1, 2, 3, 4, 5, 6), (2, 5), ()]))
@settings(max_examples=30, deadline=None)
def test_node_jacobian_truncates(model, seed, shape, nodes):
    """The loaded-point stack holds the loaded nodes among 1..6 and then the
    tool: node j's columns from j on are zero, the rest are the cross loop's
    bits, and each point carries its own wrench."""
    rng = np.random.default_rng(seed)
    q = rng.uniform(-np.pi, np.pi, shape + (6,))
    th = rng.normal(scale=2e-3, size=shape + (6,))
    wrenches = np.zeros((7, 6))
    wrenches[(0,) + nodes, :] = rng.normal(scale=1e3, size=(1 + len(nodes), 6))
    loading = NodeLoading(wrenches)
    tool = rng.normal(scale=1e3, size=shape + (6,))
    J, W = _loaded_jacobians(chain_state(model, q, th), loading, tool)
    n = len(nodes) + 1
    assert J.shape == (n,) + shape + (6, 6) and W.shape == (n,) + shape + (6,)
    for idx in np.ndindex(*shape):
        one = chain_state(model, q[idx], th[idx])
        points = [(one.node_p[j], j, loading.wrenches[j]) for j in nodes]
        for i, (p, node, w) in enumerate(points + [(one.tool_p, 6, tool[idx])]):
            Ji = J[(i,) + idx]
            assert not Ji[:, node:].any()
            assert np.any(Ji[:3, :node] != 0.0)
            assert Ji.tobytes() == node_jacobian_loop(one, p, node).tobytes(), (idx, i)
            assert W[(i,) + idx].tobytes() == w.tobytes()


def test_marker_jacobian_vs_fd(model):
    q = np.radians([35.0, -70.0, 10.0, 45.0, -80.0, 20.0])
    th0 = np.full(6, 1e-3)
    for offset in model.markers:
        def marker(cs):
            return cs.tool_R @ offset + cs.tool_p
        J = _jacobian(model, q, th0, marker)
        Jfd = fd_jacobian(lambda t: marker(chain_state(model, q, t)), th0)
        assert np.linalg.norm(J[:3] - Jfd) / np.linalg.norm(Jfd) < 1e-6


def test_gravity_loading_conserves_weight(model):
    load = gravity_loading(model)
    total = sum(j.mass_kg for j in model.joints) * np.asarray(model.gravity)
    assert np.allclose(load.wrenches[:, :3].sum(axis=0), total, rtol=1e-12)


def test_model_terms_match_per_joint_loops_bit_for_bit():
    """On 200 seeded random models, with massless links, zero-length links
    (t = 0.5), massless links whose split fraction would overflow, default
    centres of mass and a random half of the link rotations zero, the
    stacked build gives the per-joint loops' node wrenches, loaded nodes,
    Rodrigues cross-product terms and turned links, bit for bit."""
    for seed in range(200):
        rng = np.random.default_rng(seed)
        links = rng.uniform(-500.0, 500.0, (6, 3)) * 10.0 ** rng.uniform(-3, 3, (6, 1))
        links[rng.random(6) < 0.25] = 0.0
        links[seed % 6] = 0.0                   # a zero-length link ...
        mass = rng.uniform(0.0, 400.0, 6)
        mass[rng.random(6) < 0.25] = 0.0
        mass[seed % 6] = 10.0                   # ... that carries a weight
        mass[(seed + 1) % 6] = 0.0
        coms = list(rng.uniform(-300.0, 300.0, (6, 3)))
        for i in np.flatnonzero(rng.random(6) < 0.3):
            coms[i] = None                      # mid-link
        if seed % 10 == 0:                      # com . p / |p|^2 = 1e310 on a massless link
            links[(seed + 1) % 6], coms[(seed + 1) % 6] = [1e-150, 0.0, 0.0], [1e160, 0.0, 0.0]
        axes = rng.normal(size=(6, 3))
        axes[rng.random(6) < 0.3] = np.eye(3)[rng.integers(0, 3)]
        joints = [JointSpec(axis=a / np.linalg.norm(a), link_translation_mm=p,
                            link_rotation_rpy_rad=rng.uniform(-3.0, 3.0, 3) * (rng.random() < 0.5),
                            compliance_rad_per_Nmm=1e-9, mass_kg=mk, com_mm=c)
                  for a, p, mk, c in zip(axes, links, mass, coms)]
        m = ManipulatorModel(joints=joints, gravity=rng.normal(0.0, 10.0, 3))
        W = gravity_loading_loop(m)
        load = gravity_loading(m)
        assert load.wrenches.tobytes() == W.tobytes()
        assert load.loaded_nodes == tuple(j for j in range(1, 7) if W[j].any())
        assert m._axis_K.tobytes() == np.array(
            [[[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]] for x, y, z in m._axes]).tobytes()
        assert m._link_turns == tuple(not (R == np.eye(3)).all() for R in m._link_R)


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
    tau = load_torques(st, load, None)
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
    H = hessian_theta(chain_state(model, q, th), load, F)
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
    H = hessian_theta(chain_state(model, q, th), load)
    D = fd_jacobian(lambda t: load_torques(chain_state(model, q, t), load), th)
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
    tau = load_torques(st_, loading, tool)
    H = hessian_theta(st_, loading, tool)
    assert tau.tobytes() == load_torques_loop(st_, loading, tool).tobytes()
    assert H.tobytes() == hessian_theta_loop(st_, loading, tool).tobytes()
    if loading is None and tool is None:
        assert tau.tobytes() == np.zeros(6).tobytes() and not H.any()


@pytest.mark.parametrize("loads", [
    pytest.param(lambda m: (m, gravity_loading(m)), id="gravity"),
    pytest.param(_node_wrenches, id="node-wrenches"),
    pytest.param(lambda m: (m, None), id="no-loading"),
])
@pytest.mark.parametrize("shape", [(5,), (3, 4)], ids=["5", "3x4"])
def test_stacked_hessian_matches_each_pose_bit_for_bit(model, loads, shape):
    """A stack of chain states, each pose with its own tool wrench, gives
    every pose its own single-state Hessian and the point loop's, to the
    last bit; nothing loaded gives zeros with the stack's batch axes."""
    model, loading = loads(model)
    rng = np.random.default_rng(len(shape))
    q = rng.uniform(-np.pi, np.pi, shape + (6,))
    th = rng.normal(scale=2e-3, size=shape + (6,))
    tool = np.concatenate([rng.normal(scale=1500.0, size=shape + (3,)),
                           rng.normal(scale=1e5, size=shape + (3,))], axis=-1)
    batch = chain_state(model, q, th)
    H = hessian_theta(batch, loading, tool)
    assert H.shape == shape + (6, 6)
    for idx in np.ndindex(*shape):
        one = chain_state(model, q[idx], th[idx])
        assert H[idx].tobytes() == hessian_theta(one, loading, tool[idx]).tobytes()
        assert H[idx].tobytes() == hessian_theta_loop(one, loading, tool[idx]).tobytes()
    assert hessian_theta(batch).tobytes() == np.zeros(shape + (6, 6)).tobytes()


@given(st.integers(0, 2**32 - 1), st.sampled_from([(), (4,), (2, 3)]),
       st.sampled_from([(), (3,)]))
@settings(max_examples=60, deadline=None)
def test_point_jacobian_matches_cross_loop_bit_for_bit(model, seed, shape, stacked):
    """Lever rows by component give ``np.cross``'s bits, at one chain state
    or a stack, for one point per state or a stack of points (P, ..., 3)."""
    rng = np.random.default_rng(seed)
    q = rng.uniform(-np.pi, np.pi, shape + (6,))
    th = rng.normal(scale=2e-3, size=shape + (6,))
    points = rng.normal(scale=1e3, size=stacked + shape + (3,))
    J = _point_jacobian(chain_state(model, q, th), points)
    assert J.shape == stacked + shape + (6, 6)
    for idx in np.ndindex(*stacked + shape):
        pose = idx[len(stacked):]
        ref = point_jacobian_loop(chain_state(model, q[pose], th[pose]), points[idx])
        assert J[idx].tobytes() == ref.tobytes(), idx


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


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_fixed_rotations_are_rot_rpy_of_each_frame(seed):
    """The link, base and tool rotations built in one stacked call are each
    frame's own ``rot_rpy``, bit for bit."""
    rng = np.random.default_rng(seed)
    frames = [FrameSpec(translation_mm=rng.uniform(-500.0, 500.0, 3),
                        rotation_rpy_rad=rng.uniform(-3.0, 3.0, 3)) for _ in range(2)]
    m = dataclasses.replace(_random_axes_model(rng), base=frames[0], tool=frames[1])
    for i, j in enumerate(m.joints):
        assert m._link_R[i].tobytes() == rot_rpy(j.link_rotation_rpy_rad).tobytes()
    assert m._R_base.tobytes() == rot_rpy(frames[0].rotation_rpy_rad).tobytes()
    assert m._R_tool.tobytes() == rot_rpy(frames[1].rotation_rpy_rad).tobytes()
    assert not np.array_equal(m._R_base, np.eye(3))


@given(st.integers(0, 2**32 - 1), st.floats(-20.0, 20.0))
@settings(max_examples=60, deadline=None)
def test_cached_rodrigues_terms_give_rot_axis(seed, angle):
    m = _random_axes_model(np.random.default_rng(seed))
    c, s = np.cos(angle), np.sin(angle)
    for i, k in enumerate(m._axes):
        R = c * np.eye(3) + s * m._axis_K[i] + (1.0 - c) * m._axis_kk[i]
        assert np.array_equal(R, rot_axis(k, angle))


def _chain_model(kind, model, rng):
    """The shipped model (no link rotations), a random chain with every link
    rotated, or one with a random half of its link rotations zero."""
    if kind == "shipped":
        return model
    m = _random_axes_model(rng)
    if kind == "mixed":
        m = dataclasses.replace(m, joints=[
            dataclasses.replace(j, link_rotation_rpy_rad=np.zeros(3)) if flat else j
            for j, flat in zip(m.joints, rng.random(6) < 0.5)])
    return m


@pytest.mark.parametrize("kind", ["shipped", "random", "mixed"])
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_chain_state_is_the_rot_axis_product(model, kind, seed):
    """One pose: the frames of the product of per-joint rot_axis and each
    link's rot_rpy, bit for bit with signed zeros, whether a link rotation
    that is the identity is skipped or not; zero angles included."""
    rng = np.random.default_rng(seed)
    m = _chain_model(kind, model, rng)
    turns = [bool(j.link_rotation_rpy_rad.any()) for j in m.joints]
    assert m._link_turns == tuple(turns)
    zero = rng.random((2, 6)) < 0.3
    q = np.where(zero[0], 0.0, rng.uniform(-4.0, 4.0, 6))
    th = np.where(zero[1], 0.0, rng.normal(scale=1e-3, size=6))
    R, p = rot_rpy(m.base.rotation_rpy_rad), m.base.translation_mm
    cs = chain_state(m, q, th)
    for i, j in enumerate(m.joints):
        assert cs.joint_p[i].tobytes() == p.tobytes()
        assert cs.joint_axis[i].tobytes() == (R @ j.axis).tobytes()
        R = R @ rot_axis(j.axis, q[i] + th[i])
        p = R @ j.link_translation_mm + p
        R = R @ rot_rpy(j.link_rotation_rpy_rad)
        assert cs.node_R[i].tobytes() == R.tobytes()
        assert cs.node_p[i + 1].tobytes() == p.tobytes()
    assert cs.tool_R.tobytes() == (R @ rot_rpy(m.tool.rotation_rpy_rad)).tobytes()
    assert cs.tool_p.tobytes() == (R @ m.tool.translation_mm + p).tobytes()


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
    J_tool = _point_jacobian(batch, batch.tool_p)
    J_node = _point_jacobian(batch, batch.node_p[..., 4, :])
    for idx in np.ndindex(*shape):
        one = chain_state(model, q[idx], theta if shared_theta else theta[idx])
        for name in FRAMES:
            assert np.array_equal(getattr(batch, name)[idx], getattr(one, name)), name
        assert np.array_equal(J_tool[idx], _point_jacobian(one, one.tool_p))
        assert np.array_equal(J_node[idx], _point_jacobian(one, one.node_p[4]))


def test_chain_state_rejects_wrong_last_axis(model):
    with pytest.raises(ValueError, match="6-vectors"):
        chain_state(model, np.zeros((4, 5)), np.zeros(6))
    with pytest.raises(ValueError, match="6-vectors"):
        chain_state(model, np.zeros(6), np.zeros((6, 1)))
