"""Lumped-elasticity model of a 6R serial manipulator.

Each actuated joint carries a 1-DOF rotational elastic element in series with
the actuator, so the configuration is ``(q, theta)``: commanded joint angles
plus elastic deflections.  The chain is

    base  *  [Rot(axis_1, q1+th1) * L_1]  *  ...  *  [Rot(axis_6, q6+th6) * L_6]  *  tool

where ``L_i`` is the fixed link transform of joint ``i``.  "Node" ``j`` is the
frame at the far end of link ``j`` (node 6 is the flange, before the tool
transform).  Node 0 denotes the joint-1 centre; it never moves with any
deflection, so loads applied there are mechanically inert but are kept in the
bookkeeping so that weight totals balance exactly.

Units: mm, N, N*mm, rad.  Gravity is N/kg (so mass_kg * gravity is a force in
newtons).  Jacobian rows are ordered position (mm/rad) then orientation
(rad/rad); wrenches are force (N) then moment (N*mm).

At one chain state, the point Jacobians of the loaded nodes and of the tool
are built once, as one stack with their wrenches (``_loaded_jacobians``).
The joint torques of the loads (:func:`load_torques`) and their Hessian
(:func:`hessian_theta`) are two kernels over that stack, so a caller that
needs both, or the tool Jacobian as well (the stack's last entry when a
tool wrench is given), builds it once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .transforms import rot_rpy

_EYE3 = np.eye(3)


def _vec3(x, name: str) -> np.ndarray:
    try:
        v = np.asarray(x, dtype=float)
    except (ValueError, TypeError):
        raise ValueError(f"{name} must be a 3-vector of numbers") from None
    if v.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {v.shape}")
    a, b, c = v.tolist()
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
        raise ValueError(f"{name} must be finite")
    return v


def _finite_floats(spec, *names: str) -> None:
    """Store each named field of the frozen dataclass ``spec`` as a finite
    float, so a number read as text (YAML's ``3e-10``) converts as well."""
    for name in names:
        try:
            v = float(getattr(spec, name))
        except (ValueError, TypeError):
            raise ValueError(f"{name} must be a number") from None
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite")
        object.__setattr__(spec, name, v)


@dataclass(frozen=True)
class JointSpec:
    """One actuated joint: rotation axis, trailing link, elasticity, inertia.

    ``axis`` is the joint's rotation axis in its parent frame and must be a
    unit vector.  ``com_mm`` is the centre of mass of the trailing link,
    expressed in the link frame (the frame right after this joint's rotation).
    """

    axis: np.ndarray
    link_translation_mm: np.ndarray
    compliance_rad_per_Nmm: float
    link_rotation_rpy_rad: np.ndarray = None
    mass_kg: float = 0.0
    com_mm: np.ndarray = None

    def __post_init__(self):
        object.__setattr__(self, "axis", _vec3(self.axis, "axis"))
        object.__setattr__(
            self, "link_translation_mm", _vec3(self.link_translation_mm, "link_translation_mm")
        )
        rpy = self.link_rotation_rpy_rad
        object.__setattr__(self, "link_rotation_rpy_rad", _vec3(
            rpy if rpy is not None else np.zeros(3), "link_rotation_rpy_rad"))
        com = self.com_mm if self.com_mm is not None else 0.5 * self.link_translation_mm
        object.__setattr__(self, "com_mm", _vec3(com, "com_mm"))
        if abs(math.sqrt(self.axis @ self.axis) - 1.0) > 1e-12:
            raise ValueError("axis must have unit norm")
        _finite_floats(self, "compliance_rad_per_Nmm", "mass_kg")
        if self.compliance_rad_per_Nmm < 0.0:
            raise ValueError("compliance_rad_per_Nmm must be >= 0")
        if self.mass_kg < 0.0:
            raise ValueError("mass_kg must be >= 0")


@dataclass(frozen=True)
class FrameSpec:
    """A fixed rigid transform given as translation + roll/pitch/yaw."""

    translation_mm: np.ndarray = None
    rotation_rpy_rad: np.ndarray = None

    def __post_init__(self):
        t = self.translation_mm if self.translation_mm is not None else np.zeros(3)
        r = self.rotation_rpy_rad if self.rotation_rpy_rad is not None else np.zeros(3)
        object.__setattr__(self, "translation_mm", _vec3(t, "translation_mm"))
        object.__setattr__(self, "rotation_rpy_rad", _vec3(r, "rotation_rpy_rad"))


@dataclass(frozen=True)
class Pose:
    """World pose: position (mm) and rotation matrix."""

    p: np.ndarray
    R: np.ndarray


@dataclass
class ManipulatorModel:
    """A 6R manipulator with per-joint elasticity and link masses.

    ``markers`` are tool-frame offsets of measurement targets; marker ids used
    in data files are their indices here.  ``compensator`` optionally holds
    the gravity-compensator parameter block parsed from a model file (see
    :mod:`stiffcal.compensator`); the kinematics below never touch it.

    Treat instances as immutable after construction.
    """

    joints: Sequence[JointSpec]
    base: FrameSpec = field(default_factory=FrameSpec)
    tool: FrameSpec = field(default_factory=FrameSpec)
    markers: Sequence[np.ndarray] = ()
    gravity: np.ndarray = None
    compensator: object = None

    def __post_init__(self):
        self.joints = tuple(self.joints)
        if len(self.joints) != 6:
            raise ValueError(f"exactly 6 joints required, got {len(self.joints)}")
        g = self.gravity if self.gravity is not None else np.array([0.0, 0.0, -9.81])
        self.gravity = _vec3(g, "gravity")
        self.markers = tuple(_vec3(m, f"markers[{i}]") for i, m in enumerate(self.markers))
        # Pre-build the fixed transforms: six links, then base and tool.
        fixed_R = rot_rpy(np.array([j.link_rotation_rpy_rad for j in self.joints]
                                   + [self.base.rotation_rpy_rad, self.tool.rotation_rpy_rad]))
        self._link_R = fixed_R[:6]
        # a link rotation that is exactly the identity is not multiplied in
        self._link_turns = tuple((self._link_R != _EYE3).any(axis=(1, 2)).tolist())
        self._link_p = np.array([j.link_translation_mm for j in self.joints])
        self._axes = np.array([j.axis for j in self.joints])
        # Constant Rodrigues terms of each axis k (see transforms.rot_axis):
        # K = [[0, -z, y], [z, 0, -x], [-y, x, 0]]
        zxy = self._axes[:, [2, 0, 1]]
        self._axis_K = np.zeros((6, 3, 3))
        self._axis_K[:, [1, 2, 0], [0, 1, 2]] = zxy
        self._axis_K[:, [0, 1, 2], [1, 2, 0]] = -zxy
        self._axis_kk = self._axes[:, :, None] * self._axes[:, None, :]
        self._R_base = fixed_R[6]
        self._p_base = self.base.translation_mm
        self._R_tool = fixed_R[7]
        self._p_tool = self.tool.translation_mm
        # configuration independent (see gravity_loading), so built once
        self._gravity_loading = gravity_loading(self)
        # the joint stiffnesses 1/compliance; a zero compliance gives inf,
        # which stiffness.joint_stiffnesses refuses naming the joints listed here
        c = self.compliances
        with np.errstate(divide="ignore"):
            self._joint_stiffness = 1.0 / c
        self._rigid_joints = [int(i) + 1 for i in np.flatnonzero(c == 0.0)]

    @property
    def compliances(self) -> np.ndarray:
        """Per-joint elastic compliances, rad/(N*mm)."""
        return np.array([j.compliance_rad_per_Nmm for j in self.joints])


@dataclass
class ChainState:
    """All frames of the chain at ``(q, theta)``; shared by J/H builders.

    ``node_p[..., j, :]`` is the position of node ``j`` for j = 0..6 (node 0 =
    joint-1 centre).  ``joint_p[..., i, :]``/``joint_axis[..., i, :]`` give the
    centre and world axis of joint ``i+1``.  Leading axes, if any, are the
    batch axes of ``q`` and ``theta``; shapes below are for one pose.
    """

    q: np.ndarray
    theta: np.ndarray
    joint_p: np.ndarray      # (6, 3)
    joint_axis: np.ndarray   # (6, 3)
    node_p: np.ndarray       # (7, 3)
    node_R: np.ndarray       # (6, 3, 3), frame of node j (j = 1..6 -> index j-1)
    tool_p: np.ndarray
    tool_R: np.ndarray


_TRIU, _TRIU_STRICT = (np.triu(np.ones((6, 6), dtype=bool), k) for k in (0, 1))


def chain_state(model: ManipulatorModel, q, theta) -> ChainState:
    """Evaluate every frame of the elastic chain at ``(q, theta)``, each of
    shape (..., 6); their broadcast batch axes lead every frame."""
    q = np.asarray(q, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if q.shape[-1:] != (6,) or theta.shape[-1:] != (6,):
        raise ValueError("q and theta must be 6-vectors")
    # Rodrigues formula of all six joints at once, term for term as rot_axis.
    angle = (q + theta)[..., None, None]
    c = np.cos(angle)
    rot = c * _EYE3 + np.sin(angle) * model._axis_K + (1.0 - c) * model._axis_kk
    batch = rot.shape[:-3]
    # frames[..., i] is the frame joint i + 1 turns (the base, then nodes
    # 1..5) and frames[..., 6] the flange; turned[..., i] is frames[..., i]
    # turned by joint i + 1, before link i + 1's fixed rotation
    frames = np.empty(batch + (7, 3, 3))
    frames[..., 0, :, :] = model._R_base
    turns = model._link_turns
    # without link rotations the turned frames are the node frames themselves
    own_turned = any(turns)
    turned = np.empty(batch + (6, 3, 3)) if own_turned else frames[..., 1:, :, :]
    for i in range(6):
        np.matmul(frames[..., i, :, :], rot[..., i, :, :], out=turned[..., i, :, :])
        if turns[i]:
            np.matmul(turned[..., i, :, :], model._link_R[i], out=frames[..., i + 1, :, :])
        elif own_turned:
            frames[..., i + 1, :, :] = turned[..., i, :, :]
    # node j is node j - 1 plus link j's offset in its turned frame
    node_p = np.empty(batch + (7, 3))
    node_p[..., 0, :] = model._p_base
    np.matmul(turned, model._link_p[:, :, None], out=node_p[..., 1:, :, None])
    np.add.accumulate(node_p, axis=-2, out=node_p)
    joint_axis = (frames[..., :6, :, :] @ model._axes[:, :, None])[..., 0]
    R = frames[..., 6, :, :]
    tool_R = R @ model._R_tool
    tool_p = R @ model._p_tool + node_p[..., 6, :]
    return ChainState(q, theta, node_p[..., :6, :], joint_axis, node_p,
                      frames[..., 1:, :, :], tool_p, tool_R)


def fk(model: ManipulatorModel, q, theta=None) -> Pose:
    """Tool pose at commanded angles ``q`` and elastic deflections ``theta``."""
    if theta is None:
        theta = np.zeros(6)
    st = chain_state(model, q, theta)
    return Pose(st.tool_p, st.tool_R)


def _marker_points(model: ManipulatorModel, tool_R: np.ndarray,
                   tool_p: np.ndarray) -> np.ndarray:
    """World points of the markers on the tool frames ``tool_R`` (..., 3, 3)
    and ``tool_p`` (..., 3): (..., n_markers, 3)."""
    offs = np.reshape(model.markers, (-1, 3))
    return (tool_R[..., None, :, :] @ offs[:, :, None])[..., 0] + tool_p[..., None, :]


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product over the last axis, broadcasting as numpy's does: its
    products and differences in its order, so the bits match, without its
    per-call axis bookkeeping."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0), axis=-1)


def _point_jacobian(st: ChainState, point: np.ndarray) -> np.ndarray:
    """6x6 Jacobian of a point rigidly attached after joint 6: column ``i`` is
    the lever arm ``[w_i x (p - p_i); w_i]`` (by :func:`_cross`'s products);
    ``st``'s and ``point``'s (..., 3) batch axes lead it (..., 6, 6)."""
    w = st.joint_axis
    d = point[..., None, :] - st.joint_p
    w0, w1, w2, d0, d1, d2 = w[..., 0], w[..., 1], w[..., 2], d[..., 0], d[..., 1], d[..., 2]
    J = np.empty(d.shape[:-2] + (6, 6))
    J[..., 0, :] = w1 * d2 - w2 * d1
    J[..., 1, :] = w2 * d0 - w0 * d2
    J[..., 2, :] = w0 * d1 - w1 * d0
    J[..., 3:, :] = w.swapaxes(-1, -2)
    return J


@dataclass
class NodeLoading:
    """Wrenches applied at the chain nodes.

    ``wrenches`` has shape (7, 6): row ``j`` acts at node ``j`` (row 0 at the
    inert joint-1 centre).  Treat instances as immutable after
    construction: the loaded nodes and their wrench rows are taken once.
    """

    wrenches: np.ndarray
    loaded_nodes: tuple = field(init=False, repr=False, compare=False)  # 1..6, nonzero

    def __post_init__(self):
        w = np.asarray(self.wrenches, dtype=float)
        if w.shape != (7, 6):
            raise ValueError(f"wrenches must have shape (7, 6), got {w.shape}")
        self.wrenches = w
        # gathered by _loaded_jacobians at every chain state
        self._nodes = np.flatnonzero(w[1:].any(axis=1)) + 1
        self.loaded_nodes = tuple(self._nodes.tolist())
        self._node_wrenches = w[self._nodes]


def gravity_loading(model: ManipulatorModel) -> NodeLoading:
    """Link weights lumped to the node set by the lever rule about each COM.

    Each link's weight ``m_i * g`` splits between its two end nodes according
    to the COM's projected position along the link, so totals balance exactly
    and the moment about either end is preserved up to the COM's off-axis
    offset (inherent to end-node lumping).  The resulting wrench *values* are
    configuration independent -- split fractions are fixed in the link frames
    and gravity is constant in the base frame -- so no pose is taken; the
    application points do move, and that is captured by the node Jacobians.
    """
    m = np.array([j.mass_kg for j in model.joints])
    p = model._link_p[:, :, None]
    # the stacked dot products take the same (BLAS) path as one link's p @ p
    L2 = (p.swapaxes(-1, -2) @ p)[:, 0, 0]
    com_p = (np.array([j.com_mm for j in model.joints])[:, None, :] @ p)[:, 0, 0]
    # a zero-length link splits evenly, and so does a massless one: its zero
    # weight then adds +-0 to sums that are never -0, which changes no bit
    t = np.divide(com_p, L2, out=np.full(6, 0.5), where=(L2 > 0.0) & (m != 0.0))[:, None]
    w = m[:, None] * model.gravity
    W = np.zeros((7, 6))
    W[1:, :3] += t * w             # distal node i+1 of link i
    W[:6, :3] += (1.0 - t) * w     # proximal node i
    return NodeLoading(W)


def _loaded_jacobians(st: ChainState, loading: Optional[NodeLoading], tool_wrench):
    """Point Jacobians ``J`` (P, ..., 6, 6) and wrenches ``W`` (P, ..., 6) of
    each loaded node (1..6) and then the tool, from one stacked
    ``_point_jacobian`` call at the chain state ``st``, whose batch axes
    ``...`` the tool wrench (..., 6) may share; node ``j`` keeps only its
    first ``j`` columns.  The loaded nodes do not depend on the pose, since
    the node wrenches do not (:func:`gravity_loading`).  Nothing loaded gives
    empty stacks."""
    batch = st.tool_p.shape[:-1]
    nodes = () if loading is None else loading.loaded_nodes
    m = len(nodes)
    n_points = m + (tool_wrench is not None)
    points = np.empty((n_points,) + batch + (3,))
    W = np.empty((n_points,) + batch + (6,))
    if not n_points:
        return np.empty((0,) + batch + (6, 6)), W
    if m:
        k = len(batch)
        # the gathered node axis moves from after the batch axes to the front
        points[:m] = st.node_p[..., loading._nodes, :].transpose((k, *range(k), k + 1))
        W[:m] = loading._node_wrenches.reshape((m,) + (1,) * k + (6,))
    if tool_wrench is not None:
        points[m], W[m] = st.tool_p, tool_wrench
    J = _point_jacobian(st, points)
    for i, n in enumerate(nodes):
        J[i, ..., n:] = 0.0
    return J, W


def _torques(J: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Generalized joint torques ``sum_k J_k^T W_k`` of a loaded-Jacobian
    stack (:func:`_loaded_jacobians`)."""
    return (J.swapaxes(-1, -2) @ W[..., None])[..., 0].sum(axis=0)


def _hessian(J: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Load-potential Hessian of a loaded-Jacobian stack (see :func:`hessian_theta`)."""
    Jt = J.swapaxes(-1, -2)
    W = Jt[..., 3:]
    U = np.where(_TRIU, W @ _cross(Jt[..., :3], F[..., None, :3]).swapaxes(-1, -2), 0.0)
    U += 0.5 * np.where(_TRIU_STRICT, W @ _cross(W, F[..., None, 3:]).swapaxes(-1, -2), 0.0)
    return (U + np.where(_TRIU_STRICT, U, 0.0).swapaxes(-1, -2)).sum(axis=0)


def load_torques(st: ChainState, loading: Optional[NodeLoading],
                 tool_wrench=None) -> np.ndarray:
    """Generalized joint torques of node wrenches plus a tool wrench.

    Computes ``sum_j J_j(theta)^T G_j + J_tool^T F`` at the chain state
    ``st``; this is the right-hand side of the static equilibrium balance.
    A stacked ``st`` takes a tool wrench per pose (..., 6) or one for all,
    and gives torques (..., 6).
    """
    return _torques(*_loaded_jacobians(st, loading, tool_wrench))


def hessian_theta(st: ChainState, loading: Optional[NodeLoading] = None,
                  tool_wrench=None) -> np.ndarray:
    """Load-potential Hessian w.r.t. deflections at the chain state ``st``.

    Sums the loaded nodes (1..6; node 0 is inert) and the tool, each from
    its point Jacobian with ``c_b = J[:3, b]``.  A force ``f`` gives the exact
    Hessian of ``f . p(theta)``: ``d2p/dth_a dth_b = w_a x c_b`` for a <= b,
    and ``f . (w_a x c_b) = w_a . (c_b x f)``.  A moment ``m`` gives
    ``0.5 * m . (w_a x w_b)`` for a < b: constant spatial moments are
    non-conservative, and this symmetric part of ``d(J_rot^T m)/dtheta``
    keeps the stiffness operator symmetric (the conservative-congruence
    choice).  Both are formed on the upper triangle and mirrored; columns
    beyond a node's own joint are zero in its ``J``.  One stacked pass over all
    points; the batch axes of ``st`` and the tool wrench lead the result (..., 6, 6).
    """
    return _hessian(*_loaded_jacobians(st, loading, tool_wrench))
