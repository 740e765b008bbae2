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
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .transforms import rot_rpy


def _vec3(x, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {v.shape}")
    return v


@dataclass(frozen=True)
class JointSpec:
    """One actuated joint: rotation axis, trailing link, elasticity, inertia.

    ``axis`` is the joint's rotation axis in its parent frame and must be a
    unit vector.  ``com_mm`` is the centre of mass of the trailing link,
    expressed in the link frame (the frame right after this joint's rotation).
    """

    axis: np.ndarray
    link_translation_mm: np.ndarray
    link_rotation_rpy_rad: np.ndarray
    compliance_rad_per_Nmm: float
    mass_kg: float = 0.0
    com_mm: np.ndarray = None

    def __post_init__(self):
        object.__setattr__(self, "axis", _vec3(self.axis, "axis"))
        object.__setattr__(
            self, "link_translation_mm", _vec3(self.link_translation_mm, "link_translation_mm")
        )
        object.__setattr__(
            self,
            "link_rotation_rpy_rad",
            _vec3(self.link_rotation_rpy_rad, "link_rotation_rpy_rad"),
        )
        com = self.com_mm if self.com_mm is not None else 0.5 * self.link_translation_mm
        object.__setattr__(self, "com_mm", _vec3(com, "com_mm"))
        if abs(np.linalg.norm(self.axis) - 1.0) > 1e-12:
            raise ValueError("axis must have unit norm")
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

    def rotation(self) -> np.ndarray:
        return rot_rpy(self.rotation_rpy_rad)


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
        # Pre-build the fixed per-link transforms.
        self._link_R = np.stack([j.link_rotation_rpy_rad for j in self.joints])
        self._link_R = np.stack([rot_rpy(r) for r in self._link_R])
        self._link_p = np.stack([j.link_translation_mm for j in self.joints])
        self._axes = np.stack([j.axis for j in self.joints])
        # Constant Rodrigues terms of each axis k (see transforms.rot_axis).
        self._axis_K = np.array([[[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]]
                                 for x, y, z in self._axes])
        self._axis_kk = self._axes[:, :, None] * self._axes[:, None, :]
        self._R_base = self.base.rotation()
        self._p_base = self.base.translation_mm
        self._R_tool = self.tool.rotation()
        self._p_tool = self.tool.translation_mm
        # configuration independent (see gravity_loading), so built once
        self._gravity_loading = gravity_loading(self)

    @property
    def compliances(self) -> np.ndarray:
        """Per-joint elastic compliances, rad/(N*mm)."""
        return np.array([j.compliance_rad_per_Nmm for j in self.joints])

    def total_mass(self) -> float:
        return float(sum(j.mass_kg for j in self.joints))


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


_EYE3 = np.eye(3)


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
    R, p = model._R_base, model._p_base
    node_p = np.empty(batch + (7, 3))
    # frame before each joint's rotation: the base, then nodes 1..5
    frames = np.empty(batch + (7, 3, 3))
    node_p[..., 0, :] = p
    frames[..., 0, :, :] = R
    for i in range(6):
        R = R @ rot[..., i, :, :]
        p = R @ model._link_p[i] + p
        R = R @ model._link_R[i]
        node_p[..., i + 1, :] = p
        frames[..., i + 1, :, :] = R
    joint_axis = (frames[..., :6, :, :] @ model._axes[:, :, None])[..., 0]
    tool_R = R @ model._R_tool
    tool_p = R @ model._p_tool + p
    return ChainState(q, theta, node_p[..., :6, :], joint_axis, node_p,
                      frames[..., 1:, :, :], tool_p, tool_R)


def fk(model: ManipulatorModel, q, theta=None) -> Pose:
    """Tool pose at commanded angles ``q`` and elastic deflections ``theta``."""
    if theta is None:
        theta = np.zeros(6)
    st = chain_state(model, q, theta)
    return Pose(st.tool_p, st.tool_R)


def marker_positions(model: ManipulatorModel, q, theta=None) -> np.ndarray:
    """World positions of the tool-mounted markers, shape (..., n_markers, 3)
    for ``q`` and ``theta`` of shape (..., 6)."""
    if theta is None:
        theta = np.zeros(6)
    st = chain_state(model, q, theta)
    if not model.markers:
        return np.empty(st.tool_p.shape[:-1] + (0, 3))
    offs = np.stack(model.markers)
    return (st.tool_R @ offs.T).swapaxes(-1, -2) + st.tool_p[..., None, :]


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product over the last axis, broadcasting as numpy's does: its
    products and differences in its order, so the bits match, without its
    per-call axis bookkeeping."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0), axis=-1)


def _point_jacobian(st: ChainState, point: np.ndarray, n_cols: int = 6) -> np.ndarray:
    """6x6 Jacobian of a point rigidly attached after joint ``n_cols``: column
    ``i < n_cols`` is the lever arm ``[w_i x (p - p_i); w_i]``, the rest zero.
    Broadcasts over the leading axes of ``st`` and ``point`` (..., 3)."""
    w = st.joint_axis[..., :n_cols, :]
    lever = _cross(w, point[..., None, :] - st.joint_p[..., :n_cols, :])
    J = np.zeros(lever.shape[:-2] + (6, 6))
    J[..., :3, :n_cols] = lever.swapaxes(-1, -2)
    J[..., 3:, :n_cols] = w.swapaxes(-1, -2)
    return J


@dataclass
class NodeLoading:
    """Wrenches applied at the chain nodes.

    ``wrenches`` has shape (7, 6): row ``j`` acts at node ``j`` (row 0 at the
    inert joint-1 centre).
    """

    wrenches: np.ndarray
    loaded_nodes: tuple = field(init=False, repr=False, compare=False)  # 1..6, nonzero

    def __post_init__(self):
        w = np.asarray(self.wrenches, dtype=float)
        if w.shape != (7, 6):
            raise ValueError(f"wrenches must have shape (7, 6), got {w.shape}")
        self.wrenches = w
        self.loaded_nodes = tuple(j for j in range(1, 7) if w[j].any())

    def total_force(self) -> np.ndarray:
        return self.wrenches[:, :3].sum(axis=0)


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
    W = np.zeros((7, 6))
    g = model.gravity
    for i, joint in enumerate(model.joints):
        if joint.mass_kg == 0.0:
            continue
        w = joint.mass_kg * g
        p_link = joint.link_translation_mm
        L2 = float(p_link @ p_link)
        t = float(joint.com_mm @ p_link) / L2 if L2 > 0.0 else 0.5
        W[i + 1, :3] += t * w          # distal node i+1 (node index i+1)
        W[i, :3] += (1.0 - t) * w      # proximal node i
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
    loaded = [] if loading is None else [(j, st.node_p[..., j, :], loading.wrenches[j])
                                         for j in loading.loaded_nodes]
    if tool_wrench is not None:
        loaded.append((6, st.tool_p, tool_wrench))
    points = np.empty((len(loaded),) + batch + (3,))
    W = np.empty((len(loaded),) + batch + (6,))
    if not loaded:
        return np.empty((0,) + batch + (6, 6)), W
    for i, (_, p, w) in enumerate(loaded):
        points[i], W[i] = p, w
    J = _point_jacobian(st, points, 6)
    for i, (n, _, _) in enumerate(loaded):
        J[i, ..., n:] = 0.0
    return J, W


def load_torques(model: ManipulatorModel, st: ChainState, loading: Optional[NodeLoading],
                 tool_wrench=None) -> np.ndarray:
    """Generalized joint torques of node wrenches plus a tool wrench.

    Computes ``sum_j J_j(theta)^T G_j + J_tool^T F`` at the chain state
    ``st``; this is the right-hand side of the static equilibrium balance.
    A stacked ``st`` takes a tool wrench per pose (..., 6) or one for all,
    and gives torques (..., 6).
    """
    J, W = _loaded_jacobians(st, loading, tool_wrench)
    return (J.swapaxes(-1, -2) @ W[..., None])[..., 0].sum(axis=0)


def hessian_theta(model: ManipulatorModel, st: ChainState,
                  loading: Optional[NodeLoading] = None, tool_wrench=None) -> np.ndarray:
    """Load-potential Hessian w.r.t. deflections (6x6) at one chain state ``st``.

    Sums the loaded nodes (1..6; node 0 is inert) and the tool, each from
    its point Jacobian with ``c_b = J[:3, b]``.  A force ``f`` gives the exact
    Hessian of ``f . p(theta)``: ``d2p/dth_a dth_b = w_a x c_b`` for a <= b,
    and ``f . (w_a x c_b) = w_a . (c_b x f)``.  A moment ``m`` gives
    ``0.5 * m . (w_a x w_b)`` for a < b: constant spatial moments are
    non-conservative, and this symmetric part of ``d(J_rot^T m)/dtheta``
    keeps the stiffness operator symmetric (the conservative-congruence
    choice).  Both are formed on the upper triangle and mirrored; columns
    beyond a node's own joint are zero in its ``J``.
    """
    H = np.zeros((6, 6))
    for J, w in zip(*_loaded_jacobians(st, loading, tool_wrench)):
        W = J[3:].T
        U = np.triu(W @ _cross(J[:3].T, w[:3]).T)
        U += 0.5 * np.triu(W @ _cross(W, w[3:]).T, 1)
        H += U + np.triu(U, 1).T
    return H
