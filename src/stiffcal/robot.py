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

from .transforms import rot_axis, rot_rpy


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
        self._R_base = self.base.rotation()
        self._p_base = self.base.translation_mm
        self._R_tool = self.tool.rotation()
        self._p_tool = self.tool.translation_mm

    @property
    def compliances(self) -> np.ndarray:
        """Per-joint elastic compliances, rad/(N*mm)."""
        return np.array([j.compliance_rad_per_Nmm for j in self.joints])

    def total_mass(self) -> float:
        return float(sum(j.mass_kg for j in self.joints))


@dataclass
class ChainState:
    """All frames of the chain at one ``(q, theta)``; shared by J/H builders.

    ``node_p[j]`` is the position of node ``j`` for j = 0..6 (node 0 = joint-1
    centre).  ``joint_p[i]``/``joint_axis[i]`` give the centre and world axis
    of joint ``i+1``.
    """

    q: np.ndarray
    theta: np.ndarray
    joint_p: np.ndarray      # (6, 3)
    joint_axis: np.ndarray   # (6, 3)
    node_p: np.ndarray       # (7, 3)
    node_R: np.ndarray       # (6, 3, 3), frame of node j (j = 1..6 -> index j-1)
    tool_p: np.ndarray
    tool_R: np.ndarray


def chain_state(model: ManipulatorModel, q, theta) -> ChainState:
    """Evaluate every frame of the elastic chain at ``(q, theta)``."""
    q = np.asarray(q, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if q.shape != (6,) or theta.shape != (6,):
        raise ValueError("q and theta must be 6-vectors")
    R = model._R_base.copy()
    p = model._p_base.copy()
    joint_p = np.empty((6, 3))
    joint_axis = np.empty((6, 3))
    node_p = np.empty((7, 3))
    node_R = np.empty((6, 3, 3))
    node_p[0] = p
    for i in range(6):
        joint_p[i] = p
        joint_axis[i] = R @ model._axes[i]
        R = R @ rot_axis(model._axes[i], q[i] + theta[i])
        p = R @ model._link_p[i] + p
        R = R @ model._link_R[i]
        node_p[i + 1] = p
        node_R[i] = R
    tool_R = R @ model._R_tool
    tool_p = R @ model._p_tool + p
    return ChainState(q, theta, joint_p, joint_axis, node_p, node_R, tool_p, tool_R)


def fk(model: ManipulatorModel, q, theta=None) -> Pose:
    """Tool pose at commanded angles ``q`` and elastic deflections ``theta``."""
    if theta is None:
        theta = np.zeros(6)
    st = chain_state(model, q, theta)
    return Pose(st.tool_p, st.tool_R)


def marker_positions(model: ManipulatorModel, q, theta=None) -> np.ndarray:
    """World positions of the tool-mounted markers, shape (n_markers, 3)."""
    if theta is None:
        theta = np.zeros(6)
    st = chain_state(model, q, theta)
    if not model.markers:
        return np.empty((0, 3))
    offs = np.stack(model.markers)
    return (st.tool_R @ offs.T).T + st.tool_p


def _point_jacobian(st: ChainState, point: np.ndarray, n_cols: int = 6) -> np.ndarray:
    """6x6 Jacobian of a point rigidly attached after joint ``n_cols``: column
    ``i < n_cols`` is the lever arm ``[w_i x (p - p_i); w_i]``, the rest zero."""
    w = st.joint_axis[:n_cols]
    J = np.zeros((6, 6))
    J[:3, :n_cols] = np.cross(w, point - st.joint_p[:n_cols]).T
    J[3:, :n_cols] = w.T
    return J


@dataclass
class NodeLoading:
    """Wrenches applied at the chain nodes.

    ``wrenches`` has shape (7, 6): row ``j`` acts at node ``j`` (row 0 at the
    inert joint-1 centre).
    """

    wrenches: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.wrenches, dtype=float)
        if w.shape != (7, 6):
            raise ValueError(f"wrenches must have shape (7, 6), got {w.shape}")
        self.wrenches = w

    def total_force(self) -> np.ndarray:
        return self.wrenches[:, :3].sum(axis=0)


def gravity_loading(model: ManipulatorModel, q=None, theta=None) -> NodeLoading:
    """Link weights lumped to the node set by the lever rule about each COM.

    Each link's weight ``m_i * g`` splits between its two end nodes according
    to the COM's projected position along the link, so totals balance exactly
    and the moment about either end is preserved up to the COM's off-axis
    offset (inherent to end-node lumping).  The resulting wrench *values* are
    configuration independent -- split fractions are fixed in the link frames
    and gravity is constant in the base frame -- which is why ``q``/``theta``
    are accepted but unused; the application points do move, and that is
    captured by the node Jacobians.
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


def _loaded_points(st: ChainState, loading: Optional[NodeLoading], tool_wrench):
    """(point, wrench, n_cols) of each loaded node (1..6) and of the tool."""
    if loading is not None:
        for j in range(1, 7):
            w = loading.wrenches[j]
            if w.any():
                yield st.node_p[j], w, j
    if tool_wrench is not None:
        yield st.tool_p, np.asarray(tool_wrench, dtype=float), 6


def load_torques(model: ManipulatorModel, st: ChainState, loading: Optional[NodeLoading],
                 tool_wrench=None) -> np.ndarray:
    """Generalized joint torques of node wrenches plus a tool wrench.

    Computes ``sum_j J_j(theta)^T G_j + J_tool^T F`` at the chain state
    ``st``; this is the right-hand side of the static equilibrium balance.
    """
    tau = np.zeros(6)
    for p, w, n in _loaded_points(st, loading, tool_wrench):
        tau += _point_jacobian(st, p, n).T @ w
    return tau


def hessian_theta(model: ManipulatorModel, q, theta, loading: Optional[NodeLoading] = None,
                  tool_wrench=None) -> np.ndarray:
    """Second derivative of the load potential w.r.t. deflections (6x6).

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
    st = chain_state(model, q, theta)
    H = np.zeros((6, 6))
    for p, w, n in _loaded_points(st, loading, tool_wrench):
        J = _point_jacobian(st, p, n)
        W = J[3:].T
        U = np.triu(W @ np.cross(J[:3].T, w[:3]).T)
        U += 0.5 * np.triu(W @ np.cross(W, w[3:]).T, 1)
        H += U + np.triu(U, 1).T
    return H
