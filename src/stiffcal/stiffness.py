"""Elastostatics: equilibrium under load, Cartesian stiffness, deflections.

The static balance of the lumped-elasticity chain reads

    K_th(q) * theta = sum_j J_j(theta)^T G_j + J_tool(theta)^T F

with ``K_th`` the diagonal joint stiffness matrix (joint 2 gets its
compensator-equivalent value), ``G_j`` the lumped gravity wrenches and ``F``
the external tool wrench.  Two solver modes:

* primal -- F is known, iterate the damped fixed point for theta;
* dual -- the loaded tool pose is prescribed and the wrench F sustaining it
  is the unknown, solved by the alternating update that also yields theta.

The Cartesian stiffness at an equilibrium is the exact derivative dF/dt of
the dual problem: ``K_C = (J (K_th - H)^-1 J^T)^-1`` with H the load
Hessian, so finite-difference probes of the solver reproduce it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .compensator import CompensatorParams, equivalent_joint_stiffness
from .doe import sensitivity_rows
from .errors import SingularConfigurationError
from .robot import (ManipulatorModel, Pose, chain_state, gravity_loading,
                    hessian_theta, load_torques, _point_jacobian)
from .transforms import pose_difference, rot_from_rotvec

_POSITION_TOL_MM = 1e-9
_THETA_TOL_RAD = 1e-12
_MAX_ITER = 100


def joint_stiffness_matrix(model: ManipulatorModel,
                           compensator: Optional[CompensatorParams], q) -> np.ndarray:
    """Diagonal joint stiffness (N*mm/rad) at commanded angles ``q``.

    Only the joint-2 entry depends on the configuration: with a compensator
    attached it becomes the equivalent stiffness of spring-plus-linkage at
    q2.  Zero compliances cannot be represented ("infinite stiffness
    unsupported in inverse form").
    """
    q = np.asarray(q, dtype=float)
    k = model.compliances
    if np.any(k == 0.0):
        bad = [i + 1 for i in np.flatnonzero(k == 0.0)]
        raise SingularConfigurationError(
            f"zero compliance at joint(s) {bad}: infinite stiffness unsupported "
            "in inverse form")
    K = np.diag(1.0 / k)
    if compensator is not None:
        K[1, 1] = equivalent_joint_stiffness(compensator, 1.0 / k[1], q[1])
    return K


@dataclass
class EquilibriumState:
    """Solver output: deflections, sustaining wrench, loaded pose."""

    q: np.ndarray
    theta: np.ndarray
    tool_wrench: np.ndarray
    pose: Pose
    converged: bool
    iterations: int
    residual_position_mm: float
    residual_wrench_rel: float


@dataclass
class CartesianStiffness:
    """6x6 Cartesian stiffness at an equilibrium (N/mm force rows, N*mm moment rows)."""

    matrix: np.ndarray
    q: np.ndarray
    theta: np.ndarray


def _wrench_residual_rel(K: np.ndarray, theta: np.ndarray, tau: np.ndarray) -> float:
    r = K @ theta - tau
    return float(np.linalg.norm(r) / max(1.0, np.linalg.norm(tau)))


def _check_jacobian(J: np.ndarray) -> None:
    sv = np.linalg.svd(J, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] / sv[0] < 1e-14:
        raise SingularConfigurationError(
            "singular tool Jacobian: configuration at a workspace boundary")


def solve_equilibrium(model: ManipulatorModel, compensator: Optional[CompensatorParams],
                      q, tool_wrench=None, target: Optional[Pose] = None,
                      include_gravity: bool = True, max_iter: int = _MAX_ITER
                      ) -> EquilibriumState:
    """Solve the static equilibrium at commanded angles ``q``.

    Exactly one of the two load descriptions applies: pass ``tool_wrench``
    (primal mode; omit or None means gravity sag only) or ``target`` (dual
    mode: find the wrench that holds the tool at that pose).  Convergence:
    deflection update below 1e-12 rad or position residual below 1e-9 mm,
    capped at ``max_iter`` iterations (the state is then flagged, not
    raised).
    """
    q = np.asarray(q, dtype=float)
    K = joint_stiffness_matrix(model, compensator, q)
    loading = gravity_loading(model) if include_gravity else None
    if target is not None and tool_wrench is not None:
        raise ValueError("pass either tool_wrench (primal) or target (dual), not both")
    if target is not None:
        return _solve_dual(model, q, K, loading, target, max_iter)
    F = np.zeros(6) if tool_wrench is None else np.asarray(tool_wrench, dtype=float)
    return _solve_primal(model, q, K, loading, F, max_iter)


def _solve_primal(model, q, K, loading, F, max_iter) -> EquilibriumState:
    theta = np.zeros(6)
    st = chain_state(model, q, theta)
    tau = load_torques(model, st, loading, F)
    res = _wrench_residual_rel(K, theta, tau)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        theta_star = np.linalg.solve(K, tau)
        lam = 1.0
        while True:
            cand = theta + lam * (theta_star - theta)
            st_c = chain_state(model, q, cand)
            tau_c = load_torques(model, st_c, loading, F)
            res_c = _wrench_residual_rel(K, cand, tau_c)
            if res_c <= res or lam < 1.0 / 1024.0:
                break
            lam *= 0.5  # damp the step when the balance residual grows
        step = float(np.linalg.norm(cand - theta))
        theta, st, tau, res = cand, st_c, tau_c, res_c
        if step < _THETA_TOL_RAD or res < 1e-12:
            converged = True
            break
    pose = Pose(st.tool_p, st.tool_R)
    return EquilibriumState(q=q, theta=theta, tool_wrench=np.asarray(F, dtype=float),
                            pose=pose, converged=converged, iterations=iterations,
                            residual_position_mm=0.0, residual_wrench_rel=res)


def _solve_dual(model, q, K, loading, target: Pose, max_iter) -> EquilibriumState:
    theta = np.zeros(6)
    F = np.zeros(6)
    converged = False
    iterations = 0
    pos_res = np.inf
    for iterations in range(1, max_iter + 1):
        st = chain_state(model, q, theta)
        J = _point_jacobian(st, st.tool_p, 6)
        _check_jacobian(J)
        tau_G = load_torques(model, st, loading, None)
        Kin_JT = np.linalg.solve(K, J.T)
        A = J @ Kin_JT
        twist = pose_difference(target.p, target.R, st.tool_p, st.tool_R)
        rhs = twist + J @ theta - J @ np.linalg.solve(K, tau_G)
        F = np.linalg.solve(A, rhs)
        theta_next = np.linalg.solve(K, tau_G + J.T @ F)
        step = float(np.linalg.norm(theta_next - theta))
        theta = theta_next
        st = chain_state(model, q, theta)
        pos_res = float(np.linalg.norm(target.p - st.tool_p))
        if step < _THETA_TOL_RAD or pos_res < _POSITION_TOL_MM:
            converged = True
            break
    tau = load_torques(model, st, loading, F)
    res = _wrench_residual_rel(K, theta, tau)
    pose = Pose(st.tool_p, st.tool_R)
    return EquilibriumState(q=q, theta=theta, tool_wrench=F, pose=pose,
                            converged=converged, iterations=iterations,
                            residual_position_mm=pos_res, residual_wrench_rel=res)


def cartesian_stiffness(model: ManipulatorModel, compensator: Optional[CompensatorParams],
                        state: EquilibriumState, include_gravity: bool = True
                        ) -> CartesianStiffness:
    """Cartesian stiffness ``(J (K_th - H)^-1 J^T)^-1`` at an equilibrium.

    ``H`` collects the gravity and tool-wrench load Hessians at the
    equilibrium deflections, so the result is the exact local derivative of
    sustaining wrench w.r.t. prescribed tool pose.
    """
    q, theta = state.q, state.theta
    K = joint_stiffness_matrix(model, compensator, q)
    loading = gravity_loading(model) if include_gravity else None
    H = hessian_theta(model, q, theta, loading, state.tool_wrench)
    Keff = K - H
    w = np.linalg.eigvalsh(0.5 * (Keff + Keff.T))
    if np.min(np.abs(w)) < 1e-12 * np.max(np.abs(w)):
        raise SingularConfigurationError(
            "joint stiffness minus load Hessian is singular: buckling-like "
            "instability of the elastic chain")
    st = chain_state(model, q, theta)
    J = _point_jacobian(st, st.tool_p, 6)
    _check_jacobian(J)
    S = J @ np.linalg.solve(Keff, J.T)
    S = 0.5 * (S + S.T)  # clean roundoff; S is symmetric analytically
    Kc = np.linalg.inv(S)
    Kc = 0.5 * (Kc + Kc.T)
    return CartesianStiffness(matrix=Kc, q=q, theta=theta)


def predict_marker_deflections(model: ManipulatorModel,
                               compensator: Optional[CompensatorParams],
                               q, tool_wrench) -> np.ndarray:
    """First-order marker displacements under a tool wrench, (n_markers, 3).

    Linearizes at theta = 0: the per-joint sensitivity rows of
    :func:`stiffcal.doe.sensitivity_rows` scaled by the per-joint compliances
    (joint 2 uses its compensator-equivalent value).  Gravity drops out of
    this difference model by construction.
    """
    k = 1.0 / np.diag(joint_stiffness_matrix(model, compensator, q))
    A = sensitivity_rows(model, q, tool_wrench, include_joint1=True)
    return (A @ k).reshape(-1, 3)


def predict_tool_deflection(model: ManipulatorModel,
                            compensator: Optional[CompensatorParams],
                            q, tool_wrench) -> np.ndarray:
    """First-order tool twist (3 mm rows, 3 rad rows) under a tool wrench."""
    q = np.asarray(q, dtype=float)
    F = np.asarray(tool_wrench, dtype=float)
    K = joint_stiffness_matrix(model, compensator, q)
    st = chain_state(model, q, np.zeros(6))
    J = _point_jacobian(st, st.tool_p, 6)
    return J @ np.linalg.solve(K, J.T @ F)


def compensate_target(model: ManipulatorModel, compensator: Optional[CompensatorParams],
                      q, tool_wrench, desired: Pose,
                      include_gravity: bool = True) -> Pose:
    """Mirror the predicted load-induced deflection about the desired pose.

    The deflection is the pose change between the gravity-only equilibrium
    and the loaded equilibrium at ``q``; commanding the returned pose instead
    of ``desired`` cancels the deflection to first order.  With a zero wrench
    the desired pose is returned unchanged.
    """
    st_g = solve_equilibrium(model, compensator, q, include_gravity=include_gravity)
    st_f = solve_equilibrium(model, compensator, q, tool_wrench=tool_wrench,
                             include_gravity=include_gravity)
    delta = pose_difference(st_f.pose.p, st_f.pose.R, st_g.pose.p, st_g.pose.R)
    p = np.asarray(desired.p, dtype=float) - delta[:3]
    R = rot_from_rotvec(-delta[3:]) @ desired.R
    return Pose(p, R)
