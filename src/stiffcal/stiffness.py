"""Elastostatics: equilibrium under load, Cartesian stiffness, deflections.

The static balance of the lumped-elasticity chain reads

    K_th(q) * theta = sum_j J_j(theta)^T G_j + J_tool(theta)^T F

with ``K_th`` the diagonal joint stiffness matrix, held as the vector of its
diagonal (joint 2 gets its compensator-equivalent value), ``G_j`` the lumped
gravity wrenches and ``F`` the external tool wrench.  Two solver modes:

* primal -- F is known, step theta through the inverse of each pose's own
  ``K_th - H`` at theta = 0, every pose of a stack stepping together
  (:func:`solve_equilibria`); the update criterion is tested on the update
  a pose would take next, formed from the state it has, and a negligible
  update is not taken, so a pose's ``iterations`` counts the updates it
  took;
* dual -- the loaded tool pose is prescribed and the wrench F sustaining it
  is the unknown, solved by the alternating update that also yields theta.

The Cartesian stiffness at an equilibrium is the exact derivative dF/dt of
the dual problem: ``K_C = (J (K_th - H)^-1 J^T)^-1`` with H the load
Hessian, so finite-difference probes of the solver reproduce it.

Terms taken at one chain state share one loaded-Jacobian stack
(:mod:`stiffcal.robot`): the primal's ``K_th - H`` and its torques at
theta = 0, the dual's tool Jacobian and gravity torques at each state, and
the stiffness's ``H`` and ``J``, read from the stack either solve ended on,
with the joint stiffnesses the solve used.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .compensator import CompensatorParams, equivalent_joint_stiffness
from .doe import sensitivity_rows
from .errors import ConvergenceError, SingularConfigurationError
from .robot import (ManipulatorModel, Pose, chain_state, _hessian, _loaded_jacobians,
                    _point_jacobian, _torques)
from .transforms import dot_rows, pose_difference, rot_from_rotvec

_POSITION_TOL_MM = 1e-9
_THETA_TOL_RAD = 1e-12
_MAX_ITER = 100


def joint_stiffnesses(model: ManipulatorModel,
                      compensator: Optional[CompensatorParams], q) -> np.ndarray:
    """Joint stiffnesses (N*mm/rad) at commanded angles ``q``: the diagonal
    of the joint stiffness matrix, (..., 6) for ``q`` of shape (..., 6).

    Only the joint-2 entry depends on the configuration: with a compensator
    attached it becomes the equivalent stiffness of spring-plus-linkage at
    q2.  Zero compliances cannot be represented ("infinite stiffness
    unsupported in inverse form").
    """
    q = np.asarray(q, dtype=float)
    if model._rigid_joints:
        raise SingularConfigurationError(
            f"zero compliance at joint(s) {model._rigid_joints}: infinite stiffness "
            "unsupported in inverse form")
    K = np.empty(q.shape)
    K[...] = model._joint_stiffness
    if compensator is not None:
        K[..., 1] = equivalent_joint_stiffness(compensator, model._joint_stiffness[1],
                                               q[..., 1])
    return K


@dataclass
class EquilibriumState:
    """Solver output: deflections, sustaining wrench, loaded pose.

    :func:`solve_equilibria` fills every field with a stack, one entry per
    pose (``converged``, ``iterations`` and the residuals as arrays (N,));
    :func:`solve_equilibrium` gives one pose with scalar fields.  Primal mode
    has no target pose, so its ``residual_position_mm`` is nan.  In primal
    mode ``iterations`` counts the updates taken: a pose that stops on a
    negligible next update does not take it, and its fields are those of
    the state it stopped at.

    A state a solver returns also keeps ``_loaded``: the model and the
    compensator it was solved with, its joint stiffnesses ``K`` and the
    loaded-Jacobian stack ``(J, W)`` of its final chain state
    (:func:`stiffcal.robot._loaded_jacobians` with its tool wrench), which
    :func:`cartesian_stiffness` reads instead of building them again.  It is a
    class attribute, not a field, so a state built by the caller or copied by
    ``dataclasses.replace`` has ``_loaded = None``, and fields, equality and
    repr never see it.  Do not change a solver's state in place: its stack
    would no longer match it.
    """

    q: np.ndarray
    theta: np.ndarray
    tool_wrench: np.ndarray
    pose: Pose
    converged: bool
    iterations: int
    residual_position_mm: float
    residual_wrench_rel: float

    _loaded = None   # (model, compensator, K, J, W) of the solve that returned the state

    def _ended_on(self, model: ManipulatorModel, compensator: Optional[CompensatorParams],
                  K, J, W) -> "EquilibriumState":
        """This state, keeping the joint stiffnesses ``K`` its solve on
        ``model`` and ``compensator`` used and the stack it ended on."""
        self._loaded = (model, compensator, K, J, W)
        return self


@dataclass
class CartesianStiffness:
    """6x6 Cartesian stiffness at an equilibrium (N/mm force rows, N*mm moment rows)."""

    matrix: np.ndarray


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of ``x`` (..., n)."""
    return np.sqrt(dot_rows(x, x))


def _wrench_residual_rel(K: np.ndarray, theta: np.ndarray, tau: np.ndarray) -> np.ndarray:
    r = K * theta - tau
    return _norms(r) / np.maximum(1.0, _norms(tau))


def _check_jacobian(J: np.ndarray) -> None:
    sv = np.linalg.svd(J, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] / sv[0] < 1e-14:
        raise SingularConfigurationError(
            "singular tool Jacobian: configuration at a workspace boundary")


def solve_equilibrium(model: ManipulatorModel, compensator: Optional[CompensatorParams],
                      q, tool_wrench=None, target: Optional[Pose] = None
                      ) -> EquilibriumState:
    """Solve the static equilibrium at commanded angles ``q``.

    Exactly one of the two load descriptions applies: pass ``tool_wrench``
    (primal mode; omit or None means gravity sag only) or ``target`` (dual
    mode: find the wrench that holds the tool at that pose).  The link
    weights come from the model's gravity (:func:`stiffcal.robot.gravity_loading`);
    a model with zero gravity is a weightless arm.  Convergence: deflection
    update below 1e-12 rad, or relative balance residual below 1e-12
    (primal) or position residual below 1e-9 mm (dual), capped at
    ``_MAX_ITER`` iterations (the state is then flagged, not raised).  The
    primal mode tests the update it would take next, on the state it has,
    and stops there without taking a negligible one, so ``iterations``
    counts the updates taken; it is the stacked solver of
    :func:`solve_equilibria` on a stack of one.
    """
    q = np.asarray(q, dtype=float)
    K = joint_stiffnesses(model, compensator, q)
    if target is not None and tool_wrench is not None:
        raise ValueError("pass either tool_wrench (primal) or target (dual), not both")
    if target is not None:
        return _solve_dual(model, compensator, q, K, target)
    F = np.zeros(6) if tool_wrench is None else np.asarray(tool_wrench, dtype=float)
    return _one(_solve_primal(model, compensator, q[None], K[None], F[None]), 0)


def _one(st: EquilibriumState, i: int) -> EquilibriumState:
    """Pose ``i`` of a stacked primal state, with scalar fields."""
    model, compensator, K, J, W = st._loaded
    return EquilibriumState(q=st.q[i], theta=st.theta[i], tool_wrench=st.tool_wrench[i],
                            pose=Pose(st.pose.p[i], st.pose.R[i]),
                            converged=bool(st.converged[i]),
                            iterations=int(st.iterations[i]),
                            residual_wrench_rel=float(st.residual_wrench_rel[i]),
                            residual_position_mm=np.nan)._ended_on(model, compensator, K[i],
                                                                   J[:, i], W[:, i])


def solve_equilibria(model: ManipulatorModel, compensator: Optional[CompensatorParams],
                     q, tool_wrench) -> EquilibriumState:
    """Primal equilibria of a stack of poses ``q`` (N, 6) under tool wrenches
    (N, 6), all in one loop.

    Every pose steps by ``(K_th - H_0)^-1 (tau - K_th theta)``, with its own
    ``K_th - H`` formed once at theta = 0, and keeps its own convergence test
    and iteration count.  Before each step a pose whose update would be
    below 1e-12 rad stops converged without taking it; after each step a
    pose whose relative balance residual is below 1e-12 stops converged,
    and one whose residual does not fall stops at once, flagged
    unconverged.  ``iterations`` counts the updates each pose took, up to
    ``_MAX_ITER``.  A pose that has stopped keeps its bits, so each result
    in the stacked state is the one its pose gets solved alone.
    """
    q = np.asarray(q, dtype=float)
    K = joint_stiffnesses(model, compensator, q)
    F = np.asarray(tool_wrench, dtype=float)
    return _solve_primal(model, compensator, q, K, F)


def _solve_primal(model, compensator, q, K, F) -> EquilibriumState:
    loading = model._gravity_loading
    n = q.shape[0]
    theta = np.zeros((n, 6))
    st = chain_state(model, q, theta)
    # the tangent K - H (the derivative of the balance residual w.r.t. theta)
    # and the torques share one loaded-Jacobian stack; K - H stays at
    # theta = 0: rebuilding it at every iteration (full Newton) saves
    # iterations but costs more time than they do
    J, W = _loaded_jacobians(st, loading, F)
    T = np.linalg.inv(K[..., None] * np.eye(6) - _hessian(J, W))
    tau = _torques(J, W)
    res = _wrench_residual_rel(K, theta, tau)
    iterations = np.zeros(n, dtype=int)
    live = np.ones(n, dtype=bool)
    converged = np.zeros(n, dtype=bool)
    for _ in range(_MAX_ITER):
        step = (T @ (tau - K * theta)[..., None])[..., 0]
        # a pose whose next update is negligible stops at the state it has,
        # without taking it
        small = live & (_norms(step) < _THETA_TOL_RAD)
        converged |= small
        live &= ~small
        if not live.any():
            break
        # a pose that has stopped keeps its theta: its state recomputes bit for bit
        cand = np.where(live[:, None], theta + step, theta)
        st = chain_state(model, q, cand)
        # the last stack, at the returned theta, is kept for the stiffness
        J, W = _loaded_jacobians(st, loading, F)
        tau_c = _torques(J, W)
        res_c = _wrench_residual_rel(K, cand, tau_c)
        iterations += live
        done = live & (res_c < 1e-12)
        # a live pose whose balance residual does not fall has diverged
        stop = done | (live & ~(res_c < res))
        theta, tau, res = cand, tau_c, res_c
        converged |= done
        live &= ~stop
    return EquilibriumState(q=q, theta=theta, tool_wrench=F,
                            pose=Pose(st.tool_p, st.tool_R), converged=converged,
                            iterations=iterations, residual_position_mm=np.full(n, np.nan),
                            residual_wrench_rel=res)._ended_on(model, compensator, K, J, W)


def _solve_dual(model, compensator, q, K, target: Pose) -> EquilibriumState:
    loading = model._gravity_loading
    theta = np.zeros(6)
    F = np.zeros(6)
    converged = False
    iterations = 0
    pos_res = np.inf
    st = chain_state(model, q, theta)
    # one stack per chain state: its last entry is the tool Jacobian, its
    # node entries give the gravity torques; the last one is kept
    Js, W = _loaded_jacobians(st, loading, F)
    for iterations in range(1, _MAX_ITER + 1):
        J = Js[-1]
        _check_jacobian(J)
        tau_G = _torques(Js[:-1], W[:-1])
        # J^T scaled by 1/K: the bits of OpenBLAS's solve against np.diag(K)
        A = J @ (J.T * (1.0 / K)[:, None])
        twist = pose_difference(target.p, target.R, st.tool_p, st.tool_R)
        rhs = twist + J @ theta - J @ (tau_G / K)
        F = np.linalg.solve(A, rhs)
        theta_next = (tau_G + J.T @ F) / K
        step = float(np.linalg.norm(theta_next - theta))
        theta = theta_next
        st = chain_state(model, q, theta)
        Js, W = _loaded_jacobians(st, loading, F)
        pos_res = float(np.linalg.norm(target.p - st.tool_p))
        if step < _THETA_TOL_RAD or pos_res < _POSITION_TOL_MM:
            converged = True
            break
    res = float(_wrench_residual_rel(K, theta, _torques(Js, W)))
    return EquilibriumState(q=q, theta=theta, tool_wrench=F, pose=Pose(st.tool_p, st.tool_R),
                            converged=converged, iterations=iterations,
                            residual_position_mm=pos_res,
                            residual_wrench_rel=res)._ended_on(model, compensator, K, Js, W)


def cartesian_stiffness(model: ManipulatorModel, compensator: Optional[CompensatorParams],
                        state: EquilibriumState) -> CartesianStiffness:
    """Cartesian stiffness ``(J (K_th - H)^-1 J^T)^-1`` at an equilibrium.

    ``H`` collects the gravity and tool-wrench load Hessians at the
    equilibrium deflections, so the result is the exact local derivative of
    sustaining wrench w.r.t. prescribed tool pose.  The gravity is the
    model's, as in the solve that gave ``state``.  H and J are read from the
    stack the solve ended on when it ran on this very ``model`` object
    (``EquilibriumState._loaded``), and the joint stiffnesses too when it
    also ran with this very ``compensator`` object; else they are built
    here, with the same bits.
    """
    solved_on, solved_with, K, Js, W = state._loaded or (None,) * 5
    if solved_on is not model or solved_with is not compensator:
        K = joint_stiffnesses(model, compensator, state.q)
    if solved_on is not model:
        st = chain_state(model, state.q, state.theta)
        # a state without a tool wrench takes a zero one, which adds nothing to H
        F = np.zeros(6) if state.tool_wrench is None else state.tool_wrench
        Js, W = _loaded_jacobians(st, model._gravity_loading, F)
    # H's stack ends with the tool, whose Jacobian is J
    Keff = K[..., None] * np.eye(6) - _hessian(Js, W)
    w = np.linalg.eigvalsh(0.5 * (Keff + Keff.T))
    if w[0] < 1e-12 * np.max(np.abs(w)):
        raise SingularConfigurationError(
            "joint stiffness minus load Hessian is not positive definite: "
            "buckling-like instability of the elastic chain")
    J = Js[-1]
    _check_jacobian(J)
    S = J @ np.linalg.solve(Keff, J.T)
    S = 0.5 * (S + S.T)  # clean roundoff; S is symmetric analytically
    Kc = np.linalg.inv(S)
    Kc = 0.5 * (Kc + Kc.T)
    return CartesianStiffness(matrix=Kc)


def predict_marker_deflections(model: ManipulatorModel,
                               compensator: Optional[CompensatorParams],
                               q, tool_wrench) -> np.ndarray:
    """First-order marker displacements under a tool wrench, (n_markers, 3).

    Linearizes at theta = 0: the per-joint sensitivity rows of
    :func:`stiffcal.doe.sensitivity_rows` scaled by the per-joint compliances
    (joint 2 uses its compensator-equivalent value).  Gravity drops out of
    this difference model by construction.  ``q`` and ``tool_wrench`` of
    shape (..., 6) give (..., n_markers, 3) from one stacked row call.
    """
    k = 1.0 / joint_stiffnesses(model, compensator, q)
    A = sensitivity_rows(model, q, tool_wrench, include_joint1=True)
    return (A @ k[..., None])[..., 0].reshape(k.shape[:-1] + (-1, 3))


def predict_tool_deflection(model: ManipulatorModel,
                            compensator: Optional[CompensatorParams],
                            q, tool_wrench) -> np.ndarray:
    """First-order tool twist (3 mm rows, 3 rad rows) under a tool wrench."""
    K = joint_stiffnesses(model, compensator, q)
    st = chain_state(model, q, np.zeros(6))
    J = _point_jacobian(st, st.tool_p)
    return J @ ((J.T @ np.asarray(tool_wrench, dtype=float)) / K)


def _load_pairs(model: ManipulatorModel, compensator: Optional[CompensatorParams],
                q, tool_wrench) -> EquilibriumState:
    """The gravity-only equilibria at the N poses of ``q`` (N, 6) or (6,), then
    the loaded ones under their tool wrenches, as one stack of 2N; raises
    :class:`ConvergenceError` naming the first pose either did not reach."""
    q = np.asarray(q, dtype=float).reshape(-1, 6)
    w = np.asarray(tool_wrench, dtype=float).reshape(-1, 6)
    n = len(q)
    st = solve_equilibria(model, compensator, np.concatenate([q, q]),
                          np.concatenate([np.zeros_like(w), w]))
    bad = np.flatnonzero(~(st.converged[:n] & st.converged[n:]))
    if bad.size:
        i = int(bad[0])
        stop = i if not st.converged[i] else n + i
        raise ConvergenceError(
            f"equilibrium did not converge for pose {i} "
            f"(q2={np.degrees(q[i, 1]):.1f} deg) after {st.iterations[stop]} iterations")
    return st


def loaded_equilibrium(model: ManipulatorModel, compensator: Optional[CompensatorParams],
                       q, tool_wrench) -> Tuple[EquilibriumState, np.ndarray]:
    """The loaded equilibrium at ``q`` and the tool pose change the load causes.

    The gravity-only and the loaded equilibrium are solved as one stack
    (:class:`ConvergenceError` unless both converge).  The loaded state has
    scalar fields and the bits :func:`solve_equilibrium` gives it; the
    change is the twist (3 mm rows, 3 rad rows) from the gravity-only to
    the loaded tool pose.
    """
    st = _load_pairs(model, compensator, q, tool_wrench)
    g, f = _one(st, 0), _one(st, len(st.q) // 2)
    return f, pose_difference(f.pose.p, f.pose.R, g.pose.p, g.pose.R)


def mirror_deflection(desired: Pose, delta) -> Pose:
    """The pose to command so that the tool pose change ``delta`` (a twist,
    as :func:`loaded_equilibrium` gives it) lands on ``desired``, to first
    order: ``delta`` mirrored about the desired pose."""
    p = np.asarray(desired.p, dtype=float) - delta[:3]
    R = rot_from_rotvec(-delta[3:]) @ desired.R
    return Pose(p, R)


def compensate_target(model: ManipulatorModel, compensator: Optional[CompensatorParams],
                      q, tool_wrench, desired: Pose) -> Pose:
    """Mirror the predicted load-induced deflection about the desired pose.

    The deflection is the pose change between the gravity-only equilibrium
    and the loaded equilibrium at ``q`` (:func:`loaded_equilibrium`);
    commanding the returned pose instead of ``desired`` cancels the
    deflection to first order.  With a zero wrench the desired pose is
    returned unchanged.
    """
    return mirror_deflection(desired, loaded_equilibrium(model, compensator, q,
                                                         tool_wrench)[1])
