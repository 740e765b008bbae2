"""Calibration experiment design for the elastostatic identification.

The design metric is the variance of the predicted tool deflection at a
reference test pose, accumulated over the joint-2 angle buckets of the
plan.  Each bucket is scored as an independent least-squares estimator of
the reduced parameter vector (its own joint-2 compliance plus the shared
wrist/arm compliances), which keeps the metric cheap, additive over
buckets, and exactly halved by plan replication.

Angles are searched by cyclic coordinate descent over the free joints with
a shrinking grid, from several random feasible plans searched in lockstep.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import product
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .elasto_id import ParameterLayout, factor_regressor
from .errors import DataLayoutError, IdentifiabilityError
from .robot import ManipulatorModel, chain_state, _point_jacobian
from .tables import read_table, write_table

# Records per plan row: ``simulate deflections`` emits one per repeat and marker.
MAX_REPEATS = 10000

PLAN_CSV_HEADER = (
    "q1_deg", "q2_deg", "q3_deg", "q4_deg", "q5_deg", "q6_deg",
    "Fx_N", "Fy_N", "Fz_N", "Mx_Nmm", "My_Nmm", "Mz_Nmm", "repeats",
)


@dataclass(frozen=True)
class PlanEntry:
    """One measurement configuration: pose, applied tool wrench, repeats."""

    __test__ = False  # TestPose aliases this class; keep pytest away

    q_rad: Tuple[float, ...]
    wrench: Tuple[float, ...]
    repeats: int = 1

    def __post_init__(self):
        object.__setattr__(self, "q_rad", tuple(float(v) for v in self.q_rad))
        object.__setattr__(self, "wrench", tuple(float(v) for v in self.wrench))
        if len(self.q_rad) != 6 or len(self.wrench) != 6:
            raise ValueError("plan entry needs 6 joint angles and a 6-wrench")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.repeats > MAX_REPEATS:
            raise ValueError(f"repeats must be <= {MAX_REPEATS}, got {self.repeats}")

    @property
    def q(self) -> np.ndarray:
        return np.array(self.q_rad)

    @property
    def w(self) -> np.ndarray:
        return np.array(self.wrench)


# The reference pose/load whose deflection prediction a plan should serve.
TestPose = PlanEntry


@dataclass
class CalibrationPlan:
    entries: Tuple[PlanEntry, ...]

    def __post_init__(self):
        self.entries = tuple(self.entries)
        if not self.entries:
            raise ValueError("calibration plan is empty")

    @property
    def n_entries(self) -> int:
        return len(self.entries)

    def replicated(self, factor: int) -> "CalibrationPlan":
        """Same configurations with every repeat count multiplied."""
        return CalibrationPlan(tuple(
            PlanEntry(e.q_rad, e.wrench, e.repeats * factor) for e in self.entries))

    def layout(self) -> ParameterLayout:
        """Joint-2 bucket layout implied by the plan configurations."""
        return ParameterLayout.from_q2(e.q_rad[1] for e in self.entries)


@dataclass(frozen=True)
class NoiseModel:
    """Marker position noise: iid Gaussian on every axis."""

    sigma_mm: float = 0.05

    def __post_init__(self):
        if self.sigma_mm < 0:
            raise ValueError("noise sigma must be non-negative")


@dataclass(frozen=True)
class PlanConstraints:
    """Feasible region for plan search.

    ``q1_intervals_rad`` restricts the base joint to a union of windows
    (floor obstacles, tracker visibility); joints 3..6 use the plain limits.
    Joint 2 never moves: it is pinned to the bucket angle of each entry.
    """

    joint_limits_rad: Tuple[Tuple[float, float], ...]
    load_magnitude_N: float = 2600.0
    q1_intervals_rad: Optional[Tuple[Tuple[float, float], ...]] = None

    def __post_init__(self):
        lim = tuple((float(lo), float(hi)) for lo, hi in self.joint_limits_rad)
        if len(lim) != 6 or any(hi <= lo for lo, hi in lim):
            raise ValueError("joint_limits_rad must be six (lo, hi) pairs")
        object.__setattr__(self, "joint_limits_rad", lim)
        if self.load_magnitude_N <= 0:
            raise ValueError("load magnitude must be positive")
        if self.q1_intervals_rad is not None:
            ivs = tuple((float(lo), float(hi)) for lo, hi in self.q1_intervals_rad)
            if not ivs or any(hi <= lo for lo, hi in ivs):
                raise ValueError("q1 intervals must be non-empty (lo, hi) pairs")
            object.__setattr__(self, "q1_intervals_rad", ivs)

    def q1_windows(self) -> Tuple[Tuple[float, float], ...]:
        if self.q1_intervals_rad is not None:
            return self.q1_intervals_rad
        return (self.joint_limits_rad[0],)

    def wrench(self) -> np.ndarray:
        """Gravity-direction test load of the configured magnitude."""
        return np.array([0.0, 0.0, -self.load_magnitude_N, 0.0, 0.0, 0.0])


def save_plan_csv(path, plan: CalibrationPlan) -> None:
    write_table(path, PLAN_CSV_HEADER, (
        [f"{math.degrees(v):.10g}" for v in e.q_rad]
        + [f"{v:.10g}" for v in e.wrench] + [str(e.repeats)]
        for e in plan.entries))


def load_plan_csv(path) -> CalibrationPlan:
    _, entries = read_table(
        path, PLAN_CSV_HEADER, kind="plan", ints=("repeats",),
        row=lambda v: PlanEntry(tuple(np.radians(v[:6])), tuple(v[6:12]), v[12]))
    if not entries:
        raise DataLayoutError(f"{path}: no plan entries found")
    return CalibrationPlan(tuple(entries))


# ---------------------------------------------------------------------------
# sensitivity rows and the accuracy metric


def sensitivity_rows(model: ManipulatorModel, q, wrench, *,
                     include_joint1: bool = False,
                     tool_only: bool = False) -> np.ndarray:
    """Reduced-parameter deflection sensitivities at one configuration.

    Rows are marker position axes (or the tool point when ``tool_only``),
    columns are joints [k2..k6], or [k1..k6] with ``include_joint1``; the
    joint-2 column is evaluated at the configuration's own angle, which is
    what couples the bucket estimate to the pose it was measured at.
    ``q`` and ``wrench`` of shape ``(..., 6)`` give a stack of blocks
    ``(..., rows, cols)``, each equal to its own single-configuration call.
    """
    st = chain_state(model, q, np.zeros(6))
    Jt = _point_jacobian(st, st.tool_p, 6)
    w = np.asarray(wrench, dtype=float)
    tau = (Jt.swapaxes(-1, -2) @ w[..., None])[..., 0]
    if tool_only:
        points = [st.tool_p]
    else:
        offs = np.reshape(model.markers, (-1, 3))
        pts = (st.tool_R[..., None, :, :] @ offs[:, :, None])[..., 0]
        points = [pts[..., m, :] + st.tool_p for m in range(len(offs))]
    first = 0 if include_joint1 else 1
    A = np.zeros(tau.shape[:-1] + (3 * len(points), 6 - first))
    for m, pt in enumerate(points):
        A[..., 3 * m:3 * m + 3, :] = (_point_jacobian(st, pt, 6)[..., :3, first:]
                                      * tau[..., None, first:])
    return A


@dataclass
class TestPoseAccuracy:
    """Accuracy metric of a plan for one test pose."""

    __test__ = False  # not a test case despite the name, keep pytest away

    rho0_sq_mm2: float
    rho0_mm: float
    per_bucket_mm2: Tuple[float, ...]
    bucket_q2_rad: Tuple[float, ...]


def _bucket_variance(M: np.ndarray, A0: np.ndarray):
    """trace(A0 M^-1 A0^T) of each bucket in the stack ``M`` (..., w, w); inf
    where ``M`` is singular."""
    try:
        X = np.linalg.solve(M, np.broadcast_to(A0.T, M.shape[:-1] + A0.shape[:1]))
    except np.linalg.LinAlgError:
        if M.ndim == 2:
            return math.inf
        flat = [_bucket_variance(m, A0) for m in M.reshape((-1,) + M.shape[-2:])]
        return np.reshape(flat, M.shape[:-2])
    return np.sum(A0 * X.swapaxes(-1, -2), axis=(-2, -1))


def _bucket_informations(model: ManipulatorModel, plan: CalibrationPlan,
                         layout: ParameterLayout) -> List[np.ndarray]:
    Ms = [np.zeros((5, 5)) for _ in range(layout.n_buckets)]
    rows = sensitivity_rows(model, [e.q_rad for e in plan.entries],
                            [e.wrench for e in plan.entries])
    for i, (e, A) in enumerate(zip(plan.entries, rows)):
        b = layout.bucket_of(e.q_rad[1], context=f"plan entry {i}")
        Ms[b] += e.repeats * (A.T @ A)
    return Ms


def test_pose_accuracy(model: ManipulatorModel, plan: CalibrationPlan,
                       test: TestPose, noise: NoiseModel,
                       layout: Optional[ParameterLayout] = None) -> TestPoseAccuracy:
    """Predicted-deflection variance at ``test`` implied by the plan.

    rho0^2 = sigma^2 * sum_j trace(A0 M_j^-1 A0^T) over joint-2 buckets,
    where M_j is the information each bucket accumulates about its reduced
    parameter vector and A0 maps that vector to the tool deflection at the
    test pose.  Duplicating the plan doubles every M_j and halves rho0^2.
    """
    if layout is None:
        layout = plan.layout()
    if layout.n_buckets < 3:
        warnings.warn(
            f"plan covers only {layout.n_buckets} joint-2 angle(s); at least 3 "
            "are needed to separate the compensator afterwards", RuntimeWarning,
            stacklevel=2)
    A0 = sensitivity_rows(model, test.q, test.w, tool_only=True)
    t = _bucket_variance(np.array(_bucket_informations(model, plan, layout)), A0)
    singular = np.flatnonzero(t == math.inf)
    if singular.size:
        raise IdentifiabilityError(
            f"singular information matrix for joint-2 bucket at "
            f"{math.degrees(layout.bucket_q2_rad[singular[0]]):.2f} deg: the plan "
            "does not excite every compliance there")
    per_bucket = (noise.sigma_mm**2 * t).tolist()
    rho_sq = sum(per_bucket)
    return TestPoseAccuracy(rho0_sq_mm2=rho_sq, rho0_mm=math.sqrt(max(rho_sq, 0.0)),
                            per_bucket_mm2=tuple(per_bucket),
                            bucket_q2_rad=layout.bucket_q2_rad)


def parameter_covariance(model: ManipulatorModel, plan: CalibrationPlan,
                         noise: NoiseModel,
                         layout: Optional[ParameterLayout] = None) -> np.ndarray:
    """Covariance sigma^2 (B^T B)^-1 of the full stage-one compliance vector.

    B is the shared-parameter regressor (one k3..k6 across all buckets), each
    entry's rows weighted by sqrt(repeats).  It is factored and rank-checked
    by :func:`stiffcal.elasto_id.factor_regressor`, as in the identification.
    """
    if layout is None:
        layout = plan.layout()
    rows = sensitivity_rows(model, [e.q_rad for e in plan.entries],
                            [e.wrench for e in plan.entries])
    bucket = [layout.bucket_of(e.q_rad[1], context=f"plan entry {i}")
              for i, e in enumerate(plan.entries)]
    weight = np.sqrt([e.repeats for e in plan.entries])[:, None, None]
    B = layout.place(weight * rows, bucket).reshape(-1, layout.n_params)
    _, s, Vt = factor_regressor(B, layout)
    return noise.sigma_mm**2 * ((Vt.T / s**2) @ Vt)


# ---------------------------------------------------------------------------
# plan search


@dataclass
class OptimizedPlan:
    plan: CalibrationPlan
    accuracy: TestPoseAccuracy
    start_values_mm2: Tuple[float, ...]   # metric of each random start
    n_evaluations: int
    searched_joints: Tuple[int, ...]      # 1-based joints that were line-searched


_FREE_JOINTS = (0, 2, 3, 4, 5)   # q2 stays pinned to the bucket angle


def _searched_joints(model: ManipulatorModel, wrench: np.ndarray) -> Tuple[int, ...]:
    """``_FREE_JOINTS`` without joint 1 when the load's force and moment both
    lie along the joint-1 axis: turning joint 1 then turns every sensitivity
    row about that axis and leaves every bucket's information unchanged."""
    axis = model._R_base @ model._axes[0]
    axial = all(np.linalg.norm(v - (v @ axis) * axis) <= 1e-12 * np.linalg.norm(v)
                for v in (wrench[:3], wrench[3:]))
    return tuple(j for j in _FREE_JOINTS if j != 0 or not axial)


def _random_config(rng: np.random.Generator, q2: float,
                   constraints: PlanConstraints) -> np.ndarray:
    q = np.empty(6)
    windows = constraints.q1_windows()
    lo, hi = windows[rng.integers(len(windows))]
    q[0] = rng.uniform(lo, hi)
    q[1] = q2
    for j in range(2, 6):
        lo, hi = constraints.joint_limits_rad[j]
        q[j] = rng.uniform(lo, hi)
    return q


def _candidate_grids(joint: int, centres: np.ndarray, span: float,
                     constraints: PlanConstraints, n_grid: int):
    """Line-search grid of ``joint`` around each of ``centres``, clamped to its
    limits (the q1 windows for joint 1), sorted, without repeats and without
    the centre itself: ``(counts, values)``, the values centre by centre."""
    windows = (constraints.q1_windows() if joint == 0
               else (constraints.joint_limits_rad[joint],))
    g = np.sort(np.concatenate([
        np.linspace(np.maximum(lo, c - span), np.minimum(hi, c + span), n_grid, axis=-1)
        for lo, hi in windows for c in (np.clip(centres, lo, hi),)], axis=-1), axis=-1)
    keep = g != centres[:, None]
    keep[:, 1:] &= g[:, 1:] != g[:, :-1]
    return keep.sum(axis=1), g[keep]


def optimize_plan(model: ManipulatorModel, test: TestPose,
                  bucket_q2_rad: Sequence[float], constraints: PlanConstraints,
                  noise: NoiseModel, *,
                  configs_per_bucket: int = 3, repeats: int = 3,
                  n_starts: int = 20, n_grid: int = 7, n_levels: int = 3,
                  seed: int = 0) -> OptimizedPlan:
    """Search measurement configurations minimizing the test-pose variance.

    Multi-start cyclic coordinate descent: every searched joint of every
    entry is line-searched on a grid that shrinks over ``n_levels``
    refinement levels; joint 2 is pinned to its bucket angle, joint 1 keeps
    its random draw under a load along its axis, and the applied load is the
    gravity-direction wrench from ``constraints``.  Each step (config, joint)
    scores the grids of every bucket of every start still improving as one
    stack; the starts do not interact.  Deterministic for a fixed seed.
    """
    buckets = [float(b) for b in bucket_q2_rad]
    if len(buckets) < 1:
        raise ValueError("need at least one joint-2 bucket")
    for name, count in (("configs_per_bucket", configs_per_bucket),
                        ("repeats", repeats), ("n_starts", n_starts)):
        if count < 1:
            raise ValueError(f"{name} must be >= 1, got {count}")
    layout = ParameterLayout(tuple(sorted(buckets, reverse=True)))
    wrench = constraints.wrench()
    A0 = sensitivity_rows(model, test.q, test.w, tool_only=True)
    joints = _searched_joints(model, wrench)
    n_eval = 0

    def gram(q: np.ndarray) -> np.ndarray:
        nonlocal n_eval
        n_eval += q.size // 6
        A = sensitivity_rows(model, q, wrench)
        return repeats * (A.swapaxes(-1, -2) @ A)

    def bucket_term(M: np.ndarray) -> np.ndarray:
        t = _bucket_variance(M, A0)
        return np.where(t >= 0, t, math.inf)

    # (start, bucket, config, 6) poses, their repeats * A^T A, and each bucket's sum
    configs = np.array([[[_random_config(rng, b, constraints)
                          for _ in range(configs_per_bucket)]
                         for b in layout.bucket_q2_rad]
                        for rng in (np.random.default_rng((seed, s))
                                    for s in range(n_starts))])
    G = gram(configs)
    Ms = sum(G[:, :, c] for c in range(configs_per_bucket))
    terms = bucket_term(Ms).tolist()
    totals = [sum(t) for t in terms]
    start_values = tuple(noise.sigma_mm**2 * t for t in totals)
    for level in range(n_levels):
        scale = (2.0 * max(n_grid - 1, 1))**level
        improved, passes = [True] * n_starts, [0] * n_starts
        while active := [s for s in range(n_starts) if improved[s] and passes[s] < 3]:
            for s in active:
                improved[s] = False
                passes[s] += 1
            for c in range(configs_per_bucket):
                for j in joints:
                    lo, hi = constraints.joint_limits_rad[j]
                    q_cur = configs[active][:, :, c].reshape(-1, 6)
                    counts, grid = _candidate_grids(j, q_cur[:, j], (hi - lo) / scale,
                                                    constraints, n_grid)
                    if not grid.size:
                        continue
                    q_try = np.repeat(q_cur, counts, axis=0)
                    q_try[:, j] = grid
                    G_try = gram(q_try)
                    base = (Ms[active] - G[active][:, :, c]).reshape((-1,) + Ms.shape[-2:])
                    M_try = np.repeat(base, counts, axis=0) + G_try
                    t_try = bucket_term(M_try).tolist()
                    stop = 0
                    for (s, b), size in zip(product(active, range(layout.n_buckets)),
                                            counts.tolist()):
                        k0, stop = stop, stop + size
                        best_val, best = totals[s], None
                        rest = totals[s] - terms[s][b]
                        for k in range(k0, stop):
                            val = rest + t_try[k]
                            if val < best_val * (1.0 - 1e-15):
                                best_val, best = val, k
                        if best is not None:
                            configs[s, b, c] = q_try[best]
                            G[s, b, c] = G_try[best]
                            Ms[s, b] = M_try[best]
                            terms[s][b] = t_try[best]
                            totals[s] = best_val
                            improved[s] = True
    finite = [s for s, total in enumerate(totals) if total < math.inf]
    if not finite:
        raise IdentifiabilityError(
            "no random start reached a finite design metric: every plan tried "
            "leaves some joint-2 bucket unidentifiable")
    best_start = min(finite, key=totals.__getitem__)
    plan = CalibrationPlan(tuple(PlanEntry(tuple(qc), tuple(wrench), repeats)
                                 for bucket in configs[best_start] for qc in bucket))
    acc = test_pose_accuracy(model, plan, test, noise, layout=layout)
    return OptimizedPlan(plan=plan, accuracy=acc, start_values_mm2=start_values,
                         n_evaluations=n_eval,
                         searched_joints=tuple(j + 1 for j in joints))
