"""Calibration experiment design for the elastostatic identification.

The design metric is the variance of the predicted tool deflection at a
reference test pose, accumulated over the joint-2 angle buckets of the
plan.  Each bucket is scored as an independent least-squares estimator of
the reduced parameter vector (its own joint-2 compliance plus the shared
wrist/arm compliances), which keeps the metric cheap, additive over
buckets, and exactly halved by plan replication.

Angles are searched by cyclic coordinate descent over the free joints with
a shrinking grid, restarted from several random feasible plans.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .elasto_id import ParameterLayout, csv_floats
from .errors import DataLayoutError, IdentifiabilityError
from .robot import ManipulatorModel, chain_state, _point_jacobian

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

    def layout(self, include_joint1: bool = False,
               bucket_tol_rad: float = math.radians(0.1)) -> ParameterLayout:
        """Joint-2 bucket layout implied by the plan configurations."""
        return ParameterLayout.from_q2((e.q_rad[1] for e in self.entries),
                                       include_joint1=include_joint1,
                                       bucket_tol_rad=bucket_tol_rad)


@dataclass(frozen=True)
class NoiseModel:
    """Marker position noise: iid per axis, optional 3x3 covariance override."""

    sigma_mm: float = 0.05
    axis_cov: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.sigma_mm < 0:
            raise ValueError("noise sigma must be non-negative")
        if self.axis_cov is not None:
            c = np.asarray(self.axis_cov, dtype=float).reshape(3, 3)
            object.__setattr__(self, "axis_cov", 0.5 * (c + c.T))


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
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(PLAN_CSV_HEADER)
        for e in plan.entries:
            row = [f"{math.degrees(v):.10g}" for v in e.q_rad]
            row += [f"{v:.10g}" for v in e.wrench]
            row.append(str(e.repeats))
            w.writerow(row)


def load_plan_csv(path) -> CalibrationPlan:
    entries: List[PlanEntry] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != list(PLAN_CSV_HEADER):
            raise DataLayoutError(
                f"{path}: expected plan header {','.join(PLAN_CSV_HEADER)}, "
                f"got {header}")
        for ln, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(PLAN_CSV_HEADER):
                raise DataLayoutError(
                    f"{path}:{ln}: expected {len(PLAN_CSV_HEADER)} fields")
            where = f"{path}:{ln}"
            vals = csv_floats(where, PLAN_CSV_HEADER[:12], row[:12])
            try:
                rep = int(row[12])
            except ValueError as exc:
                raise DataLayoutError(f"{where}: {exc}") from exc
            entries.append(PlanEntry(tuple(np.radians(vals[:6])), tuple(vals[6:]), rep))
    if not entries:
        raise DataLayoutError(f"{path}: no plan entries found")
    return CalibrationPlan(tuple(entries))


# ---------------------------------------------------------------------------
# sensitivity rows and the accuracy metric


def _joint_columns(include_joint1: bool) -> List[int]:
    return ([0] if include_joint1 else []) + [1, 2, 3, 4, 5]


def sensitivity_rows(model: ManipulatorModel, q, wrench, *,
                     include_joint1: bool = False,
                     tool_only: bool = False) -> np.ndarray:
    """Reduced-parameter deflection sensitivities at one configuration.

    Rows are marker position axes (or the tool point when ``tool_only``),
    columns follow the per-bucket parameter order [k1?, k2, k3..k6]; the
    joint-2 column is evaluated at the configuration's own angle, which is
    what couples the bucket estimate to the pose it was measured at.
    """
    q = np.asarray(q, dtype=float).reshape(6)
    st = chain_state(model, q, np.zeros(6))
    Jt = _point_jacobian(st, st.tool_p, 6)
    tau = Jt.T @ np.asarray(wrench, dtype=float).reshape(6)
    if tool_only:
        points = [st.tool_p]
    else:
        points = [st.tool_R @ off + st.tool_p for off in model.markers]
    cols = _joint_columns(include_joint1)
    A = np.zeros((3 * len(points), len(cols)))
    for m, pt in enumerate(points):
        A[3 * m:3 * m + 3] = _point_jacobian(st, pt, 6)[:3, cols] * tau[cols]
    return A


@dataclass
class TestPoseAccuracy:
    """Accuracy metric of a plan for one test pose."""

    __test__ = False  # not a test case despite the name, keep pytest away

    rho0_sq_mm2: float
    rho0_mm: float
    per_bucket_mm2: Tuple[float, ...]
    bucket_q2_rad: Tuple[float, ...]


def _bucket_variance(M: np.ndarray, A0: np.ndarray) -> float:
    """trace(A0 M^-1 A0^T) of one bucket; inf when M is singular."""
    try:
        X = np.linalg.solve(M, A0.T)
    except np.linalg.LinAlgError:
        return math.inf
    return float(np.sum(A0 * X.T))


def _bucket_informations(model: ManipulatorModel, plan: CalibrationPlan,
                         layout: ParameterLayout,
                         include_joint1: bool) -> List[np.ndarray]:
    w = len(_joint_columns(include_joint1))
    Ms = [np.zeros((w, w)) for _ in range(layout.n_buckets)]
    for i, e in enumerate(plan.entries):
        b = layout.bucket_of(e.q_rad[1], context=f"plan entry {i}")
        A = sensitivity_rows(model, e.q, e.w, include_joint1=include_joint1)
        Ms[b] += e.repeats * (A.T @ A)
    return Ms


def test_pose_accuracy(model: ManipulatorModel, plan: CalibrationPlan,
                       test: TestPose, noise: NoiseModel,
                       layout: Optional[ParameterLayout] = None,
                       include_joint1: bool = False) -> TestPoseAccuracy:
    """Predicted-deflection variance at ``test`` implied by the plan.

    rho0^2 = sigma^2 * sum_j trace(A0 M_j^-1 A0^T) over joint-2 buckets,
    where M_j is the information each bucket accumulates about its reduced
    parameter vector and A0 maps that vector to the tool deflection at the
    test pose.  Duplicating the plan doubles every M_j and halves rho0^2.
    """
    if layout is None:
        layout = plan.layout(include_joint1=include_joint1)
    if layout.n_buckets < 3:
        warnings.warn(
            f"plan covers only {layout.n_buckets} joint-2 angle(s); at least 3 "
            "are needed to separate the compensator afterwards", RuntimeWarning,
            stacklevel=2)
    A0 = sensitivity_rows(model, test.q, test.w,
                          include_joint1=include_joint1, tool_only=True)
    Ms = _bucket_informations(model, plan, layout, include_joint1)
    per_bucket = []
    for b, M in enumerate(Ms):
        t = _bucket_variance(M, A0)
        if t == math.inf:
            raise IdentifiabilityError(
                f"singular information matrix for joint-2 bucket at "
                f"{math.degrees(layout.bucket_q2_rad[b]):.2f} deg: the plan "
                "does not excite every compliance there")
        per_bucket.append(noise.sigma_mm**2 * t)
    rho_sq = float(sum(per_bucket))
    return TestPoseAccuracy(rho0_sq_mm2=rho_sq, rho0_mm=math.sqrt(max(rho_sq, 0.0)),
                            per_bucket_mm2=tuple(per_bucket),
                            bucket_q2_rad=layout.bucket_q2_rad)


def parameter_covariance(model: ManipulatorModel, plan: CalibrationPlan,
                         noise: NoiseModel,
                         layout: Optional[ParameterLayout] = None,
                         include_joint1: bool = False) -> np.ndarray:
    """Covariance of the full stage-one compliance vector under the plan.

    Uses the shared-parameter regressor B (one k3..k6 across all buckets),
    accumulated per plan entry: B^T B = sum_e repeats_e B_e^T B_e.  With the
    optional axis covariance C a sandwich estimate replaces the plain
    sigma^2 (B^T B)^-1, its meat being sum_e repeats_e B_e^T (I (x) C) B_e.
    """
    if layout is None:
        layout = plan.layout(include_joint1=include_joint1)
    p = layout.n_params
    BtB = np.zeros((p, p))
    meat = np.zeros((p, p))
    if noise.axis_cov is not None:
        omega = np.kron(np.eye(len(model.markers)), noise.axis_cov)
    for i, e in enumerate(plan.entries):
        b = layout.bucket_of(e.q_rad[1], context=f"plan entry {i}")
        Be = layout.place(sensitivity_rows(model, e.q, e.w, include_joint1=True), b)
        BtB += e.repeats * (Be.T @ Be)
        if noise.axis_cov is not None:
            meat += e.repeats * (Be.T @ omega @ Be)
    U, s, Vt = np.linalg.svd(BtB)
    if s[-1] <= 1e-12 * s[0]:
        null = Vt[s <= 1e-12 * s[0]].T
        labels = layout.column_labels()
        worst = sorted({labels[int(np.argmax(np.abs(null[:, c])))]
                        for c in range(null.shape[1])})
        raise IdentifiabilityError(
            f"plan information matrix is singular; unobservable parameters "
            f"include {', '.join(worst)}", null_directions=null)
    inv = Vt.T @ np.diag(1.0 / s) @ U.T
    if noise.axis_cov is None:
        return noise.sigma_mm**2 * inv
    return inv @ meat @ inv


# ---------------------------------------------------------------------------
# plan search


@dataclass
class OptimizedPlan:
    plan: CalibrationPlan
    accuracy: TestPoseAccuracy
    start_values_mm2: Tuple[float, ...]   # metric of each random start
    n_evaluations: int


_FREE_JOINTS = (0, 2, 3, 4, 5)   # q2 stays pinned to the bucket angle


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


def _candidate_grid(joint: int, centre: float, span: float,
                    constraints: PlanConstraints, n_grid: int) -> np.ndarray:
    if joint == 0:
        pts: List[float] = []
        for lo, hi in constraints.q1_windows():
            c = min(max(centre, lo), hi)
            g = np.linspace(max(lo, c - span), min(hi, c + span), n_grid)
            pts.extend(g.tolist())
        return np.unique(np.array(pts))
    lo, hi = constraints.joint_limits_rad[joint]
    c = min(max(centre, lo), hi)
    return np.unique(np.linspace(max(lo, c - span), min(hi, c + span), n_grid))


def optimize_plan(model: ManipulatorModel, test: TestPose,
                  bucket_q2_rad: Sequence[float], constraints: PlanConstraints,
                  noise: NoiseModel, *,
                  configs_per_bucket: int = 3, repeats: int = 3,
                  n_starts: int = 20, n_grid: int = 7, n_levels: int = 3,
                  include_joint1: bool = False,
                  seed: int = 0) -> OptimizedPlan:
    """Search measurement configurations minimizing the test-pose variance.

    Multi-start cyclic coordinate descent: every free joint of every entry
    is line-searched on a grid that shrinks over ``n_levels`` refinement
    levels; joint 2 is pinned to its bucket angle and the applied load is
    the gravity-direction wrench from ``constraints``.  Deterministic for a
    fixed seed.
    """
    buckets = [float(b) for b in bucket_q2_rad]
    if len(buckets) < 1:
        raise ValueError("need at least one joint-2 bucket")
    for name, count in (("configs_per_bucket", configs_per_bucket),
                        ("repeats", repeats), ("n_starts", n_starts)):
        if count < 1:
            raise ValueError(f"{name} must be >= 1, got {count}")
    layout = ParameterLayout(tuple(sorted(buckets, reverse=True)),
                             include_joint1=include_joint1)
    wrench = constraints.wrench()
    A0 = sensitivity_rows(model, test.q, test.w,
                          include_joint1=include_joint1, tool_only=True)
    sigma_sq = noise.sigma_mm**2
    n_eval = 0

    def rows_for(q: np.ndarray) -> np.ndarray:
        nonlocal n_eval
        n_eval += 1
        return sensitivity_rows(model, q, wrench, include_joint1=include_joint1)

    def bucket_term(M: np.ndarray) -> float:
        t = _bucket_variance(M, A0)
        return t if t >= 0 else math.inf

    def descent(configs: List[List[np.ndarray]]
                ) -> Tuple[float, float, List[List[np.ndarray]]]:
        """(initial total, final total, configs) of one start."""
        rows = [[rows_for(qc) for qc in bucket] for bucket in configs]
        Ms = [sum(repeats * (A.T @ A) for A in bucket) for bucket in rows]
        terms = [bucket_term(M) for M in Ms]
        total = start_total = sum(terms)
        spans = []
        for j in _FREE_JOINTS:
            lo, hi = constraints.joint_limits_rad[j]
            spans.append(hi - lo)
        for level in range(n_levels):
            improved = True
            passes = 0
            while improved and passes < 3:
                improved = False
                passes += 1
                for b in range(len(configs)):
                    for c in range(configs_per_bucket):
                        for fj, j in enumerate(_FREE_JOINTS):
                            q_cur = configs[b][c]
                            span = spans[fj] / (2.0 * max(n_grid - 1, 1))**level
                            grid = _candidate_grid(j, q_cur[j], span,
                                                   constraints, n_grid)
                            base_M = Ms[b] - repeats * (rows[b][c].T @ rows[b][c])
                            best_val, best_q, best_A, best_term = (
                                total, None, None, terms[b])
                            for g in grid:
                                if g == q_cur[j]:
                                    continue
                                q_try = q_cur.copy()
                                q_try[j] = g
                                A_try = rows_for(q_try)
                                t_try = bucket_term(
                                    base_M + repeats * (A_try.T @ A_try))
                                val = total - terms[b] + t_try
                                if val < best_val - 1e-15:
                                    best_val, best_q, best_A, best_term = (
                                        val, q_try, A_try, t_try)
                            if best_q is not None:
                                configs[b][c] = best_q
                                rows[b][c] = best_A
                                Ms[b] = base_M + repeats * (best_A.T @ best_A)
                                terms[b] = best_term
                                total = best_val
                                improved = True
        return start_total, total, configs

    best_total = math.inf
    best_configs: Optional[List[List[np.ndarray]]] = None
    start_values: List[float] = []
    for start in range(n_starts):
        rng = np.random.default_rng((seed, start))
        configs = [[_random_config(rng, b, constraints)
                    for _ in range(configs_per_bucket)]
                   for b in layout.bucket_q2_rad]
        start_total, total, configs = descent(configs)
        start_values.append(sigma_sq * start_total)
        if total < best_total:
            best_total = total
            best_configs = configs
    if best_configs is None:
        raise IdentifiabilityError(
            "no random start reached a finite design metric: every plan tried "
            "leaves some joint-2 bucket unidentifiable")
    entries = []
    for b, bucket in enumerate(best_configs):
        for qc in bucket:
            entries.append(PlanEntry(tuple(qc), tuple(wrench), repeats))
    plan = CalibrationPlan(tuple(entries))
    acc = test_pose_accuracy(model, plan, test, noise, layout=layout,
                             include_joint1=include_joint1)
    return OptimizedPlan(plan=plan, accuracy=acc,
                         start_values_mm2=tuple(start_values),
                         n_evaluations=n_eval)
