"""Calibration experiment design for the elastostatic identification.

The design metric is the variance of the predicted tool deflection at a
reference test pose, accumulated over the joint-2 angle buckets of the
plan.  Each bucket is scored as an independent least-squares estimator of
the reduced parameter vector (its own joint-2 compliance plus the shared
wrist/arm compliances), which keeps the metric cheap, additive over
buckets, and exactly halved by plan replication.

Angles are searched by cyclic coordinate descent over the free joints with
a shrinking grid, from several random feasible plans.  A bucket's
configurations enter only its own term, so each (start, bucket) descends on
its own until a pass leaves it unchanged; one stack scores the candidates of
all still descending.  The search builds the chain of each configuration
once and carries its frames (joint centres and axes, tool and marker
points); a line search over joint j turns the frames after joint j about
that joint's axis for every candidate angle, instead of rebuilding the
whole chain.  One row builder reads a frames array, built from the chain or
turned, for every sensitivity row: :func:`sensitivity_rows`, the search and
the final plan's score.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .elasto_id import RANK_TOL, LeastSquares, ParameterLayout
from .errors import DataLayoutError, IdentifiabilityError
from .robot import ManipulatorModel, chain_state, _cross, _marker_points, _point_jacobian
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

    def layout(self) -> ParameterLayout:
        """Joint-2 bucket layout implied by the plan configurations."""
        return ParameterLayout.from_q2(e.q_rad[1] for e in self.entries)


@dataclass(frozen=True)
class NoiseModel:
    """Marker position noise: iid Gaussian on every axis."""

    sigma_mm: float = 0.05

    def __post_init__(self):
        if not (math.isfinite(self.sigma_mm) and self.sigma_mm >= 0):
            raise ValueError(f"noise sigma_mm must be finite and non-negative, "
                             f"got {self.sigma_mm}")


@dataclass(frozen=True)
class PlanConstraints:
    """Feasible region for plan search.

    ``q1_intervals_rad`` restricts the base joint to a union of windows
    (floor obstacles, tracker visibility), each inside joint 1's limits;
    joints 3..6 use the plain limits.
    Joint 2 never moves: it is pinned to the bucket angle of each entry.
    """

    joint_limits_rad: Tuple[Tuple[float, float], ...]
    load_magnitude_N: float = 2600.0
    q1_intervals_rad: Optional[Tuple[Tuple[float, float], ...]] = None

    def __post_init__(self):
        lim = tuple((float(lo), float(hi)) for lo, hi in self.joint_limits_rad)
        if len(lim) != 6 or not all(-math.inf < lo < hi < math.inf for lo, hi in lim):
            raise ValueError("joint_limits_rad must be six finite (lo, hi) pairs, lo < hi")
        object.__setattr__(self, "joint_limits_rad", lim)
        if not 0 < self.load_magnitude_N < math.inf:
            raise ValueError(f"load_magnitude_N must be a finite positive load magnitude, "
                             f"got {self.load_magnitude_N}")
        if self.q1_intervals_rad is not None:
            ivs = tuple((float(lo), float(hi)) for lo, hi in self.q1_intervals_rad)
            if not ivs or not all(lo < hi for lo, hi in ivs):
                raise ValueError("q1_intervals_rad must be non-empty (lo, hi) pairs")
            lo1, hi1 = lim[0]
            for lo, hi in ivs:
                if not (lo1 <= lo and hi <= hi1):
                    raise ValueError(
                        f"q1 window {math.degrees(lo):g}..{math.degrees(hi):g} deg "
                        f"outside joint 1's limits {math.degrees(lo1):g}.."
                        f"{math.degrees(hi1):g} deg")
            object.__setattr__(self, "q1_intervals_rad", ivs)

    def q1_windows(self) -> Tuple[Tuple[float, float], ...]:
        if self.q1_intervals_rad is not None:
            return self.q1_intervals_rad
        return (self.joint_limits_rad[0],)

    def wrench(self) -> np.ndarray:
        """Gravity-direction test load of the configured magnitude."""
        return np.array([0.0, 0.0, -self.load_magnitude_N, 0.0, 0.0, 0.0])

    def bucket_layout(self, bucket_q2_rad: Sequence[float]) -> ParameterLayout:
        """Layout of the joint-2 buckets, near-upright first; ``ValueError``
        for a bucket outside joint 2's limits (the limits included)."""
        lo, hi = self.joint_limits_rad[1]
        buckets = [float(b) for b in bucket_q2_rad]
        for b in buckets:
            if not lo <= b <= hi:
                raise ValueError(
                    f"joint-2 bucket {math.degrees(b):g} deg outside joint 2's limits "
                    f"{math.degrees(lo):g}..{math.degrees(hi):g} deg")
        return ParameterLayout(tuple(sorted(buckets, reverse=True)))


def save_plan_csv(path, plan: CalibrationPlan) -> None:
    write_table(path, PLAN_CSV_HEADER, (".10g",) * 12 + ("d",), (
        [math.degrees(v) for v in e.q_rad] + [*e.wrench, e.repeats]
        for e in plan.entries))


def load_plan_csv(path) -> CalibrationPlan:
    cols, lines = read_table(path, PLAN_CSV_HEADER, kind="plan", ints=("repeats",))
    if not len(lines):
        raise DataLayoutError(f"{path}: no plan entries found")
    q = np.radians(np.column_stack([cols[n] for n in PLAN_CSV_HEADER[:6]]))
    w = np.column_stack([cols[n] for n in PLAN_CSV_HEADER[6:12]])
    entries = []
    for line, qi, wi, r in zip(lines.tolist(), q.tolist(), w.tolist(),
                               cols["repeats"].tolist()):
        try:
            entries.append(PlanEntry(tuple(qi), tuple(wi), r))
        except ValueError as exc:
            raise DataLayoutError(f"{path}:{line}: {exc}") from exc
    return CalibrationPlan(tuple(entries))


# ---------------------------------------------------------------------------
# sensitivity rows and the accuracy metric


class _Joints(NamedTuple):
    """The joint centres and world axes :func:`_point_jacobian` reads."""

    joint_p: np.ndarray
    joint_axis: np.ndarray


# Rows of a frames array: joint i's centre at 2i and world axis at 2i + 1,
# then the tool point, then the marker points.  Everything after joint j is
# the slice 2j + 2:, which turns with joint j.
_TOOL = 12


def _frames(model: ManipulatorModel, q) -> np.ndarray:
    """Frames of each configuration in ``q`` (..., 6) at theta = 0, from one
    :func:`chain_state` call: (..., 13 + n_markers, 3)."""
    st = chain_state(model, q, np.zeros(6))
    F = np.empty(st.tool_p.shape[:-1] + (_TOOL + 1 + len(model.markers), 3))
    F[..., 0:_TOOL:2, :] = st.joint_p
    F[..., 1:_TOOL:2, :] = st.joint_axis
    F[..., _TOOL, :] = st.tool_p
    F[..., _TOOL + 1:, :] = _marker_points(model, st.tool_R, st.tool_p)
    return F


def _rows(F: np.ndarray, wrench, *, first: int = 1, tool_only: bool = False) -> np.ndarray:
    """Sensitivity rows (see :func:`sensitivity_rows`) of each configuration's
    frames in ``F`` (..., P, 3): of the marker points, or of the tool point
    when ``tool_only``, with joints ``first``.. as columns; one
    :func:`_point_jacobian` call per point."""
    # one contiguous copy of the joints serves the point Jacobians faster
    # than the strided rows of ``F``
    joints = _Joints(*(np.ascontiguousarray(F[..., i:_TOOL:2, :]) for i in (0, 1)))
    Jt = _point_jacobian(joints, F[..., _TOOL, :])
    w = np.asarray(wrench, dtype=float)
    tau = (Jt.swapaxes(-1, -2) @ w[..., None])[..., 0]
    if tool_only:
        return Jt[..., :3, first:] * tau[..., None, first:]
    n_markers = F.shape[-2] - _TOOL - 1
    A = np.zeros(tau.shape[:-1] + (3 * n_markers, 6 - first))
    for m in range(n_markers):
        A[..., 3 * m:3 * m + 3, :] = (_point_jacobian(joints, F[..., _TOOL + 1 + m, :])
                                      [..., :3, first:] * tau[..., None, first:])
    return A


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
    return _rows(_frames(model, q), wrench, first=0 if include_joint1 else 1,
                 tool_only=tool_only)


def _candidates(q: np.ndarray, F: np.ndarray, joint: int, counts: np.ndarray,
                grid: np.ndarray):
    """Line-search candidates: pose ``i`` of ``q`` (n, 6) ``counts[i]`` times,
    with ``joint`` set to the grid values in turn, and their frames, turned
    from the poses' frames ``F`` (n, P, 3).  Every point and axis after
    ``joint`` turns about the joint's world axis ``a`` through its centre
    ``o`` by the change ``d`` of its angle:
    ``v -> v cos d + (a x v) sin d + a (a . v)(1 - cos d)``, ``v`` taken from
    ``o`` for a point."""
    q_try = np.repeat(q, counts, axis=0)
    delta = grid - q_try[:, joint]
    q_try[:, joint] = grid
    F_try = np.repeat(F, counts, axis=0)
    point = np.ones((F.shape[-2], 1))   # 0 on the axis rows, which turn about the origin
    point[1:_TOOL:2] = 0.0
    a = F_try[:, 2 * joint + 1, None, :]
    o = F_try[:, 2 * joint, None, :] * point[2 * joint + 2:]
    v = F_try[:, 2 * joint + 2:, :] - o
    c = np.cos(delta)[:, None, None]
    F_try[:, 2 * joint + 2:, :] = (v * c + _cross(a, v) * np.sin(delta)[:, None, None]
                                   + a * (v @ a.swapaxes(-1, -2)) * (1.0 - c) + o)
    return q_try, F_try


@dataclass
class TestPoseAccuracy:
    """Accuracy metric of a plan for one test pose."""

    __test__ = False  # not a test case despite the name, keep pytest away

    rho0_sq_mm2: float
    rho0_mm: float
    per_bucket_mm2: Tuple[float, ...]
    bucket_q2_rad: Tuple[float, ...]


def _information(F: np.ndarray, wrench, repeats) -> np.ndarray:
    """``repeats * A^T A`` of the sensitivity rows ``A`` of each configuration's
    frames in ``F`` (..., P, 3): the stack of information blocks (..., 5, 5)."""
    A = _rows(F, wrench)
    return repeats * (A.swapaxes(-1, -2) @ A)


def _bucket_variance(M: np.ndarray, A0: np.ndarray):
    """trace(A0 M^-1 A0^T) of each bucket in the stack ``M`` (..., w, w); inf
    where ``M`` is singular or so near singular that the trace comes out
    negative or NaN."""
    try:
        X = np.linalg.solve(M, np.broadcast_to(A0.T, M.shape[:-1] + A0.shape[:1]))
    except np.linalg.LinAlgError:
        if M.ndim == 2:
            return math.inf
        flat = [_bucket_variance(m, A0) for m in M.reshape((-1,) + M.shape[-2:])]
        return np.reshape(flat, M.shape[:-2])
    t = np.sum(A0 * X.swapaxes(-1, -2), axis=(-2, -1))
    return np.where(t >= 0, t, math.inf)


def test_pose_accuracy(model: ManipulatorModel, plan: CalibrationPlan,
                       test: TestPose, noise: NoiseModel) -> TestPoseAccuracy:
    """Predicted-deflection variance at ``test`` implied by the plan.

    rho0^2 = sigma^2 * sum_j trace(A0 M_j^-1 A0^T) over joint-2 buckets,
    where M_j = X_j^T X_j is the information of bucket j's stacked
    sensitivity rows X_j, each scaled by sqrt(repeats), about its reduced
    parameter vector, and A0 maps that vector to the tool deflection at the
    test pose.  Duplicating the plan doubles every M_j and halves rho0^2.
    Each X_j is factored once (:class:`stiffcal.elasto_id.LeastSquares`).
    The first bucket whose ``rank`` is below 5 (the identification's rule)
    raises ``IdentifiabilityError``; any other's term is sigma^2 ||A0 root||^2,
    read from the same SVD (M_j^-1 = root root^T).
    """
    layout = plan.layout()
    if layout.n_buckets < 3:
        warnings.warn(
            f"plan covers only {layout.n_buckets} joint-2 angle(s); at least 3 "
            "are needed to separate the compensator afterwards", RuntimeWarning,
            stacklevel=2)
    A0 = sensitivity_rows(model, test.q, test.w, tool_only=True)
    q = np.array([e.q_rad for e in plan.entries])
    weight = np.sqrt([e.repeats for e in plan.entries])[:, None, None]
    bucket = layout.bucket_of(q[:, 1])
    X = weight * _rows(_frames(model, q), [e.wrench for e in plan.entries])
    per_bucket = []
    for b, q2 in enumerate(layout.bucket_q2_rad):
        lsq = LeastSquares(X[bucket == b].reshape(-1, 5))
        if lsq.rank < 5:   # factor_regressor's rank rule
            raise IdentifiabilityError(
                f"rank-deficient information for joint-2 bucket at {math.degrees(q2):.2f} "
                f"deg: a singular value of its sensitivity rows is below {RANK_TOL:g} of "
                "the largest, so the plan does not excite every compliance there")
        Y = A0 @ lsq.root
        per_bucket.append(noise.sigma_mm**2 * float(np.sum(Y * Y)))
    rho_sq = sum(per_bucket)
    return TestPoseAccuracy(rho0_sq_mm2=rho_sq, rho0_mm=math.sqrt(rho_sq),
                            per_bucket_mm2=tuple(per_bucket),
                            bucket_q2_rad=layout.bucket_q2_rad)


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
    grids = [_linspace(np.maximum(lo, c - span), np.minimum(hi, c + span), n_grid)
             for lo, hi in windows for c in (np.minimum(np.maximum(centres, lo), hi),)]
    g = grids[0] if len(grids) == 1 else np.sort(np.concatenate(grids, axis=-1), axis=-1)
    keep = g != centres[:, None]
    keep[:, 1:] &= g[:, 1:] != g[:, :-1]
    return keep.sum(axis=1), g[keep]


def _linspace(start: np.ndarray, stop: np.ndarray, n: int) -> np.ndarray:
    """``np.linspace(start, stop, n, axis=-1)`` of 1-D ``start`` and ``stop``
    and ``n >= 2``, bit for bit (its products, in its order), without its
    per-call checks."""
    k = np.arange(n, dtype=float)
    delta = stop - start
    step = delta / (n - 1)
    if (step == 0).any():   # numpy's path when some step vanishes
        g = (k / (n - 1)) * delta[:, None]
    else:
        g = k * step[:, None]
    g += start[:, None]
    g[:, -1] = stop
    return g


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
    gravity-direction wrench from ``constraints``.  Each (start, bucket)
    descends on its own, taking a candidate that lowers its own term, and
    stops at a level when a pass leaves it unchanged; each step (config,
    joint) scores the grids of every one still descending as one stack.
    Deterministic for a fixed seed.  A bucket outside joint 2's limits,
    ``n_grid`` below 2, ``n_levels`` below 0 or another count below 1 raises
    ``ValueError``.
    """
    layout = constraints.bucket_layout(bucket_q2_rad)
    for name, count, least in (("configs_per_bucket", configs_per_bucket, 1),
                               ("repeats", repeats, 1), ("n_starts", n_starts, 1),
                               ("n_grid", n_grid, 2), ("n_levels", n_levels, 0)):
        if count < least:
            raise ValueError(f"{name} must be >= {least}, got {count}")
    wrench = constraints.wrench()
    A0 = sensitivity_rows(model, test.q, test.w, tool_only=True)
    joints = _searched_joints(model, wrench)
    n_eval = 0

    def gram(F: np.ndarray) -> np.ndarray:
        nonlocal n_eval
        n_eval += F[..., 0, 0].size
        return _information(F, wrench, repeats)

    # (chain, config, 6) poses, their frames, their repeats * A^T A, and each
    # chain's sum: chain s * n_buckets + b is bucket b of start s
    configs = np.array([[_random_config(rng, b, constraints)
                         for _ in range(configs_per_bucket)]
                        for rng in (np.random.default_rng((seed, s))
                                    for s in range(n_starts))
                        for b in layout.bucket_q2_rad])
    frames = _frames(model, configs)
    G = gram(frames)
    Ms = sum(G[:, c] for c in range(configs_per_bucket))
    terms = _bucket_variance(Ms, A0)
    start_values = tuple(noise.sigma_mm**2 * sum(t)
                         for t in terms.reshape(n_starts, -1).tolist())
    for level in range(n_levels):
        scale = (2.0 * (n_grid - 1))**level
        improved, passes = np.ones(terms.size, dtype=bool), np.zeros(terms.size, dtype=int)
        while (active := np.flatnonzero(improved & (passes < 3))).size:
            improved[active] = False
            passes[active] += 1
            for c in range(configs_per_bucket):
                for j in joints:
                    lo, hi = constraints.joint_limits_rad[j]
                    counts, grid = _candidate_grids(j, configs[active, c, j],
                                                    (hi - lo) / scale, constraints, n_grid)
                    if not grid.size:
                        continue
                    q_try, F_try = _candidates(configs[active, c], frames[active, c], j,
                                               counts, grid)
                    G_try = gram(F_try)
                    M_try = np.repeat(Ms[active] - G[active, c], counts, axis=0) + G_try
                    t_try = _bucket_variance(M_try, A0)
                    # the first lowest candidate of each chain, taken when it
                    # lowers the chain's own term
                    chain = np.repeat(np.arange(active.size), counts)
                    low = np.full(active.size, math.inf)
                    np.minimum.at(low, chain, t_try)
                    first = np.full(active.size, t_try.size)
                    hit = np.flatnonzero(t_try == low[chain])
                    np.minimum.at(first, chain[hit], hit)
                    moved = low < terms[active] * (1.0 - 1e-15)
                    to, best = active[moved], first[moved]
                    configs[to, c], frames[to, c] = q_try[best], F_try[best]
                    G[to, c], Ms[to], terms[to] = G_try[best], M_try[best], t_try[best]
                    improved[to] = True
    totals = [sum(t) for t in terms.reshape(n_starts, -1).tolist()]
    finite = [s for s, total in enumerate(totals) if total < math.inf]
    if not finite:
        raise IdentifiabilityError(
            "no random start reached a finite design metric: every plan tried "
            "leaves some joint-2 bucket unidentifiable")
    best_start = min(finite, key=totals.__getitem__)
    plan = CalibrationPlan(tuple(PlanEntry(tuple(qc), tuple(wrench), repeats)
                                 for qc in configs.reshape(n_starts, -1, 6)[best_start]))
    acc = test_pose_accuracy(model, plan, test, noise)
    return OptimizedPlan(plan=plan, accuracy=acc, start_values_mm2=start_values,
                         n_evaluations=n_eval,
                         searched_joints=tuple(j + 1 for j in joints))
