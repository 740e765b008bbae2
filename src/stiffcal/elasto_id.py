"""Elastostatic identification from marker deflections under known loads.

The pipeline has two linear stages.  Stage one treats the rotational
stiffness of every joint as an unknown compliance and regresses measured
marker displacements on the model-predicted sensitivity columns; joint 2
gets one compliance value *per distinct joint-2 angle* because the gravity
compensator modulates it with posture.  Stage two separates the bucketed
joint-2 stiffnesses into the bare joint spring, the compensator spring rate
and its free length using the slider-crank kinematics.  Both stages solve
through a :class:`LeastSquares` kept on the result, each under its own rank cut.

The records, the rows of one :class:`DeflectionRecords` table, are
loaded-minus-unloaded displacement vectors, so gravity drops out of the
regression and only the applied tool wrench appears.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .compensator import CompensatorGeometry, separation_matrix
from .errors import DataLayoutError, IdentifiabilityError
from .robot import ManipulatorModel
from .tables import read_table, write_table

DEFLECTION_CSV_HEADER = (
    "q1_deg", "q2_deg", "q3_deg", "q4_deg", "q5_deg", "q6_deg",
    "Fx_N", "Fy_N", "Fz_N", "Mx_Nmm", "My_Nmm", "Mz_Nmm",
    "marker_id", "dx_mm", "dy_mm", "dz_mm", "repeat",
)
DEFLECTION_CSV_FORMATS = (".10g",) * 12 + ("d",) + (".10g",) * 3 + ("d",)

# Joint-2 angles within this of a bucket centre belong to that bucket.
BUCKET_TOL_RAD = math.radians(0.1)
# Singular values below this fraction of the largest count as rank deficient.
RANK_TOL = 1e-10
# Physical parameters of the two-stage estimate, in report order.
PARAMETER_LABELS = ("k2", "k3", "k4", "k5", "k6", "Kc", "s0")
# Largest marker_id or repeat a deflection CSV may hold: the table stores int64.
INT64_MAX = 2**63 - 1


@dataclass(frozen=True, eq=False)
class DeflectionRecords:
    """Marker displacements measured under tool wrenches, one row per record.

    Row ``i`` observes marker ``marker_id[i]`` at the commanded joint angles
    ``q_rad[i]`` under the tool wrench ``wrench[i]`` (forces in N, moments
    in N*mm).  ``deflection_mm[i]`` is that marker's position under load
    minus its position in the same commanded configuration without load.
    """

    q_rad: np.ndarray          # (n, 6)
    wrench: np.ndarray         # (n, 6)
    marker_id: np.ndarray      # (n,) int
    repeat: np.ndarray         # (n,) int
    deflection_mm: np.ndarray  # (n, 3)

    def __post_init__(self):
        n = len(self.q_rad)
        if any(len(c) != n for c in (self.wrench, self.marker_id, self.repeat,
                                     self.deflection_mm)):
            raise ValueError("deflection record columns differ in length")

    def __len__(self) -> int:
        return len(self.q_rad)


def save_deflection_csv(path, records: DeflectionRecords) -> None:
    write_table(path, DEFLECTION_CSV_HEADER, DEFLECTION_CSV_FORMATS, (
        qi + wi + [m] + di + [r]
        for qi, wi, m, di, r in zip(
            np.degrees(records.q_rad).tolist(), records.wrench.tolist(),
            records.marker_id.tolist(), records.deflection_mm.tolist(),
            records.repeat.tolist())))


def load_deflection_csv(path) -> DeflectionRecords:
    """The records of a deflection CSV; a ``marker_id`` or ``repeat`` below
    0 or above the int64 range is rejected with its ``path:line``."""
    cols, lines = read_table(path, DEFLECTION_CSV_HEADER, kind="deflection",
                             ints=("marker_id", "repeat"))
    if not len(lines):
        raise DataLayoutError(f"{path}: no deflection records found")
    ids = np.column_stack((cols["marker_id"], cols["repeat"]))
    bad = (ids < 0) | (ids > INT64_MAX)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        v = ids[i, j]
        raise DataLayoutError(
            f"{path}:{lines[i]}: column {('marker_id', 'repeat')[j]} must be "
            + (f">= 0, got {v}" if v < 0 else f"<= {INT64_MAX}, got {v}"))
    a = np.column_stack([cols[n] for n in DEFLECTION_CSV_HEADER])
    return DeflectionRecords(np.radians(a[:, :6]), a[:, 6:12], ids[:, 0], ids[:, 1],
                             a[:, 13:16])


# ---------------------------------------------------------------------------
# parameter layout


@dataclass(frozen=True)
class ParameterLayout:
    """Maps joints 2..6 (joint 2 per joint-2 angle bucket) onto regressor columns.

    Column order: one joint-2 compliance per bucket, then k3..k6.  Joint 1
    has no column: a gravity-direction test load has no lever about the
    vertical base axis, so its column would be structurally zero.
    """

    bucket_q2_rad: Tuple[float, ...]

    def __post_init__(self):
        if len(self.bucket_q2_rad) == 0:
            raise ValueError("parameter layout needs at least one joint-2 bucket")
        vals = np.asarray(self.bucket_q2_rad, dtype=float)
        if len(vals) > 1 and np.min(np.diff(np.sort(vals))) <= 2.0 * BUCKET_TOL_RAD:
            raise ValueError("joint-2 buckets closer than twice the matching tolerance")

    @classmethod
    def from_q2(cls, angles) -> "ParameterLayout":
        """Cluster joint-2 angles (any iterable) into buckets, one bucket at a
        time: the first angle not yet in a bucket is the next centre, and it
        and every angle within ``BUCKET_TOL_RAD`` of it leave the free set.
        So each angle joins the first bucket whose centre it matches, and a
        NaN or infinite centre is a bucket of its own."""
        free = np.fromiter(angles, dtype=float)
        buckets: List[float] = []
        while free.size:
            buckets.append(float(free[0]))
            rest = free[1:]
            with np.errstate(invalid="ignore"):     # inf - inf matches nothing
                free = rest[~(np.abs(rest - free[0]) <= BUCKET_TOL_RAD)]
        buckets.sort(reverse=True)  # sweep order: near-upright first
        return cls(tuple(buckets))

    @property
    def n_buckets(self) -> int:
        return len(self.bucket_q2_rad)

    @property
    def n_params(self) -> int:
        return self.n_buckets + 4

    def bucket_of(self, q2_rad) -> np.ndarray:
        """Index of the first bucket within ``BUCKET_TOL_RAD`` of each joint-2
        angle, shaped as ``q2_rad``; raises for the first angle (in flat
        order ``i``, named ``record <i>``) that matches no bucket."""
        q2 = np.asarray(q2_rad, dtype=float)
        near = np.abs(q2[..., None] - np.array(self.bucket_q2_rad)) <= BUCKET_TOL_RAD
        miss = np.flatnonzero(~near.any(axis=-1))
        if miss.size:
            i = int(miss[0])
            have = ", ".join(f"{math.degrees(b):.2f}" for b in self.bucket_q2_rad)
            raise DataLayoutError(
                f"record {i}: joint-2 angle {math.degrees(q2.flat[i]):.3f} deg "
                f"matches no layout bucket (have: {have} deg, tol "
                f"{math.degrees(BUCKET_TOL_RAD):.2f} deg)")
        return near.argmax(axis=-1)

    def column_labels(self) -> Tuple[str, ...]:
        return (tuple(f"k2[{math.degrees(b):.2f}deg]" for b in self.bucket_q2_rad)
                + PARAMETER_LABELS[1:5])

    def place(self, A: np.ndarray, bucket) -> np.ndarray:
        """Spread a :func:`stiffcal.doe.sensitivity_rows` block ``A`` with
        columns [k2..k6] over this layout: k2 lands in ``bucket``'s column,
        k3..k6 in the last four.  A stack of blocks ``(..., rows, 5)`` takes
        one bucket per block, ``bucket`` of shape ``(...)``."""
        out = np.zeros(A.shape[:-1] + (self.n_params,))
        np.copyto(out[..., :self.n_buckets], A[..., :1],
                  where=np.arange(self.n_buckets) == np.asarray(bucket)[..., None, None])
        out[..., -4:] = A[..., 1:]
        return out


# ---------------------------------------------------------------------------
# stage one: linear compliance regression


def build_regressor(model: ManipulatorModel, records: DeflectionRecords,
                    layout: ParameterLayout) -> Tuple[np.ndarray, np.ndarray]:
    """Stack the linearized observation rows for all records.

    For a record observing marker ``m`` under tool wrench ``F`` the model is

        d = sum_j k_j * Jm[:, j] * (Jt[:, j] . F)

    evaluated at the undeflected configuration: joint torque tau_j = Jt[:,j].F
    rotates joint j by k_j*tau_j which moves the marker along Jm[:,j].
    Returns ``(B, y)`` with ``B`` of shape (3*n_records, n_params).
    """
    from .doe import sensitivity_rows  # doe imports this module at load time

    n = len(records)
    if n == 0:
        raise DataLayoutError("no deflection records to regress on")
    q, wrench, marker = records.q_rad, records.wrench, records.marker_id
    n_markers = len(model.markers)
    bad = np.flatnonzero((marker < 0) | (marker >= n_markers))
    i = int(bad[0]) if bad.size else n
    # the first bad record raises, its marker before its bucket: the bucket
    # lookup covers the records before the first bad marker
    bucket = layout.bucket_of(q[:i, 1])
    if bad.size:
        raise DataLayoutError(
            f"record {i}: marker id {marker[i]} outside model range 0..{n_markers - 1}")
    # one sensitivity block per distinct (pose, wrench, bucket), taken at its
    # first record; + 0.0 makes -0.0 and 0.0 one key
    key = np.column_stack([np.round(q, 12), wrench, bucket]) + 0.0
    _, first, group = np.unique(key, axis=0, return_index=True, return_inverse=True)
    A = sensitivity_rows(model, q[first], wrench[first])
    # the inverse's shape differs across numpy 2.0.x releases
    A = A.reshape(len(first), n_markers, 3, -1)[group.reshape(-1), marker]
    B = layout.place(A, bucket).reshape(3 * n, layout.n_params)
    return B, records.deflection_mm.reshape(-1)


class LeastSquares:
    """A design matrix ``A`` (m, p) and its thin SVD ``U s Vt``, taken once, so
    the resampler and any refit on new data solve without factoring again."""

    def __init__(self, A: np.ndarray):
        self.A = A
        self.U, self.s, self.Vt = np.linalg.svd(A, full_matrices=False)

    @property
    def condition(self) -> float:
        return float(self.s[0] / self.s[-1])

    @property
    def root(self) -> np.ndarray:
        """``V / s`` (p, p): the solution's covariance is sigma^2 root root^T."""
        return self.Vt.T / self.s

    def solve(self, y: np.ndarray) -> np.ndarray:
        """Least-squares ``x`` (..., p) of ``A x = y`` for ``y`` (..., m), row by row."""
        return (self.Vt.T @ ((self.U.T @ y[..., None])[..., 0] / self.s)[..., None])[..., 0]


def factor_regressor(B: np.ndarray, layout: ParameterLayout) -> LeastSquares:
    """The stage-one regressor ``B`` (columns as in ``layout``), factored;
    raises naming the unobservable columns unless every singular value is
    above ``RANK_TOL`` of the largest.  ``B`` itself is factored: the same
    cut on ``B^T B`` would sit at 1e-20, below double rounding."""
    lsq = LeastSquares(B)
    rank = int(np.sum(lsq.s > RANK_TOL * lsq.s[0]))
    p = layout.n_params
    if rank < p:
        null = np.linalg.svd(B)[2][rank:].T   # all of V: B may have < p rows
        labels = layout.column_labels()
        worst = sorted({labels[int(np.argmax(np.abs(null[:, c])))]
                        for c in range(null.shape[1])})
        raise IdentifiabilityError(
            f"regressor rank {rank} < {p}: parameters not identifiable from this "
            f"plan (unobservable: {', '.join(worst)})", null_directions=null)
    return lsq


@dataclass
class CompliancesFit:
    """Least-squares result of the stage-one compliance regression."""

    layout: ParameterLayout
    values: np.ndarray       # (p,) compliances, rad/(N*mm)
    sigma_hat_mm: float      # residual noise scale per displacement axis
    lsq: LeastSquares        # the factored regressor B

    @property
    def labels(self) -> Tuple[str, ...]:
        return self.layout.column_labels()

    def joint2_stiffnesses(self) -> np.ndarray:
        """Equivalent joint-2 stiffness per bucket, N*mm/rad."""
        k2 = self.values[:self.layout.n_buckets]
        if np.any(k2 <= 0):
            bad = [lab for lab, v in zip(self.labels, k2) if v <= 0]
            raise IdentifiabilityError(
                f"non-positive joint-2 compliance estimate ({', '.join(bad)}); "
                "data too noisy or wrong model")
        return 1.0 / k2


def identify_compliances(model: ManipulatorModel,
                         records: DeflectionRecords) -> CompliancesFit:
    """Solve the stage-one regression over the joint-2 buckets of ``records``;
    raises if a direction is unobservable."""
    layout = ParameterLayout.from_q2(records.q_rad[:, 1])
    B, y = build_regressor(model, records, layout)
    lsq = factor_regressor(B, layout)
    k = lsq.solve(y)
    resid = y - B @ k
    dof = len(y) - layout.n_params
    sigma = math.sqrt(float(resid @ resid) / dof) if dof > 0 else 0.0
    for i, v in enumerate(k):
        if v <= 0:
            warnings.warn(
                f"estimated compliance {layout.column_labels()[i]} = {v:.3e} "
                "is non-positive; treat the fit with suspicion", RuntimeWarning,
                stacklevel=2)
    return CompliancesFit(layout=layout, values=k, sigma_hat_mm=sigma, lsq=lsq)


# ---------------------------------------------------------------------------
# stage two: compensator separation


@dataclass
class CompensatorSeparation:
    """Bare joint-2 spring plus compensator constants from bucket stiffnesses."""

    K0_Nmm_per_rad: float
    Kc_N_per_mm: float
    s0_mm: float
    residual_rel: float   # relative misfit of the bucket stiffnesses
    K2_fit_Nmm_per_rad: np.ndarray  # per-bucket joint-2 stiffness of the fit
    lsq: LeastSquares     # the factored 3-column separation system


def _separate(lsq: LeastSquares, K2: np.ndarray):
    """Least-squares ``x = [K0, Kc, Kc*s0]`` (..., 3) of bucket stiffnesses
    ``K2`` (..., n_buckets), and whether each spring rate is nonzero."""
    x = lsq.solve(K2)
    return x, ~(np.abs(x[..., 1]) < 1e-12 * np.maximum(np.abs(x[..., 0]), 1.0))


def separate_compensator(layout: ParameterLayout, K2_Nmm_per_rad: np.ndarray,
                         geometry: CompensatorGeometry) -> CompensatorSeparation:
    """Split per-bucket joint-2 stiffnesses into K0, Kc and s0."""
    K2 = np.asarray(K2_Nmm_per_rad, dtype=float).reshape(-1)
    if K2.shape[0] != layout.n_buckets:
        raise ValueError("one joint-2 stiffness per bucket required")
    if layout.n_buckets < 3:
        raise IdentifiabilityError(
            f"need at least 3 distinct joint-2 angles to separate the "
            f"compensator, got {layout.n_buckets}")
    lsq = LeastSquares(separation_matrix(geometry, layout.bucket_q2_rad))
    if lsq.s[-1] <= 1e-12 * lsq.s[0]:
        raise IdentifiabilityError(
            "joint-2 angle buckets do not vary the spring geometry enough to "
            "separate the compensator constants", null_directions=lsq.Vt[-1:].T)
    x, ok = _separate(lsq, K2)
    if not ok:
        raise IdentifiabilityError(
            "compensator spring rate indistinguishable from zero; free length "
            "is undefined")
    K0, Kc, s0 = float(x[0]), float(x[1]), float(x[2] / x[1])
    if Kc <= 0 or K0 <= 0 or s0 <= 0:
        warnings.warn(
            f"separated constants have non-physical signs (K0={K0:.3e}, "
            f"Kc={Kc:.3e}, s0={s0:.3e})", RuntimeWarning, stacklevel=2)
    fit = lsq.A @ x
    nrm = float(np.linalg.norm(K2))
    return CompensatorSeparation(
        K0_Nmm_per_rad=K0, Kc_N_per_mm=Kc, s0_mm=s0,
        residual_rel=float(np.linalg.norm(fit - K2)) / nrm if nrm > 0 else 0.0,
        K2_fit_Nmm_per_rad=fit, lsq=lsq)


# ---------------------------------------------------------------------------
# combined estimate and confidence intervals


def _physical_parameters(K0, k3_6, Kc, s0) -> np.ndarray:
    """``[1/K0, k3..k6, Kc, s0]`` in :data:`PARAMETER_LABELS` order: (7,) from
    one set of values, (n, 7) from ``K0``, ``Kc``, ``s0`` (n,) and ``k3_6``
    (n, 4)."""
    K0, Kc, s0 = (np.asarray(v)[..., None] for v in (K0, Kc, s0))
    return np.concatenate([1.0 / K0, k3_6, Kc, s0], axis=-1)


@dataclass
class ElastostaticEstimate:
    fit: CompliancesFit
    separation: CompensatorSeparation

    def parameter_values(self) -> np.ndarray:
        """Physical parameter vector in :data:`PARAMETER_LABELS` order; joint 2
        is the bare spring 1/K0."""
        sep = self.separation
        return _physical_parameters(sep.K0_Nmm_per_rad,
                                    self.fit.values[self.fit.layout.n_buckets:],
                                    sep.Kc_N_per_mm, sep.s0_mm)


def identify_elastostatics(model: ManipulatorModel,
                           records: DeflectionRecords) -> ElastostaticEstimate:
    """Full two-stage identification using the model's compensator geometry."""
    if model.compensator is None:
        raise ValueError("model has no compensator section; cannot separate the "
                         "joint-2 stiffness into spring constants")
    fit = identify_compliances(model, records)
    sep = separate_compensator(fit.layout, fit.joint2_stiffnesses(),
                               model.compensator.geometry)
    return ElastostaticEstimate(fit=fit, separation=sep)


@dataclass
class ElastoCI:
    """3-sigma half-widths for the physical parameter vector."""

    labels: Tuple[str, ...]
    values: np.ndarray
    halfwidth3: np.ndarray
    percent: np.ndarray      # 100 * halfwidth3 / |value|
    n_samples: int
    n_failed: int = 0        # resamples left out of the spread (see below)


def confidence_intervals_elasto(estimate: ElastostaticEstimate,
                                n_samples: int = 200,
                                seed: int = 0) -> ElastoCI:
    """Parametric residual resampling through the full two-stage pipeline.

    Each resample adds iid Gaussian noise at the fitted residual scale to
    the fitted model predictions, refits the linear stage and reruns the
    separation, so the reported spread includes the nonlinear s0 = x3/x2
    step.  The refit is linear and the regressor has full column rank, so
    a refit compliance vector has the law of ``k + sigma * root @ w``, with
    ``root`` that of the estimate's factored regressor ``fit.lsq`` and
    ``w`` standard normal in parameter space: sample ``i`` takes row ``i``
    of ``default_rng(seed).standard_normal((n_samples, p))``.  All samples
    are separated at once through the estimate's factored separation
    system ``separation.lsq``, so nothing is factored again.  A resample
    fails when a joint-2 compliance is not positive or the spring rate is
    indistinguishable from zero; more than half failing raises.  Empty
    residuals (noise-free data) give zero widths; fewer than two usable
    resamples of noisy data give NaN widths, as no spread can be taken.
    """
    fit = estimate.fit
    layout = fit.layout
    sigma = fit.sigma_hat_mm
    values = estimate.parameter_values()
    if sigma == 0.0:
        zero = np.zeros_like(values)
        return ElastoCI(PARAMETER_LABELS, values, zero, zero, n_samples)
    nb = layout.n_buckets
    w = np.random.default_rng(seed).standard_normal((n_samples, layout.n_params))
    k_star = fit.values + sigma * (w @ fit.lsq.root.T)
    k2 = k_star[:, :nb]
    ok = ~np.any(k2 <= 0, axis=1)
    x, separated = _separate(estimate.separation.lsq, 1.0 / k2[ok])
    ok[ok] = separated
    failed = int(n_samples - ok.sum())
    if failed > n_samples // 2:
        raise IdentifiabilityError(
            f"{failed}/{n_samples} resamples failed to separate the compensator; "
            "noise level too high for a meaningful interval")
    K0, Kc, Kc_s0 = x[separated].T
    arr = _physical_parameters(K0, k_star[ok, nb:], Kc, Kc_s0 / Kc)
    half = (3.0 * np.std(arr, axis=0, ddof=1) if len(arr) > 1
            else np.full_like(values, np.nan))
    with np.errstate(divide="ignore", invalid="ignore"):
        pct = np.where(values != 0, 100.0 * half / np.abs(values), np.inf)
    return ElastoCI(PARAMETER_LABELS, values, half, pct, n_samples, failed)
