"""Elastostatic identification from marker deflections under known loads.

The pipeline has two linear stages.  Stage one treats the rotational
stiffness of every joint as an unknown compliance and regresses measured
marker displacements on the model-predicted sensitivity columns; joint 2
gets one compliance value *per distinct joint-2 angle* because the gravity
compensator modulates it with posture.  Stage two separates the bucketed
joint-2 stiffnesses into the bare joint spring, the compensator spring rate
and its free length using the slider-crank kinematics.

Records are loaded-minus-unloaded displacement vectors, so gravity drops
out of the regression and only the applied tool wrench appears.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .compensator import CompensatorGeometry, eta_parts
from .errors import DataLayoutError, IdentifiabilityError
from .robot import ManipulatorModel
from .tables import read_table, write_table

DEFLECTION_CSV_HEADER = (
    "q1_deg", "q2_deg", "q3_deg", "q4_deg", "q5_deg", "q6_deg",
    "Fx_N", "Fy_N", "Fz_N", "Mx_Nmm", "My_Nmm", "Mz_Nmm",
    "marker_id", "dx_mm", "dy_mm", "dz_mm", "repeat",
)

# Joint-2 angles within this of a bucket centre belong to that bucket.
BUCKET_TOL_RAD = math.radians(0.1)
# Singular values below this fraction of the largest count as rank deficient.
RANK_TOL = 1e-10
# Physical parameters of the two-stage estimate, in report order.
PARAMETER_LABELS = ("k2", "k3", "k4", "k5", "k6", "Kc", "s0")


@dataclass
class DeflectionRecord:
    """One marker displacement measured under one tool wrench.

    ``deflection_mm`` is the marker position under load minus the position
    of the same marker in the same commanded configuration without load.
    """

    q_rad: np.ndarray          # (6,) commanded joint angles
    wrench: np.ndarray         # (6,) tool wrench, forces in N, moments in N*mm
    marker_id: int
    deflection_mm: np.ndarray  # (3,)
    repeat: int = 0

    def __post_init__(self):
        self.q_rad = np.asarray(self.q_rad, dtype=float).reshape(6)
        self.wrench = np.asarray(self.wrench, dtype=float).reshape(6)
        self.deflection_mm = np.asarray(self.deflection_mm, dtype=float).reshape(3)
        self.marker_id = int(self.marker_id)
        self.repeat = int(self.repeat)


def save_deflection_csv(path, records: Sequence[DeflectionRecord]) -> None:
    q = np.degrees([r.q_rad for r in records]).tolist()
    w = np.array([r.wrench for r in records]).tolist()
    d = np.array([r.deflection_mm for r in records]).tolist()
    write_table(path, DEFLECTION_CSV_HEADER, (
        [f"{v:.10g}" for v in qi + wi] + [str(r.marker_id)]
        + [f"{v:.10g}" for v in di] + [str(r.repeat)]
        for qi, wi, di, r in zip(q, w, d, records)))


def load_deflection_csv(path) -> List[DeflectionRecord]:
    """Records of a deflection CSV; a negative ``marker_id`` or ``repeat``
    is rejected with its ``path:line``."""
    def checked(v: list) -> list:
        for i, name in ((12, "marker_id"), (16, "repeat")):
            if v[i] < 0:
                raise ValueError(f"column {name} must be >= 0, got {v[i]}")
        return v

    _, rows = read_table(path, DEFLECTION_CSV_HEADER, kind="deflection",
                         ints=("marker_id", "repeat"), row=checked)
    if not rows:
        raise DataLayoutError(f"{path}: no deflection records found")
    a = np.array([v[:12] + v[13:16] for v in rows])   # q, wrench, deflection
    q = np.radians(a[:, :6])
    return [DeflectionRecord(q[i], a[i, 6:12], v[12], a[i, 12:], v[16])
            for i, v in enumerate(rows)]


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
        """Cluster joint-2 angles into buckets; the first angle seen is the centre."""
        buckets: List[float] = []
        for q2 in angles:
            q2 = float(q2)
            if not any(abs(q2 - b) <= BUCKET_TOL_RAD for b in buckets):
                buckets.append(q2)
        buckets.sort(reverse=True)  # sweep order: near-upright first
        return cls(tuple(buckets))

    @classmethod
    def from_records(cls, records: Sequence[DeflectionRecord]) -> "ParameterLayout":
        """Cluster the joint-2 angles present in ``records`` into buckets."""
        return cls.from_q2(r.q_rad[1] for r in records)

    @property
    def n_buckets(self) -> int:
        return len(self.bucket_q2_rad)

    @property
    def n_params(self) -> int:
        return self.n_buckets + 4

    def bucket_of(self, q2_rad: float, context: str = "record") -> int:
        for i, b in enumerate(self.bucket_q2_rad):
            if abs(q2_rad - b) <= BUCKET_TOL_RAD:
                return i
        have = ", ".join(f"{math.degrees(b):.2f}" for b in self.bucket_q2_rad)
        raise DataLayoutError(
            f"{context}: joint-2 angle {math.degrees(q2_rad):.3f} deg matches no "
            f"layout bucket (have: {have} deg, tol "
            f"{math.degrees(BUCKET_TOL_RAD):.2f} deg)")

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


def build_regressor(model: ManipulatorModel, records: Sequence[DeflectionRecord],
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
    q = np.array([r.q_rad for r in records])
    wrench = np.array([r.wrench for r in records])
    marker = np.array([r.marker_id for r in records])
    n_markers = len(model.markers)
    marker_ok = (marker >= 0) & (marker < n_markers)
    near = np.abs(q[:, 1:2] - np.array(layout.bucket_q2_rad)) <= BUCKET_TOL_RAD
    bad = np.flatnonzero(~(marker_ok & near.any(axis=1)))
    if bad.size:     # the first bad record, marker before bucket
        i = int(bad[0])
        if not marker_ok[i]:
            raise DataLayoutError(
                f"record {i}: marker id {records[i].marker_id} outside model range "
                f"0..{n_markers - 1}")
        layout.bucket_of(float(q[i, 1]), context=f"record {i}")   # raises
    bucket = near.argmax(axis=1)      # the first matching bucket
    # one sensitivity block per distinct (pose, wrench, bucket), taken at its
    # first record; + 0.0 makes -0.0 and 0.0 one key
    key = np.column_stack([np.round(q, 12), wrench, bucket]) + 0.0
    _, first, group = np.unique(key, axis=0, return_index=True, return_inverse=True)
    A = sensitivity_rows(model, q[first], wrench[first])
    # the inverse's shape differs across numpy 2.0.x releases
    A = A.reshape(len(first), n_markers, 3, -1)[group.reshape(-1), marker]
    B = layout.place(A, bucket).reshape(3 * n, layout.n_params)
    return B, np.concatenate([r.deflection_mm for r in records])


def factor_regressor(B: np.ndarray, layout: ParameterLayout):
    """Thin SVD ``(U, s, Vt)`` of the stage-one regressor ``B`` (columns as in
    ``layout``); raises naming the unobservable columns unless every singular
    value is above ``RANK_TOL`` of the largest.  ``B`` itself is factored:
    the same cut on ``B^T B`` would sit at 1e-20, below double rounding."""
    U, s, Vt = np.linalg.svd(B, full_matrices=False)
    rank = int(np.sum(s > RANK_TOL * s[0]))
    p = layout.n_params
    if rank < p:
        null = np.linalg.svd(B)[2][rank:].T   # all of V: B may have < p rows
        labels = layout.column_labels()
        worst = sorted({labels[int(np.argmax(np.abs(null[:, c])))]
                        for c in range(null.shape[1])})
        raise IdentifiabilityError(
            f"regressor rank {rank} < {p}: parameters not identifiable from this "
            f"plan (unobservable: {', '.join(worst)})", null_directions=null)
    return U, s, Vt


@dataclass
class CompliancesFit:
    """Least-squares result of the stage-one compliance regression."""

    layout: ParameterLayout
    values: np.ndarray       # (p,) compliances, rad/(N*mm)
    sigma_hat_mm: float      # residual noise scale per displacement axis
    condition: float         # sigma_max / sigma_min of the regressor B
    root: np.ndarray         # (p, p) V / s: the covariance is sigma^2 root root^T

    @property
    def labels(self) -> Tuple[str, ...]:
        return self.layout.column_labels()

    def joint2_compliances(self) -> np.ndarray:
        return self.values[:self.layout.n_buckets]

    def joint2_stiffnesses(self) -> np.ndarray:
        """Equivalent joint-2 stiffness per bucket, N*mm/rad."""
        k2 = self.joint2_compliances()
        if np.any(k2 <= 0):
            bad = [lab for lab, v in zip(self.labels, k2) if v <= 0]
            raise IdentifiabilityError(
                f"non-positive joint-2 compliance estimate ({', '.join(bad)}); "
                "data too noisy or wrong model")
        return 1.0 / k2


def identify_compliances(model: ManipulatorModel, records: Sequence[DeflectionRecord],
                         layout: Optional[ParameterLayout] = None) -> CompliancesFit:
    """Solve the stage-one regression; raises if a direction is unobservable."""
    if layout is None:
        layout = ParameterLayout.from_records(records)
    B, y = build_regressor(model, records, layout)
    U, s, Vt = factor_regressor(B, layout)
    k = Vt.T @ ((U.T @ y) / s)
    resid = y - B @ k
    dof = len(y) - layout.n_params
    sigma = math.sqrt(float(resid @ resid) / dof) if dof > 0 else 0.0
    for i, v in enumerate(k):
        if v <= 0:
            warnings.warn(
                f"estimated compliance {layout.column_labels()[i]} = {v:.3e} "
                "is non-positive; treat the fit with suspicion", RuntimeWarning,
                stacklevel=2)
    return CompliancesFit(layout=layout, values=k, sigma_hat_mm=sigma,
                          condition=float(s[0] / s[-1]), root=Vt.T / s)


# ---------------------------------------------------------------------------
# stage two: compensator separation


@dataclass
class CompensatorSeparation:
    """Bare joint-2 spring plus compensator constants from bucket stiffnesses."""

    K0_Nmm_per_rad: float
    Kc_N_per_mm: float
    s0_mm: float
    condition: float      # of the 3-column separation system
    residual_rel: float   # relative misfit of the bucket stiffnesses
    K2_fit_Nmm_per_rad: np.ndarray  # per-bucket joint-2 stiffness of the fit

    @property
    def k2_rad_per_Nmm(self) -> float:
        return 1.0 / self.K0_Nmm_per_rad


def separation_matrix(geometry: CompensatorGeometry, q2_rad: Sequence[float],
                      q2_sign: int = 1) -> np.ndarray:
    """Rows mapping [K0, Kc, Kc*s0] to the equivalent joint-2 stiffness.

    The spring adds Kc*a*L*eta(q2; s0) and eta = (s0/s)*b - cos(gamma) is
    affine in s0 (:func:`stiffcal.compensator.eta_parts`), so the stiffness
    is linear in x = [K0, Kc, Kc*s0]; the free length is recovered
    afterwards as x3/x2.
    """
    aL = geometry.a_mm * geometry.L_mm
    s, b, cg = eta_parts(geometry, q2_sign * np.asarray(q2_rad, dtype=float))
    return np.column_stack([np.ones_like(s), -aL * cg, (aL / s) * b])


def _separation_factors(layout: ParameterLayout, geometry: CompensatorGeometry,
                        q2_sign: int):
    """Separation matrix of the layout's buckets and its SVD ``(C, U, s, Vt)``;
    raises when the buckets cannot separate the compensator."""
    if layout.n_buckets < 3:
        raise IdentifiabilityError(
            f"need at least 3 distinct joint-2 angles to separate the "
            f"compensator, got {layout.n_buckets}")
    C = separation_matrix(geometry, layout.bucket_q2_rad, q2_sign)
    U, s, Vt = np.linalg.svd(C, full_matrices=False)
    if s[-1] <= 1e-12 * s[0]:
        raise IdentifiabilityError(
            "joint-2 angle buckets do not vary the spring geometry enough to "
            "separate the compensator constants", null_directions=Vt[-1:].T)
    return C, U, s, Vt


def _separate(factors, K2: np.ndarray):
    """Least-squares ``x = [K0, Kc, Kc*s0]`` (..., 3) of bucket stiffnesses
    ``K2`` (..., n_buckets), and whether each spring rate is distinguishable
    from zero.  A stack applies the same products to each of its rows."""
    _, U, s, Vt = factors
    x = (Vt.T @ ((U.T @ K2[..., None])[..., 0] / s)[..., None])[..., 0]
    return x, ~(np.abs(x[..., 1]) < 1e-12 * np.maximum(np.abs(x[..., 0]), 1.0))


def separate_compensator(layout: ParameterLayout, K2_Nmm_per_rad: np.ndarray,
                         geometry: CompensatorGeometry,
                         q2_sign: int = 1) -> CompensatorSeparation:
    """Split per-bucket joint-2 stiffnesses into K0, Kc and s0."""
    K2 = np.asarray(K2_Nmm_per_rad, dtype=float).reshape(-1)
    if K2.shape[0] != layout.n_buckets:
        raise ValueError("one joint-2 stiffness per bucket required")
    factors = _separation_factors(layout, geometry, q2_sign)
    x, ok = _separate(factors, K2)
    if not ok:
        raise IdentifiabilityError(
            "compensator spring rate indistinguishable from zero; free length "
            "is undefined")
    K0, Kc = float(x[0]), float(x[1])
    s0 = float(x[2] / x[1])
    if Kc <= 0 or K0 <= 0 or s0 <= 0:
        warnings.warn(
            f"separated constants have non-physical signs (K0={K0:.3e}, "
            f"Kc={Kc:.3e}, s0={s0:.3e})", RuntimeWarning, stacklevel=2)
    C, _, s, _ = factors
    fit = C @ x
    nrm = float(np.linalg.norm(K2))
    return CompensatorSeparation(
        K0_Nmm_per_rad=K0, Kc_N_per_mm=Kc, s0_mm=s0,
        condition=float(s[0] / s[-1]),
        residual_rel=float(np.linalg.norm(fit - K2)) / nrm if nrm > 0 else 0.0,
        K2_fit_Nmm_per_rad=fit)


# ---------------------------------------------------------------------------
# combined estimate and confidence intervals


@dataclass
class ElastostaticEstimate:
    fit: CompliancesFit
    separation: CompensatorSeparation

    @property
    def joint_compliances(self) -> np.ndarray:
        """(6,) compliances rad/(N*mm); joint 2 is the bare spring 1/K0.

        Joint 1 has no layout column and comes back as NaN.
        """
        nb = self.fit.layout.n_buckets
        return np.concatenate([[np.nan, self.separation.k2_rad_per_Nmm],
                               self.fit.values[nb:]])

    def parameter_labels(self) -> Tuple[str, ...]:
        return PARAMETER_LABELS

    def parameter_values(self) -> np.ndarray:
        """Physical parameter vector matching :meth:`parameter_labels`."""
        return np.append(self.joint_compliances[1:],
                         [self.separation.Kc_N_per_mm, self.separation.s0_mm])


def identify_elastostatics(model: ManipulatorModel,
                           records: Sequence[DeflectionRecord],
                           layout: Optional[ParameterLayout] = None
                           ) -> ElastostaticEstimate:
    """Full two-stage identification using the model's compensator geometry."""
    if model.compensator is None:
        raise ValueError("model has no compensator section; cannot separate the "
                         "joint-2 stiffness into spring constants")
    if layout is None:
        layout = ParameterLayout.from_records(records)
    fit = identify_compliances(model, records, layout)
    sep = separate_compensator(layout, fit.joint2_stiffnesses(),
                               model.compensator.geometry,
                               model.compensator.q2_sign)
    return ElastostaticEstimate(fit=fit, separation=sep)


@dataclass
class ElastoCI:
    """3-sigma half-widths for the physical parameter vector."""

    labels: Tuple[str, ...]
    values: np.ndarray
    halfwidth3: np.ndarray
    percent: np.ndarray      # 100 * halfwidth3 / |value|
    sigma_hat_mm: float
    n_samples: int
    seed: int
    n_failed: int = 0        # resamples left out of the spread (see below)


def confidence_intervals_elasto(model: ManipulatorModel,
                                records: Sequence[DeflectionRecord],
                                estimate: Optional[ElastostaticEstimate] = None,
                                n_samples: int = 200,
                                seed: int = 0) -> ElastoCI:
    """Parametric residual resampling through the full two-stage pipeline.

    Each resample adds iid Gaussian noise at the fitted residual scale to
    the fitted model predictions, refits the linear stage and reruns the
    separation, so the reported spread includes the nonlinear s0 = x3/x2
    step.  The refit is linear and the regressor has full column rank, so
    a refit compliance vector has the law of ``k + sigma * root @ w`` with
    ``w`` standard normal in parameter space: sample ``i`` takes row ``i``
    of ``default_rng(seed).standard_normal((n_samples, p))``.  Empty
    residuals (noise-free data) give zero widths.  The resamples reuse the
    stage-one fit of ``estimate``; ``records`` are only read to fit one
    when ``estimate`` is not given.  The separation, whose factorization
    does not depend on the sample, runs on all samples at once.  A
    resample fails when a joint-2 compliance is not positive or the spring
    rate is indistinguishable from zero; more than half failing raises.
    """
    if estimate is None:
        estimate = identify_elastostatics(model, records)
    fit = estimate.fit
    layout = fit.layout
    sigma = fit.sigma_hat_mm
    labels = estimate.parameter_labels()
    values = estimate.parameter_values()
    if sigma == 0.0 or n_samples < 2:
        zero = np.zeros_like(values)
        return ElastoCI(labels, values, zero, zero, sigma, n_samples, seed)
    nb = layout.n_buckets
    w = np.random.default_rng(seed).standard_normal((n_samples, layout.n_params))
    k_star = fit.values + sigma * (w @ fit.root.T)
    k2 = k_star[:, :nb]
    ok = ~np.any(k2 <= 0, axis=1)
    x = np.empty((n_samples, 3))
    try:
        factors = _separation_factors(layout, model.compensator.geometry,
                                      model.compensator.q2_sign)
    except IdentifiabilityError:
        ok[:] = False
    else:
        x[ok], separated = _separate(factors, 1.0 / k2[ok])
        ok[ok] = separated
    failed = int(n_samples - ok.sum())
    if failed > n_samples // 2:
        raise IdentifiabilityError(
            f"{failed}/{n_samples} resamples failed to separate the compensator; "
            "noise level too high for a meaningful interval")
    K0, Kc, s0 = x[ok, 0], x[ok, 1], x[ok, 2] / x[ok, 1]
    arr = np.column_stack([1.0 / K0, k_star[ok, nb:], Kc, s0])
    half = 3.0 * np.std(arr, axis=0, ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        pct = np.where(values != 0, 100.0 * half / np.abs(values), np.inf)
    return ElastoCI(labels, values, half, pct, sigma, n_samples, seed, failed)
