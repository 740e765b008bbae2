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

import csv
import math
import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .compensator import CompensatorGeometry, spring_span
from .errors import DataLayoutError, IdentifiabilityError
from .robot import ManipulatorModel

DEFLECTION_CSV_HEADER = (
    "q1_deg", "q2_deg", "q3_deg", "q4_deg", "q5_deg", "q6_deg",
    "Fx_N", "Fy_N", "Fz_N", "Mx_Nmm", "My_Nmm", "Mz_Nmm",
    "marker_id", "dx_mm", "dy_mm", "dz_mm", "repeat",
)


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
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(DEFLECTION_CSV_HEADER)
        for r in records:
            row = [f"{v:.10g}" for v in np.degrees(r.q_rad)]
            row += [f"{v:.10g}" for v in r.wrench]
            row.append(str(r.marker_id))
            row += [f"{v:.10g}" for v in r.deflection_mm]
            row.append(str(r.repeat))
            w.writerow(row)


def csv_floats(where: str, columns: Sequence[str], cells: Sequence[str]) -> List[float]:
    """Finite floats of CSV ``cells``; a bad cell raises :class:`DataLayoutError`
    naming ``where`` (``path:line``) and its column."""
    vals = []
    for name, cell in zip(columns, cells):
        try:
            v = float(cell)
        except ValueError as exc:
            raise DataLayoutError(f"{where}: column {name}: {exc}") from exc
        if not math.isfinite(v):
            raise DataLayoutError(
                f"{where}: column {name} must be finite, got {cell.strip()!r}")
        vals.append(v)
    return vals


def load_deflection_csv(path) -> List[DeflectionRecord]:
    records: List[DeflectionRecord] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != list(DEFLECTION_CSV_HEADER):
            raise DataLayoutError(
                f"{path}: expected deflection header "
                f"{','.join(DEFLECTION_CSV_HEADER)}, got {header}")
        for ln, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(DEFLECTION_CSV_HEADER):
                raise DataLayoutError(f"{path}:{ln}: expected "
                                      f"{len(DEFLECTION_CSV_HEADER)} fields, got {len(row)}")
            where = f"{path}:{ln}"
            vals = csv_floats(where, DEFLECTION_CSV_HEADER[:12], row[:12])
            defl = csv_floats(where, DEFLECTION_CSV_HEADER[13:16], row[13:16])
            try:
                marker = int(row[12])
                repeat = int(row[16])
            except ValueError as exc:
                raise DataLayoutError(f"{where}: {exc}") from exc
            records.append(DeflectionRecord(
                q_rad=np.radians(vals[:6]), wrench=np.array(vals[6:12]),
                marker_id=marker, deflection_mm=np.array(defl), repeat=repeat))
    if not records:
        raise DataLayoutError(f"{path}: no deflection records found")
    return records


# ---------------------------------------------------------------------------
# parameter layout


@dataclass(frozen=True)
class ParameterLayout:
    """Maps joints (and joint-2 angle buckets) onto regressor columns.

    Column order: optional k1, then one joint-2 compliance per bucket, then
    k3..k6.  Joint 1 is excluded by default: with purely vertical test loads
    the force lever about the vertical base axis vanishes, so its column is
    structurally zero and would only poison the normal equations.
    """

    bucket_q2_rad: Tuple[float, ...]
    include_joint1: bool = False
    bucket_tol_rad: float = math.radians(0.1)

    def __post_init__(self):
        if len(self.bucket_q2_rad) == 0:
            raise ValueError("parameter layout needs at least one joint-2 bucket")
        vals = np.asarray(self.bucket_q2_rad, dtype=float)
        if len(vals) > 1 and np.min(np.diff(np.sort(vals))) <= 2.0 * self.bucket_tol_rad:
            raise ValueError("joint-2 buckets closer than twice the matching tolerance")

    @classmethod
    def from_q2(cls, angles, *, include_joint1: bool = False,
                bucket_tol_rad: float = math.radians(0.1)) -> "ParameterLayout":
        """Cluster joint-2 angles into buckets; the first angle seen is the centre."""
        buckets: List[float] = []
        for q2 in angles:
            q2 = float(q2)
            if not any(abs(q2 - b) <= bucket_tol_rad for b in buckets):
                buckets.append(q2)
        buckets.sort(reverse=True)  # sweep order: near-upright first
        return cls(tuple(buckets), include_joint1=include_joint1,
                   bucket_tol_rad=bucket_tol_rad)

    @classmethod
    def from_records(cls, records: Sequence[DeflectionRecord], *,
                     include_joint1: bool = False,
                     bucket_tol_rad: float = math.radians(0.1)) -> "ParameterLayout":
        """Cluster the joint-2 angles present in ``records`` into buckets."""
        return cls.from_q2((r.q_rad[1] for r in records), include_joint1=include_joint1,
                           bucket_tol_rad=bucket_tol_rad)

    @property
    def n_buckets(self) -> int:
        return len(self.bucket_q2_rad)

    @property
    def n_params(self) -> int:
        return (1 if self.include_joint1 else 0) + self.n_buckets + 4

    def bucket_of(self, q2_rad: float, context: str = "record") -> int:
        for i, b in enumerate(self.bucket_q2_rad):
            if abs(q2_rad - b) <= self.bucket_tol_rad:
                return i
        have = ", ".join(f"{math.degrees(b):.2f}" for b in self.bucket_q2_rad)
        raise DataLayoutError(
            f"{context}: joint-2 angle {math.degrees(q2_rad):.3f} deg matches no "
            f"layout bucket (have: {have} deg, tol "
            f"{math.degrees(self.bucket_tol_rad):.2f} deg)")

    def column_of(self, joint: int, bucket: Optional[int] = None) -> Optional[int]:
        """Regressor column of joint ``joint`` (1-based); None if excluded."""
        off = 1 if self.include_joint1 else 0
        if joint == 1:
            return 0 if self.include_joint1 else None
        if joint == 2:
            if bucket is None:
                raise ValueError("joint 2 requires a bucket index")
            return off + bucket
        return off + self.n_buckets + (joint - 3)

    def column_labels(self) -> Tuple[str, ...]:
        labels: List[str] = []
        if self.include_joint1:
            labels.append("k1")
        for b in self.bucket_q2_rad:
            labels.append(f"k2[{math.degrees(b):.2f}deg]")
        labels += ["k3", "k4", "k5", "k6"]
        return tuple(labels)

    def place(self, A: np.ndarray, bucket: int) -> np.ndarray:
        """Spread per-joint columns [k1..k6] over this layout's columns.

        ``A`` is a :func:`stiffcal.doe.sensitivity_rows` block with joint 1
        included; joint 2 lands in ``bucket``'s column, joint 1 is dropped
        when the layout excludes it.
        """
        out = np.zeros((A.shape[0], self.n_params))
        for j in range(1, 7):
            col = self.column_of(j, bucket if j == 2 else None)
            if col is not None:
                out[:, col] = A[:, j - 1]
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
    B = np.zeros((3 * n, layout.n_params))
    y = np.zeros(3 * n)
    blocks = {}
    for i, rec in enumerate(records):
        m = rec.marker_id
        if not 0 <= m < len(model.markers):
            raise DataLayoutError(
                f"record {i}: marker id {m} outside model range "
                f"0..{len(model.markers) - 1}")
        bucket = layout.bucket_of(float(rec.q_rad[1]), context=f"record {i}")
        key = (tuple(np.round(rec.q_rad, 12)), tuple(rec.wrench), bucket)
        if key not in blocks:
            blocks[key] = layout.place(sensitivity_rows(
                model, rec.q_rad, rec.wrench, include_joint1=True), bucket)
        B[3 * i:3 * i + 3] = blocks[key][3 * m:3 * m + 3]
        y[3 * i:3 * i + 3] = rec.deflection_mm
    return B, y


@dataclass
class CompliancesFit:
    """Least-squares result of the stage-one compliance regression."""

    layout: ParameterLayout
    values: np.ndarray       # (p,) compliances, rad/(N*mm)
    covariance: np.ndarray   # (p, p)
    sigma_hat_mm: float      # residual noise scale per displacement axis
    rank: int
    rss: float
    n_rows: int

    @property
    def labels(self) -> Tuple[str, ...]:
        return self.layout.column_labels()

    def joint2_compliances(self) -> np.ndarray:
        off = 1 if self.layout.include_joint1 else 0
        return self.values[off:off + self.layout.n_buckets]

    def joint2_stiffnesses(self) -> np.ndarray:
        """Equivalent joint-2 stiffness per bucket, N*mm/rad."""
        k2 = self.joint2_compliances()
        if np.any(k2 <= 0):
            bad = [self.labels[i] for i in np.flatnonzero(self.values <= 0)]
            raise IdentifiabilityError(
                f"non-positive joint-2 compliance estimate ({', '.join(bad)}); "
                "data too noisy or wrong model")
        return 1.0 / k2


def identify_compliances(model: ManipulatorModel, records: Sequence[DeflectionRecord],
                         layout: Optional[ParameterLayout] = None,
                         rank_tol: float = 1e-10) -> CompliancesFit:
    """Solve the stage-one regression; raises if a direction is unobservable."""
    if layout is None:
        layout = ParameterLayout.from_records(records)
    B, y = build_regressor(model, records, layout)
    U, s, Vt = np.linalg.svd(B, full_matrices=False)
    rank = int(np.sum(s > rank_tol * s[0])) if s[0] > 0 else 0
    p = layout.n_params
    if rank < p:
        null = Vt[rank:].T
        labels = layout.column_labels()
        worst = sorted({labels[int(np.argmax(np.abs(null[:, c])))]
                        for c in range(null.shape[1])})
        raise IdentifiabilityError(
            f"regressor rank {rank} < {p}: parameters not identifiable from this "
            f"plan (weakest: {', '.join(worst)})", null_directions=null)
    k = Vt.T @ ((U.T @ y) / s)
    resid = y - B @ k
    rss = float(resid @ resid)
    dof = len(y) - p
    sigma = math.sqrt(rss / dof) if dof > 0 else 0.0
    cov = (Vt.T / s**2) @ Vt * sigma**2
    for i, v in enumerate(k):
        if v <= 0:
            warnings.warn(
                f"estimated compliance {layout.column_labels()[i]} = {v:.3e} "
                "is non-positive; treat the fit with suspicion", RuntimeWarning,
                stacklevel=2)
    return CompliancesFit(layout=layout, values=k, covariance=cov,
                          sigma_hat_mm=sigma, rank=rank, rss=rss, n_rows=len(y))


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

    @property
    def k2_rad_per_Nmm(self) -> float:
        return 1.0 / self.K0_Nmm_per_rad


def separation_matrix(geometry: CompensatorGeometry, q2_rad: Sequence[float],
                      q2_sign: int = 1) -> np.ndarray:
    """Rows mapping [K0, Kc, Kc*s0] to the equivalent joint-2 stiffness.

    Writing the stiffness contribution of the spring as
    Kc*a*L*eta(q2; s0) and expanding eta in the two unknown spring constants
    gives a model linear in x = [K0, Kc, Kc*s0]; the free length is
    recovered afterwards as x3/x2.
    """
    a = geometry.a_mm
    L = geometry.L_mm
    aL = a * L
    rows = []
    for q2 in q2_rad:
        q2e = q2_sign * float(q2)
        gam = geometry.alpha_rad - q2e
        s = float(spring_span(geometry, q2e))
        rows.append([1.0,
                     -aL * math.cos(gam),
                     (aL / s) * ((aL / s**2) * math.sin(gam)**2 + math.cos(gam))])
    return np.array(rows)


def separate_compensator(layout: ParameterLayout, K2_Nmm_per_rad: np.ndarray,
                         geometry: CompensatorGeometry,
                         q2_sign: int = 1) -> CompensatorSeparation:
    """Split per-bucket joint-2 stiffnesses into K0, Kc and s0."""
    K2 = np.asarray(K2_Nmm_per_rad, dtype=float).reshape(-1)
    if K2.shape[0] != layout.n_buckets:
        raise ValueError("one joint-2 stiffness per bucket required")
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
    x = Vt.T @ ((U.T @ K2) / s)
    if abs(x[1]) < 1e-12 * max(abs(x[0]), 1.0):
        raise IdentifiabilityError(
            "compensator spring rate indistinguishable from zero; free length "
            "is undefined")
    K0, Kc = float(x[0]), float(x[1])
    s0 = float(x[2] / x[1])
    if Kc <= 0 or K0 <= 0 or s0 <= 0:
        warnings.warn(
            f"separated constants have non-physical signs (K0={K0:.3e}, "
            f"Kc={Kc:.3e}, s0={s0:.3e})", RuntimeWarning, stacklevel=2)
    resid = C @ x - K2
    nrm = float(np.linalg.norm(K2))
    return CompensatorSeparation(
        K0_Nmm_per_rad=K0, Kc_N_per_mm=Kc, s0_mm=s0,
        condition=float(s[0] / s[-1]),
        residual_rel=float(np.linalg.norm(resid)) / nrm if nrm > 0 else 0.0)


# ---------------------------------------------------------------------------
# combined estimate and confidence intervals


@dataclass
class ElastostaticEstimate:
    fit: CompliancesFit
    separation: CompensatorSeparation

    @property
    def joint_compliances(self) -> np.ndarray:
        """(6,) compliances rad/(N*mm); joint 2 is the bare spring 1/K0.

        Joints excluded from the layout come back as NaN.
        """
        out = np.full(6, np.nan)
        lay = self.fit.layout
        if lay.include_joint1:
            out[0] = self.fit.values[0]
        out[1] = self.separation.k2_rad_per_Nmm
        off = (1 if lay.include_joint1 else 0) + lay.n_buckets
        out[2:6] = self.fit.values[off:off + 4]
        return out

    def parameter_labels(self) -> Tuple[str, ...]:
        labels: List[str] = []
        if self.fit.layout.include_joint1:
            labels.append("k1")
        labels += ["k2", "k3", "k4", "k5", "k6", "Kc", "s0"]
        return tuple(labels)

    def parameter_values(self) -> np.ndarray:
        """Physical parameter vector matching :meth:`parameter_labels`."""
        kk = self.joint_compliances
        vals: List[float] = []
        if self.fit.layout.include_joint1:
            vals.append(kk[0])
        vals += [kk[1], kk[2], kk[3], kk[4], kk[5],
                 self.separation.Kc_N_per_mm, self.separation.s0_mm]
        return np.array(vals)


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


def confidence_intervals_elasto(model: ManipulatorModel,
                                records: Sequence[DeflectionRecord],
                                estimate: Optional[ElastostaticEstimate] = None,
                                n_samples: int = 200,
                                seed: int = 0) -> ElastoCI:
    """Parametric residual resampling through the full two-stage pipeline.

    Clean responses are the fitted model predictions; each resample adds iid
    Gaussian noise at the fitted residual scale, refits the linear stage and
    reruns the separation, so the reported spread includes the nonlinear
    s0 = x3/x2 step.  Empty residuals (noise-free data) give zero widths.
    """
    if estimate is None:
        estimate = identify_elastostatics(model, records)
    layout = estimate.fit.layout
    B, _ = build_regressor(model, records, layout)
    yhat = B @ estimate.fit.values
    sigma = estimate.fit.sigma_hat_mm
    labels = estimate.parameter_labels()
    values = estimate.parameter_values()
    if sigma == 0.0 or n_samples < 2:
        zero = np.zeros_like(values)
        return ElastoCI(labels, values, zero, zero, sigma, n_samples, seed)
    U, s, Vt = np.linalg.svd(B, full_matrices=False)
    pinv = Vt.T @ np.diag(1.0 / s) @ U.T
    geom = model.compensator.geometry
    q2_sign = model.compensator.q2_sign
    off = (1 if layout.include_joint1 else 0)
    samples = []
    failed = 0
    for i in range(n_samples):
        rng = np.random.default_rng((seed, i))
        k_star = pinv @ (yhat + sigma * rng.standard_normal(yhat.shape))
        k2 = k_star[off:off + layout.n_buckets]
        try:
            if np.any(k2 <= 0):
                raise IdentifiabilityError("non-positive resampled compliance")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                sep = separate_compensator(layout, 1.0 / k2, geom, q2_sign)
        except IdentifiabilityError:
            failed += 1
            continue
        row: List[float] = []
        if layout.include_joint1:
            row.append(k_star[0])
        row.append(sep.k2_rad_per_Nmm)
        row.extend(k_star[off + layout.n_buckets:off + layout.n_buckets + 4])
        row += [sep.Kc_N_per_mm, sep.s0_mm]
        samples.append(row)
    if failed > n_samples // 2:
        raise IdentifiabilityError(
            f"{failed}/{n_samples} resamples failed to separate the compensator; "
            "noise level too high for a meaningful interval")
    arr = np.array(samples)
    half = 3.0 * np.std(arr, axis=0, ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        pct = np.where(values != 0, 100.0 * half / np.abs(values), np.inf)
    return ElastoCI(labels, values, half, pct, sigma, n_samples, seed)
