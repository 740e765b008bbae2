"""Compensator linkage geometry from tracker marker sweeps.

The experiment: sweep joint 2 through a set of angles and record, at each
stop, the crank-pin marker P1 (rides on link 2, circles the joint-2 axis
point P2) and at least two satellite markers P0k fixed to the spring-side
body (they trace concentric arcs about the spring anchor P0).  The crank
radius is ``L = |P1 P2|`` and the anchor-to-crank vector ``(ax, ay) =
P2 - P0`` completes the linkage geometry.

Tracker coordinates: the fit plane is x/y (a z column, if present, is
dropped for the crank fit per the planar linkage assumption).
"""
from __future__ import annotations

import functools
import os
import re
from dataclasses import dataclass

import numpy as np

from .circle_fit import (CircleFit, ConcentricFit, _arc_centre, _fit_signed,
                         fit_circle_procrustes, fit_concentric_arcs)
from .errors import DataLayoutError, DegenerateGeometryError
from .tables import read_table, write_table

_MIN_SPAN_RAD = np.deg2rad(30.0)
# MarkerDataset counts the distinct angles rounded to this many decimals (of
# a radian); rounding scales each angle by 10**decimals, so a larger angle
# than _MAX_ANGLE_RAD overflows
_ANGLE_DECIMALS = 9
_MAX_ANGLE_RAD = np.finfo(float).max / 10.0**_ANGLE_DECIMALS


@dataclass
class MarkerDataset:
    """One joint-2 sweep: angles plus crank and satellite marker tracks.

    ``crank`` is (m, d) with d = 2 or 3; ``satellites`` is a tuple of (m, d)
    arrays, one per satellite marker, row-aligned with ``q2_rad``.
    """

    q2_rad: np.ndarray
    crank: np.ndarray
    satellites: tuple

    def __post_init__(self):
        self.q2_rad = np.asarray(self.q2_rad, dtype=float)
        self.crank = np.asarray(self.crank, dtype=float)
        self.satellites = tuple(np.asarray(s, dtype=float) for s in self.satellites)
        m = self.q2_rad.shape[0]
        if self.q2_rad.ndim != 1:
            raise ValueError("q2_rad must be 1-D")
        if self.crank.ndim != 2 or self.crank.shape[0] != m:
            raise ValueError("crank track must have one row per angle")
        for i, s in enumerate(self.satellites):
            if s.shape != self.crank.shape:
                raise ValueError(f"satellite track {i} is inconsistent with the crank track")
        if not np.isfinite(self.q2_rad).all() or not np.isfinite(self.crank).all() \
                or any(not np.isfinite(s).all() for s in self.satellites):
            raise ValueError("marker dataset contains non-finite values")
        if np.unique(np.round(self.q2_rad, _ANGLE_DECIMALS)).size < 3:
            raise ValueError("need at least 3 distinct joint angles")
        if np.ptp(self.q2_rad) < _MIN_SPAN_RAD:
            raise ValueError("joint-angle span below 30 degrees: geometry is ill-conditioned")

    @property
    def n_poses(self) -> int:
        return int(self.q2_rad.shape[0])


@dataclass(frozen=True)
class CompensatorGeometryEstimate:
    """Identified linkage geometry with the underlying fits attached."""

    L_mm: float
    ax_mm: float
    ay_mm: float
    p2: np.ndarray
    p0: np.ndarray
    crank_fit: CircleFit
    satellite_fit: ConcentricFit


@dataclass(frozen=True)
class GeometryCI:
    """Monte-Carlo +-3 sigma half-widths for the identified geometry."""

    halfwidth3_L_mm: float
    halfwidth3_ax_mm: float
    halfwidth3_ay_mm: float
    sigma_crank_mm: float
    sigma_satellite_mm: float
    n_samples: int


def load_marker_csv(path: str | os.PathLike) -> MarkerDataset:
    """Read a sweep CSV: ``q2_deg, P1_x, P1_y[, P1_z], P01_x, ...``.

    Any number of satellite groups ``P0k_*`` is accepted, each with its
    ``_x`` and ``_y`` columns; angles are stored in radians internally.  An
    angle too large to count among the distinct angles (above about 1e301
    degrees) is refused, naming its line.
    """
    cols, lines = read_table(path)
    if not len(lines):
        raise DataLayoutError(f"{path}: no data rows")
    if "q2_deg" not in cols:
        raise DataLayoutError(f"{path}: missing column q2_deg")

    def group(prefix):
        names = [f"{prefix}_x", f"{prefix}_y"]
        missing = [n for n in names if n not in cols]
        if missing:
            raise DataLayoutError(f"{path}: missing column {missing[0]} "
                                  f"(a marker needs {prefix}_x/{prefix}_y)")
        if f"{prefix}_z" in cols:
            names.append(f"{prefix}_z")
        return np.column_stack([cols[n] for n in names])

    crank = group("P1")
    sat_names = sorted({m.group(1) for h in cols
                        for m in [re.match(r"^(P0\d+)_[xyz]$", h)] if m})
    satellites = tuple(group(n) for n in sat_names)
    q2 = np.deg2rad(cols["q2_deg"])
    big = np.flatnonzero(np.abs(q2) > _MAX_ANGLE_RAD)
    if big.size:
        raise DataLayoutError(f"{path}:{lines[big[0]]}: column q2_deg out of range, "
                              f"got {cols['q2_deg'][big[0]]:g}")
    try:
        return MarkerDataset(q2_rad=q2, crank=crank, satellites=satellites)
    except ValueError as exc:
        raise DataLayoutError(f"{path}: {exc}") from exc


def save_marker_csv(path: str | os.PathLike, dataset: MarkerDataset) -> None:
    """Write ``dataset`` in the :func:`load_marker_csv` layout (mm, deg)."""
    axes = "xyz"[:dataset.crank.shape[1]]
    tracks = (dataset.crank,) + dataset.satellites
    names = ["P1"] + [f"P0{j + 1}" for j in range(len(dataset.satellites))]
    header = ["q2_deg"] + [f"{n}_{a}" for n in names for a in axes]
    write_table(path, header, [".10g"] + [".6f"] * (len(header) - 1),
                np.column_stack((np.degrees(dataset.q2_rad),) + tracks).tolist())


def _overflow_names_the_data(fn):
    """Make ``fn(dataset, ...)`` raise :class:`DegenerateGeometryError`
    naming the marker data when the data's scale overflows a fit, in place
    of numpy's overflow warnings and a failed SVD further on."""
    @functools.wraps(fn)
    def guarded(dataset: MarkerDataset, *args, **kwargs):
        try:
            with np.errstate(over="raise"):
                return fn(dataset, *args, **kwargs)
        except FloatingPointError as exc:
            big = max(float(np.abs(t).max()) for t in (dataset.crank, *dataset.satellites))
            raise DegenerateGeometryError(
                f"marker data out of range: coordinates up to {big:.3g} mm overflow "
                f"the fits ({exc})") from exc
    return guarded


@_overflow_names_the_data
def identify_compensator_geometry(dataset: MarkerDataset,
                                  angle_sign="auto") -> CompensatorGeometryEstimate:
    """Two-stage linkage geometry identification.

    Stage 1 fits the crank circle with the angle-annotated fit (radius L,
    centre P2); stage 2 fits the satellite arcs for the shared anchor P0.
    In 3-D input the anchor's x/y components are used for the vector.
    """
    if len(dataset.satellites) < 2:
        raise DegenerateGeometryError(
            "need at least 2 satellite marker tracks to locate the spring anchor")
    crank_fit = fit_circle_procrustes(dataset.crank, dataset.q2_rad, angle_sign=angle_sign)
    sat_fit = fit_concentric_arcs(dataset.satellites)
    p2 = crank_fit.center
    p0 = sat_fit.center
    a_vec = p2 - p0[:2]
    return CompensatorGeometryEstimate(
        L_mm=crank_fit.radius, ax_mm=float(a_vec[0]), ay_mm=float(a_vec[1]),
        p2=p2, p0=p0, crank_fit=crank_fit, satellite_fit=sat_fit)


def _clean_tracks(dataset: MarkerDataset, est: CompensatorGeometryEstimate):
    """Model-implied noise-free marker tracks for parametric resampling."""
    crank_clean = est.crank_fit.predict(dataset.q2_rad)
    sats_clean = []
    p0 = est.satellite_fit.center
    for arr, Rj in zip(dataset.satellites, est.satellite_fit.radii):
        d = arr - p0
        r = np.linalg.norm(d, axis=1, keepdims=True)
        sats_clean.append(p0 + Rj * d / r)
    return crank_clean, sats_clean


def residual_noise_sigma(est: CompensatorGeometryEstimate) -> tuple[float, float]:
    """Per-coordinate noise levels implied by the two fits, from each fit's
    residual rms and point count.

    Returned as ``(sigma_crank, sigma_satellite)``.  Crank residuals are full
    planar vectors (2m values, 4 fitted parameters); satellite residuals are
    radial only (one value per point; centre plus one radius per set fitted).
    Under isotropic noise both kinds have per-coordinate variance sigma^2,
    but the two marker groups are allowed different noise levels -- on real
    tracker data the satellite body often jitters more than the crank pin.
    """
    cf, sf = est.crank_fit, est.satellite_fit
    sigma_crank = cf.residual_rms * np.sqrt(cf.n_points / max(2 * cf.n_points - 4, 1))
    dof_rad = max(sf.n_points - sf.center.size - sf.radii.size, 1)
    return float(sigma_crank), float(sf.residual_rms * np.sqrt(sf.n_points / dof_rad))


@_overflow_names_the_data
def confidence_intervals_geometry(dataset: MarkerDataset,
                                  estimate: CompensatorGeometryEstimate,
                                  n_samples: int = 200, seed: int = 0) -> GeometryCI:
    """Parametric residual-resampling +-3 sigma intervals for (L, ax, ay).

    Noise-free tracks implied by the point estimate are re-noised with the
    per-group residual sigma and refit ``n_samples`` times, all samples as
    one stack.  Sample ``i``'s noise is row ``i`` of one
    ``default_rng(seed).standard_normal((n_samples, m))`` draw: its ``m``
    values are the crank track's then each satellite track's, in row-major
    order, scaled by ``sigma_crank`` and ``sigma_satellite``.  Zero residuals
    yield zero widths; otherwise fewer than two samples yield NaN widths.
    """
    s_crank, s_sat = residual_noise_sigma(estimate)
    if s_crank == 0.0 and s_sat == 0.0:
        return GeometryCI(0.0, 0.0, 0.0, s_crank, s_sat, n_samples)
    if n_samples < 2:
        return GeometryCI(np.nan, np.nan, np.nan, s_crank, s_sat, n_samples)
    crank_clean, sats_clean = _clean_tracks(dataset, estimate)
    n_crank = crank_clean.size
    z = np.random.default_rng(seed).standard_normal(
        (n_samples, n_crank + sum(s.size for s in sats_clean)))
    crank = crank_clean + s_crank * z[:, :n_crank].reshape((n_samples,) + crank_clean.shape)
    # every satellite track has the dataset's track shape
    sat_noise = z[:, n_crank:].reshape((n_samples, len(sats_clean)) + sats_clean[0].shape)
    sats = [s + s_sat * sat_noise[:, j] for j, s in enumerate(sats_clean)]
    # every sample's refit as one stack; the fixed crank sign keeps the
    # mirror diagnostic, and any sample failing a check raises
    _, radius, _, centre, _ = _fit_signed(crank, dataset.q2_rad, estimate.crank_fit.angle_sign)
    a_vec = centre - _arc_centre(sats)[0][:, :2]
    sd = np.column_stack([radius, a_vec]).std(axis=0, ddof=1)
    return GeometryCI(float(3.0 * sd[0]), float(3.0 * sd[1]), float(3.0 * sd[2]),
                      s_crank, s_sat, n_samples)
