"""Circle fits for marker sweeps.

Two fitting problems appear when calibrating the compensator linkage from
tracker data:

* a single marker riding a crank, where each point is annotated with the
  joint angle at which it was recorded -- solved by an orthogonal-Procrustes
  alignment of the unit circle onto the data (angle-aware, so short arcs stay
  well conditioned), whose planar rotation has a closed form;
* several markers rigidly attached to one rotating body, tracing concentric
  arcs about an unknown shared centre -- solved by a linear least-squares
  system in the centre coordinates, with an eigenvector ambiguity resolution
  along the rotation axis in the 3-D case.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AngleDirectionError, DegenerateGeometryError
from .transforms import dot_rows


@dataclass(frozen=True)
class CircleFit:
    """Result of the angle-annotated (Procrustes) circle fit.

    ``R`` is the proper planar rotation aligning the unit-circle embedding of
    the (possibly sign-flipped) angles with the data; ``angle_sign`` records
    which direction convention was used.  ``residual_rms`` is the root mean
    square point-to-model distance in mm.
    """

    center: np.ndarray
    radius: float
    R: np.ndarray
    angle_sign: int
    residual_rms: float
    n_points: int

    def predict(self, angles_rad) -> np.ndarray:
        """Fitted circle points at the given angles, shape (m, 2)."""
        u = _embed(np.asarray(angles_rad, dtype=float), self.angle_sign)
        return self.radius * (u @ self.R.T) + self.center


@dataclass(frozen=True)
class ConcentricFit:
    """Result of the shared-centre arc fit.

    ``axis`` is None in 2-D mode; in 3-D it is the unit rotation axis (sign
    chosen so the largest component is positive).  ``radii`` has one entry
    per input set.
    """

    center: np.ndarray
    radii: np.ndarray
    axis: np.ndarray | None
    residual_rms: float
    n_points: int


def _procrustes_once(p: np.ndarray, u: np.ndarray):
    """Best similarity (scale mu > 0, proper rotation R, shift t) of u (m, 2)
    onto p (..., m, 2), for each leading index of ``p``: ``(mu, R, t, F, ok)``
    with F the residual sum of squares and ``ok`` False where the angle
    embedding is rank deficient (the other outputs are then meaningless).
    The rotation has the planar closed form: R turns by the angle of
    (D00 + D11, D01 - D10), of length z = mu * sum |u_i - ubar|^2, and the
    singular values of D are (z + w)/2 and |z - w|/2."""
    pbar = p.mean(axis=-2)
    ubar = u.mean(axis=0)
    ph = p - pbar[..., None, :]
    uh = u - ubar
    D = uh.T @ ph  # sum of outer products u_i p_i^T
    x, y = D[..., 0, 0] + D[..., 1, 1], D[..., 0, 1] - D[..., 1, 0]
    z = np.hypot(x, y)
    w = np.hypot(D[..., 0, 0] - D[..., 1, 1], D[..., 0, 1] + D[..., 1, 0])
    ok = (z + w > 0.0) & (np.abs(z - w) >= 1e-12 * (z + w))
    angle = np.arctan2(y, x)
    c, s = np.cos(angle), np.sin(angle)
    R = np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)
    mu = z / float((uh * uh).sum())
    resid = ph - mu[..., None, None] * (uh @ R.swapaxes(-1, -2))
    F = (resid * resid).reshape(resid.shape[:-2] + (-1,)).sum(axis=-1)
    t = pbar - mu[..., None] * (R @ ubar)
    return mu, R, t, F, ok


def _embed(a: np.ndarray, sign: int) -> np.ndarray:
    return np.column_stack([np.cos(sign * a), np.sin(sign * a)])


def _fit_signed(p: np.ndarray, a: np.ndarray, sign):
    """Procrustes fit of each point set in ``p`` (..., m, 2) with the angle
    sign +1, -1 or, for a single set, "auto": the sign whose fit leaves the
    smaller residual, +1 on a tie.  Fits both signs once and returns
    ``(sign, mu, R, t, F)``.  Raises if any set is degenerate, fits the
    mirrored convention far better (a sign mismatch, not noise) or gets a
    non-positive radius."""
    fits = [_procrustes_once(p, _embed(a, s)) for s in (1, -1)]
    if sign == "auto":
        sign = 1 if fits[0][3] <= fits[1][3] else -1
    # the fit of the chosen sign, then the mirrored one
    (mu, R, t, F, ok), (*_, F_mirror, _) = fits[::sign]
    if not ok.all():
        raise DegenerateGeometryError(
            "angle embedding is rank deficient (angles span a degenerate arc)")
    # Diagnose an angle-direction mismatch: the mirrored convention
    # fitting far better than the requested one is not noise.  (Mirroring
    # the angles swaps z and w, so the mirrored fit has the same rank flag.)
    scale = np.maximum(1.0, np.abs(mu))
    if np.any((F > 4.0 * F_mirror) & (np.sqrt(F / a.shape[0]) > 1e-9 * scale)):
        raise AngleDirectionError(
            "angles rotate opposite to the data; refit with the sign of the "
            f"angles flipped (angle_sign={-sign})")
    if np.any(mu <= 0.0):
        raise DegenerateGeometryError("non-positive fitted radius: degenerate data")
    return sign, mu, R, t, F


def fit_circle_procrustes(points, angles_rad, angle_sign="auto") -> CircleFit:
    """Fit a circle to points annotated with their generating angles.

    The points are modelled as ``p_i = mu * R * (cos a_i, sin a_i) + t`` with
    ``mu > 0`` the radius, R a proper planar rotation absorbing the phase
    offset, and t the centre.  ``angle_sign`` may be +1, -1, or "auto" to try
    both directions and keep the better one (data recorded with the opposite
    angle convention mirrors the unit circle, which no proper rotation can
    absorb).

    ``points`` may be (m, 2) or (m, 3); a third column is dropped before
    fitting.
    """
    p = np.asarray(points, dtype=float)
    if p.ndim != 2 or p.shape[1] not in (2, 3):
        raise ValueError(f"points must be (m, 2) or (m, 3), got {p.shape}")
    p = p[:, :2]
    a = np.asarray(angles_rad, dtype=float)
    m = p.shape[0]
    if a.shape != (m,):
        raise ValueError("angles must match points in length")
    if m < 3:
        raise DegenerateGeometryError(f"need at least 3 points, got {m}")
    if np.ptp(a) < 1e-12:
        raise DegenerateGeometryError("all angles equal: circle fit is rank deficient")

    sign = angle_sign if angle_sign == "auto" else int(angle_sign)
    if sign not in (1, -1, "auto"):
        raise ValueError("angle_sign must be +1, -1 or 'auto'")
    sign, mu, R, t, F = _fit_signed(p, a, sign)
    return CircleFit(center=t, radius=float(mu), R=R, angle_sign=sign,
                     residual_rms=float(np.sqrt(F / m)), n_points=m)


def _validate_sets(point_sets: Sequence) -> list[np.ndarray]:
    if len(point_sets) == 0:
        raise ValueError("need at least one point set")
    sets = []
    dim = None
    for j, s in enumerate(point_sets):
        arr = np.asarray(s, dtype=float)
        if arr.ndim != 2 or arr.shape[1] not in (2, 3):
            raise ValueError(f"point set {j} must be (m, 2) or (m, 3), got {arr.shape}")
        if arr.shape[0] < 3:
            raise DegenerateGeometryError(f"point set {j}: need at least 3 points")
        if dim is None:
            dim = arr.shape[1]
        elif arr.shape[1] != dim:
            raise ValueError("all point sets must share the same dimension")
        sets.append(arr)
    return sets


def _arc_centre(sets):
    """Shared centre (..., d) and, in 3-D, rotation axis of concentric arcs,
    each set of shape (..., m_j, d) with the same leading axes.  Raises if
    the arcs of any leading index are degenerate."""
    dim = sets[0].shape[-1]
    M = np.zeros(sets[0].shape[:-2] + (dim, dim))
    b = np.zeros(sets[0].shape[:-2] + (dim,))
    for arr in sets:
        ph = arr - arr.mean(axis=-2)[..., None, :]
        sq = (arr * arr).sum(axis=-1)
        sh = sq - sq.mean(axis=-1)[..., None]
        phT = ph.swapaxes(-1, -2)
        M += phT @ ph
        b += 0.5 * (phT @ sh[..., None])[..., 0]
    lam, vec = np.linalg.eigh(M)  # ascending eigenvalues
    with np.errstate(divide="ignore", invalid="ignore"):
        if dim == 2:
            if np.any((lam[..., 1] <= 0.0) | (lam[..., 0] / lam[..., 1] < 1e-12)):
                raise DegenerateGeometryError(
                    "degenerate geometry: arc points are collinear or coincident")
        elif np.any((lam[..., 2] <= 0.0) | (lam[..., 1] / lam[..., 2] < 1e-10)):
            raise DegenerateGeometryError(
                "rotation axis is ambiguous: arc data spans less than a plane")
    if dim == 2:
        return np.linalg.solve(M, b[..., None])[..., 0], None
    axis = vec[..., :, 0]
    big = np.take_along_axis(axis, np.argmax(np.abs(axis), axis=-1)[..., None], -1)
    axis = np.where(big < 0.0, -axis, axis)
    # Solve within the row space (the in-plane components), then fix the
    # along-axis component from the overall centroid.
    v1, v2 = vec[..., :, 1], vec[..., :, 2]
    p_c = (dot_rows(v1, b) / lam[..., 1])[..., None] * v1 \
        + (dot_rows(v2, b) / lam[..., 2])[..., None] * v2
    xi = dot_rows(axis, np.concatenate(sets, axis=-2).mean(axis=-2) - p_c)
    return p_c + xi[..., None] * axis, axis


def fit_concentric_arcs(point_sets: Sequence) -> ConcentricFit:
    """Fit concentric circles with a shared centre to several point sets.

    Each set is centred on its own mean; stacking the per-set normal
    equations gives a linear system for the common centre.  In 3-D the system
    matrix is rank 2 (the data is planar): its null eigenvector is the
    rotation axis, and the centre's along-axis coordinate is fixed at the
    mean of all points, i.e. the centre is placed in the mid-plane of the
    arcs.  Per-set radii are root-mean-square distances to the centre.
    """
    sets = _validate_sets(point_sets)
    p0, axis = _arc_centre(sets)
    radii = []
    ssq = 0.0
    n = 0
    for arr in sets:
        d = np.linalg.norm(arr - p0, axis=1)
        Rj = float(np.sqrt((d * d).mean()))
        radii.append(Rj)
        ssq += float(((d - Rj) ** 2).sum())
        n += arr.shape[0]
    return ConcentricFit(center=p0, radii=np.array(radii), axis=axis,
                         residual_rms=float(np.sqrt(ssq / n)), n_points=n)
