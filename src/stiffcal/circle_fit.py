"""Circle fits for marker sweeps.

Two fitting problems appear when calibrating the compensator linkage from
tracker data:

* a single marker riding a crank, where each point is annotated with the
  joint angle at which it was recorded -- solved by an orthogonal-Procrustes
  alignment of the unit circle onto the data (angle-aware, so short arcs stay
  well conditioned);
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
        a = self.angle_sign * np.asarray(angles_rad, dtype=float)
        u = np.column_stack([np.cos(a), np.sin(a)])
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
    """Best similarity (scale mu > 0, proper rotation R, shift t) of u onto p."""
    pbar = p.mean(axis=0)
    ubar = u.mean(axis=0)
    ph = p - pbar
    uh = u - ubar
    D = uh.T @ ph  # sum of outer products u_i p_i^T
    U, sv, Vt = np.linalg.svd(D)
    if sv[0] <= 0.0 or sv[1] / sv[0] < 1e-12:
        raise DegenerateGeometryError(
            "angle embedding is rank deficient (angles span a degenerate arc)")
    V = Vt.T
    d = np.sign(np.linalg.det(V @ U.T))
    R = V @ np.diag([1.0, d]) @ U.T
    denom = float((uh * uh).sum())
    mu = float(np.trace(R @ D)) / denom
    resid = ph - mu * (uh @ R.T)
    F = float((resid * resid).sum())
    t = pbar - mu * (R @ ubar)
    return mu, R, t, F


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

    def embed(sign):
        return np.column_stack([np.cos(sign * a), np.sin(sign * a)])

    if angle_sign == "auto":
        fits = {}
        for sign in (1, -1):
            try:
                fits[sign] = _procrustes_once(p, embed(sign))
            except DegenerateGeometryError:
                pass
        if not fits:
            raise DegenerateGeometryError("circle fit degenerate for either angle direction")
        sign = min(fits, key=lambda s: (fits[s][3], -s))
        mu, R, t, F = fits[sign]
    else:
        sign = int(angle_sign)
        if sign not in (1, -1):
            raise ValueError("angle_sign must be +1, -1 or 'auto'")
        mu, R, t, F = _procrustes_once(p, embed(sign))
        # Diagnose an angle-direction mismatch: the mirrored convention
        # fitting far better than the requested one is not noise.
        try:
            F_mirror = _procrustes_once(p, embed(-sign))[3]
        except DegenerateGeometryError:
            F_mirror = np.inf
        scale = max(1.0, abs(mu))
        if F > 4.0 * F_mirror and np.sqrt(F / m) > 1e-9 * scale:
            raise AngleDirectionError(
                "angles rotate opposite to the data; refit with the sign of the "
                f"angles flipped (angle_sign={-sign})")
    if mu <= 0.0:
        raise DegenerateGeometryError("non-positive fitted radius: degenerate data")
    return CircleFit(center=t, radius=mu, R=R, angle_sign=sign,
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
    dim = sets[0].shape[1]
    M = np.zeros((dim, dim))
    b = np.zeros(dim)
    allpts = np.vstack(sets)
    for arr in sets:
        ph = arr - arr.mean(axis=0)
        sq = (arr * arr).sum(axis=1)
        sh = sq - sq.mean()
        M += ph.T @ ph
        b += 0.5 * (ph.T @ sh)
    lam, vec = np.linalg.eigh(M)  # ascending eigenvalues
    if dim == 2:
        if lam[1] <= 0.0 or lam[0] / lam[1] < 1e-12:
            raise DegenerateGeometryError(
                "degenerate geometry: arc points are collinear or coincident")
        p0 = np.linalg.solve(M, b)
        axis = None
    else:
        if lam[2] <= 0.0 or lam[1] / lam[2] < 1e-10:
            raise DegenerateGeometryError(
                "rotation axis is ambiguous: arc data spans less than a plane")
        axis = vec[:, 0]
        if axis[np.argmax(np.abs(axis))] < 0.0:
            axis = -axis
        # Solve within the row space (the in-plane components), then fix the
        # along-axis component from the overall centroid.
        p_c = (vec[:, 1] @ b / lam[1]) * vec[:, 1] + (vec[:, 2] @ b / lam[2]) * vec[:, 2]
        xi = float(axis @ (allpts.mean(axis=0) - p_c))
        p0 = p_c + xi * axis
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
