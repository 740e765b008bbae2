"""Synthetic experiment generator for closed-loop testing.

Produces the two kinds of raw data the identification pipelines consume --
planar marker tracks of the compensator linkage for the geometric stage,
and marker deflection records under test loads for the elastostatic stage
-- from a model whose parameters are known exactly.  Noise is optional and
reproducible; every entry derives its own generator from the top seed so
datasets are stable against reordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .compensator import CompensatorGeometry
from .doe import CalibrationPlan, NoiseModel
from .elasto_id import PARAMETER_LABELS, DeflectionRecords
from .geometry_id import MarkerDataset
from .robot import ManipulatorModel, _marker_points
from .stiffness import _load_pairs, predict_marker_deflections

# Tracker targets bolted to the spring cylinder, in the pivot frame whose
# x axis points from the pivot towards the crank pin (mm).
SATELLITE_OFFSETS = ((140.0, 40.0), (250.0, -30.0))


@dataclass(frozen=True)
class GroundTruth:
    """True parameter vector of a synthetic model, for round-trip checks."""

    labels: Tuple[str, ...]
    values: np.ndarray

    @classmethod
    def from_model(cls, model: ManipulatorModel) -> "GroundTruth":
        if model.compensator is None:
            raise ValueError("model has no compensator; ground truth undefined")
        el = model.compensator.elastics
        return cls(PARAMETER_LABELS, np.append(model.compliances[1:],
                                               [el.Kc_N_per_mm, el.s0_mm]))


def _noisy(clean: np.ndarray, noise_mm: float, draws: np.ndarray) -> np.ndarray:
    """``clean + noise_mm * draws``; ``ValueError`` when that is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = clean + noise_mm * draws
    if not np.isfinite(out).all():
        raise ValueError(f"noise sigma {noise_mm:g} mm makes the simulated data non-finite")
    return out


def simulate_geometry_dataset(geometry: CompensatorGeometry,
                              q2_rad: Sequence[float], *,
                              p2_xy: Sequence[float] = (0.0, 0.0),
                              crank_phase_rad: float = 0.0,
                              noise_mm: float = 0.0,
                              seed: int = 0) -> MarkerDataset:
    """Planar marker tracks of the compensator linkage over a joint-2 sweep.

    The crank pin rides a circle of the linkage crank radius around the
    joint-2 axis ``p2_xy``; the cylinder pivot sits at p2 - (ax, ay) and the
    satellite markers ride with the cylinder, which always points from the
    pivot towards the pin.  The crank turns by ``geometry.q2_sign`` times
    the recorded joint angle (some controllers count the crank the other
    way); ``crank_phase_rad`` offsets its zero.
    """
    NoiseModel(noise_mm)
    q2 = np.asarray(q2_rad, dtype=float).reshape(-1)
    if q2.size < 3:
        raise ValueError("need at least 3 sweep angles")
    p2 = np.asarray(p2_xy, dtype=float).reshape(2)
    p0 = p2 - np.array([geometry.ax_mm, geometry.ay_mm])
    ang = geometry.q2_sign * q2 + crank_phase_rad
    crank = p2 + geometry.L_mm * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    beta = np.arctan2(crank[:, 1] - p0[1], crank[:, 0] - p0[0])
    cb, sb = np.cos(beta), np.sin(beta)
    sats = [p0 + np.stack([cb * ox - sb * oy, sb * ox + cb * oy], axis=1)
            for ox, oy in SATELLITE_OFFSETS]
    if noise_mm > 0.0:
        rng = np.random.default_rng(seed)
        crank = _noisy(crank, noise_mm, rng.standard_normal(crank.shape))
        sats = [_noisy(s, noise_mm, rng.standard_normal(s.shape)) for s in sats]
    return MarkerDataset(q2_rad=q2, crank=crank, satellites=tuple(sats))


def simulate_deflection_records(model: ManipulatorModel, plan: CalibrationPlan,
                                *, noise_mm: float = 0.0, seed: int = 0,
                                response: str = "nonlinear") -> DeflectionRecords:
    """Marker deflection records for every plan entry, repeat and marker,
    in that order.

    ``response="nonlinear"`` measures marker positions at the full elastic
    equilibrium before and after applying the wrench, so the records carry
    the real (configuration-dependent) linearization error.  ``"linear"``
    uses the first-order deflection model directly -- the right choice when
    a downstream fit is itself linear and the comparison should isolate
    noise effects.  Measurement noise is added to both the loaded and the
    unloaded position, so the difference noise has variance 2*sigma^2.
    """
    if response not in ("nonlinear", "linear"):
        raise ValueError(f"unknown response model: {response!r}")
    NoiseModel(noise_mm)
    n_mark = len(model.markers)
    if n_mark == 0:
        raise ValueError("model defines no markers to measure")
    comp = model.compensator
    entries = plan.entries
    q = np.array([e.q for e in entries])
    w = np.array([e.w for e in entries])
    if response == "linear":
        defl = predict_marker_deflections(model, comp, q, w)
    else:
        # the markers ride the tool frames the solves ended on
        pose = _load_pairs(model, comp, q, w).pose   # the gravity-only frames, then the loaded
        n = len(q)
        defl = (_marker_points(model, pose.R[n:], pose.p[n:])
                - _marker_points(model, pose.R[:n], pose.p[:n]))
    reps = np.array([e.repeats for e in entries])
    d = np.repeat(defl, reps, axis=0)     # (entry repeats, marker, 3)
    if noise_mm > 0.0:
        # two 3-axis draws per record, in record order, one call per entry
        e = np.concatenate([np.random.default_rng((seed, i)).standard_normal(
            (r, n_mark, 2, 3)) for i, r in enumerate(reps)])
        d = _noisy(d, noise_mm, e[:, :, 0] - e[:, :, 1])
    return DeflectionRecords(
        q_rad=np.repeat(q, reps * n_mark, axis=0),
        wrench=np.repeat(w, reps * n_mark, axis=0),
        marker_id=np.tile(np.arange(n_mark), len(d)),
        repeat=np.repeat(np.concatenate([np.arange(r) for r in reps]), n_mark),
        deflection_mm=d.reshape(-1, 3))
