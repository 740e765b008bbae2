"""Synthetic experiment generator for closed-loop testing.

Produces the two kinds of raw data the identification pipelines consume --
planar marker tracks of the compensator linkage for the geometric stage,
and marker deflection records under test loads for the elastostatic stage
-- from a model whose parameters are known exactly.  Noise is optional and
reproducible; every entry derives its own generator from the top seed so
datasets are stable against reordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .compensator import CompensatorGeometry
from .doe import CalibrationPlan
from .elasto_id import PARAMETER_LABELS, DeflectionRecord
from .errors import ConvergenceError
from .geometry_id import MarkerDataset
from .robot import ManipulatorModel, marker_positions
from .stiffness import predict_marker_deflections, solve_equilibria

# Tracker targets bolted to the spring cylinder, in the pivot frame whose
# x axis points from the pivot towards the crank pin (mm).
DEFAULT_SATELLITE_OFFSETS = ((140.0, 40.0), (250.0, -30.0))


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


def simulate_geometry_dataset(geometry: CompensatorGeometry,
                              q2_rad: Sequence[float], *,
                              p2_xy: Sequence[float] = (0.0, 0.0),
                              crank_phase_rad: float = 0.0,
                              angle_sign: int = 1,
                              satellite_offsets_mm: Sequence[Sequence[float]]
                              = DEFAULT_SATELLITE_OFFSETS,
                              noise_mm: float = 0.0,
                              seed: int = 0) -> MarkerDataset:
    """Planar marker tracks of the compensator linkage over a joint-2 sweep.

    The crank pin rides a circle of the linkage crank radius around the
    joint-2 axis ``p2_xy``; the cylinder pivot sits at p2 - (ax, ay) and the
    satellite markers ride with the cylinder, which always points from the
    pivot towards the pin.  ``angle_sign`` flips the marker rotation
    direction relative to the recorded joint angle (some controllers count
    the crank the other way); ``crank_phase_rad`` offsets its zero.
    """
    q2 = np.asarray(q2_rad, dtype=float).reshape(-1)
    if q2.size < 3:
        raise ValueError("need at least 3 sweep angles")
    if angle_sign not in (1, -1):
        raise ValueError("angle_sign must be +1 or -1")
    p2 = np.asarray(p2_xy, dtype=float).reshape(2)
    p0 = p2 - np.array([geometry.ax_mm, geometry.ay_mm])
    ang = angle_sign * q2 + crank_phase_rad
    crank = p2 + geometry.L_mm * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    sats = []
    beta = np.arctan2(crank[:, 1] - p0[1], crank[:, 0] - p0[0])
    cb, sb = np.cos(beta), np.sin(beta)
    for off in satellite_offsets_mm:
        ox, oy = float(off[0]), float(off[1])
        sats.append(p0 + np.stack([cb * ox - sb * oy, sb * ox + cb * oy], axis=1))
    if noise_mm > 0.0:
        rng = np.random.default_rng(seed)
        crank = crank + noise_mm * rng.standard_normal(crank.shape)
        sats = [s + noise_mm * rng.standard_normal(s.shape) for s in sats]
    return MarkerDataset(q2_rad=q2, crank=crank, satellites=tuple(sats))


def simulate_deflection_records(model: ManipulatorModel, plan: CalibrationPlan,
                                *, noise_mm: float = 0.0, seed: int = 0,
                                response: str = "nonlinear",
                                include_gravity: bool = True
                                ) -> List[DeflectionRecord]:
    """Marker deflection records for every plan entry, marker and repeat.

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
        # the unloaded equilibria of every entry, then the loaded ones
        q_both = np.concatenate([q, q])
        st = solve_equilibria(model, comp, q_both, np.concatenate([np.zeros_like(w), w]),
                              include_gravity=include_gravity)
        n = len(entries)
        bad = np.flatnonzero(~(st.converged[:n] & st.converged[n:]))
        if bad.size:
            i = int(bad[0])
            raise ConvergenceError(
                f"equilibrium did not converge for plan entry {i} "
                f"(q2={math.degrees(q[i, 1]):.1f} deg)")
        pos = marker_positions(model, q_both, st.theta)
        defl = pos[n:] - pos[:n]
    records: List[DeflectionRecord] = []
    for i, entry in enumerate(entries):
        d = defl[i][None].repeat(entry.repeats, axis=0)
        if noise_mm > 0.0:
            # two 3-axis draws per record, in record order, as one call
            e = np.random.default_rng((seed, i)).standard_normal((entry.repeats, n_mark, 2, 3))
            d = d + noise_mm * (e[:, :, 0] - e[:, :, 1])
        for rep in range(entry.repeats):
            for m in range(n_mark):
                records.append(DeflectionRecord(
                    q_rad=q[i], wrench=w[i], marker_id=m,
                    deflection_mm=d[rep, m], repeat=rep))
    return records
