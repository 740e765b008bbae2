"""Spring gravity-compensator mechanics for the second joint.

The compensator is a planar slider-crank: a crank pin P1 rides on link 2 and
circles the joint-2 axis point P2 with radius ``L``; a linear spring of
stiffness ``Kc`` and free length ``s0`` spans from a fixed anchor P0 to P1.
With ``a = |P0 P2|`` and ``alpha`` the direction angle of the anchor-to-crank
vector ``(ax, ay)``, the spring span is

    s(q2)^2 = a^2 + L^2 + 2 a L cos(alpha - q2_sign * q2)

where ``q2`` is the controller's joint-2 angle and ``q2_sign`` (+1 or -1)
the direction in which the linkage turns with it; every function here takes
the controller's angle.  All lengths in mm, stiffness in N/mm, torques in
N*mm, angles in rad.

Sign convention: ``compensator_torque`` returns the torque the spring applies
*to* the joint, i.e. minus the gradient of the spring energy with respect to
q2.  That choice makes torque, energy and the equivalent stiffness mutually
consistent: K_eq - K0 = -dM/dq2 = d^2 E/dq2^2.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .robot import _finite_floats


@dataclass(frozen=True)
class CompensatorGeometry:
    """Linkage geometry: crank radius, anchor-to-crank vector and the
    direction ``q2_sign`` in which the crank turns with the controller's q2
    (-1 for robots that count joint 2 opposite to the linkage)."""

    L_mm: float
    ax_mm: float
    ay_mm: float
    q2_sign: float = 1.0

    def __post_init__(self):
        _finite_floats(self, "L_mm", "ax_mm", "ay_mm", "q2_sign")
        if self.q2_sign not in (-1.0, 1.0):
            raise ValueError("q2_sign must be +1 or -1")
        # derived once: every stiffness evaluation reads them
        object.__setattr__(self, "_a", float(np.hypot(self.ax_mm, self.ay_mm)))
        object.__setattr__(self, "_alpha", float(np.arctan2(self.ay_mm, self.ax_mm)))
        if not self.L_mm > 0.0:
            raise ValueError("L_mm must be > 0")
        if not self.a_mm > self.L_mm:
            raise ValueError("anchor distance a must exceed crank radius L "
                             "(spring anchor outside the crank circle)")

    @property
    def a_mm(self) -> float:
        return self._a

    @property
    def alpha_rad(self) -> float:
        return self._alpha


@dataclass(frozen=True)
class CompensatorElastics:
    """Spring constants: stiffness (N/mm) and free length (mm)."""

    Kc_N_per_mm: float
    s0_mm: float

    def __post_init__(self):
        _finite_floats(self, "Kc_N_per_mm", "s0_mm")
        if not self.Kc_N_per_mm > 0.0:
            raise ValueError("Kc_N_per_mm must be > 0")
        if self.s0_mm < 0.0:
            raise ValueError("s0_mm must be >= 0")


@dataclass(frozen=True)
class CompensatorParams:
    """Full compensator description: linkage geometry and spring constants."""

    geometry: CompensatorGeometry
    elastics: CompensatorElastics


def _gamma(geom: CompensatorGeometry, q2_rad) -> np.ndarray:
    """Linkage angle ``alpha - q2_sign * q2`` of the controller's angle q2."""
    return geom.alpha_rad - geom.q2_sign * np.asarray(q2_rad, dtype=float)


def spring_span(geom: CompensatorGeometry, q2_rad):
    """Anchor-to-pin distance s(q2) from the linkage triangle (cosine law)."""
    a, L = geom.a_mm, geom.L_mm
    g = _gamma(geom, q2_rad)
    s2 = a * a + L * L + 2.0 * a * L * np.cos(g)
    return np.sqrt(s2)


def compensator_torque(params: CompensatorParams, q2_rad):
    """Torque (N*mm) the compensator applies about the joint-2 axis.

    Equals minus the energy gradient: -Kc (1 - s0/s) a L sin(gamma), zero
    whenever the crank crosses the base line (gamma = 0) or the spring is at
    free length (s = s0).
    """
    geom, el = params.geometry, params.elastics
    s = spring_span(geom, q2_rad)
    g = _gamma(geom, q2_rad)
    m = -el.Kc_N_per_mm * (1.0 - el.s0_mm / s) * geom.a_mm * geom.L_mm * np.sin(g)
    # An outer sign flip maps the torque back to the controller's convention.
    return geom.q2_sign * m


def _eta_parts(geom: CompensatorGeometry, q2_rad):
    """The s0-free parts ``(s, b, cos(gamma))`` of ``eta = (s0/s) * b - cos(gamma)``.

    ``b = (aL/s^2) sin^2(gamma) + cos(gamma)``, so eta is affine in s0 with
    slope ``b/s``; :func:`separation_matrix` regresses on these terms.
    """
    a, L = geom.a_mm, geom.L_mm
    g = _gamma(geom, q2_rad)
    s = spring_span(geom, q2_rad)
    cg, sg = np.cos(g), np.sin(g)
    return s, (a * L / (s * s)) * sg * sg + cg, cg


def eta(geom: CompensatorGeometry, s0_mm: float, q2_rad):
    """Dimensionless stiffness kernel of the linkage.

    eta = (s0/s) * ((aL/s^2) sin^2(gamma) + cos(gamma)) - cos(gamma) with
    gamma = alpha - q2_sign * q2; the compensator adds ``Kc * a * L * eta``
    to the joint-2 stiffness.  Affine in s0 at fixed q2.
    """
    s, b, cg = _eta_parts(geom, q2_rad)
    return (s0_mm / s) * b - cg


def separation_matrix(geometry: CompensatorGeometry, q2_rad) -> np.ndarray:
    """Rows mapping [K0, Kc, Kc*s0] to the equivalent joint-2 stiffness.

    The spring adds Kc*a*L*eta(q2; s0) and eta is affine in s0, so the
    stiffness is linear in x = [K0, Kc, Kc*s0]; the free length is recovered
    afterwards as x3/x2.
    """
    aL = geometry.a_mm * geometry.L_mm
    s, b, cg = _eta_parts(geometry, q2_rad)
    return np.column_stack([np.ones_like(s), -aL * cg, (aL / s) * b])


def equivalent_joint_stiffness(params: CompensatorParams, K0_Nmm_per_rad: float, q2_rad):
    """Equivalent rotational stiffness of joint 2 with the compensator engaged.

    K_eq(q2) = K0 + Kc * a * L * eta(q2).  Emits a warning if the result is
    not positive (the joint would be statically unstable there).
    """
    geom, el = params.geometry, params.elastics
    k = K0_Nmm_per_rad + (el.Kc_N_per_mm * geom.a_mm * geom.L_mm
                          * eta(geom, el.s0_mm, q2_rad))
    if np.any(np.asarray(k) <= 0.0):
        warnings.warn("equivalent joint-2 stiffness is not positive at the "
                      "requested angle(s)", RuntimeWarning, stacklevel=2)
    return k


def eta_curve(geom: CompensatorGeometry, s0_values_mm, q2_grid_rad) -> np.ndarray:
    """Tabulate eta over a q2 grid for several free lengths.

    Returns an array of rows ``(q2_rad, s0_mm, eta)``, grouped by s0 value,
    ready for long-format serialization.
    """
    q2 = np.asarray(q2_grid_rad, dtype=float).reshape(-1)
    if q2.size == 0:
        raise ValueError("empty grid")
    s0 = np.asarray(s0_values_mm, dtype=float).reshape(-1)
    e = eta(geom, s0[:, None], q2)
    return np.column_stack([np.tile(q2, s0.size), np.repeat(s0, q2.size), e.ravel()])
