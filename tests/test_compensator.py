from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import spring_energy
from stiffcal.compensator import (CompensatorElastics, CompensatorGeometry,
                                  CompensatorParams, compensator_torque,
                                  equivalent_joint_stiffness, eta, eta_curve,
                                  spring_span)

GEOM = CompensatorGeometry(L_mm=185.0, ax_mm=25.0, ay_mm=695.0)
ELAS = CompensatorElastics(Kc_N_per_mm=6000.0, s0_mm=458.0)
PARAMS = CompensatorParams(geometry=GEOM, elastics=ELAS)

q2_range = st.floats(-2.5, 0.1, allow_nan=False)


def test_geometry_validation():
    with pytest.raises(ValueError, match="L_mm"):
        CompensatorGeometry(L_mm=0.0, ax_mm=100.0, ay_mm=100.0)
    with pytest.raises(ValueError, match="exceed crank radius"):
        CompensatorGeometry(L_mm=200.0, ax_mm=100.0, ay_mm=100.0)
    with pytest.raises(ValueError, match="Kc"):
        CompensatorElastics(Kc_N_per_mm=-1.0, s0_mm=100.0)
    with pytest.raises(ValueError, match=r"q2_sign must be \+1 or -1"):
        CompensatorGeometry(L_mm=185.0, ax_mm=25.0, ay_mm=695.0, q2_sign=0.5)


def test_span_triangle_geometry():
    # cross-check the cosine-law span against explicit pin coordinates
    a, al = GEOM.a_mm, GEOM.alpha_rad
    for q2 in np.linspace(-2.4, 0.0, 13):
        pin = GEOM.L_mm * np.array([np.cos(q2), np.sin(q2)])
        anchor = -a * np.array([np.cos(al), np.sin(al)])
        assert np.isclose(spring_span(GEOM, q2), np.linalg.norm(pin - anchor),
                          rtol=1e-12)


def test_span_bounds():
    q2 = np.linspace(-2.4, 0.0, 50)
    s = spring_span(GEOM, q2)
    assert np.all(s >= GEOM.a_mm - GEOM.L_mm - 1e-9)
    assert np.all(s <= GEOM.a_mm + GEOM.L_mm + 1e-9)


@given(q2=q2_range)
@settings(max_examples=60)
def test_torque_is_minus_energy_gradient(q2):
    # atol covers finite-difference roundoff near the torque zeros
    h = 1e-6
    dE = (spring_energy(PARAMS, q2 + h) - spring_energy(PARAMS, q2 - h)) / (2 * h)
    M = compensator_torque(PARAMS, q2)
    assert np.isclose(M, -dE, rtol=1e-6, atol=1.0)


@given(q2=q2_range)
@settings(max_examples=60)
def test_stiffness_is_minus_torque_gradient(q2):
    h = 1e-6
    dM = (compensator_torque(PARAMS, q2 + h)
          - compensator_torque(PARAMS, q2 - h)) / (2 * h)
    K0 = 1.0 / 3.02e-10
    K_eq = equivalent_joint_stiffness(PARAMS, K0, q2)
    assert np.isclose(K_eq - K0, -dM, rtol=1e-5, atol=1e2)


def test_sign_convention_flip():
    # with q2_sign = -1 the energy must be even in the recorded angle
    flipped = CompensatorParams(geometry=replace(GEOM, q2_sign=-1.0), elastics=ELAS)
    for q2 in (-1.2, -0.4, 0.05):
        assert np.isclose(spring_energy(flipped, q2),
                          spring_energy(PARAMS, -q2))
        assert np.isclose(compensator_torque(flipped, q2),
                          -compensator_torque(PARAMS, -q2))
        K0 = 1.0 / 3.02e-10
        assert np.isclose(equivalent_joint_stiffness(flipped, K0, q2),
                          equivalent_joint_stiffness(PARAMS, K0, -q2))
    # and the flipped torque still equals minus the flipped energy gradient
    h = 1e-6
    for q2 in (-1.0, -0.2):
        dE = (spring_energy(flipped, q2 + h)
              - spring_energy(flipped, q2 - h)) / (2 * h)
        assert np.isclose(compensator_torque(flipped, q2), -dE,
                          rtol=1e-6, atol=1.0)


def test_torque_zero_at_free_length_and_alignment():
    # the working spring is always stretched (s >= a - L > s0); use a longer
    # free length so s(q2) = s0 has a root, and bisect for it
    loose = CompensatorParams(
        geometry=GEOM, elastics=CompensatorElastics(Kc_N_per_mm=6000.0,
                                                    s0_mm=600.0))
    f = lambda q2: spring_span(GEOM, q2) - 600.0
    lo, hi = -2.4, 0.0
    assert f(lo) * f(hi) < 0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    assert abs(compensator_torque(loose, 0.5 * (lo + hi))) < 1e-3
    # crank on the anchor line: sin(alpha - q2) = 0
    assert abs(compensator_torque(PARAMS, GEOM.alpha_rad)) < 1e-9


def test_eta_positive_over_working_range():
    q2 = np.radians(np.linspace(-140.0, 0.0, 141))
    e = eta(GEOM, ELAS.s0_mm, q2)
    assert np.all(e > 0.0), f"eta dips to {e.min():.4f}"


def test_eta_affine_in_s0():
    q2 = -0.8
    e0 = eta(GEOM, 0.0, q2)
    e1 = eta(GEOM, 400.0, q2)
    e2 = eta(GEOM, 800.0, q2)
    assert np.isclose(e2 - e1, e1 - e0, rtol=1e-12)


def test_stiffness_modulation_depth():
    # the spring should visibly modulate joint-2 stiffness over the sweep
    K0 = 1.0 / 3.02e-10
    q2 = np.radians(np.linspace(-140.0, 0.0, 60))
    K = equivalent_joint_stiffness(PARAMS, K0, q2)
    assert np.all(K > K0)
    depth = (K.max() - K.min()) / K0
    assert 0.01 < depth < 0.2


def test_eta_curve_layout():
    q2 = np.radians(np.linspace(-140.0, 0.0, 5))
    tab = eta_curve(GEOM, [420.0, 458.0], q2)
    assert tab.shape == (10, 3)
    assert np.allclose(tab[:5, 1], 420.0)
    assert np.allclose(tab[5:, 1], 458.0)
    assert np.allclose(tab[:5, 0], q2)
    with pytest.raises(ValueError, match="empty grid"):
        eta_curve(GEOM, [458.0], [])


def test_unstable_stiffness_warns():
    # near-zero free length with the anchor nearly on the crank line makes
    # eta negative, so a strong spring can destabilize a weak joint
    soft = CompensatorParams(
        geometry=CompensatorGeometry(L_mm=185.0, ax_mm=695.0, ay_mm=25.0),
        elastics=CompensatorElastics(Kc_N_per_mm=6000.0, s0_mm=10.0))
    with pytest.warns(RuntimeWarning, match="not positive"):
        k = equivalent_joint_stiffness(soft, 1e5, -0.3)
    assert k <= 0.0
