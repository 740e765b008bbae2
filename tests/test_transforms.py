import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stiffcal.transforms import (pose_difference, rot_axis, rot_from_rotvec,
                                 rot_rpy, rotvec_from_matrix)

finite_angle = st.floats(-3.1, 3.1, allow_nan=False)
unit_axis = st.sampled_from([
    (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
    (0.6, 0.8, 0.0), (0.0, 0.6, -0.8), (0.5773502691896258,) * 3,
])


@given(axis=unit_axis, angle=finite_angle)
def test_rot_axis_is_rotation(axis, angle):
    R = rot_axis(np.array(axis), angle)
    assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)
    assert np.isclose(np.linalg.det(R), 1.0, atol=1e-12)


@given(axis=unit_axis, angle=st.floats(1e-4, 3.1))
def test_rotvec_round_trip(axis, angle):
    v = np.array(axis) * angle
    R = rot_from_rotvec(v)
    assert np.allclose(rotvec_from_matrix(R), v, atol=1e-9)


def test_rotvec_small_angle():
    v = np.array([1e-9, -2e-9, 3e-10])
    assert np.allclose(rotvec_from_matrix(rot_from_rotvec(v)), v, atol=1e-15)
    assert np.allclose(rotvec_from_matrix(np.eye(3)), 0.0)


@pytest.mark.parametrize("axis", [(1, 0, 0), (0, 1, 0), (0, 0, 1),
                                  (0.6, 0.8, 0.0)])
def test_rotvec_near_pi(axis):
    # the sin(angle) ~ 0 branch at angle ~ pi must still recover axis*angle
    a = np.asarray(axis, dtype=float)
    a = a / np.linalg.norm(a)
    for angle in (np.pi, np.pi - 1e-8):
        R = rot_axis(a, angle)
        v = rotvec_from_matrix(R)
        # axis sign is ambiguous exactly at pi
        err = min(np.linalg.norm(v - a * angle), np.linalg.norm(v + a * angle))
        assert err < 1e-6


def test_rpy_order():
    # yaw about z applied last: Rz(yaw) @ Ry(pitch) @ Rx(roll)
    r, p, y = 0.3, -0.4, 0.9
    R = rot_rpy((r, p, y))
    Rref = rot_axis(np.array([0.0, 0.0, 1.0]), y) @ \
        rot_axis(np.array([0.0, 1.0, 0.0]), p) @ \
        rot_axis(np.array([1.0, 0.0, 0.0]), r)
    assert np.allclose(R, Rref, atol=1e-14)


def _rot_axis_rpy(r, p, y):
    return (rot_axis(np.array([0.0, 0.0, 1.0]), y) @ rot_axis(np.array([0.0, 1.0, 0.0]), p)
            @ rot_axis(np.array([1.0, 0.0, 0.0]), r))


@given(rpy=arrays(float, st.tuples(st.integers(1, 8), st.just(3)),
                  elements=st.floats(-20.0, 20.0)))
@settings(max_examples=100, deadline=None)
def test_stacked_rot_rpy_is_each_rot_axis_product(rpy):
    """A (k, 3) stack gives each frame's product of rot_axis calls, bit for bit
    (signed zeros included), and so does each frame on its own."""
    R = rot_rpy(rpy)
    assert R.shape == (len(rpy), 3, 3)
    for angles, Ri in zip(rpy, R):
        ref = _rot_axis_rpy(*angles)
        assert Ri.tobytes() == ref.tobytes()
        assert rot_rpy(tuple(angles)).tobytes() == ref.tobytes()


@given(angle=st.floats(-2.0, 2.0), axis=unit_axis)
@settings(max_examples=40)
def test_pose_difference_inverse_of_apply(angle, axis):
    p_from = np.array([10.0, -4.0, 2.5])
    R_from = rot_axis(np.array([0.0, 0.0, 1.0]), 0.7)
    dw = np.array(axis) * angle
    R_to = rot_from_rotvec(dw) @ R_from
    p_to = p_from + np.array([1.0, 2.0, 3.0])
    d = pose_difference(p_to, R_to, p_from, R_from)
    assert np.allclose(d[:3], [1.0, 2.0, 3.0], atol=1e-12)
    assert np.allclose(rot_from_rotvec(d[3:]) @ R_from, R_to, atol=1e-9)
