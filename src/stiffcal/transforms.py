"""Small rotation/transform helpers shared across the toolkit.

Conventions: rotations are 3x3 numpy arrays, translations are length-3 vectors
in millimetres.  A rigid transform is the pair ``(R, p)`` acting as
``x_parent = R @ x_child + p``.
"""
from __future__ import annotations

import numpy as np


def dot_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot products of matching rows of ``x`` and ``y`` (..., n), each bit
    for bit the ``x_i @ y_i`` of its own pair of rows (so ``sqrt`` of
    ``dot_rows(x, x)`` is ``np.linalg.norm`` of each row)."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def rot_axis(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rotation matrix about a unit ``axis`` by ``angle`` (Rodrigues formula)."""
    k = np.asarray(axis, dtype=float)
    c, s = np.cos(angle), np.sin(angle)
    K = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return c * np.eye(3) + s * K + (1.0 - c) * np.outer(k, k)


# Rodrigues terms of the x, y and z axes, built as rot_axis builds them.
_EYE3 = np.eye(3)
_XYZ_K = np.array([[[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]] for x, y, z in _EYE3])
_XYZ_KK = _EYE3[:, :, None] * _EYE3[:, None, :]


def rot_rpy(rpy) -> np.ndarray:
    """Rotation from roll/pitch/yaw (radians): Rz(yaw) @ Ry(pitch) @ Rx(roll).

    ``rpy`` of shape ``(..., 3)`` gives a stack ``(..., 3, 3)``, each
    matrix bit for bit the product of its own three ``rot_axis`` calls.
    """
    angle = np.asarray(rpy, dtype=float)[..., None, None]
    c = np.cos(angle)
    R = c * _EYE3 + np.sin(angle) * _XYZ_K + (1.0 - c) * _XYZ_KK
    return R[..., 2, :, :] @ R[..., 1, :, :] @ R[..., 0, :, :]


def rot_from_rotvec(v: np.ndarray) -> np.ndarray:
    """Rotation matrix from a rotation vector (axis * angle)."""
    v = np.asarray(v, dtype=float)
    angle = float(np.linalg.norm(v))
    if angle < 1e-300:
        return np.eye(3)
    return rot_axis(v / angle, angle)


def rotvec_from_matrix(R: np.ndarray) -> np.ndarray:
    """Rotation vector (axis * angle) of a rotation matrix.

    Stable for small angles; angle is taken in [0, pi].
    """
    R = np.asarray(R, dtype=float)
    w = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    s = 0.5 * np.linalg.norm(w)          # sin(angle)
    c = 0.5 * (np.trace(R) - 1.0)        # cos(angle)
    angle = np.arctan2(s, c)
    if s < 1e-12:
        if c > 0.0:
            return 0.5 * w  # ~identity: first-order approximation
        # angle ~ pi: extract axis from the symmetric part
        A = 0.5 * (R + np.eye(3))
        axis = np.sqrt(np.maximum(np.diag(A), 0.0))
        # fix signs from off-diagonals
        k = int(np.argmax(axis))
        if axis[k] > 0.0:
            for j in range(3):
                if j != k and A[k, j] < 0.0:
                    axis[j] = -axis[j]
        n = np.linalg.norm(axis)
        if n == 0.0:
            return np.zeros(3)
        return axis / n * angle
    return w * (angle / (2.0 * s))


def pose_difference(p_to, R_to, p_from, R_from) -> np.ndarray:
    """6-vector twist taking pose ``from`` to pose ``to``.

    Rows: position difference (mm) then rotation vector of R_to @ R_from.T
    (rad), matching the Jacobian row convention used throughout.
    """
    dp = np.asarray(p_to, dtype=float) - np.asarray(p_from, dtype=float)
    dw = rotvec_from_matrix(np.asarray(R_to) @ np.asarray(R_from).T)
    return np.concatenate([dp, dw])
