"""Rotation-group utilities shared across the package.

Rotations are plain 3x3 numpy arrays acting on column vectors; angles are
radians. Matrices are used everywhere instead of quaternions so the algebra
stays directly readable against the dynamics and control expressions.
"""

from __future__ import annotations

import math

import numpy as np

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])

# Below this angle the Rodrigues formula divides by a vanishing norm; fall
# back to the second-order series.
_TAYLOR_ANGLE = 1e-8


def rot_x(angle: float) -> np.ndarray:
    """Right-handed rotation about the x-axis."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(angle: float) -> np.ndarray:
    """Right-handed rotation about the y-axis."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(angle: float) -> np.ndarray:
    """Right-handed rotation about the z-axis."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


_ROT = {"x": rot_x, "y": rot_y, "z": rot_z}


def rot_axis_angle(axis: str, angle: float) -> np.ndarray:
    """Rotation about a principal axis named "x", "y" or "z"."""
    if not np.isfinite(angle):
        raise ValueError(f"angle must be finite, got {angle!r}")
    try:
        return _ROT[axis](angle)
    except KeyError:
        raise ValueError(f"unknown axis {axis!r}, expected 'x', 'y' or 'z'") from None


def hat(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix of v, so that hat(v) @ w == cross(v, w)."""
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


def vee(m: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Vector of a skew-symmetric matrix; inverse of :func:`hat`.

    Raises ValueError when ``m`` is not skew-symmetric within ``tol``, which
    signals a malformed attitude-error matrix upstream.
    """
    m = np.asarray(m, dtype=float)
    if np.linalg.norm(m + m.T) >= tol:
        raise ValueError("matrix is not skew-symmetric; cannot apply vee map")
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


def rodrigues(x: float, y: float, z: float) -> tuple[float, ...]:
    """Row-major entries of the rotation exp(hat(v)) for v = (x, y, z).

    Closed form I + a K + b K^2 with K = hat(v), a = sin(t)/t and
    b = (1 - cos t)/t^2 for the angle t = |v|; K^2 = v v^T - t^2 I. Works
    on Python floats, so a non-finite v gives NaN entries rather than an
    exception or a warning.
    """
    xx, yy, zz = x * x, y * y, z * z
    angle = math.sqrt(xx + yy + zz)
    if angle < _TAYLOR_ANGLE:
        a, b = 1.0, 0.5
    elif angle < math.inf:
        a, b = math.sin(angle) / angle, (1.0 - math.cos(angle)) / (angle * angle)
    else:
        a = b = math.nan
    bxy, bxz, byz = b * x * y, b * x * z, b * y * z
    ax, ay, az = a * x, a * y, a * z
    return (
        1.0 - b * (yy + zz), bxy - az, bxz + ay,
        bxy + az, 1.0 - b * (xx + zz), byz - ax,
        bxz - ay, byz + ax, 1.0 - b * (xx + yy),
    )


def matmul3(a, b) -> tuple[float, ...]:
    """Product of two 3x3 matrices given as row-major 9-sequences of floats."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
    b0, b1, b2, b3, b4, b5, b6, b7, b8 = b
    return (
        a0 * b0 + a1 * b3 + a2 * b6, a0 * b1 + a1 * b4 + a2 * b7, a0 * b2 + a1 * b5 + a2 * b8,
        a3 * b0 + a4 * b3 + a5 * b6, a3 * b1 + a4 * b4 + a5 * b7, a3 * b2 + a4 * b5 + a5 * b8,
        a6 * b0 + a7 * b3 + a8 * b6, a6 * b1 + a7 * b4 + a8 * b7, a6 * b2 + a7 * b5 + a8 * b8,
    )


def exp_map(v: np.ndarray) -> np.ndarray:
    """Rodrigues rotation for the rotation vector v (axis times angle)."""
    x, y, z = np.asarray(v, dtype=float).tolist()
    return np.array(rodrigues(x, y, z)).reshape(3, 3)


def is_rotation(r: np.ndarray, tol: float = 1e-9) -> bool:
    """True when r is orthonormal with determinant +1 within tol."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3) or not np.all(np.isfinite(r)):
        return False
    return (
        np.linalg.norm(r @ r.T - np.eye(3)) < tol
        and abs(np.linalg.det(r) - 1.0) < tol
    )


def orthonormalize(r: np.ndarray) -> np.ndarray:
    """Nearest rotation matrix in the Frobenius sense (polar projection)."""
    u, _, vt = np.linalg.svd(r)
    out = u @ vt
    if np.linalg.det(out) < 0.0:
        u[:, -1] = -u[:, -1]
        out = u @ vt
    return out


def rotation_angle(ra: np.ndarray, rb: np.ndarray | None = None) -> float:
    """Geodesic angle in radians between two rotations (rb defaults to identity)."""
    (a0, a1, a2), (a3, a4, a5), (a6, a7, a8) = ra.tolist()
    if rb is None:
        trace = a0 + a4 + a8
    else:
        # trace(ra^T rb), summed column by column like the matrix product.
        (b0, b1, b2), (b3, b4, b5), (b6, b7, b8) = rb.tolist()
        trace = ((a0 * b0 + a3 * b3 + a6 * b6) + (a1 * b1 + a4 * b4 + a7 * b7)
                 + (a2 * b2 + a5 * b5 + a8 * b8))
    return math.acos(min(max((trace - 1.0) / 2.0, -1.0), 1.0))
