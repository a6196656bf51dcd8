"""Rotation-group utilities shared across the package.

Rotations are plain 3x3 numpy arrays acting on column vectors; angles are
radians. Matrices are used everywhere instead of quaternions so the algebra
stays directly readable against the dynamics and control expressions.
"""

from __future__ import annotations

import math

import numpy as np

# The identity and its columns, each its own array. Module-level arrays are
# read-only, so no caller can change what every later call reads.
I3 = np.eye(3)
E1, E2, E3 = map(np.array, I3)
for _array in (I3, E1, E2, E3):
    _array.setflags(write=False)
del _array

# Below this angle the Rodrigues formula divides by a vanishing norm; fall
# back to the second-order series.
_TAYLOR_ANGLE = 1e-8


def rot_x(angle: float) -> np.ndarray:
    """Right-handed rotation about the x-axis."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(angle: float) -> np.ndarray:
    """Right-handed rotation about the y-axis."""
    return np.array(rot_y_flat(angle)).reshape(3, 3)


def rot_z(angle: float) -> np.ndarray:
    """Right-handed rotation about the z-axis."""
    return np.array(rot_z_flat(angle)).reshape(3, 3)


def rot_y_flat(angle: float) -> tuple[float, ...]:
    """Row-major entries of rot_y(angle), as floats."""
    c, s = math.cos(angle), math.sin(angle)
    return (c, 0.0, s, 0.0, 1.0, 0.0, -s, 0.0, c)


def rot_z_flat(angle: float) -> tuple[float, ...]:
    """Row-major entries of rot_z(angle), as floats."""
    c, s = math.cos(angle), math.sin(angle)
    return (c, -s, 0.0, s, c, 0.0, 0.0, 0.0, 1.0)


def rodrigues(x: float, y: float, z: float) -> tuple[float, ...]:
    """Row-major entries of the rotation exp(K) for v = (x, y, z), where K is
    the skew matrix with K w = v x w.

    Closed form I + a K + b K^2 with a = sin(t)/t and
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


def cross3(a, b) -> tuple[float, float, float]:
    """a x b on 3-float sequences, entry for entry numpy's cross product
    arithmetic (a1 b2 - a2 b1, ...), so the results carry the same bits."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def is_rotation(r: np.ndarray, tol: float = 1e-9) -> bool:
    """True when r is a finite 3x3 matrix, orthonormal with determinant +1
    within tol: ||r r^T - I||_F < tol and |det r - 1| < tol. False for
    anything else, including input that is not a 3x3 array of numbers."""
    try:
        (a0, a1, a2), (a3, a4, a5), (a6, a7, a8) = rows = np.asarray(r, dtype=float).tolist()
        if not all(map(math.isfinite, rows[0] + rows[1] + rows[2])):
            return False
    except (TypeError, ValueError, OverflowError):  # not a 3x3 array of numbers
        return False
    # r r^T - I is symmetric: three diagonal and three off-diagonal entries.
    d0 = a0 * a0 + a1 * a1 + a2 * a2 - 1.0
    d4 = a3 * a3 + a4 * a4 + a5 * a5 - 1.0
    d8 = a6 * a6 + a7 * a7 + a8 * a8 - 1.0
    o1 = a0 * a3 + a1 * a4 + a2 * a5
    o2 = a0 * a6 + a1 * a7 + a2 * a8
    o5 = a3 * a6 + a4 * a7 + a5 * a8
    det = a0 * (a4 * a8 - a5 * a7) - a1 * (a3 * a8 - a5 * a6) + a2 * (a3 * a7 - a4 * a6)
    return math.hypot(d0, d4, d8, o1, o1, o2, o2, o5, o5) < tol and abs(det - 1.0) < tol


def rotation_angle(ra: np.ndarray, rb: np.ndarray | None = None) -> float:
    """Geodesic angle in radians between two rotations (rb defaults to identity)."""
    if rb is None:
        (a0, _, _), (_, a4, _), (_, _, a8) = ra.tolist()
        return _angle_of_trace(a0 + a4 + a8)
    return angle_between(ra.ravel().tolist(), rb.ravel().tolist())


def angle_between(a, b) -> float:
    """Geodesic angle in radians between two rotations given as row-major
    9-sequences of floats."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
    b0, b1, b2, b3, b4, b5, b6, b7, b8 = b
    # trace(a^T b), summed column by column like the matrix product.
    return _angle_of_trace((a0 * b0 + a3 * b3 + a6 * b6) + (a1 * b1 + a4 * b4 + a7 * b7)
                           + (a2 * b2 + a5 * b5 + a8 * b8))


def _angle_of_trace(trace: float) -> float:
    c = (trace - 1.0) / 2.0
    return math.acos(-1.0 if c < -1.0 else (1.0 if c > 1.0 else c))
