"""Newton-Euler rigid-body simulation of an assembled structure.

State: position r and velocity v in the world frame, body attitude as the
rotation R_WS from structure to world, and angular velocity omega in the
body frame. Thrusts map to body force and torque through the structure's
thrust map; translation follows

    r_ddot = R_WS @ (A_f @ u) / (n m) - g e3

and rotation follows Euler's equation

    omega_dot = I_S^-1 (A_tau @ u - omega x I_S omega).

Steps use a fourth-order Runge-Kutta scheme of the Munthe-Kaas (RKMK) type:
the attitude advances through the exponential map of an accumulated
rotation increment phi, so R_WS never leaves the rotation group by more
than roundoff; it is polar re-orthonormalized once per step. Thrust is held
constant across a step, so the body force and torque are computed once per
step with one matrix product.

The step kernel, ``_advance``, is one straight-line pass on named Python
floats, which avoids the per-call cost of numpy on 3-vectors and 3x3
matrices: each stage hands ``_derivative`` the nine floats it reads (v, phi,
omega), the position is integrated once at the end, and the Rodrigues
rotation and the polar pass follow. It takes a state as its 18 floats (r, v,
r_ws row-major, omega) with the structure's mass and inertia floats,
converted once per structure, and returns the next state's 18 floats. Float
arithmetic overflows to inf and NaN without warnings, and the kernel checks
its result for finiteness, raising IntegrationError; its one numpy call, the
thrust product, runs inside the ``np.errstate(over="ignore",
invalid="ignore")`` that its callers enter: :func:`step` on each call, the
closed loop once per run.

:func:`step` is a thin wrapper: it checks its inputs, hands the kernel the
state's floats and returns the whole next ``RigidState``. The closed loop
calls the kernel itself and builds only its final state. By the rule in
:mod:`modrotor.lazy`, a state built from the kernel's checked result skips
the checks of ``RigidState``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError
from .lazy import POSITIVE, checked, finite_array, read_only, unchecked
from .so3 import matmul3, rodrigues
from .structure import StructureModel

GRAVITY = 9.81  # m/s^2
_TWELFTH = 1.0 / 12.0


@dataclass(frozen=True, eq=False)
class RigidState:
    """Pose and twist of the structure.

    r, v: world-frame position (m) and velocity (m/s)
    r_ws: rotation from the structure frame to the world frame
    omega: body-frame angular velocity, rad/s

    Each field is a finite, read-only float array: a copy of the caller's
    value, or the integrator's result in a state that :func:`step` returns.
    """

    r: np.ndarray
    v: np.ndarray
    r_ws: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        for name, shape in (("r", (3,)), ("v", (3,)), ("r_ws", (3, 3)), ("omega", (3,))):
            object.__setattr__(self, name, finite_array(name, getattr(self, name), shape))


def _floats_of(state: RigidState) -> tuple[float, ...]:
    """The 18 floats the kernels read: r, v, r_ws row-major, omega."""
    return (*state.r.tolist(), *state.v.tolist(), *state.r_ws.ravel().tolist(),
            *state.omega.tolist())


def _state_of(y) -> RigidState:
    """The state whose :func:`_floats_of` is ``y``, which the kernel checked."""
    return unchecked(RigidState, r=read_only(y[0:3]), v=read_only(y[3:6]),
                     r_ws=read_only(y[6:15], (3, 3)), omega=read_only(y[15:18]))


@dataclass(frozen=True)
class SimParams:
    """Integration settings as floats: step dt > 0 (s), gravity (m/s^2) and
    duration >= dt (s)."""

    dt: float = 0.001
    gravity: float = GRAVITY
    duration: float = 10.0

    def __post_init__(self):
        dt = checked("dt", self.dt, POSITIVE)
        object.__setattr__(self, "dt", dt)
        object.__setattr__(self, "gravity", checked("gravity", self.gravity))
        duration = checked("duration", self.duration, POSITIVE)
        if duration < dt:
            raise ValueError(f"duration must be finite and cover at least one step, "
                             f"got {duration} with dt {dt}")
        object.__setattr__(self, "duration", duration)


def _derivative(vx, vy, vz, px, py, pz, wx, wy, wz, r_ws0, force, torque, inertia, inertia_inv,
                gravity):
    """Newton-Euler derivative of the in-step (v, phi, omega), nine floats
    each way, where phi is the rotation increment, so the attitude is
    r_ws0 @ rodrigues(*phi). ``force`` is per unit mass; matrices are row-major.
    """
    fx, fy, fz = force
    if px == 0.0 and py == 0.0 and pz == 0.0:
        dpx, dpy, dpz = wx, wy, wz
    else:
        # Body force rotated by rodrigues(*phi), ahead of r_ws0 below.
        e0, e1, e2, e3, e4, e5, e6, e7, e8 = rodrigues(px, py, pz)
        fx, fy, fz = (
            e0 * fx + e1 * fy + e2 * fz,
            e3 * fx + e4 * fy + e5 * fz,
            e6 * fx + e7 * fy + e8 * fz,
        )
        # Rotation-increment kinematics: the correction terms keep the
        # update fourth-order accurate for finite increments.
        cx, cy, cz = py * wz - pz * wy, pz * wx - px * wz, px * wy - py * wx
        dpx = wx + 0.5 * cx + _TWELFTH * (py * cz - pz * cy)
        dpy = wy + 0.5 * cy + _TWELFTH * (pz * cx - px * cz)
        dpz = wz + 0.5 * cz + _TWELFTH * (px * cy - py * cx)
    r0, r1, r2, r3, r4, r5, r6, r7, r8 = r_ws0
    ax = r0 * fx + r1 * fy + r2 * fz
    ay = r3 * fx + r4 * fy + r5 * fz
    az = r6 * fx + r7 * fy + r8 * fz - gravity
    # Euler's equation: I_S^-1 (torque - omega x I_S omega).
    i0, i1, i2, i3, i4, i5, i6, i7, i8 = inertia
    hx = i0 * wx + i1 * wy + i2 * wz
    hy = i3 * wx + i4 * wy + i5 * wz
    hz = i6 * wx + i7 * wy + i8 * wz
    tx, ty, tz = torque
    gx = tx - (wy * hz - wz * hy)
    gy = ty - (wz * hx - wx * hz)
    gz = tz - (wx * hy - wy * hx)
    j0, j1, j2, j3, j4, j5, j6, j7, j8 = inertia_inv
    return (
        ax, ay, az, dpx, dpy, dpz,
        j0 * gx + j1 * gy + j2 * gz,
        j3 * gx + j4 * gy + j5 * gz,
        j6 * gx + j7 * gy + j8 * gz,
    )


def step(structure: StructureModel, state: RigidState, u: np.ndarray, dt: float,
         gravity: float = GRAVITY) -> RigidState:
    """Advance one step of length ``dt`` with the 4n finite thrusts ``u``
    held constant."""
    u = finite_array("u", u, (4 * structure.n,))
    dt, gravity = checked("dt", dt), checked("gravity", gravity)
    with np.errstate(over="ignore", invalid="ignore"):
        return _state_of(_advance(structure, _floats_of(state), u, dt, gravity))


def _advance(structure, y, u, dt: float, gravity: float) -> tuple[float, ...]:
    """:func:`step` on a state's 18 floats ``y`` and on thrusts and floats
    that are checked already, inside the caller's ``np.errstate`` (see the
    module docstring); the next state's 18 floats."""
    rx, ry, rz, vx, vy, vz, *r_ws0, wx, wy, wz = y
    mass, inertia, inertia_inv = structure._rigid_body
    fx, fy, fz, *torque = structure.thrust_map.dot(u).tolist()
    force = (fx / mass, fy / mass, fz / mass)

    # Stage inputs are y0 + h k in its float operations, down to the 0.0 + h q
    # on phi's zero start, as the run CSV records their bits. a: linear
    # acceleration, q: phi rate, b: angular acceleration.
    half = 0.5 * dt
    ax1, ay1, az1, qx1, qy1, qz1, bx1, by1, bz1 = _derivative(
        vx, vy, vz, 0.0, 0.0, 0.0, wx, wy, wz, r_ws0, force, torque, inertia, inertia_inv, gravity)
    vx2, vy2, vz2 = vx + half * ax1, vy + half * ay1, vz + half * az1
    ax2, ay2, az2, qx2, qy2, qz2, bx2, by2, bz2 = _derivative(
        vx2, vy2, vz2, 0.0 + half * qx1, 0.0 + half * qy1, 0.0 + half * qz1,
        wx + half * bx1, wy + half * by1, wz + half * bz1,
        r_ws0, force, torque, inertia, inertia_inv, gravity)
    vx3, vy3, vz3 = vx + half * ax2, vy + half * ay2, vz + half * az2
    ax3, ay3, az3, qx3, qy3, qz3, bx3, by3, bz3 = _derivative(
        vx3, vy3, vz3, 0.0 + half * qx2, 0.0 + half * qy2, 0.0 + half * qz2,
        wx + half * bx2, wy + half * by2, wz + half * bz2,
        r_ws0, force, torque, inertia, inertia_inv, gravity)
    vx4, vy4, vz4 = vx + dt * ax3, vy + dt * ay3, vz + dt * az3
    ax4, ay4, az4, qx4, qy4, qz4, bx4, by4, bz4 = _derivative(
        vx4, vy4, vz4, 0.0 + dt * qx3, 0.0 + dt * qy3, 0.0 + dt * qz3,
        wx + dt * bx3, wy + dt * by3, wz + dt * bz3,
        r_ws0, force, torque, inertia, inertia_inv, gravity)
    sixth = dt / 6.0
    y1 = (rx + sixth * (vx + 2.0 * vx2 + 2.0 * vx3 + vx4),
          ry + sixth * (vy + 2.0 * vy2 + 2.0 * vy3 + vy4),
          rz + sixth * (vz + 2.0 * vz2 + 2.0 * vz3 + vz4),
          vx + sixth * (ax1 + 2.0 * ax2 + 2.0 * ax3 + ax4),
          vy + sixth * (ay1 + 2.0 * ay2 + 2.0 * ay3 + ay4),
          vz + sixth * (az1 + 2.0 * az2 + 2.0 * az3 + az4))
    phi = (0.0 + sixth * (qx1 + 2.0 * qx2 + 2.0 * qx3 + qx4),
           0.0 + sixth * (qy1 + 2.0 * qy2 + 2.0 * qy3 + qy4),
           0.0 + sixth * (qz1 + 2.0 * qz2 + 2.0 * qz3 + qz4))
    omega1 = (wx + sixth * (bx1 + 2.0 * bx2 + 2.0 * bx3 + bx4),
              wy + sixth * (by1 + 2.0 * by2 + 2.0 * by3 + by4),
              wz + sixth * (bz1 + 2.0 * bz2 + 2.0 * bz3 + bz4))
    if not all(map(math.isfinite, y1 + phi + omega1)):
        raise IntegrationError("integration produced non-finite values (|v|="
                               f"{math.hypot(vx, vy, vz):.3e}, |omega|="
                               f"{math.hypot(wx, wy, wz):.3e}, dt={dt})")

    r_ws1 = matmul3(r_ws0, rodrigues(*phi))
    # One symmetric orthogonalization pass, r_ws1 (1.5 I - 0.5 r_ws1^T r_ws1);
    # the exponential update drifts by roundoff only, so this keeps R on the
    # rotation group indefinitely.
    transposed = r_ws1[0::3] + r_ws1[1::3] + r_ws1[2::3]
    g0, g1, g2, g3, g4, g5, g6, g7, g8 = matmul3(transposed, r_ws1)
    r_ws1 = matmul3(r_ws1, (
        1.5 - 0.5 * g0, -0.5 * g1, -0.5 * g2,
        -0.5 * g3, 1.5 - 0.5 * g4, -0.5 * g5,
        -0.5 * g6, -0.5 * g7, 1.5 - 0.5 * g8,
    ))
    if not all(map(math.isfinite, r_ws1)):
        raise IntegrationError(f"attitude update overflowed (|phi|={math.hypot(*phi):.3e}, "
                               f"dt={dt})")
    return (*y1, *r_ws1, *omega1)
