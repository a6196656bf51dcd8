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

The step kernel, ``_advance``, works on named Python floats, which avoids
the per-call cost of numpy on 3-vectors and 3x3 matrices: one loop body
runs the four stages, each taking the in-step (v, phi, omega) to their
rates and adding them to running sums, the position is integrated once at
the end, and the Rodrigues rotation and the polar pass follow. It takes a
state as its 18 floats (r, v, r_ws row-major, omega) with the structure's
mass and inertia floats, converted once per structure, and returns the next
state's 18 floats. Float
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
from .lazy import POSITIVE, checked, finite_array, read_only, rotation, unchecked
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
    A caller's ``r_ws`` must be a rotation (see :func:`modrotor.lazy.rotation`).
    """

    r: np.ndarray
    v: np.ndarray
    r_ws: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        for name in ("r", "v", "r_ws", "omega"):
            value = getattr(self, name)
            object.__setattr__(self, name, rotation(name, value) if name == "r_ws"
                               else finite_array(name, value, (3,)))


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


def step(structure: StructureModel, state: RigidState, u: np.ndarray, dt: float,
         gravity: float = GRAVITY) -> RigidState:
    """Advance one step of length ``dt`` > 0 with the 4n finite thrusts ``u``
    held constant."""
    u = finite_array("u", u, (4 * structure.n,))
    dt, gravity = checked("dt", dt, POSITIVE), checked("gravity", gravity)
    with np.errstate(over="ignore", invalid="ignore"):
        return _state_of(_advance(structure, _floats_of(state), u, dt, gravity))


def _advance(structure, y, u, dt: float, gravity: float) -> tuple[float, ...]:
    """:func:`step` on a state's 18 floats ``y`` and on thrusts and floats
    that are checked already, inside the caller's ``np.errstate`` (see the
    module docstring); the next state's 18 floats."""
    rx, ry, rz, vx, vy, vz, *r_ws0, wx, wy, wz = y
    r0, r1, r2, r3, r4, r5, r6, r7, r8 = r_ws0
    mass, (i0, i1, i2, i3, i4, i5, i6, i7, i8), (j0, j1, j2, j3, j4, j5, j6, j7, j8) = (
        structure._rigid_body)
    fx, fy, fz, tx, ty, tz = structure.thrust_map.dot(u).tolist()
    fx, fy, fz = fx / mass, fy / mass, fz / mass

    # Each stage takes the in-step (v, phi, omega) to their rates (a, q, b):
    # a linear acceleration, q the rate of the rotation increment phi, so
    # the attitude is r_ws0 @ rodrigues(*phi), b angular acceleration. Stage
    # inputs are y0 + h k in its float operations, down to the 0.0 + h q on
    # phi's zero start, as the run CSV records their bits; the d sums are
    # k1 + 2 k2 + 2 k3 + k4, with dr summing the stage velocities.
    half = 0.5 * dt
    svx, svy, svz, spx, spy, spz, swx, swy, swz = vx, vy, vz, 0.0, 0.0, 0.0, wx, wy, wz
    for weight, h in ((None, half), (2.0, half), (2.0, dt), (1.0, None)):
        if spx == 0.0 and spy == 0.0 and spz == 0.0:
            ex, ey, ez = fx, fy, fz
            qx, qy, qz = swx, swy, swz
        else:
            # Body force rotated by rodrigues(*phi), ahead of r_ws0 below.
            e0, e1, e2, e3, e4, e5, e6, e7, e8 = rodrigues(spx, spy, spz)
            ex = e0 * fx + e1 * fy + e2 * fz
            ey = e3 * fx + e4 * fy + e5 * fz
            ez = e6 * fx + e7 * fy + e8 * fz
            # Rotation-increment kinematics: the correction terms keep the
            # update fourth-order accurate for finite increments.
            cx, cy, cz = spy * swz - spz * swy, spz * swx - spx * swz, spx * swy - spy * swx
            qx = swx + 0.5 * cx + _TWELFTH * (spy * cz - spz * cy)
            qy = swy + 0.5 * cy + _TWELFTH * (spz * cx - spx * cz)
            qz = swz + 0.5 * cz + _TWELFTH * (spx * cy - spy * cx)
        ax = r0 * ex + r1 * ey + r2 * ez
        ay = r3 * ex + r4 * ey + r5 * ez
        az = r6 * ex + r7 * ey + r8 * ez - gravity
        # Euler's equation: I_S^-1 (torque - omega x I_S omega).
        hx = i0 * swx + i1 * swy + i2 * swz
        hy = i3 * swx + i4 * swy + i5 * swz
        hz = i6 * swx + i7 * swy + i8 * swz
        gx = tx - (swy * hz - swz * hy)
        gy = ty - (swz * hx - swx * hz)
        gz = tz - (swx * hy - swy * hx)
        bx = j0 * gx + j1 * gy + j2 * gz
        by = j3 * gx + j4 * gy + j5 * gz
        bz = j6 * gx + j7 * gy + j8 * gz
        if weight is None:
            drx, dry, drz, dvx, dvy, dvz = svx, svy, svz, ax, ay, az
            dpx, dpy, dpz, dwx, dwy, dwz = qx, qy, qz, bx, by, bz
        else:
            drx, dry, drz = drx + weight * svx, dry + weight * svy, drz + weight * svz
            dvx, dvy, dvz = dvx + weight * ax, dvy + weight * ay, dvz + weight * az
            dpx, dpy, dpz = dpx + weight * qx, dpy + weight * qy, dpz + weight * qz
            dwx, dwy, dwz = dwx + weight * bx, dwy + weight * by, dwz + weight * bz
        if h is None:
            break
        svx, svy, svz = vx + h * ax, vy + h * ay, vz + h * az
        spx, spy, spz = 0.0 + h * qx, 0.0 + h * qy, 0.0 + h * qz
        swx, swy, swz = wx + h * bx, wy + h * by, wz + h * bz
    sixth = dt / 6.0
    y1 = (rx + sixth * drx, ry + sixth * dry, rz + sixth * drz,
          vx + sixth * dvx, vy + sixth * dvy, vz + sixth * dvz)
    phi = (0.0 + sixth * dpx, 0.0 + sixth * dpy, 0.0 + sixth * dpz)
    omega1 = (wx + sixth * dwx, wy + sixth * dwy, wz + sixth * dwz)
    if not all(map(math.isfinite, y1 + phi + omega1)):
        raise IntegrationError("integration produced non-finite values (|v|="
                               f"{math.hypot(vx, vy, vz):.3e}, |omega|="
                               f"{math.hypot(wx, wy, wz):.3e}, dt={dt})")

    r_ws1 = matmul3(r_ws0, rodrigues(*phi))
    # One symmetric orthogonalization pass, r_ws1 (1.5 I - 0.5 G) with the
    # Gram matrix G = r_ws1^T r_ws1, its six distinct entries summed in
    # matmul3's order (a * b is b * a bit for bit); the exponential update
    # drifts by roundoff only, so this keeps R on the rotation group.
    s0, s1, s2, s3, s4, s5, s6, s7, s8 = r_ws1
    g0, g1 = s0 * s0 + s3 * s3 + s6 * s6, s0 * s1 + s3 * s4 + s6 * s7
    g2, g4 = s0 * s2 + s3 * s5 + s6 * s8, s1 * s1 + s4 * s4 + s7 * s7
    g5, g8 = s1 * s2 + s4 * s5 + s7 * s8, s2 * s2 + s5 * s5 + s8 * s8
    r_ws1 = matmul3(r_ws1, (
        1.5 - 0.5 * g0, -0.5 * g1, -0.5 * g2,
        -0.5 * g1, 1.5 - 0.5 * g4, -0.5 * g5,
        -0.5 * g2, -0.5 * g5, 1.5 - 0.5 * g8,
    ))
    if not all(map(math.isfinite, r_ws1)):
        raise IntegrationError(f"attitude update overflowed (|phi|={math.hypot(*phi):.3e}, "
                               f"dt={dt})")
    return (*y1, *r_ws1, *omega1)
