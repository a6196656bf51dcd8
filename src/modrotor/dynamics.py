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

The step is a flat kernel: the four stages, the Rodrigues rotation, the
final update and the polar pass run on Python floats, which avoids the
per-call cost of numpy on 3-vectors and 3x3 matrices. It reads the state's
18 floats and the structure's mass and inertia floats, converted once per
structure, and returns a state that holds only its floats; that state
builds its arrays when they are read. Float arithmetic overflows to inf and
NaN without warnings, and the kernel checks its result for finiteness,
raising IntegrationError. By the rule in :mod:`modrotor.lazy`, that result
and the closed loop's checked values skip the checks of ``RigidState`` and
:func:`step`: the loop calls the kernel behind it, ``_advance``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError
from .lazy import POSITIVE, checked, float_array, lazy_fields, read_only, unchecked
from .so3 import matmul3, rodrigues
from .structure import StructureModel

GRAVITY = 9.81  # m/s^2
_TWELFTH = 1.0 / 12.0
_STATE_SHAPES = {"r": (3,), "v": (3,), "r_ws": (3, 3), "omega": (3,)}


@lazy_fields(
    r=lambda state: read_only(state._flat[0:3]),
    v=lambda state: read_only(state._flat[3:6]),
    r_ws=lambda state: read_only(state._flat[6:15], (3, 3)),
    omega=lambda state: read_only(state._flat[15:18]),
)
@dataclass(frozen=True, eq=False)
class RigidState:
    """Pose and twist of the structure.

    r, v: world-frame position (m) and velocity (m/s)
    r_ws: rotation from the structure frame to the world frame
    omega: body-frame angular velocity, rad/s

    Every state also holds its 18 floats (r, v, r_ws row-major, omega),
    which is what the controller and the integrator read, and its arrays
    are read-only copies of them. A state that :func:`step` returns holds
    only the floats and builds each array on first read.
    """

    r: np.ndarray
    v: np.ndarray
    r_ws: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        for name, shape in _STATE_SHAPES.items():
            arr = read_only(getattr(self, name))
            if arr.shape != shape:
                raise ValueError(f"state field {name} must have shape {shape}, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"state field {name} has non-finite entries")
            object.__setattr__(self, name, arr)
        self.__dict__["_flat"] = (*self.r.tolist(), *self.v.tolist(), *self.r_ws.ravel().tolist(),
                                  *self.omega.tolist())


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


def accelerations(structure: StructureModel, state: RigidState, u: np.ndarray,
                  gravity: float = GRAVITY) -> tuple[np.ndarray, np.ndarray]:
    """Linear (world) and angular (body) acceleration under thrusts ``u``."""
    model = _step_model(structure, state, _thrusts(structure, u), checked("gravity", gravity))
    k = _derivative(_start(state), *model)
    return np.array(k[3:6]), np.array(k[9:12])


def _thrusts(structure: StructureModel, u) -> np.ndarray:
    """``u`` as a float array of 4n finite thrusts, else ValueError."""
    arr = float_array(u)
    if arr.shape != (4 * structure.n,) or not all(map(math.isfinite, arr.tolist())):
        raise ValueError(f"u must have {4 * structure.n} finite entries, got {u!r}")
    return arr


def _start(state):
    """The 12 floats (r, v, phi, omega) a step starts from; phi is zero."""
    flat = state._flat
    return (*flat[0:6], 0.0, 0.0, 0.0, *flat[15:18])


def _step_model(structure, state, u, gravity):
    """The floats a step holds fixed: attitude at the step start, body force
    per unit mass, body torque, inertia and its inverse (row-major), gravity."""
    # Overflowing thrusts become non-finite values that step reports as
    # IntegrationError, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        wrench = structure.thrust_map.dot(u).tolist()
    mass, inertia, inertia_inv = structure._rigid_body
    return (state._flat[6:15], (wrench[0] / mass, wrench[1] / mass, wrench[2] / mass),
            wrench[3:], inertia, inertia_inv, gravity)


def _derivative(y, r_ws0, force, torque, inertia, inertia_inv, gravity):
    """Newton-Euler derivative of the in-step state y = (r, v, phi, omega).

    phi is the in-step rotation increment, so the attitude is
    r_ws0 @ exp_map(phi). Takes and returns 12 floats.
    """
    _, _, _, vx, vy, vz, px, py, pz, wx, wy, wz = y
    fx, fy, fz = force
    if px == 0.0 and py == 0.0 and pz == 0.0:
        dpx, dpy, dpz = wx, wy, wz
    else:
        # Body force rotated by exp_map(phi), ahead of r_ws0 below.
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
        vx, vy, vz, ax, ay, az, dpx, dpy, dpz,
        j0 * gx + j1 * gy + j2 * gz,
        j3 * gx + j4 * gy + j5 * gz,
        j6 * gx + j7 * gy + j8 * gz,
    )


def step(structure: StructureModel, state: RigidState, u: np.ndarray, dt: float,
         gravity: float = GRAVITY) -> RigidState:
    """Advance one step of length ``dt`` with the 4n finite thrusts ``u``
    held constant."""
    return _advance(structure, state, _thrusts(structure, u), checked("dt", dt),
                    checked("gravity", gravity))


def _advance(structure, state, u, dt: float, gravity: float) -> RigidState:
    """:func:`step` on thrusts and floats that are checked already."""
    model = _step_model(structure, state, u, gravity)
    y0 = _start(state)

    half = 0.5 * dt
    k1 = _derivative(y0, *model)
    k2 = _derivative([a + half * b for a, b in zip(y0, k1)], *model)
    k3 = _derivative([a + half * b for a, b in zip(y0, k2)], *model)
    k4 = _derivative([a + dt * b for a, b in zip(y0, k3)], *model)
    sixth = dt / 6.0
    y1 = [
        a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        for a, b1, b2, b3, b4 in zip(y0, k1, k2, k3, k4)
    ]
    if not all(map(math.isfinite, y1)):
        raise IntegrationError("integration produced non-finite values (|v|="
                               f"{math.hypot(*y0[3:6]):.3e}, |omega|={math.hypot(*y0[9:]):.3e}, "
                               f"dt={dt})")

    phi = y1[6:9]
    r_ws1 = matmul3(model[0], rodrigues(*phi))
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
    return unchecked(RigidState, _flat=(*y1[0:6], *r_ws1, *y1[9:12]))
