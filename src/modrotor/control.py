"""Rank-matched geometric controllers sharing one minimum-norm allocation.

Position tracking uses a PD law with gravity and acceleration feed-forward.
Attitude errors are measured on the thrust frame rather than the body frame,
so the controller always spends thrust along the structure's strongest force
direction. The controllers for 4, 5 and 6 controllable DOF differ in only
two ways: how the desired attitude is built, and which rows of the
thrust-frame wrench (force along the thrust frame's x, y, z axes, then body
torque) the rotors must realize:

* one force direction (4 DOF): z force plus full torque, like a
  conventional quadrotor but tilted;
* two directions (5 DOF): z and x force plus full torque, which frees the
  pitch angle to be commanded independently;
* three directions (6 DOF): the full wrench, position and attitude
  decoupled.

:class:`Controller` builds the 6 x 4n thrust-frame map once, keeps the rows
of its mode and stores that reduced map with its Moore-Penrose
pseudoinverse. Each step is then one product giving the exact minimum-norm
thrusts, clamped to the motor range.

:meth:`Controller.step` is a flat kernel: the control law runs on Python
floats, which avoids the per-call cost of numpy on 3-vectors and 3x3
matrices, and only the allocation product and clamp use numpy. Each formula
is one float helper; the public functions :func:`position_accel`,
:func:`attitude_error`, :func:`attitude_torque` and the desired-attitude
builders are thin array wrappers over the same helpers. Float arithmetic
overflows to inf and NaN without warnings, so the step checks the commanded
acceleration and wrench for finiteness and raises ControlDegeneracyError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .dynamics import GRAVITY, RigidState
from .errors import AllocationError, ControlDegeneracyError
from .module_design import Wrench
from .so3 import matmul3
from .structure import StructureModel, numerical_rank
from .trajectory import TrajectorySample

# Relative singular-value cutoff when forming pseudoinverses.
_PINV_RCOND = 1e-10
# Commanded accelerations below this cannot define a thrust direction.
_EPS_THRUST = 1e-6
# Thrust directions closer than this to the heading cannot define a frame.
_EPS_CROSS = 1e-6
# Thrust-frame wrench rows each mode commands, keyed by force-block rank:
# 0-2 are force along the thrust frame's x, y, z axes, 3-5 body torque.
_MODE_ROWS = {
    1: ("4dof", (2, 3, 4, 5)),
    2: ("5dof", (2, 0, 3, 4, 5)),
    3: ("6dof", (0, 1, 2, 3, 4, 5)),
}


@dataclass(frozen=True, eq=False)
class Gains:
    """Diagonal PD gains: k_pos/k_vel on position, k_rot/k_ang on attitude."""

    k_pos: np.ndarray
    k_vel: np.ndarray
    k_rot: np.ndarray
    k_ang: np.ndarray

    def __post_init__(self):
        for name in ("k_pos", "k_vel", "k_rot", "k_ang"):
            mat = np.asarray(getattr(self, name), dtype=float)
            if np.isscalar(getattr(self, name)) or mat.ndim == 0:
                mat = float(mat) * np.eye(3)
            elif mat.shape == (3,):
                mat = np.diag(mat)
            if mat.shape != (3, 3) or np.any(mat != np.diag(np.diag(mat))):
                raise ValueError(f"{name} must be a diagonal 3x3 matrix")
            if np.any(np.diag(mat) <= 0.0):
                raise ValueError(f"{name} diagonal entries must be positive")
            object.__setattr__(self, name, mat)


def default_gains() -> Gains:
    """Gains tuned so every supported structure converges well inside the
    underactuated position-through-attitude cascade."""
    return Gains(k_pos=12.0, k_vel=6.0, k_rot=200.0, k_ang=20.0)


@dataclass(frozen=True, eq=False)
class AttitudeError:
    """Rotation error e_rot and angular-velocity error e_omega (rad, rad/s)."""

    e_rot: np.ndarray
    e_omega: np.ndarray


@dataclass(frozen=True, eq=False)
class ControlOutput:
    """Result of one controller evaluation.

    u: clamped rotor thrusts, N
    u_raw: minimum-norm thrusts before clamping
    desired_wrench: the commanded body wrench that ``u_raw`` realizes; force
        components the mode does not command are zero
    saturated: True when any rotor had to be clamped
    desired_attitude: the commanded world attitude of the thrust frame
    mode: "4dof", "5dof" or "6dof"
    """

    u: np.ndarray
    u_raw: np.ndarray
    desired_wrench: Wrench
    saturated: bool
    desired_attitude: np.ndarray
    mode: str


def _floats(x) -> list[float]:
    """Row-major Python floats of an array-like."""
    return np.asarray(x, dtype=float).ravel().tolist()


def _diag(gain: np.ndarray) -> tuple[float, float, float]:
    return tuple(np.diag(gain).tolist())


def _position_accel(r, v, r_d, v_d, a_d, k_pos, k_vel, gravity):
    """PD on position and velocity error plus gravity and acceleration
    feed-forward; 3-float sequences in, a 3-tuple out."""
    return (
        k_pos[0] * (r_d[0] - r[0]) + k_vel[0] * (v_d[0] - v[0]) + a_d[0],
        k_pos[1] * (r_d[1] - r[1]) + k_vel[1] * (v_d[1] - v[1]) + a_d[1],
        k_pos[2] * (r_d[2] - r[2]) + k_vel[2] * (v_d[2] - v[2]) + gravity + a_d[2],
    )


def _cross(a, b):
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def _unit_cross(a, b, message: str):
    """Unit vector along a x b; raises ControlDegeneracyError(message) when
    a and b are too close to parallel to define it."""
    cx, cy, cz = _cross(a, b)
    norm = math.sqrt(cx * cx + cy * cy + cz * cz)
    if norm <= _EPS_CROSS:
        raise ControlDegeneracyError(message)
    return (cx / norm, cy / norm, cz / norm)


def _thrust_direction(a, eps_thrust: float):
    ax, ay, az = a
    norm = math.sqrt(ax * ax + ay * ay + az * az)
    if norm <= eps_thrust:
        raise ControlDegeneracyError("desired acceleration too small to define a thrust direction")
    return (ax / norm, ay / norm, az / norm)


def _columns(x, y, z) -> tuple[float, ...]:
    """Row-major entries of the matrix with columns x, y, z."""
    return (x[0], y[0], z[0], x[1], y[1], z[1], x[2], y[2], z[2])


def _attitude_4dof(a, yaw: float, eps_thrust: float):
    z = _thrust_direction(a, eps_thrust)
    heading = (math.cos(yaw), math.sin(yaw), 0.0)
    y = _unit_cross(z, heading, "thrust direction aligned with the yaw heading")
    return _columns(_cross(y, z), y, z)


def _attitude_5dof(a, yaw: float, pitch: float, eps_thrust: float):
    z_c = _thrust_direction(a, eps_thrust)
    # rot_z(yaw) @ rot_y(pitch) @ e1, entry by entry.
    cos_pitch = math.cos(pitch)
    x = (math.cos(yaw) * cos_pitch, math.sin(yaw) * cos_pitch, -math.sin(pitch))
    y = _unit_cross(z_c, x, "thrust direction aligned with the commanded x-axis")
    return _columns(x, y, _cross(x, y))


def _attitude_error(r_wf_d, r_wf, omega, omega_d):
    """(e_rot, e_omega) from row-major attitudes and 3-float rates.

    With M = R_d^T R_wf, e_rot is half the vee of M - M^T and e_omega is
    omega - M^T omega_d.
    """
    d0, d1, d2, d3, d4, d5, d6, d7, d8 = r_wf_d
    m0, m1, m2, m3, m4, m5, m6, m7, m8 = matmul3((d0, d3, d6, d1, d4, d7, d2, d5, d8), r_wf)
    wx, wy, wz = omega
    ox, oy, oz = omega_d
    return (
        (0.5 * (m7 - m5), 0.5 * (m2 - m6), 0.5 * (m3 - m1)),
        (
            wx - (m0 * ox + m3 * oy + m6 * oz),
            wy - (m1 * ox + m4 * oy + m7 * oz),
            wz - (m2 * ox + m5 * oy + m8 * oz),
        ),
    )


def _attitude_accel(e_rot, e_omega, k_rot, k_ang):
    return (
        -k_rot[0] * e_rot[0] - k_ang[0] * e_omega[0],
        -k_rot[1] * e_rot[1] - k_ang[1] * e_omega[1],
        -k_rot[2] * e_rot[2] - k_ang[2] * e_omega[2],
    )


def _attitude_torque(alpha, inertia, omega):
    """I alpha + omega x I omega; inertia row-major."""
    i0, i1, i2, i3, i4, i5, i6, i7, i8 = inertia
    ax, ay, az = alpha
    wx, wy, wz = omega
    hx = i0 * wx + i1 * wy + i2 * wz
    hy = i3 * wx + i4 * wy + i5 * wz
    hz = i6 * wx + i7 * wy + i8 * wz
    return (
        i0 * ax + i1 * ay + i2 * az + (wy * hz - wz * hy),
        i3 * ax + i4 * ay + i5 * az + (wz * hx - wx * hz),
        i6 * ax + i7 * ay + i8 * az + (wx * hy - wy * hx),
    )


def position_accel(
    state: RigidState,
    sample: TrajectorySample,
    gains: Gains,
    gravity: float = GRAVITY,
) -> np.ndarray:
    """Desired acceleration: PD on position/velocity error plus gravity and
    trajectory acceleration feed-forward."""
    return np.array(_position_accel(
        state.r.tolist(), state.v.tolist(), sample.r_d.tolist(), sample.v_d.tolist(),
        sample.a_d.tolist(), _diag(gains.k_pos), _diag(gains.k_vel), float(gravity),
    ))


def attitude_error(
    r_ws: np.ndarray,
    r_sf: np.ndarray,
    r_wf_d: np.ndarray,
    omega: np.ndarray,
    omega_d: np.ndarray,
) -> AttitudeError:
    """Rotation and rate error of the thrust frame against its target.

    The rotation error is the vee of the antisymmetric part of the relative
    rotation; the rate error transports the desired angular velocity into
    the current frame before comparing.
    """
    e_rot, e_omega = _attitude_error(
        _floats(r_wf_d), matmul3(_floats(r_ws), _floats(r_sf)), _floats(omega), _floats(omega_d)
    )
    return AttitudeError(e_rot=np.array(e_rot), e_omega=np.array(e_omega))


def attitude_accel(err: AttitudeError, gains: Gains) -> np.ndarray:
    """Angular acceleration command from the attitude error."""
    return np.array(_attitude_accel(
        _floats(err.e_rot), _floats(err.e_omega), _diag(gains.k_rot), _diag(gains.k_ang)
    ))


def attitude_torque(
    err: AttitudeError,
    gains: Gains,
    inertia: np.ndarray,
    omega: np.ndarray,
) -> np.ndarray:
    """Body torque tracking the attitude error, with gyroscopic feed-forward."""
    alpha = attitude_accel(err, gains).tolist()
    return np.array(_attitude_torque(alpha, _floats(inertia), _floats(omega)))


def desired_attitude_4dof(a_r: np.ndarray, yaw_d: float, eps_thrust: float = _EPS_THRUST) -> np.ndarray:
    """Thrust-frame target whose z-axis carries the desired acceleration.

    The x-axis is the yaw heading projected onto the plane normal to the
    thrust direction, as in the usual geometric quadrotor controller.
    """
    return np.array(_attitude_4dof(_floats(a_r), float(yaw_d), eps_thrust)).reshape(3, 3)


def desired_attitude_5dof(
    a_r: np.ndarray,
    yaw_d: float,
    pitch_d: float,
    eps_thrust: float = _EPS_THRUST,
) -> np.ndarray:
    """Thrust-frame target that pins the commanded yaw and pitch exactly.

    The x-axis is set directly from the yaw and pitch commands; the thrust
    direction is then projected into the remaining free plane. The first
    column of the result equals rot_z(yaw) @ rot_y(pitch) @ e1 bit-exact,
    which is what makes the pitch angle independently commandable.
    """
    attitude = _attitude_5dof(_floats(a_r), float(yaw_d), float(pitch_d), eps_thrust)
    return np.array(attitude).reshape(3, 3)


class Controller:
    """Closed-loop controller bound to one structure.

    The mode follows the structure's force-block rank. ``reduced_map`` holds
    the rows ``rows`` of the thrust-frame map [r_sf^T A_f; A_tau] that the
    mode commands, and ``pinv`` its pseudoinverse; both are fixed at
    construction, together with the floats the step reads (gain diagonals,
    r_sf, inertia, mass), so an instance is cheap to call every step and
    safe to share read-only.
    """

    def __init__(self, structure: StructureModel, gains: Gains | None = None,
                 gravity: float = GRAVITY):
        self.structure = structure
        self.gains = gains if gains is not None else default_gains()
        self.gravity = float(gravity)
        if structure.rank_f not in _MODE_ROWS:
            raise AllocationError(f"unsupported force-block rank {structure.rank_f}")
        self.mode, rows = _MODE_ROWS[structure.rank_f]
        self.rows = np.array(rows)
        thrust_frame_map = np.vstack([structure.r_sf.T @ structure.force_map, structure.torque_map])
        self.reduced_map = thrust_frame_map[self.rows]
        if numerical_rank(self.reduced_map) < self.rows.size:
            raise AllocationError(
                f"{self.mode} control needs the {self.rows.size} commanded wrench rows "
                "to be independent; the reduced thrust map is rank-deficient"
            )
        self.pinv = np.linalg.pinv(self.reduced_map, rcond=_PINV_RCOND)
        self._select_rows = itemgetter(*rows)
        # The floats each step reads; the force mask is 1.0 on the
        # thrust-frame force components the mode commands.
        self._force_mask = tuple(float(i in rows) for i in range(3))
        self._k_pos, self._k_vel, self._k_rot, self._k_ang = (
            _diag(k) for k in (self.gains.k_pos, self.gains.k_vel, self.gains.k_rot, self.gains.k_ang)
        )
        self._r_sf = tuple(structure.r_sf.ravel().tolist())
        self._inertia = tuple(structure.inertia.ravel().tolist())
        self._mass = float(structure.total_mass)

    def step(self, state: RigidState, sample: TrajectorySample) -> ControlOutput:
        omega = state.omega.tolist()
        a = _position_accel(
            state.r.tolist(), state.v.tolist(), sample.r_d.tolist(), sample.v_d.tolist(),
            sample.a_d.tolist(), self._k_pos, self._k_vel, self.gravity,
        )
        ax, ay, az = a
        if not math.isfinite(ax * ax + ay * ay + az * az):
            raise ControlDegeneracyError(
                "commanded acceleration has no finite magnitude: "
                f"a = ({ax:.3e}, {ay:.3e}, {az:.3e}) m/s^2"
            )
        if self.mode == "4dof":
            r_wf_d = _attitude_4dof(a, sample.yaw_d, _EPS_THRUST)
        elif self.mode == "5dof":
            r_wf_d = _attitude_5dof(a, sample.yaw_d, sample.pitch_d, _EPS_THRUST)
        else:
            r_wf_d = sample.r_wf_d.ravel().tolist()
        r_wf = matmul3(state.r_ws.ravel().tolist(), self._r_sf)
        e_rot, e_omega = _attitude_error(r_wf_d, r_wf, omega, sample.omega_d.tolist())
        torque = _attitude_torque(
            _attitude_accel(e_rot, e_omega, self._k_rot, self._k_ang), self._inertia, omega
        )

        # Thrust-frame force: mass times R_wf^T a on the commanded axes.
        r0, r1, r2, r3, r4, r5, r6, r7, r8 = r_wf
        mass = self._mass
        mask_x, mask_y, mask_z = self._force_mask
        fx = mass * (r0 * ax + r3 * ay + r6 * az) * mask_x
        fy = mass * (r1 * ax + r4 * ay + r7 * az) * mask_y
        fz = mass * (r2 * ax + r5 * ay + r8 * az) * mask_z
        if self.mode == "4dof":
            # Rotors are unidirectional; a transiently negative command is cut.
            fz = max(fz, 0.0)
        s0, s1, s2, s3, s4, s5, s6, s7, s8 = self._r_sf
        force = (s0 * fx + s1 * fy + s2 * fz, s3 * fx + s4 * fy + s5 * fz, s6 * fx + s7 * fy + s8 * fz)
        if not all(map(math.isfinite, force + torque)):
            raise ControlDegeneracyError(
                "commanded wrench is not finite: force = ({:.3e}, {:.3e}, {:.3e}) N, "
                "torque = ({:.3e}, {:.3e}, {:.3e}) N*m".format(*force, *torque)
            )

        u_raw = self.pinv.dot(self._select_rows((fx, fy, fz, *torque)))
        u = np.clip(u_raw, 0.0, self.structure.f_max)
        return ControlOutput(
            u=u,
            u_raw=u_raw,
            desired_wrench=Wrench._checked(np.array(force), np.array(torque)),
            saturated=bool((abs(u - u_raw) > 1e-12).any()),
            desired_attitude=(
                sample.r_wf_d if self.mode == "6dof" else np.array(r_wf_d).reshape(3, 3)
            ),
            mode=self.mode,
        )
