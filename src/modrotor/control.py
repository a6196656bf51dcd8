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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import GRAVITY, RigidState
from .errors import AllocationError, ControlDegeneracyError
from .module_design import Wrench
from .so3 import E1, E3, cross3, rot_y, rot_z, vee
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


def position_accel(
    state: RigidState,
    sample: TrajectorySample,
    gains: Gains,
    gravity: float = GRAVITY,
) -> np.ndarray:
    """Desired acceleration: PD on position/velocity error plus gravity and
    trajectory acceleration feed-forward."""
    e_r = sample.r_d - state.r
    e_v = sample.v_d - state.v
    return gains.k_pos @ e_r + gains.k_vel @ e_v + gravity * E3 + sample.a_d


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
    r_wf = r_ws @ r_sf
    e_rot = 0.5 * vee(r_wf_d.T @ r_wf - r_wf.T @ r_wf_d)
    e_omega = omega - r_wf.T @ r_wf_d @ omega_d
    return AttitudeError(e_rot=e_rot, e_omega=e_omega)


def attitude_accel(err: AttitudeError, gains: Gains) -> np.ndarray:
    """Angular acceleration command from the attitude error."""
    return -gains.k_rot @ err.e_rot - gains.k_ang @ err.e_omega


def attitude_torque(
    err: AttitudeError,
    gains: Gains,
    inertia: np.ndarray,
    omega: np.ndarray,
) -> np.ndarray:
    """Body torque tracking the attitude error, with gyroscopic feed-forward."""
    return inertia @ attitude_accel(err, gains) + cross3(omega, inertia @ omega)


def desired_attitude_4dof(a_r: np.ndarray, yaw_d: float, eps_thrust: float = _EPS_THRUST) -> np.ndarray:
    """Thrust-frame target whose z-axis carries the desired acceleration.

    The x-axis is the yaw heading projected onto the plane normal to the
    thrust direction, as in the usual geometric quadrotor controller.
    """
    norm = np.linalg.norm(a_r)
    if norm <= eps_thrust:
        raise ControlDegeneracyError("desired acceleration too small to define a thrust direction")
    z_d = a_r / norm
    x_c = np.array([np.cos(yaw_d), np.sin(yaw_d), 0.0])
    cross = cross3(z_d, x_c)
    cross_norm = np.linalg.norm(cross)
    if cross_norm <= _EPS_CROSS:
        raise ControlDegeneracyError("thrust direction aligned with the yaw heading")
    y_d = cross / cross_norm
    x_d = cross3(y_d, z_d)
    return np.column_stack([x_d, y_d, z_d])


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
    norm = np.linalg.norm(a_r)
    if norm <= eps_thrust:
        raise ControlDegeneracyError("desired acceleration too small to define a thrust direction")
    z_c = a_r / norm
    x_d = rot_z(yaw_d) @ rot_y(pitch_d) @ E1
    cross = cross3(z_c, x_d)
    cross_norm = np.linalg.norm(cross)
    if cross_norm <= _EPS_CROSS:
        raise ControlDegeneracyError("thrust direction aligned with the commanded x-axis")
    y_d = cross / cross_norm
    z_d = cross3(x_d, y_d)
    return np.column_stack([x_d, y_d, z_d])




class Controller:
    """Closed-loop controller bound to one structure.

    The mode follows the structure's force-block rank. ``reduced_map`` holds
    the rows ``rows`` of the thrust-frame map [r_sf^T A_f; A_tau] that the
    mode commands, and ``pinv`` its pseudoinverse; both are fixed at
    construction, so an instance is cheap to call every step and safe to
    share read-only.
    """

    def __init__(self, structure: StructureModel, gains: Gains | None = None,
                 gravity: float = GRAVITY):
        self.structure = structure
        self.gains = gains if gains is not None else default_gains()
        self.gravity = gravity
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
        # Thrust-frame force components the mode commands.
        self._force_mask = np.isin(np.arange(3), self.rows).astype(float)

    def step(self, state: RigidState, sample: TrajectorySample) -> ControlOutput:
        structure = self.structure
        a_r = position_accel(state, sample, self.gains, self.gravity)
        if self.mode == "4dof":
            r_wf_d = desired_attitude_4dof(a_r, sample.yaw_d)
        elif self.mode == "5dof":
            r_wf_d = desired_attitude_5dof(a_r, sample.yaw_d, sample.pitch_d)
        else:
            r_wf_d = sample.r_wf_d
        err = attitude_error(state.r_ws, structure.r_sf, r_wf_d, state.omega, sample.omega_d)
        torque = attitude_torque(err, self.gains, structure.inertia, state.omega)
        force = structure.total_mass * ((state.r_ws @ structure.r_sf).T @ a_r) * self._force_mask
        if self.mode == "4dof":
            # Rotors are unidirectional; a transiently negative command is cut.
            force[2] = max(force[2], 0.0)

        u_raw = self.pinv @ np.concatenate([force, torque])[self.rows]
        u = np.clip(u_raw, 0.0, structure.f_max)
        return ControlOutput(
            u=u,
            u_raw=u_raw,
            desired_wrench=Wrench(force=structure.r_sf @ force, torque=torque),
            saturated=bool(np.any(np.abs(u - u_raw) > 1e-12)),
            desired_attitude=r_wf_d,
            mode=self.mode,
        )
