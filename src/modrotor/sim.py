"""Closed-loop trajectory-tracking simulation.

Runs the controller and the rigid-body integrator at the same fixed rate
with zero-order-hold thrusts, recording one row per step for reporting and
regression: time, actual and desired position, the thrust-frame attitude as
yaw/pitch/roll, the position error norm, all rotor thrusts and the
saturation flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .control import Controller, Gains
from .dynamics import RigidState, SimParams, step
from .errors import ModrotorError, SimulationError
from .so3 import rotation_angle
from .structure import StructureModel
from .trajectory import TrajectorySample


def euler_zyx(r: np.ndarray) -> tuple[float, float, float]:
    """(yaw, pitch, roll) of a rotation matrix, z-y-x convention."""
    (r00, _, _), (r10, _, _), (r20, r21, r22) = r.tolist()
    pitch = -math.asin(min(max(r20, -1.0), 1.0))
    return math.atan2(r10, r00), pitch, math.atan2(r21, r22)


def initial_state_from_sample(structure: StructureModel, sample: TrajectorySample) -> RigidState:
    """State matching the trajectory start: thrust frame aligned with its target."""
    r_ws = sample.r_wf_d @ structure.r_sf.T
    omega = structure.r_sf @ sample.omega_d
    return RigidState(r=sample.r_d, v=sample.v_d, r_ws=r_ws, omega=omega)


@dataclass(frozen=True, eq=False)
class RunResult:
    """Time series of one closed-loop run.

    euler_f rows hold (yaw, pitch, roll) of the thrust frame in the world;
    att_err is the angle between the thrust frame and its commanded target.
    """

    t: np.ndarray
    pos: np.ndarray
    pos_des: np.ndarray
    euler_f: np.ndarray
    pos_err: np.ndarray
    att_err: np.ndarray
    u: np.ndarray
    saturated: np.ndarray
    final_state: RigidState

    def rms_pos_err(self, t_min: float = 0.0) -> float:
        mask = self.t >= t_min
        return float(np.sqrt(np.mean(self.pos_err[mask] ** 2)))

    def max_pos_err(self, t_min: float = 0.0) -> float:
        return float(np.max(self.pos_err[self.t >= t_min]))

    def saturation_fraction(self) -> float:
        return float(np.mean(self.saturated))

    def final_att_err(self) -> float:
        return float(self.att_err[-1])


def run_closed_loop(
    structure: StructureModel,
    trajectory,
    gains: Gains | None = None,
    params: SimParams | None = None,
    state0: RigidState | None = None,
) -> RunResult:
    """Track ``trajectory`` (a callable of time) for the configured duration."""
    params = params if params is not None else SimParams()
    controller = Controller(structure, gains, params.gravity)
    state = state0 if state0 is not None else initial_state_from_sample(structure, trajectory(0.0))

    steps = int(round(params.duration / params.dt))
    n_u = 4 * structure.n
    t_arr = np.empty(steps)
    pos = np.empty((steps, 3))
    pos_des = np.empty((steps, 3))
    euler = np.empty((steps, 3))
    pos_err = np.empty(steps)
    att_err = np.empty(steps)
    u_arr = np.empty((steps, n_u))
    sat = np.zeros(steps, dtype=bool)

    for k in range(steps):
        t = k * params.dt
        sample = trajectory(t)
        try:
            out = controller.step(state, sample)
            r_wf = state.r_ws @ structure.r_sf
            t_arr[k] = t
            pos[k] = state.r
            pos_des[k] = sample.r_d
            euler[k] = euler_zyx(r_wf)
            pos_err[k] = math.dist(sample.r_d.tolist(), state.r.tolist())
            att_err[k] = rotation_angle(r_wf, out.desired_attitude)
            u_arr[k] = out.u
            sat[k] = out.saturated
            state = step(structure, state, out.u, params.dt, params.gravity)
        except ModrotorError as exc:
            raise SimulationError(f"run aborted at t={t:.6f} s (step {k}): {exc}") from exc

    return RunResult(
        t=t_arr, pos=pos, pos_des=pos_des, euler_f=euler, pos_err=pos_err,
        att_err=att_err, u=u_arr, saturated=sat, final_state=state,
    )
