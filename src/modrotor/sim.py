"""Closed-loop trajectory-tracking simulation.

Runs the controller and the rigid-body integrator at the same fixed rate
with zero-order-hold thrusts, recording one row per step for reporting and
regression: time, actual and desired position, the thrust-frame attitude as
yaw/pitch/roll, the position error norm, all rotor thrusts and the
saturation flag.

The loop passes Python floats between private kernels: it reads each
trajectory sample's float tuples, hands the state's 18 floats to the
control law (``Controller._law``) and its thrusts to the integrator
(``dynamics._advance``), and computes each step's record from those floats,
written as one row of preallocated numpy storage. It builds no
``ControlOutput`` and no per-step ``RigidState``, only the final state, and
enters the ``np.errstate`` the integrator needs once, around all its steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .control import Controller, Gains
from .dynamics import RigidState, SimParams, _advance, _floats_of, _state_of
from .errors import ModrotorError, SimulationError
from .lazy import checked, shown
from .so3 import angle_between
from .structure import StructureModel
from .trajectory import TrajectorySample


def euler_zyx(r: np.ndarray) -> tuple[float, float, float]:
    """(yaw, pitch, roll) of a rotation matrix, z-y-x convention."""
    return _euler_zyx(r.ravel().tolist())


def _euler_zyx(r) -> tuple[float, float, float]:
    """``euler_zyx`` of a rotation given as a row-major 9-sequence of floats."""
    r00, _, _, r10, _, _, r20, r21, r22 = r
    pitch = -math.asin(-1.0 if r20 < -1.0 else (1.0 if r20 > 1.0 else r20))
    return math.atan2(r10, r00), pitch, math.atan2(r21, r22)


def initial_state_from_sample(structure: StructureModel, sample: TrajectorySample) -> RigidState:
    """State matching the trajectory start: thrust frame aligned with its target."""
    r_ws = sample.r_wf_d @ structure.r_sf.T
    # A rate that overflows in the body frame is RigidState's to reject.
    with np.errstate(over="ignore", invalid="ignore"):
        omega = structure.r_sf @ sample.omega_d
    return RigidState(r=sample.r_d, v=sample.v_d, r_ws=r_ws, omega=omega)


@dataclass(frozen=True, eq=False)
class RunResult:
    """Time series of one closed-loop run.

    euler_f rows hold (yaw, pitch, roll) of the thrust frame in the world;
    att_err is the angle between the thrust frame and its commanded target.
    A summary of a result with no samples raises a ValueError naming the
    empty field, and a position-error summary of a result whose ``t`` and
    ``pos_err`` differ in length one naming both.
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
        return float(np.sqrt(np.mean(self._pos_err_from(t_min) ** 2)))

    def max_pos_err(self, t_min: float = 0.0) -> float:
        return float(np.max(self._pos_err_from(t_min)))

    def _pos_err_from(self, t_min) -> np.ndarray:
        t_min, last = checked("t_min", t_min), float(self._samples("t")[-1])
        if t_min > last:
            raise ValueError(f"t_min must be at most the last sample time {last}, got {t_min}")
        t, err = np.shape(self.t), np.shape(self.pos_err)
        if err[:len(t)] != t:
            raise ValueError(f"t and pos_err must hold the same samples, got shapes {t} and {err}")
        return self.pos_err[self.t >= t_min]

    def saturation_fraction(self) -> float:
        return float(np.mean(self._samples("saturated")))

    def final_att_err(self) -> float:
        return float(self._samples("att_err")[-1])

    def _samples(self, name: str) -> np.ndarray:
        values = getattr(self, name)
        if np.size(values) == 0:
            raise ValueError(f"{name} must be a non-empty array, got {shown(values)}")
        return values


def run_closed_loop(
    structure: StructureModel,
    trajectory,
    gains: Gains | None = None,
    params: SimParams | None = None,
    state0: RigidState | None = None,
) -> RunResult:
    """Track ``trajectory`` (a callable of time) for the configured duration.

    A duration of more steps than numpy can store raises SimulationError
    before the first step.
    """
    params = params if params is not None else SimParams()
    controller = Controller(structure, gains, params.gravity)
    state = state0 if state0 is not None else initial_state_from_sample(structure, trajectory(0.0))

    n_u = 4 * structure.n
    try:
        steps = int(round(params.duration / params.dt))
        # One row per step: t, pos, pos_des, yaw/pitch/roll, pos_err, att_err, u.
        rows = np.empty((steps, 12 + n_u))
        sat = np.zeros(steps, dtype=bool)
    except (OverflowError, ValueError, MemoryError) as exc:
        raise SimulationError(
            f"cannot store {params.duration / params.dt:.3g} steps of dt={params.dt} s: {exc}"
        ) from None
    r_sf = structure.r_sf
    dt, gravity = params.dt, params.gravity
    law, y = controller._law, _floats_of(state)

    # Entered once for the run, not once per step: see the module docstring.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            t = k * dt
            sample = trajectory(t)
            try:
                u, _, sat[k], _, _, r_wf_d = law(y, sample)
                r, r_d = y[0:3], sample.r_d
                # numpy's product, not so3.matmul3: its BLAS kernel rounds
                # near-cancelling entries differently, and the CSV records them.
                r_wf = np.array(y[6:15]).reshape(3, 3).dot(r_sf).ravel().tolist()
                # A list, not a tuple: a two-module row has 20 entries, and
                # CPython 3.11 parks spent 20-item tuples on a free list it never
                # draws from (0.4 MB more peak memory).
                rows[k] = [t, *r, *r_d, *_euler_zyx(r_wf), math.dist(r_d, r),
                           angle_between(r_wf, r_wf_d), *u]
                y = _advance(structure, y, u, dt, gravity)
            except ModrotorError as exc:
                raise SimulationError(f"run aborted at t={t:.6f} s (step {k}): {exc}") from exc

    return RunResult(
        t=rows[:, 0], pos=rows[:, 1:4], pos_des=rows[:, 4:7], euler_f=rows[:, 7:10],
        pos_err=rows[:, 10], att_err=rows[:, 11], u=rows[:, 12:], saturated=sat,
        final_state=_state_of(y),
    )
