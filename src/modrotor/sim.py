"""Closed-loop trajectory-tracking simulation.

Runs the controller and the rigid-body integrator at the same fixed rate
with zero-order-hold thrusts, recording one row per step for reporting and
regression: time, actual and desired position, the thrust-frame attitude as
yaw/pitch/roll, the position error norm, all rotor thrusts and the
saturation flag.

The loop passes Python floats between private kernels: it reads each
trajectory sample's float tuples, hands the state's 18 floats to the
control law (``Controller._law``) and its thrusts to the integrator
(``dynamics._advance``), and writes each step's record, with the
thrust-frame attitude and attitude error the law computed, as one row of
preallocated numpy storage; the loop takes no attitude product of its own.
It builds no ``ControlOutput`` and no per-step ``RigidState``, only the
final state, and enters the ``np.errstate`` the integrator needs once,
around all its steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .control import Controller, Gains
from .dynamics import RigidState, SimParams, _advance, _floats_of, _state_of
from .errors import ModrotorError, SimulationError
from .lazy import checked, of_type, shown
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
    The eight columns hold one row per step, at least one: pos, pos_des and
    euler_f 3 floats a row, u 4k thrusts (k >= 1), the rest one value, and
    saturated only 0/1 flags. A caller's result that breaks this raises a
    ValueError naming the row counts, the column or the flag when it is built;
    otherwise each column is converted once, to bools or floats (float64 kept).
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

    def __post_init__(self):
        names = [f.name for f in fields(self)][:-1]  # all but final_state
        columns = []
        for name in names:
            try:
                columns.append(np.asarray(getattr(self, name)))
            except ValueError:  # numpy's "inhomogeneous shape"
                raise ValueError(f"{name} must hold rows of equal length") from None
        rows = [(c.shape or (0,))[0] for c in columns]
        if len(set(rows)) > 1 or rows[0] == 0:
            raise ValueError("result columns must each hold one row per step, got lengths "
                             + ", ".join(map("{}={}".format, names, rows)))
        for name, column in zip(names, columns):
            shape = column.shape
            if name == "u":
                want, bad = "(rows, 4k), k >= 1", len(shape) != 2 or not shape[1] or shape[1] % 4
            elif name in ("pos", "pos_des", "euler_f"):
                want, bad = "(rows, 3)", shape[1:] != (3,)
            else:
                want, bad = "(rows,)", len(shape) != 1
            if bad:
                raise ValueError(f"{name} must have shape {want}, got {shape}")
            if name != "saturated":
                if column.dtype.kind not in "biuf":
                    raise ValueError(f"{name} must hold numbers, got dtype {column.dtype}")
                object.__setattr__(self, name, np.asarray(column, float))  # no copy of float64
        flags = columns[-1] if columns[-1].dtype.kind in "biuf" else np.array(self.saturated, object)
        if (bad := (flags != 0) & (flags != 1)).any():
            k = int(bad.argmax())
            raise ValueError(f"saturated must hold only 0/1 flags, got "
                             f"{shown(flags.ravel()[k:k + 1].tolist()[0])} at entry {k}")
        object.__setattr__(self, "saturated", flags.astype(bool, copy=False))

    def rms_pos_err(self, t_min: float = 0.0) -> float:
        return float(np.sqrt(np.mean(self._pos_err_from(t_min) ** 2)))

    def max_pos_err(self, t_min: float = 0.0) -> float:
        return float(np.max(self._pos_err_from(t_min)))

    def _pos_err_from(self, t_min) -> np.ndarray:
        t_min, last = checked("t_min", t_min), float(self.t[-1])
        if t_min > last:
            raise ValueError(f"t_min must be at most the last sample time {last}, got {t_min}")
        return self.pos_err[self.t >= t_min]

    def saturation_fraction(self) -> float:
        return float(np.mean(self.saturated))

    def final_att_err(self) -> float:
        return float(self.att_err[-1])


def _sample_at(trajectory, t: float) -> TrajectorySample:
    if not isinstance(sample := trajectory(t), TrajectorySample):
        raise ValueError(f"trajectory must return a TrajectorySample, got {shown(sample)} "
                         f"at t={t:.6f} s")
    return sample


def run_closed_loop(
    structure: StructureModel,
    trajectory,
    gains: Gains | None = None,
    params: SimParams | None = None,
    state0: RigidState | None = None,
) -> RunResult:
    """Track ``trajectory`` (a callable of time) for the configured duration.

    An argument not of its type raises ValueError before the first sample; a
    duration of more steps than numpy can store raises SimulationError before
    the first step; a sample that is not a TrajectorySample raises ValueError
    naming its time.
    """
    params = params if params is not None else SimParams()
    of_type("params", params, SimParams)
    controller = Controller(structure, gains, params.gravity)
    state = of_type("state0", state0, RigidState) if state0 is not None else (
        initial_state_from_sample(structure, _sample_at(trajectory, 0.0)))

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
    dt, gravity = params.dt, params.gravity
    law, y = controller._law, _floats_of(state)

    # Entered once for the run, not once per step: see the module docstring.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            t = k * dt
            sample = _sample_at(trajectory, t)
            try:
                u, _, sat[k], _, _, _, r_wf, att_err = law(y, sample)
                r, r_d = y[0:3], sample.r_d
                # A list, not a tuple: a two-module row has 20 entries, and
                # CPython 3.11 parks spent 20-item tuples on a free list it never
                # draws from (0.4 MB more peak memory).
                rows[k] = [t, *r, *r_d, *_euler_zyx(r_wf), math.dist(r_d, r), att_err, *u]
                y = _advance(structure, y, u, dt, gravity)
            except ModrotorError as exc:
                raise SimulationError(f"run aborted at t={t:.6f} s (step {k}): {exc}") from exc

    return RunResult(
        t=rows[:, 0], pos=rows[:, 1:4], pos_des=rows[:, 4:7], euler_f=rows[:, 7:10],
        pos_err=rows[:, 10], att_err=rows[:, 11], u=rows[:, 12:], saturated=sat,
        final_state=_state_of(y),
    )
