"""Rank-matched geometric controllers sharing one minimum-norm allocation.

Position tracking uses a PD law with gravity and acceleration feed-forward.
Attitude errors are measured on the thrust frame rather than the body frame,
so the controller always spends thrust along the structure's strongest force
direction. The controllers for 4, 5 and 6 controllable DOF differ in only
two ways: how much of the sample's one attitude target R_d they honour, and
which rows of the thrust-frame wrench (force along the thrust frame's x, y,
z axes, then body torque) the rotors must realize:

* one force direction (4 DOF): z force plus full torque, like a
  conventional quadrotor but tilted; the desired x-axis follows the heading
  of R_d e1, its horizontal part;
* two directions (5 DOF): z and x force plus full torque; the desired
  x-axis is R_d e1 itself, which in the z-y-x convention carries yaw and
  pitch, so the pitch is commanded independently;
* three directions (6 DOF): the full wrench, position and attitude
  decoupled; the desired attitude is R_d.

:meth:`Controller._law`, the control law's one kernel, reads a state's 18
floats, the sample's float tuples and the gains' diagonal floats and runs the
law on Python floats, which avoids numpy's per-call cost on 3-vectors and 3x3
matrices, up to the commanded wrench that :meth:`Controller._allocate` turns
into thrusts; :meth:`Controller.step` builds the whole ``ControlOutput`` from
the returned floats. Float arithmetic overflows to inf and NaN without
warnings, so the kernel checks the commanded acceleration and wrench for
finiteness, raising ControlDegeneracyError; the sample's attitude is a finite
rotation already. So the output's ``Wrench`` skips re-validation, by the rule
in :mod:`modrotor.lazy`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter, sub

import numpy as np

from .dynamics import GRAVITY, RigidState, _floats_of
from .errors import AllocationError, ControlDegeneracyError
from .lazy import checked, finite_array, of_type, read_only, shown, unchecked
from .module_design import Wrench
from .so3 import _angle_of_trace, cross3, matmul3
from .structure import StructureModel, _rank_of
from .trajectory import TrajectorySample

# Commanded accelerations below this cannot define a thrust direction.
_EPS_THRUST = 1e-6
# Thrust directions closer than this to the heading cannot define a frame.
_EPS_CROSS = 1e-6


@dataclass(frozen=True, eq=False)
class Gains:
    """Diagonal PD gains: k_pos/k_vel on position, k_rot/k_ang on attitude.

    Each takes a number, three diagonal entries or a diagonal 3x3 matrix,
    finite with a positive diagonal; every form is checked by
    :func:`~modrotor.lazy.finite_array` and kept as the tuple of its three
    diagonal floats, the floats the control law reads.
    The defaults are tuned so every supported structure converges well
    inside the underactuated position-through-attitude cascade.
    """

    k_pos: tuple[float, float, float] = 12.0
    k_vel: tuple[float, float, float] = 6.0
    k_rot: tuple[float, float, float] = 200.0
    k_ang: tuple[float, float, float] = 20.0

    def __post_init__(self):
        for name in ("k_pos", "k_vel", "k_rot", "k_ang"):
            gain = finite_array(name, getattr(self, name), None)
            entries = gain.ravel().tolist()
            if gain.shape == ():
                entries *= 3
            elif gain.shape == (3, 3) and not any(entries[1:4] + entries[5:8]):
                entries = entries[::4]
            if gain.shape not in ((), (3,), (3, 3)) or len(entries) != 3 or min(entries) <= 0.0:
                raise ValueError(f"{name} must be a positive number, three positive entries or "
                                 "a diagonal 3x3 matrix with a positive diagonal, "
                                 f"got {shown(getattr(self, name))}")
            object.__setattr__(self, name, tuple(entries))


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

    An output of :meth:`Controller.step` holds every field, its arrays
    read-only.
    """

    u: np.ndarray
    u_raw: np.ndarray
    desired_wrench: Wrench
    saturated: bool
    desired_attitude: np.ndarray
    mode: str


def _unit(v, eps: float = _EPS_THRUST,
          message: str = "desired acceleration too small to define a thrust direction"):
    """Unit vector along v; raises ControlDegeneracyError(message) when
    |v| <= eps. The defaults are the thrust direction's."""
    x, y, z = v
    norm = math.sqrt(x * x + y * y + z * z)
    if norm <= eps:
        raise ControlDegeneracyError(message)
    return (x / norm, y / norm, z / norm)


def _columns(x, y, z) -> tuple[float, ...]:
    """Row-major entries of the matrix with columns x, y, z."""
    return (x[0], y[0], z[0], x[1], y[1], z[1], x[2], y[2], z[2])


# Each mode's desired attitude from the commanded acceleration a and the
# sample's row-major attitude target, whose entries 0, 3, 6 are its x-axis.
def _attitude_4dof(a, target):
    """The z-axis carries a; the x-axis is the target's heading, the
    horizontal part of its x-axis, projected onto the plane normal to a."""
    z = _unit(a)
    y = _unit(cross3(z, (target[0], target[3], 0.0)), _EPS_CROSS,
              "thrust direction aligned with the heading")
    return _columns(cross3(y, z), y, z)


def _attitude_5dof(a, target):
    """The x-axis is the target's, so its yaw and pitch hold exactly; the
    thrust direction is projected into the remaining free plane."""
    z_c = _unit(a)
    x = (target[0], target[3], target[6])
    y = _unit(cross3(z_c, x), _EPS_CROSS, "thrust direction aligned with the commanded x-axis")
    return _columns(x, y, cross3(x, y))


def _attitude_6dof(a, target):
    """The target as is."""
    return target


# Per force-block rank: the mode, the thrust-frame wrench rows it commands
# (0-2 force along the thrust frame's x, y, z axes, 3-5 body torque) and its
# desired attitude.
_MODE_ROWS = {
    1: ("4dof", (2, 3, 4, 5), _attitude_4dof),
    2: ("5dof", (2, 0, 3, 4, 5), _attitude_5dof),
    3: ("6dof", (0, 1, 2, 3, 4, 5), _attitude_6dof),
}


class Controller:
    """Closed-loop controller bound to one structure.

    The mode follows the structure's force-block rank and fixes the
    desired attitude's construction. ``reduced_map`` holds the rows ``rows``
    of the thrust-frame map [r_sf^T A_f; A_tau] that the mode commands, and
    ``pinv`` its pseudoinverse, all three read-only, with the floats the
    step reads (r_sf, inertia, mass), so an instance is cheap to call every
    step and safe to share. ``pinv`` is formed on first read from the rank
    test's SVD by numpy's formula, which drops no value that test keeps.
    """

    def __init__(self, structure: StructureModel, gains: Gains | None = None,
                 gravity: float = GRAVITY):
        self.structure = of_type("structure", structure, StructureModel)
        self.gains = of_type("gains", gains, Gains) if gains is not None else Gains()
        self.gravity = checked("gravity", gravity)
        if structure.rank_f not in _MODE_ROWS:
            raise AllocationError(f"unsupported force-block rank {structure.rank_f}")
        self.mode, rows, self._desired_attitude = _MODE_ROWS[structure.rank_f]
        self.rows = np.array(rows)
        self.rows.setflags(write=False)
        self.reduced_map = read_only(np.concatenate((structure.r_sf.T @ structure.force_map,
                                                     structure.torque_map)).take(rows, 0))
        self._svd = np.linalg.svd(self.reduced_map, full_matrices=False)
        if _rank_of(self._svd[1]) < len(rows):
            raise AllocationError(
                f"{self.mode} control needs the {len(rows)} commanded wrench rows "
                "to be independent; the reduced thrust map is rank-deficient"
            )
        self._select_rows = itemgetter(*rows)
        # The floats each step reads; the force mask is 1.0 on the
        # thrust-frame force components the mode commands.
        self._force_mask = tuple(float(i in rows) for i in range(3))
        self._r_sf = tuple(structure.r_sf.ravel().tolist())
        self._mass = float(structure.total_mass)
        self._inertia = tuple(structure.inertia.ravel().tolist())
        self._f_max = tuple(structure.f_max.tolist())

    @cached_property
    def pinv(self) -> np.ndarray:
        u, s, vt = self._svd  # np.linalg.pinv(reduced_map), bit for bit
        return read_only(np.matmul(vt.T, np.multiply((1 / s)[:, None], u.T)))

    def step(self, state: RigidState, sample: TrajectorySample) -> ControlOutput:
        with np.errstate(over="ignore", invalid="ignore"):
            u, u_raw, saturated, force, torque, r_wf_d, _, _ = self._law(
                _floats_of(state), sample)
        u_raw.setflags(write=False)
        return ControlOutput(
            u=read_only(u), u_raw=u_raw, saturated=saturated, mode=self.mode,
            desired_wrench=unchecked(Wrench, force=read_only(force), torque=read_only(torque)),
            desired_attitude=read_only(r_wf_d, (3, 3)),
        )

    def _law(self, y, sample: TrajectorySample):
        """The control law on a state's 18 floats ``y`` (see
        :func:`~modrotor.dynamics._floats_of`): the clamped thrusts as a list,
        the minimum-norm thrusts as an array, the saturation flag, the
        commanded force, torque and row-major attitude as float tuples, and
        the row-major thrust-frame attitude R_wf and its angle to that one."""
        rx, ry, rz, vx, vy, vz, *r_ws, wx, wy, wz = y
        r_d, v_d, a_d = sample.r_d, sample.v_d, sample.a_d
        # PD on position and velocity error plus gravity and acceleration feed-forward.
        k_pos, k_vel = self.gains.k_pos, self.gains.k_vel
        ax = k_pos[0] * (r_d[0] - rx) + k_vel[0] * (v_d[0] - vx) + a_d[0]
        ay = k_pos[1] * (r_d[1] - ry) + k_vel[1] * (v_d[1] - vy) + a_d[1]
        az = k_pos[2] * (r_d[2] - rz) + k_vel[2] * (v_d[2] - vz) + self.gravity + a_d[2]
        if not math.isfinite(ax * ax + ay * ay + az * az):
            raise ControlDegeneracyError(
                "commanded acceleration has no finite magnitude: "
                f"a = ({ax:.3e}, {ay:.3e}, {az:.3e}) m/s^2"
            )
        r_wf_d = self._desired_attitude((ax, ay, az), sample._attitude)
        r_wf = matmul3(r_ws, self._r_sf)

        # With M = R_d^T R_wf, the attitude error is half the vee of M - M^T
        # and the rate error omega - M^T omega_d; PD on both gives the
        # angular acceleration, and the torque is I alpha + omega x I omega.
        m0, m1, m2, m3, m4, m5, m6, m7, m8 = matmul3(
            r_wf_d[0::3] + r_wf_d[1::3] + r_wf_d[2::3], r_wf)
        ox, oy, oz = sample.omega_d
        k_rot, k_ang = self.gains.k_rot, self.gains.k_ang
        alx = -k_rot[0] * (0.5 * (m7 - m5)) - k_ang[0] * (wx - (m0 * ox + m3 * oy + m6 * oz))
        aly = -k_rot[1] * (0.5 * (m2 - m6)) - k_ang[1] * (wy - (m1 * ox + m4 * oy + m7 * oz))
        alz = -k_rot[2] * (0.5 * (m3 - m1)) - k_ang[2] * (wz - (m2 * ox + m5 * oy + m8 * oz))
        i0, i1, i2, i3, i4, i5, i6, i7, i8 = self._inertia
        hx = i0 * wx + i1 * wy + i2 * wz
        hy = i3 * wx + i4 * wy + i5 * wz
        hz = i6 * wx + i7 * wy + i8 * wz
        torque = (
            i0 * alx + i1 * aly + i2 * alz + (wy * hz - wz * hy),
            i3 * alx + i4 * aly + i5 * alz + (wz * hx - wx * hz),
            i6 * alx + i7 * aly + i8 * alz + (wx * hy - wy * hx),
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

        u, u_raw, saturated = self._allocate((fx, fy, fz, *torque))
        # M's trace sums trace(R_d^T R_wf) as so3.rotation_angle does, bit for bit.
        return u, u_raw, saturated, force, torque, r_wf_d, r_wf, _angle_of_trace(m0 + m4 + m8)

    def _allocate(self, wrench):
        """The one thrust allocation of every mode: the clamped thrusts as a
        list, the minimum-norm thrusts as an array and the saturation flag
        for the thrust-frame ``wrench`` (fx, fy, fz, tx, ty, tz).

        ``pinv`` times the mode's rows of the wrench gives the exact
        minimum-norm thrusts, numpy's one product of the step, run inside
        the ``np.errstate`` of :meth:`step` or the closed loop. The clamp to
        [0, f_max] and the saturation test (a thrust moved by more than
        1e-12 N) run on its floats; a thrust that is not finite differs
        from its clamp and raises ControlDegeneracyError."""
        u_raw = self.pinv.dot(self._select_rows(wrench))
        raw = u_raw.tolist()
        # np.clip(u_raw, 0, f_max) entry by entry, -0.0 included; NaN becomes
        # 0.0, so every entry that is not finite differs from its clamp.
        u = [0.0 if not x > 0.0 else (high if x > high else x) for x, high in zip(raw, self._f_max)]
        saturated = False
        if u != raw:
            if not all(map(math.isfinite, raw)):
                raise ControlDegeneracyError(
                    "minimum-norm thrusts are not finite: u_raw = ({}) N".format(
                        ", ".join(f"{x:.3e}" for x in raw)))
            saturated = max(map(abs, map(sub, u, raw))) > 1e-12
        return u, u_raw, saturated
