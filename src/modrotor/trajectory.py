"""Parametric reference trajectories with analytic derivatives.

Each trajectory maps time to a sample carrying position, velocity and
acceleration plus one attitude target, the desired thrust-frame attitude
``r_wf_d``, so that any controller mode can consume it: single-axis
structures track position and the heading of its x-axis, planar ones
track that whole x-axis (yaw and pitch), and fully actuated ones track the
attitude itself. ``omega_d`` is expressed in the desired thrust frame.

The trajectories compute with ``math`` on Python floats, and a sample
carries its vectors as float 3-tuples, which is what the controller reads.
The attitude is kept as floats too; the ``r_wf_d`` array is built only when
something reads it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cache
from typing import Callable

import numpy as np

from .lazy import lazy_fields, read_only
from .so3 import is_rotation, rot_y_flat, rot_z_flat

# Helix geometry: circle in the xy-plane with vertical oscillation, one
# shared period so the path closes on itself.
HELIX_CENTER = (-0.5, 0.0)
HELIX_RADIUS = 0.45
HELIX_Z_LOW = 0.45
HELIX_Z_HIGH = 0.95
HELIX_PERIOD = 14.0

# Rectangle geometry: 0.8 m along x, 0.6 m along y, centered on the origin.
RECT_LENGTH = 0.8
RECT_WIDTH = 0.6
RECT_ALTITUDE = 0.7
RECT_SPEED = 0.25
RECT_BLEND = 0.5  # s spent rounding each corner


_ZERO3 = (0.0, 0.0, 0.0)


def _vec3(name: str, value) -> tuple[float, float, float]:
    arr = np.asarray(value, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"{name} must have 3 entries, got shape {arr.shape}")
    x, y, z = arr.tolist()
    return (x, y, z)


@lazy_fields(r_wf_d=lambda sample: read_only(sample._attitude, (3, 3)))
@dataclass(frozen=True, eq=False)
class TrajectorySample:
    """Reference state at time t.

    r_d, v_d, a_d: desired position and its first two derivatives, float
        3-tuples
    r_wf_d: desired world attitude of the thrust frame, a 3x3 rotation;
        the identity by default
    omega_d: desired angular velocity in the desired frame, rad/s, a float
        3-tuple; None means zero

    The constructor turns the vectors into float tuples and rejects a
    non-finite ``t`` and an ``r_wf_d`` that is not a finite rotation. A
    sample keeps its attitude as row-major floats, which the controller
    reads, and ``r_wf_d`` is a read-only copy of them: the caller's array,
    copied, or one built on first read.
    """

    t: float
    r_d: tuple
    v_d: tuple
    a_d: tuple
    r_wf_d: np.ndarray = field(default_factory=lambda: np.eye(3))
    omega_d: tuple | None = None

    def __post_init__(self):
        for name in ("r_d", "v_d", "a_d"):
            object.__setattr__(self, name, _vec3(name, getattr(self, name)))
        omega_d = _ZERO3 if self.omega_d is None else _vec3("omega_d", self.omega_d)
        object.__setattr__(self, "omega_d", omega_d)
        if not math.isfinite(self.t):
            raise ValueError(f"t must be finite, got {self.t!r}")
        if not is_rotation(self.r_wf_d):
            shown = self.r_wf_d.tolist() if isinstance(self.r_wf_d, np.ndarray) else self.r_wf_d
            raise ValueError(f"r_wf_d must be a finite 3x3 rotation matrix, got {shown}")
        r_wf_d = read_only(self.r_wf_d)
        object.__setattr__(self, "r_wf_d", r_wf_d)
        self.__dict__["_attitude"] = tuple(r_wf_d.ravel().tolist())

    @classmethod
    def _from_floats(cls, t, r_d, v_d, a_d, attitude, omega_d=_ZERO3) -> TrajectorySample:
        """A sample from float 3-tuples and the row-major attitude, which
        the trajectory has already checked; skips ``__post_init__``."""
        sample = object.__new__(cls)
        sample.__dict__.update(t=t, r_d=r_d, v_d=v_d, a_d=a_d, omega_d=omega_d,
                               _attitude=attitude)
        return sample


def _check_time(t: float) -> None:
    if not 0.0 <= t < math.inf:
        raise ValueError(f"trajectory time must be finite and non-negative, got {t}")


def hover(r0, yaw0: float = 0.0) -> Callable[[float], TrajectorySample]:
    """Constant reference at ``r0`` with the attitude rot_z(yaw0)."""
    r_d = _vec3("r0", r0)
    if not math.isfinite(yaw0):
        raise ValueError(f"yaw0 must be finite, got {yaw0!r}")
    attitude = rot_z_flat(yaw0)

    def sample(t: float) -> TrajectorySample:
        _check_time(t)
        return TrajectorySample._from_floats(t, r_d, _ZERO3, _ZERO3, attitude)

    return sample


_HELIX_OMEGA = 2.0 * math.pi / HELIX_PERIOD
_HELIX_Z_MID = 0.5 * (HELIX_Z_LOW + HELIX_Z_HIGH)
_HELIX_Z_AMP = 0.5 * (HELIX_Z_HIGH - HELIX_Z_LOW)


def helix(t: float) -> TrajectorySample:
    """Climbing-and-descending circle with continuously rotating heading."""
    _check_time(t)
    omega = _HELIX_OMEGA
    yaw = omega * t
    c, s = math.cos(yaw), math.sin(yaw)
    r_d = (
        HELIX_CENTER[0] + HELIX_RADIUS * c,
        HELIX_CENTER[1] + HELIX_RADIUS * s,
        _HELIX_Z_MID - _HELIX_Z_AMP * c,
    )
    v_d = (
        -HELIX_RADIUS * omega * s,
        HELIX_RADIUS * omega * c,
        _HELIX_Z_AMP * omega * s,
    )
    a_d = (
        -HELIX_RADIUS * omega**2 * c,
        -HELIX_RADIUS * omega**2 * s,
        _HELIX_Z_AMP * omega**2 * c,
    )
    return TrajectorySample._from_floats(
        t, r_d, v_d, a_d, (c, -s, 0.0, s, c, 0.0, 0.0, 0.0, 1.0), (0.0, 0.0, omega)
    )


# Quintic smoothstep and its integral/derivative; zero velocity-profile
# slope and curvature at both ends keep the blended path twice
# differentiable.
def _smoothstep(x: float) -> float:
    return x**3 * (10.0 + x * (-15.0 + 6.0 * x))


def _smoothstep_int(x: float) -> float:
    return x**4 * (2.5 + x * (-3.0 + x))


def _smoothstep_deriv(x: float) -> float:
    return 30.0 * x**2 * (1.0 - x) ** 2


@dataclass(frozen=True)
class _Phase:
    """One straight run or corner blend; vectors are float 3-tuples."""

    start: float
    duration: float
    p0: tuple
    v_in: tuple
    dv: tuple | None  # v_out - v_in on a corner blend, None on a straight


def _axpy(a: float, x, y) -> tuple[float, float, float]:
    """y + a x, entry by entry."""
    return (y[0] + a * x[0], y[1] + a * x[1], y[2] + a * x[2])


@cache
def _rect_schedule(speed: float, altitude: float) -> tuple:
    """Phase table for one counterclockwise lap, starting mid bottom edge:
    the phases, their start times and the lap time."""
    if speed <= 0.0:
        raise ValueError("speed must be positive")
    shrink = speed * RECT_BLEND  # straight length consumed by each corner
    if RECT_WIDTH - shrink <= 0.0:
        raise ValueError(
            f"speed {speed!r} too high for the corner blend time; "
            f"it must be below {RECT_WIDTH / RECT_BLEND:g}"
        )
    half_l, half_w = RECT_LENGTH / 2.0, RECT_WIDTH / 2.0
    dirs = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (-1.0, 0.0, 0.0), (0.0, -1.0, 0.0)]
    velocities = [(speed * x, speed * y, speed * z) for x, y, z in dirs]
    lengths = [RECT_LENGTH, RECT_WIDTH, RECT_LENGTH, RECT_WIDTH]
    phases = []
    t = 0.0
    # First straight starts half-way along the bottom edge.
    p = (0.0, -half_w, altitude)
    first_run = half_l - shrink / 2.0
    rest = [first_run] + [lengths[i] - shrink for i in (1, 2, 3)] + [first_run]
    for leg in range(4):
        run = rest[leg]
        v, v_next = velocities[leg], velocities[(leg + 1) % 4]
        phases.append(_Phase(t, run / speed, p, v, None))
        p = _axpy(run, dirs[leg], p)
        t += run / speed
        phases.append(_Phase(t, RECT_BLEND, p, v, tuple(b - a for a, b in zip(v, v_next))))
        p = _axpy(0.5 * RECT_BLEND, tuple(a + b for a, b in zip(v, v_next)), p)
        t += RECT_BLEND
    phases.append(_Phase(t, rest[4] / speed, p, velocities[0], None))
    t += rest[4] / speed
    return tuple(phases), tuple(ph.start for ph in phases), t


def _rect_point(t: float, speed: float, altitude: float):
    phases, starts, period = _rect_schedule(speed, altitude)
    tau = t % period
    ph = phases[bisect_right(starts, tau) - 1]
    dt = tau - ph.start
    if ph.dv is None:
        return _axpy(dt, ph.v_in, ph.p0), ph.v_in, _ZERO3
    x = dt / ph.duration
    duration, (dx, dy, dz) = ph.duration, ph.dv
    r_lin = _axpy(dt, ph.v_in, ph.p0)
    s_int, s, s_deriv = _smoothstep_int(x), _smoothstep(x), _smoothstep_deriv(x)
    r = (r_lin[0] + dx * duration * s_int, r_lin[1] + dy * duration * s_int,
         r_lin[2] + dz * duration * s_int)
    v = _axpy(s, ph.dv, ph.v_in)
    a = (dx * s_deriv / duration, dy * s_deriv / duration, dz * s_deriv / duration)
    return r, v, a


def rectangle(
    t: float,
    pitch_hold: float = 0.0,
    speed: float = RECT_SPEED,
    altitude: float = RECT_ALTITUDE,
) -> TrajectorySample:
    """Counterclockwise rectangular circuit holding the attitude
    rot_y(pitch_hold); the default is level.

    Corners are rounded with quintic velocity blends so the acceleration
    stays bounded; the extreme x and y coordinates still touch the exact
    rectangle bounds.
    """
    _check_time(t)
    if not math.isfinite(pitch_hold):
        raise ValueError(f"pitch_hold must be finite, got {pitch_hold!r}")
    r_d, v_d, a_d = _rect_point(t, speed, altitude)
    return TrajectorySample._from_floats(t, r_d, v_d, a_d, rot_y_flat(pitch_hold))


def rectangle_period(speed: float = RECT_SPEED) -> float:
    """Lap time of the rectangular circuit, s."""
    return _rect_schedule(speed, RECT_ALTITUDE)[2]
