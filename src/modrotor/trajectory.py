"""Parametric reference trajectories with analytic derivatives.

Each trajectory maps time to a sample carrying position, velocity and
acceleration plus the desired yaw, pitch and full attitude so that any
controller mode can consume it: single-axis structures track position and
yaw, planar ones additionally hold the pitch angle, fully actuated ones
track the attitude matrix directly. ``omega_d`` is expressed in the desired
thrust frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from .so3 import rot_y, rot_z

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


@dataclass(frozen=True, eq=False)
class TrajectorySample:
    """Reference state at time t.

    r_d, v_d, a_d: desired position and its first two derivatives
    yaw_d, pitch_d: commanded heading and pitch, rad
    r_wf_d: full desired attitude of the thrust frame
    omega_d: desired angular velocity in the desired frame, rad/s
    """

    t: float
    r_d: np.ndarray
    v_d: np.ndarray
    a_d: np.ndarray
    yaw_d: float = 0.0
    pitch_d: float = 0.0
    r_wf_d: np.ndarray = None
    omega_d: np.ndarray = None

    def __post_init__(self):
        object.__setattr__(self, "r_d", np.asarray(self.r_d, dtype=float))
        object.__setattr__(self, "v_d", np.asarray(self.v_d, dtype=float))
        object.__setattr__(self, "a_d", np.asarray(self.a_d, dtype=float))
        if self.r_wf_d is None:
            for name in ("yaw_d", "pitch_d"):
                if not math.isfinite(getattr(self, name)):
                    raise ValueError(
                        f"{name} must be finite to build r_wf_d, got {getattr(self, name)!r}"
                    )
            object.__setattr__(self, "r_wf_d", rot_z(self.yaw_d) @ rot_y(self.pitch_d))
        if self.omega_d is None:
            object.__setattr__(self, "omega_d", np.zeros(3))


def _check_time(t: float) -> float:
    if t < 0.0:
        raise ValueError(f"trajectory time must be non-negative, got {t}")
    return float(t)


def hover(r0, yaw0: float = 0.0) -> Callable[[float], TrajectorySample]:
    """Constant reference at ``r0`` with heading ``yaw0``."""
    r0 = np.asarray(r0, dtype=float)

    def sample(t: float) -> TrajectorySample:
        _check_time(t)
        return TrajectorySample(
            t=t, r_d=r0.copy(), v_d=np.zeros(3), a_d=np.zeros(3), yaw_d=yaw0,
        )

    return sample


def helix(t: float) -> TrajectorySample:
    """Climbing-and-descending circle with continuously rotating heading."""
    _check_time(t)
    omega = 2.0 * np.pi / HELIX_PERIOD
    z_mid = 0.5 * (HELIX_Z_LOW + HELIX_Z_HIGH)
    z_amp = 0.5 * (HELIX_Z_HIGH - HELIX_Z_LOW)
    c, s = np.cos(omega * t), np.sin(omega * t)
    r_d = np.array([
        HELIX_CENTER[0] + HELIX_RADIUS * c,
        HELIX_CENTER[1] + HELIX_RADIUS * s,
        z_mid - z_amp * c,
    ])
    v_d = np.array([
        -HELIX_RADIUS * omega * s,
        HELIX_RADIUS * omega * c,
        z_amp * omega * s,
    ])
    a_d = np.array([
        -HELIX_RADIUS * omega**2 * c,
        -HELIX_RADIUS * omega**2 * s,
        z_amp * omega**2 * c,
    ])
    yaw = omega * t
    return TrajectorySample(
        t=t, r_d=r_d, v_d=v_d, a_d=a_d, yaw_d=yaw,
        r_wf_d=rot_z(yaw), omega_d=np.array([0.0, 0.0, omega]),
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
    start: float
    duration: float
    p0: np.ndarray
    v_in: np.ndarray
    v_out: np.ndarray  # equals v_in on straight segments


@cache
def _rect_schedule(speed: float, altitude: float) -> tuple:
    """Phase table for one counterclockwise lap, starting mid bottom edge."""
    if speed <= 0.0:
        raise ValueError("speed must be positive")
    shrink = speed * RECT_BLEND  # straight length consumed by each corner
    if RECT_WIDTH - shrink <= 0.0:
        raise ValueError(
            f"speed {speed!r} too high for the corner blend time; "
            f"it must be below {RECT_WIDTH / RECT_BLEND:g}"
        )
    half_l, half_w = RECT_LENGTH / 2.0, RECT_WIDTH / 2.0
    dirs = [
        np.array([1.0, 0.0, 0.0]),
        np.array([0.0, 1.0, 0.0]),
        np.array([-1.0, 0.0, 0.0]),
        np.array([0.0, -1.0, 0.0]),
    ]
    lengths = [RECT_LENGTH, RECT_WIDTH, RECT_LENGTH, RECT_WIDTH]
    phases = []
    t = 0.0
    # First straight starts half-way along the bottom edge.
    p = np.array([0.0, -half_w, altitude])
    first_run = half_l - shrink / 2.0
    rest = [first_run] + [lengths[i] - shrink for i in (1, 2, 3)] + [first_run]
    for leg in range(4):
        run = rest[leg]
        v = speed * dirs[leg]
        phases.append(_Phase(t, run / speed, p.copy(), v, v))
        p = p + run * dirs[leg]
        t += run / speed
        v_next = speed * dirs[(leg + 1) % 4]
        phases.append(_Phase(t, RECT_BLEND, p.copy(), v, v_next))
        p = p + 0.5 * RECT_BLEND * (v + v_next)
        t += RECT_BLEND
    v = speed * dirs[0]
    phases.append(_Phase(t, rest[4] / speed, p.copy(), v, v))
    t += rest[4] / speed
    starts = np.array([ph.start for ph in phases])
    return phases, starts, t


def _rect_point(t: float, speed: float, altitude: float):
    phases, starts, period = _rect_schedule(speed, altitude)
    tau = t % period
    idx = int(np.searchsorted(starts, tau, side="right") - 1)
    ph = phases[idx]
    dt = tau - ph.start
    dv = ph.v_out - ph.v_in
    if not dv.any():
        return ph.p0 + dt * ph.v_in, ph.v_in.copy(), np.zeros(3)
    x = dt / ph.duration
    r = ph.p0 + dt * ph.v_in + dv * ph.duration * _smoothstep_int(x)
    v = ph.v_in + dv * _smoothstep(x)
    a = dv * _smoothstep_deriv(x) / ph.duration
    return r, v, a


def rectangle(
    t: float,
    pitch_hold: float = 0.0,
    speed: float = RECT_SPEED,
    altitude: float = RECT_ALTITUDE,
) -> TrajectorySample:
    """Counterclockwise rectangular circuit at a fixed pitch command.

    Corners are rounded with quintic velocity blends so the acceleration
    stays bounded; the extreme x and y coordinates still touch the exact
    rectangle bounds.
    """
    _check_time(t)
    r_d, v_d, a_d = _rect_point(t, speed, altitude)
    return TrajectorySample(
        t=t, r_d=r_d, v_d=v_d, a_d=a_d, yaw_d=0.0, pitch_d=pitch_hold,
        r_wf_d=rot_y(pitch_hold),
    )


def rectangle_fixed_attitude(
    t: float,
    speed: float = RECT_SPEED,
    altitude: float = RECT_ALTITUDE,
) -> TrajectorySample:
    """The same circuit with a level attitude target for full actuation."""
    _check_time(t)
    r_d, v_d, a_d = _rect_point(t, speed, altitude)
    return TrajectorySample(
        t=t, r_d=r_d, v_d=v_d, a_d=a_d, yaw_d=0.0, pitch_d=0.0,
        r_wf_d=np.eye(3),
    )


def rectangle_period(speed: float = RECT_SPEED) -> float:
    """Lap time of the rectangular circuit, s."""
    return _rect_schedule(speed, RECT_ALTITUDE)[2]
