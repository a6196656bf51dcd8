"""Parametric reference trajectories with analytic derivatives.

Each trajectory maps time to a sample carrying position, velocity and
acceleration plus one attitude target, the desired thrust-frame attitude
``r_wf_d``, so that any controller mode can consume it: single-axis
structures track position and the heading of its x-axis, planar ones
track that whole x-axis (yaw and pitch), and fully actuated ones track the
attitude itself. ``omega_d`` is expressed in the desired thrust frame.

A trajectory is a sampler, a callable of ``t`` alone. ``helix`` has no
parameters and is one; ``hover`` and ``rectangle`` check their parameters
and build what every sample shares (the rectangle's lap schedule and
attitude) once, then return the sampler, which checks only ``t``.

The trajectories compute with ``math`` on Python floats, and a sample
carries its vectors as float 3-tuples and its attitude as nine row-major
floats, which is what the controller reads; ``r_wf_d`` is a property that
builds the matrix from them. By the rule in :mod:`modrotor.lazy`, the
trajectories' samples skip ``TrajectorySample``'s checks, which callers'
samples pass.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import InitVar, dataclass
from typing import Callable

import numpy as np

from .lazy import NON_NEGATIVE, POSITIVE, checked, finite_array, read_only, rotation, unchecked
from .so3 import rot_y_flat, rot_z_flat

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
_IDENTITY = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)


@dataclass(frozen=True, eq=False)
class TrajectorySample:
    """Reference state at time t.

    r_d, v_d, a_d: desired position and its first two derivatives, float
        3-tuples
    r_wf_d: desired world attitude of the thrust frame, a 3x3 rotation;
        None means the identity
    omega_d: desired angular velocity in the desired frame, rad/s, a float
        3-tuple; None means zero

    The constructor turns the vectors into float tuples and rejects, naming
    the field, a non-finite vector or ``t`` and an ``r_wf_d`` that is not a
    finite rotation. A sample keeps its attitude as nine row-major floats,
    which the controller reads, and ``r_wf_d`` builds a new read-only
    matrix of them on each read.
    """

    t: float
    r_d: tuple
    v_d: tuple
    a_d: tuple
    r_wf_d: InitVar[np.ndarray | None] = None
    omega_d: tuple | None = None

    def __post_init__(self, r_wf_d):
        if self.omega_d is None:
            object.__setattr__(self, "omega_d", _ZERO3)
        for name in ("r_d", "v_d", "a_d", "omega_d"):
            vector = finite_array(name, getattr(self, name), (3,))
            object.__setattr__(self, name, tuple(vector.tolist()))
        object.__setattr__(self, "t", checked("t", self.t))
        attitude = _IDENTITY if r_wf_d is None else rotation("r_wf_d", r_wf_d).ravel().tolist()
        object.__setattr__(self, "_attitude", tuple(attitude))


# Set after the class: a property in its body would be taken as the
# constructor's default for r_wf_d.
TrajectorySample.r_wf_d = property(lambda sample: read_only(sample._attitude, (3, 3)),
                                   doc="The attitude target as a read-only 3x3 matrix.")


def hover(r0, yaw0: float = 0.0) -> Callable[[float], TrajectorySample]:
    """Constant reference at ``r0`` with the attitude rot_z(yaw0)."""
    r_d = tuple(finite_array("r0", r0, (3,)).tolist())
    attitude = rot_z_flat(checked("yaw0", yaw0))

    def sample(t: float) -> TrajectorySample:
        t = checked("t", t, NON_NEGATIVE)
        return unchecked(TrajectorySample, t=t, r_d=r_d, v_d=_ZERO3, a_d=_ZERO3,
                         omega_d=_ZERO3, _attitude=attitude)

    return sample


_HELIX_OMEGA = 2.0 * math.pi / HELIX_PERIOD
_HELIX_Z_MID = 0.5 * (HELIX_Z_LOW + HELIX_Z_HIGH)
_HELIX_Z_AMP = 0.5 * (HELIX_Z_HIGH - HELIX_Z_LOW)
# Radial and vertical amplitudes of velocity and acceleration: the products
# each sample formula starts with, taken once, so the samples keep their bits.
_HELIX_V = (HELIX_RADIUS * _HELIX_OMEGA, _HELIX_Z_AMP * _HELIX_OMEGA)
_HELIX_A = (HELIX_RADIUS * _HELIX_OMEGA**2, _HELIX_Z_AMP * _HELIX_OMEGA**2)


def helix(t: float) -> TrajectorySample:
    """Climbing-and-descending circle with continuously rotating heading."""
    t = checked("t", t, NON_NEGATIVE)
    yaw = _HELIX_OMEGA * t
    c, s = math.cos(yaw), math.sin(yaw)
    (v_r, v_z), (a_r, a_z) = _HELIX_V, _HELIX_A
    r_d = (HELIX_CENTER[0] + HELIX_RADIUS * c, HELIX_CENTER[1] + HELIX_RADIUS * s,
           _HELIX_Z_MID - _HELIX_Z_AMP * c)
    return unchecked(TrajectorySample, t=t, r_d=r_d, v_d=(-v_r * s, v_r * c, v_z * s),
                     a_d=(-a_r * c, -a_r * s, a_z * c), omega_d=(0.0, 0.0, _HELIX_OMEGA),
                     _attitude=(c, -s, 0.0, s, c, 0.0, 0.0, 0.0, 1.0))


# Quintic smoothstep and its integral/derivative; zero velocity-profile
# slope and curvature at both ends keep the blended path twice
# differentiable.
def _smoothstep(x: float) -> float:
    return x**3 * (10.0 + x * (-15.0 + 6.0 * x))


def _smoothstep_int(x: float) -> float:
    return x**4 * (2.5 + x * (-3.0 + x))


def _smoothstep_deriv(x: float) -> float:
    return 30.0 * x**2 * (1.0 - x) ** 2


def _axpy(a: float, x, y) -> tuple[float, float, float]:
    """y + a x, entry by entry."""
    return (y[0] + a * x[0], y[1] + a * x[1], y[2] + a * x[2])


def _rect_schedule(speed: float, altitude: float) -> tuple:
    """Phase table for one counterclockwise lap, starting mid bottom edge:
    the phases, each (start, duration, p0, v_in, dv) with dv = v_out - v_in
    on a corner blend and None on a straight run, their start times and the
    lap time."""
    speed, altitude = checked("speed", speed, POSITIVE), checked("altitude", altitude)
    shrink = speed * RECT_BLEND  # straight length consumed by each corner
    if shrink >= RECT_WIDTH:
        raise ValueError(f"speed must be below {RECT_WIDTH / RECT_BLEND:g} for the "
                         f"{RECT_BLEND:g} s corner blend, got {speed!r}")
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
        phases.append((t, run / speed, p, v, None))
        p = _axpy(run, dirs[leg], p)
        t += run / speed
        phases.append((t, RECT_BLEND, p, v, tuple(b - a for a, b in zip(v, v_next))))
        p = _axpy(0.5 * RECT_BLEND, tuple(a + b for a, b in zip(v, v_next)), p)
        t += RECT_BLEND
    phases.append((t, rest[4] / speed, p, velocities[0], None))
    t += rest[4] / speed
    return tuple(phases), tuple(phase[0] for phase in phases), t


def rectangle(
    pitch_hold: float = 0.0,
    speed: float = RECT_SPEED,
    altitude: float = RECT_ALTITUDE,
) -> Callable[[float], TrajectorySample]:
    """Counterclockwise rectangular circuit holding the attitude
    rot_y(pitch_hold); the default is level.

    Corners are rounded with quintic velocity blends so the acceleration
    stays bounded; the extreme x and y coordinates still touch the exact
    rectangle bounds.
    """
    attitude = rot_y_flat(checked("pitch_hold", pitch_hold))
    phases, starts, period = _rect_schedule(speed, altitude)

    def sample(t: float) -> TrajectorySample:
        t = checked("t", t, NON_NEGATIVE)
        tau = t % period
        start, duration, p0, v_in, dv = phases[bisect_right(starts, tau) - 1]
        dt = tau - start
        r_lin = _axpy(dt, v_in, p0)
        if dv is None:
            r_d, v_d, a_d = r_lin, v_in, _ZERO3
        else:
            x, (dx, dy, dz) = dt / duration, dv
            s_int, s, s_deriv = _smoothstep_int(x), _smoothstep(x), _smoothstep_deriv(x)
            r_d = (r_lin[0] + dx * duration * s_int, r_lin[1] + dy * duration * s_int,
                   r_lin[2] + dz * duration * s_int)
            v_d = _axpy(s, dv, v_in)
            a_d = (dx * s_deriv / duration, dy * s_deriv / duration, dz * s_deriv / duration)
        return unchecked(TrajectorySample, t=t, r_d=r_d, v_d=v_d, a_d=a_d, omega_d=_ZERO3,
                         _attitude=attitude)

    return sample
