"""Quadrotor module construction and hover-balance analysis.

A module is a cuboid-framed quadrotor whose four propellers sit in a square
on the body xy-plane but may be tilted away from vertical. A module is
balanced when identical thrust on all four rotors produces zero net torque
and a net force along the module's declared thrust axis, so it can hover
without rotating. Modules whose rotors all share one tilt rotation are
balanced by construction and are the building block used everywhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .so3 import E3, is_rotation, rot_x, rot_y


@dataclass(frozen=True, eq=False)
class Wrench:
    """Force (N) and torque (N*m) pair, expressed in one frame."""

    force: np.ndarray
    torque: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "force", np.asarray(self.force, dtype=float))
        object.__setattr__(self, "torque", np.asarray(self.torque, dtype=float))
        if not (np.all(np.isfinite(self.force)) and np.all(np.isfinite(self.torque))):
            raise ValueError("wrench entries must be finite")


@dataclass(frozen=True, eq=False)
class PropellerSpec:
    """One rotor of a module.

    position: rotor location in the module frame, m
    orientation: rotor frame in the module frame; thrust acts along its z-axis
    spin: +1 or -1, sign of the drag torque about the thrust axis
    k_f / k_m: thrust and drag coefficients; only the ratio k_m/k_f enters
        the torque model
    f_max: thrust ceiling, N
    """

    position: np.ndarray
    orientation: np.ndarray
    spin: int
    k_f: float = 1.0
    k_m: float = 0.006
    f_max: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        object.__setattr__(self, "orientation", np.asarray(self.orientation, dtype=float))
        if self.spin not in (1, -1):
            raise ValueError(f"spin must be +1 or -1, got {self.spin}")
        if self.k_f <= 0.0:
            raise ValueError("k_f must be positive")
        if self.k_m < 0.0:
            raise ValueError("k_m must be non-negative")
        if self.f_max <= 0.0:
            raise ValueError("f_max must be positive")
        if not is_rotation(self.orientation):
            raise ValueError("propeller orientation is not a rotation matrix")

    @property
    def drag_ratio(self) -> float:
        """Torque per unit thrust about the rotor axis, m."""
        return self.k_m / self.k_f


@dataclass(frozen=True, eq=False)
class ModuleSpec:
    """A cuboid quadrotor module.

    The four propellers are numbered counterclockwise starting front-right,
    with opposite rotors mirrored through the center (p1 = -p3, p2 = -p4)
    and alternating spin signs. ``tilt`` is the declared common rotor
    rotation whose z-column is the design thrust axis.
    """

    mass: float
    inertia: np.ndarray
    base: float
    height: float
    propellers: tuple[PropellerSpec, ...]
    tilt: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "inertia", np.asarray(self.inertia, dtype=float))
        object.__setattr__(self, "tilt", np.asarray(self.tilt, dtype=float))
        if self.mass <= 0.0 or self.base <= 0.0 or self.height <= 0.0:
            raise ValueError("mass, base and height must be positive")
        props = tuple(self.propellers)
        object.__setattr__(self, "propellers", props)
        if len(props) != 4:
            raise ValueError(f"a module needs exactly 4 propellers, got {len(props)}")
        p1, p2, p3, p4 = (p.position.tolist() for p in props)
        if not all(abs(a + b) <= 1e-12 for a, b in zip(p1 + p2, p3 + p4, strict=True)):
            raise ValueError("propellers must sit in mirrored pairs: p1 = -p3, p2 = -p4")
        if [p.spin for p in props] != [1, -1, 1, -1]:
            raise ValueError("propeller spins must alternate +1, -1, +1, -1")
        if np.linalg.norm(self.inertia - self.inertia.T) >= 1e-12:
            raise ValueError("inertia tensor must be symmetric")
        if np.any(np.linalg.eigvalsh(self.inertia) <= 0.0):
            raise ValueError("inertia tensor must be positive definite")
        if not is_rotation(self.tilt):
            raise ValueError("declared tilt is not a rotation matrix")


@dataclass(frozen=True, eq=False)
class BalanceReport:
    """Residuals of the hover-balance constraints under unit thrust.

    torque_from_forces: net moment of the four unit thrusts, N*m
    torque_from_drag: spin-weighted sum of the four thrust axes (the drag
        torque up to the k_m/k_f factor)
    total_force_axis: unit direction of the summed thrust, zero if degenerate
    thrust_gain: magnitude of the summed thrust vector (4 for a shared-tilt module)
    """

    torque_from_forces: np.ndarray
    torque_from_drag: np.ndarray
    total_force_axis: np.ndarray
    thrust_gain: float
    is_balanced: bool


def cuboid_inertia(mass: float, base: float, height: float) -> np.ndarray:
    """Inertia tensor of a solid cuboid with square base, about its center."""
    ixx = mass * (base**2 + height**2) / 12.0
    izz = mass * (2.0 * base**2) / 12.0
    return np.diag([ixx, ixx, izz])


def propeller_orientation(alpha: float, beta: float) -> np.ndarray:
    """Rotor rotation from a roll tilt ``alpha`` then pitch tilt ``beta``.

    The result is rot_y(beta) @ rot_x(alpha); both angles are limited to
    [-pi/2, pi/2] so the thrust axis never points below the rotor plane.
    """
    half_pi = np.pi / 2.0
    if not (-half_pi <= alpha <= half_pi):
        raise ValueError(f"alpha must be within [-pi/2, pi/2], got {alpha}")
    if not (-half_pi <= beta <= half_pi):
        raise ValueError(f"beta must be within [-pi/2, pi/2], got {beta}")
    return rot_y(beta) @ rot_x(alpha)


def build_r_module(
    mass: float = 0.135,
    base: float = 0.12,
    height: float = 0.06,
    alpha: float = 0.0,
    beta: float = 0.0,
    k_f: float = 1.0,
    k_m: float = 0.006,
    f_max: float = 2.0,
    inertia: np.ndarray | None = None,
) -> ModuleSpec:
    """Build a module whose four rotors share the tilt (alpha, beta).

    Rotors sit at the corners of a square with half-diagonal base/4, numbered
    counterclockwise from front-right, all with the same orientation. Inertia
    defaults to the solid-cuboid model but can be overridden.
    """
    if mass <= 0.0 or base <= 0.0 or height <= 0.0:
        raise ValueError("mass, base and height must be positive")
    if k_f <= 0.0 or f_max <= 0.0:
        raise ValueError("k_f and f_max must be positive")
    d = base / 4.0
    positions = [
        np.array([d, -d, 0.0]),
        np.array([d, d, 0.0]),
        np.array([-d, d, 0.0]),
        np.array([-d, -d, 0.0]),
    ]
    orientation = propeller_orientation(alpha, beta)
    props = tuple(
        PropellerSpec(
            position=p,
            orientation=orientation,
            spin=1 if j % 2 == 0 else -1,
            k_f=k_f,
            k_m=k_m,
            f_max=f_max,
        )
        for j, p in enumerate(positions)
    )
    i_m = cuboid_inertia(mass, base, height) if inertia is None else np.asarray(inertia, dtype=float)
    return ModuleSpec(
        mass=mass,
        inertia=i_m,
        base=base,
        height=height,
        propellers=props,
        tilt=orientation,
    )


def check_balanced(module: ModuleSpec, tol: float = 1e-9) -> BalanceReport:
    """Evaluate the hover-balance residuals of ``module`` under unit thrust.

    A module is balanced when both torque residuals vanish and the summed
    thrust is parallel to the declared tilt axis. Unbalanced modules report
    is_balanced=False rather than raising. One batched pass over the
    module: the four rotor positions and axes are stacked and crossed at
    once, and the parallel-axis test runs on floats.
    """
    props = module.propellers
    axes = np.array([p.orientation for p in props]) @ E3
    torque_from_forces = np.cross(np.array([p.position for p in props]), axes).sum(axis=0)
    torque_from_drag = (np.array([[p.spin] for p in props]) * axes).sum(axis=0)
    force_sum = axes.sum(axis=0)
    gain = float(np.linalg.norm(force_sum))
    axis = force_sum / gain if gain > tol else np.zeros(3)
    ax, ay, az = axis.tolist()
    tx, ty, tz = module.tilt[:, 2].tolist()
    parallel = (
        gain > tol
        and math.hypot(ay * tz - az * ty, az * tx - ax * tz, ax * ty - ay * tx) < tol
        and ax * tx + ay * ty + az * tz > 0.0
    )
    balanced = parallel and all(
        abs(x) < tol for x in torque_from_forces.tolist() + torque_from_drag.tolist()
    )
    return BalanceReport(
        torque_from_forces=torque_from_forces,
        torque_from_drag=torque_from_drag,
        total_force_axis=axis,
        thrust_gain=gain,
        is_balanced=bool(balanced),
    )

