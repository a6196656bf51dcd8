"""Newton-Euler rigid-body simulation of an assembled structure.

State: position r and velocity v in the world frame, body attitude as the
rotation R_WS from structure to world, and angular velocity omega in the
body frame. Thrusts map to body force and torque through the structure's
thrust map; translation follows

    r_ddot = R_WS @ (A_f @ u) / (n m) - g e3

and rotation follows Euler's equation

    omega_dot = I_S^-1 (A_tau @ u - omega x I_S omega).

Steps use a fourth-order Runge-Kutta scheme where the attitude advances
through the exponential map of an accumulated rotation increment, so R_WS
never leaves the rotation group by more than roundoff; it is polar
re-orthonormalized once per step. Thrust is held constant across a step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError
from .so3 import E3, cross3, exp_map
from .structure import StructureModel

GRAVITY = 9.81  # m/s^2


@dataclass(frozen=True, eq=False)
class RigidState:
    """Pose and twist of the structure.

    r, v: world-frame position (m) and velocity (m/s)
    r_ws: rotation from the structure frame to the world frame
    omega: body-frame angular velocity, rad/s
    """

    r: np.ndarray
    v: np.ndarray
    r_ws: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        for name in ("r", "v", "r_ws", "omega"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"state field {name} has non-finite entries")
            object.__setattr__(self, name, arr)
        if self.r_ws.shape != (3, 3):
            raise ValueError("r_ws must be 3x3")


@dataclass(frozen=True)
class SimParams:
    """Integration settings: step dt (s), gravity (m/s^2), duration (s)."""

    dt: float = 0.001
    gravity: float = GRAVITY
    duration: float = 10.0

    def __post_init__(self):
        if not 0.0 < self.dt < np.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not self.dt <= self.duration < np.inf:
            raise ValueError(
                f"duration must be finite and cover at least one step, "
                f"got {self.duration} with dt {self.dt}"
            )


def accelerations(
    structure: StructureModel,
    state: RigidState,
    u: np.ndarray,
    gravity: float = GRAVITY,
) -> tuple[np.ndarray, np.ndarray]:
    """Linear (world) and angular (body) acceleration under thrusts ``u``."""
    u = np.asarray(u, dtype=float)
    if u.shape != (4 * structure.n,):
        raise ValueError(f"u must have {4 * structure.n} entries, got shape {u.shape}")
    return _newton_euler(structure, state.r_ws, state.omega, u, gravity)


def _newton_euler(structure, r_ws, omega, u, gravity):
    """Linear (world) and angular (body) acceleration at attitude ``r_ws``."""
    r_ddot = r_ws @ (structure.force_map @ u) / structure.total_mass - gravity * E3
    torque = structure.torque_map @ u
    omega_dot = structure.inertia_inv @ (torque - cross3(omega, structure.inertia @ omega))
    return r_ddot, omega_dot


def _derivative(structure, r_ws0, v, phi, omega, u, gravity):
    """Time derivative of (r, v, phi, omega); phi is the in-step rotation
    increment so the attitude is r_ws0 @ exp_map(phi)."""
    if phi[0] == 0.0 and phi[1] == 0.0 and phi[2] == 0.0:
        r_ws = r_ws0
        phi_dot = omega
    else:
        r_ws = r_ws0 @ exp_map(phi)
        # Rotation-increment kinematics: the correction terms keep the
        # update fourth-order accurate for finite increments.
        phi_dot = omega + 0.5 * cross3(phi, omega) + (1.0 / 12.0) * cross3(phi, cross3(phi, omega))
    r_ddot, omega_dot = _newton_euler(structure, r_ws, omega, u, gravity)
    return v, r_ddot, phi_dot, omega_dot


def step(
    structure: StructureModel,
    state: RigidState,
    u: np.ndarray,
    dt: float,
    gravity: float = GRAVITY,
) -> RigidState:
    """Advance one step of length ``dt`` with thrusts held constant."""
    u = np.asarray(u, dtype=float)
    r0, v0, omega0 = state.r, state.v, state.omega
    zero = np.zeros(3)

    # Overflow is reported as IntegrationError below, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = _derivative(structure, state.r_ws, v0, zero, omega0, u, gravity)
        k2 = _derivative(
            structure, state.r_ws,
            v0 + 0.5 * dt * k1[1], 0.5 * dt * k1[2], omega0 + 0.5 * dt * k1[3], u, gravity,
        )
        k3 = _derivative(
            structure, state.r_ws,
            v0 + 0.5 * dt * k2[1], 0.5 * dt * k2[2], omega0 + 0.5 * dt * k2[3], u, gravity,
        )
        k4 = _derivative(
            structure, state.r_ws,
            v0 + dt * k3[1], dt * k3[2], omega0 + dt * k3[3], u, gravity,
        )

        sixth = dt / 6.0
        r1 = r0 + sixth * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        v1 = v0 + sixth * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        phi = sixth * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
        omega1 = omega0 + sixth * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3])

    if not (
        np.all(np.isfinite(r1))
        and np.all(np.isfinite(v1))
        and np.all(np.isfinite(phi))
        and np.all(np.isfinite(omega1))
    ):
        raise IntegrationError(
            f"integration produced non-finite values (|v|={np.linalg.norm(v0):.3e}, "
            f"|omega|={np.linalg.norm(omega0):.3e}, dt={dt})"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        r_ws1 = state.r_ws @ exp_map(phi)
        # One symmetric orthogonalization pass; the exponential update
        # drifts by roundoff only, so this keeps R on the rotation group
        # indefinitely.
        r_ws1 = r_ws1 @ (1.5 * np.eye(3) - 0.5 * (r_ws1.T @ r_ws1))
    if not np.all(np.isfinite(r_ws1)):
        raise IntegrationError(
            f"attitude update overflowed (|phi|={np.linalg.norm(phi):.3e}, dt={dt})"
        )
    return RigidState(r=r1, v=v1, r_ws=r_ws1, omega=omega1)
