"""Shared fixtures: the reference structures used throughout the suite,
two helpers over the private kernels that tests read, and one input whose
thrusts overflow."""

from pathlib import Path

import numpy as np
import pytest

from modrotor import Gains, ModulePlacement, RigidState, assemble, build_r_module, hover
from modrotor.dynamics import GRAVITY, _derivative
from modrotor.so3 import rodrigues, rot_x

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"


def exp_map(v):
    """The rotation matrix of the rotation vector ``v`` (axis times angle),
    by :func:`modrotor.so3.rodrigues`."""
    x, y, z = np.asarray(v, dtype=float).tolist()
    return np.array(rodrigues(x, y, z)).reshape(3, 3)


def _oracle_is_rotation(r, tol=1e-9):
    """numpy's form of :func:`modrotor.so3.is_rotation`'s rule, at any ``tol``."""
    return bool(np.linalg.norm(r @ r.T - np.eye(3)) < tol and abs(np.linalg.det(r) - 1.0) < tol)


def accelerations(structure, state, u, gravity=GRAVITY):
    """Linear (world) and angular (body) acceleration of ``state`` under the
    thrusts ``u``: the integrator's derivative at a zero rotation increment."""
    mass, inertia, inertia_inv = structure._rigid_body
    fx, fy, fz, *torque = structure.thrust_map.dot(u).tolist()
    k = _derivative(*state.v.tolist(), 0.0, 0.0, 0.0, *state.omega.tolist(),
                    state.r_ws.ravel().tolist(), (fx / mass, fy / mass, fz / mass), torque,
                    inertia, inertia_inv, gravity)
    return np.array(k[0:3]), np.array(k[6:9])


def overflowing_allocation():
    """(structure, gains, state, trajectory) whose first step's commanded
    wrench is finite but whose minimum-norm thrusts overflow to +-inf: a
    heavy module, a huge attitude gain and a rolled start."""
    module = build_r_module(beta=0.2, inertia=np.diag([1e3] * 3))
    state = RigidState(r=np.zeros(3), v=np.zeros(3), r_ws=rot_x(0.5), omega=np.zeros(3))
    return (assemble([ModulePlacement(module=module)]), Gains(k_rot=1e305), state,
            hover((0.0, 0.0, 0.7)))


def make_flat():
    return assemble([ModulePlacement(build_r_module())])


def make_tilt10():
    return assemble([ModulePlacement(build_r_module(beta=np.pi / 18))])


def make_pitch_pair():
    return assemble(
        [
            ModulePlacement(build_r_module(beta=np.pi / 6), (0, 0)),
            ModulePlacement(build_r_module(beta=-np.pi / 6), (1, 0)),
        ]
    )


def make_quad_tilt():
    # 2x2 block, pitch tilts on one diagonal and roll tilts on the other so
    # that uniform thrust produces zero net moment.
    return assemble(
        [
            ModulePlacement(build_r_module(beta=np.pi / 6), (0, 0)),
            ModulePlacement(build_r_module(beta=-np.pi / 6), (1, 1)),
            ModulePlacement(build_r_module(alpha=np.pi / 6), (1, 0)),
            ModulePlacement(build_r_module(alpha=-np.pi / 6), (0, 1)),
        ]
    )


@pytest.fixture(scope="session")
def flat_structure():
    return make_flat()


@pytest.fixture(scope="session")
def tilt10_structure():
    return make_tilt10()


@pytest.fixture(scope="session")
def pitch_pair_structure():
    return make_pitch_pair()


@pytest.fixture(scope="session")
def quad_tilt_structure():
    return make_quad_tilt()


@pytest.fixture(scope="session")
def all_structures(flat_structure, tilt10_structure, pitch_pair_structure, quad_tilt_structure):
    return {
        "flat": flat_structure,
        "tilt10": tilt10_structure,
        "pitch_pair": pitch_pair_structure,
        "quad_tilt": quad_tilt_structure,
    }
