"""Shared fixtures: the reference structures used throughout the suite."""

from pathlib import Path

import numpy as np
import pytest

from modrotor import ModulePlacement, assemble, build_r_module

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"


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
