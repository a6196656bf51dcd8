"""Seeded property checks of the controller's allocation over random layouts.

Layouts dock 1-4 shared-tilt modules on adjacent grid cells, each tilted by
an angle from TILT_DEG about its pitch axis and yawed by a random quarter
turn. Every layout must get the controller mode its force rank calls for,
and that controller's reduced map must be solved exactly and with minimum
norm by its stored pseudoinverse.
"""

import numpy as np
import pytest

from modrotor import Controller, ModulePlacement, assemble, build_r_module

TILT_DEG = (-30.0, -10.0, 0.0, 10.0, 30.0)
LAYOUTS = 300
_NEIGHBOURS = ((1, 0), (-1, 0), (0, 1), (0, -1))
_MODE_OF_RANK = {1: "4dof", 2: "5dof", 3: "6dof"}


def draw_structure(rng):
    n = int(rng.integers(1, 5))
    cells = [(0, 0)]
    while len(cells) < n:
        col, row = cells[rng.integers(len(cells))]
        d_col, d_row = _NEIGHBOURS[rng.integers(len(_NEIGHBOURS))]
        if (col + d_col, row + d_row) not in cells:
            cells.append((col + d_col, row + d_row))
    return assemble(
        ModulePlacement(
            build_r_module(beta=np.deg2rad(TILT_DEG[rng.integers(len(TILT_DEG))])),
            cell,
            int(rng.integers(4)),
        )
        for cell in cells
    )


@pytest.fixture(scope="module")
def layouts():
    rng = np.random.default_rng(2021)
    return [draw_structure(rng) for _ in range(LAYOUTS)]


def test_layouts_cover_every_mode(layouts):
    assert {s.rank_f for s in layouts} == {1, 2, 3}


def test_mode_matches_force_rank(layouts):
    for structure in layouts:
        assert Controller(structure).mode == _MODE_OF_RANK[structure.rank_f]


def test_allocation_exact_and_minimum_norm(layouts):
    rng = np.random.default_rng(2022)
    for structure in layouts:
        ctrl = Controller(structure)
        thrust_frame_map = np.vstack([structure.r_sf.T @ structure.force_map,
                                      structure.torque_map])
        np.testing.assert_array_equal(ctrl.reduced_map, thrust_frame_map[ctrl.rows])
        m = ctrl.reduced_map
        for _ in range(5):
            b = rng.uniform(-1.0, 1.0, size=ctrl.rows.size)
            u = ctrl.pinv @ b
            oracle = m.T @ np.linalg.solve(m @ m.T, b)
            np.testing.assert_allclose(m @ u, b, atol=1e-9)
            np.testing.assert_allclose(u, oracle, atol=1e-9)


def test_planar_force_has_no_thrust_frame_y_component(layouts):
    # The thrust frame's x- and z-axes span the force block's column space,
    # so a 5-DOF structure can never push along its y-axis: the y row the
    # 5-DOF mode leaves out carries nothing but roundoff.
    planar = [s for s in layouts if s.rank_f == 2]
    assert planar
    for structure in planar:
        rows = structure.r_sf.T @ structure.force_map
        assert np.max(np.abs(rows[1])) <= 1e-12 * np.max(np.abs(structure.thrust_map))
