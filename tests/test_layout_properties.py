"""Seeded property checks of the controller's allocation over random layouts.

Two draws of layouts dock shared-tilt modules on adjacent grid cells, each
module yawed by a random quarter turn. The first docks 1-4 default modules,
each tilted by an angle from TILT_DEG about its pitch axis. The second
spans the design sweep's 1-6 modules and varies every module input the
stacked assembly reads: roll and pitch tilts, mass, inertia diagonal and
drag coefficient. Every layout must get the controller mode its force rank
calls for, and that controller's reduced map must be solved exactly and
with minimum norm by its stored pseudoinverse. The same layouts pin
``assemble`` and ``check_balanced`` bit for bit to per-rotor reference
loops.
"""

import dataclasses

import numpy as np
import pytest

from modrotor import (Controller, ModulePlacement, actuation_ellipsoid, assemble, build_r_module,
                      check_balanced)
from modrotor.module_design import ModuleSpec
from modrotor.so3 import E3, rot_x, rot_z
from modrotor.structure import _thrust_frame, numerical_rank

TILT_DEG = (-30.0, -10.0, 0.0, 10.0, 30.0)
LAYOUTS = 300
VARIED_LAYOUTS = 120
_NEIGHBOURS = ((1, 0), (-1, 0), (0, 1), (0, -1))
_MODE_OF_RANK = {1: "4dof", 2: "5dof", 3: "6dof"}


def _draw_cells(rng, n):
    cells = [(0, 0)]
    while len(cells) < n:
        col, row = cells[rng.integers(len(cells))]
        d_col, d_row = _NEIGHBOURS[rng.integers(len(_NEIGHBOURS))]
        if (col + d_col, row + d_row) not in cells:
            cells.append((col + d_col, row + d_row))
    return cells


def draw_structure(rng):
    cells = _draw_cells(rng, int(rng.integers(1, 5)))
    return assemble(
        ModulePlacement(
            build_r_module(beta=np.deg2rad(TILT_DEG[rng.integers(len(TILT_DEG))])),
            cell,
            int(rng.integers(4)),
        )
        for cell in cells
    )


def _draw_tilt(rng):
    # Zero, or 0.1-0.6 rad either way: tilts near zero but not zero would make
    # the force block ill-conditioned, and the 1e-9 allocation tolerances
    # would then measure the conditioning rather than the allocation.
    return float(rng.choice([0.0, rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 0.6)]))


def draw_varied_structure(rng, n):
    return assemble(
        ModulePlacement(
            build_r_module(mass=rng.uniform(0.08, 0.3), alpha=_draw_tilt(rng),
                           beta=_draw_tilt(rng), k_m=rng.uniform(0.002, 0.02),
                           inertia=np.diag(rng.uniform(5e-5, 5e-4, size=3))),
            cell,
            int(rng.integers(4)),
        )
        for cell in _draw_cells(rng, n)
    )


@pytest.fixture(scope="module")
def layouts():
    rng = np.random.default_rng(2021)
    grid = [draw_structure(rng) for _ in range(LAYOUTS)]
    # 1-6 modules, each size equally often, like the design sweep.
    rng = np.random.default_rng(2025)
    return grid + [draw_varied_structure(rng, 1 + i % 6) for i in range(VARIED_LAYOUTS)]


def test_varied_layouts_span_sizes_and_modes(layouts):
    varied = layouts[LAYOUTS:]
    assert {s.n for s in varied} == set(range(1, 7))
    assert {s.rank_f for s in varied} == {1, 2, 3}


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


def test_thrust_frame_is_rotation_and_modules_balanced(layouts):
    for structure in layouts:
        r_sf = structure.r_sf
        assert np.linalg.norm(r_sf.T @ r_sf - np.eye(3)) < 1e-12
        assert abs(np.linalg.det(r_sf) - 1.0) < 1e-12
        assert all(check_balanced(pl.module).is_balanced for pl in structure.placements)


def test_planar_force_has_no_thrust_frame_y_component(layouts):
    # The thrust frame's x- and z-axes span the force block's column space,
    # so a 5-DOF structure can never push along its y-axis: the y row the
    # 5-DOF mode leaves out carries nothing but roundoff.
    planar = [s for s in layouts if s.rank_f == 2]
    assert planar
    for structure in planar:
        rows = structure.r_sf.T @ structure.force_map
        assert np.max(np.abs(rows[1])) <= 1e-12 * np.max(np.abs(structure.thrust_map))


# ---------------------------------------------------------------- per-rotor oracle
# The per-rotor loops that the batched assemble and check_balanced replaced,
# kept as the reference: same arithmetic, so the results must match bit for bit.


def _oracle_assemble(placements):
    """Every StructureModel array and rank_f, one rotor at a time."""
    base = placements[0].module.base
    masses = np.array([pl.module.mass for pl in placements])
    total_mass = float(masses.sum())
    grid_pos = np.array([[pl.grid_offset[0] * base, pl.grid_offset[1] * base, 0.0]
                         for pl in placements])
    com = masses @ grid_pos / total_mass
    r_grid_to_s = rot_z(placements[0].yaw_quarter_turns * np.pi / 2.0).T
    offsets = (grid_pos - com) @ r_grid_to_s.T
    rotations = np.array(
        [r_grid_to_s @ rot_z(pl.yaw_quarter_turns * np.pi / 2.0) for pl in placements]
    )
    n = len(placements)
    a = np.zeros((6, 4 * n))
    f_max = np.zeros(4 * n)
    inertia = np.zeros((3, 3))
    for i, pl in enumerate(placements):
        r_m = rotations[i]
        d = offsets[i]
        inertia += r_m @ pl.module.inertia @ r_m.T + pl.module.mass * (
            (d @ d) * np.eye(3) - np.outer(d, d)
        )
        for j, prop in enumerate(pl.module.propellers):
            k = 4 * i + j
            p = d + r_m @ prop.position
            axis = r_m @ (prop.orientation @ E3)
            a[:3, k] = axis
            a[3:, k] = np.cross(p, axis) + prop.spin * prop.drag_ratio * axis
            f_max[k] = prop.f_max
    rank_f = numerical_rank(a[:3])
    u, s, _ = np.linalg.svd(a[:3])
    return {
        "total_mass": np.array(total_mass),
        "inertia": inertia,
        "thrust_map": a,
        "rank_f": np.array(rank_f),
        "r_sf": _thrust_frame(a[:3], rank_f, (u, s)),
        "force_sigmas": s,
        "f_max": f_max,
        "inertia_inv": np.linalg.inv(inertia),
    }


def _oracle_balance(module, tol=1e-9):
    """Every BalanceReport field, one rotor at a time."""
    axes = [p.orientation @ E3 for p in module.propellers]
    torque_from_forces = np.sum(
        [np.cross(p.position, a) for p, a in zip(module.propellers, axes)], axis=0)
    torque_from_drag = np.sum([p.spin * a for p, a in zip(module.propellers, axes)], axis=0)
    force_sum = np.sum(axes, axis=0)
    gain = float(np.linalg.norm(force_sum))
    axis = force_sum / gain if gain > tol else np.zeros(3)
    target = module.tilt @ E3
    parallel = (
        gain > tol
        and np.linalg.norm(np.cross(axis, target)) < tol
        and float(axis @ target) > 0.0
    )
    balanced = (
        np.max(np.abs(torque_from_forces)) < tol
        and np.max(np.abs(torque_from_drag)) < tol
        and parallel
    )
    return {
        "torque_from_forces": torque_from_forces,
        "torque_from_drag": torque_from_drag,
        "total_force_axis": axis,
        "thrust_gain": np.array(gain),
        "is_balanced": np.array(bool(balanced)),
    }


def _assert_same_bits(got, want, what):
    got = np.asarray(got)
    assert got.dtype == want.dtype and got.shape == want.shape, what
    # Equal values with equal signs, so that -0.0 and 0.0 count as different.
    np.testing.assert_array_equal(got, want, err_msg=what)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want), err_msg=what)


def _perturbed(module, rng):
    """``module`` with one rotor turned off the shared tilt: not balanced."""
    props = list(module.propellers)
    j = int(rng.integers(4))
    props[j] = dataclasses.replace(props[j], orientation=rot_x(rng.uniform(-0.3, 0.3))
                                   @ props[j].orientation)
    return ModuleSpec(mass=module.mass, inertia=module.inertia, base=module.base,
                      height=module.height, propellers=tuple(props), tilt=module.tilt)


def test_assemble_matches_per_rotor_oracle(layouts, all_structures):
    structures = list(layouts) + list(all_structures.values())
    rng = np.random.default_rng(2023)
    for idx, structure in enumerate(structures):
        for name, want in _oracle_assemble(structure.placements).items():
            _assert_same_bits(getattr(structure, name), want, f"structure {idx}: {name}")
        # A layout of unbalanced modules still assembles; pin it too.
        unbalanced = [dataclasses.replace(pl, module=_perturbed(pl.module, rng))
                      for pl in structure.placements]
        got = assemble(unbalanced)
        for name, want in _oracle_assemble(unbalanced).items():
            _assert_same_bits(getattr(got, name), want, f"perturbed structure {idx}: {name}")


def test_check_balanced_matches_per_rotor_oracle(layouts, all_structures):
    structures = list(layouts) + list(all_structures.values())
    modules = [pl.module for s in structures for pl in s.placements]
    rng = np.random.default_rng(2024)
    # Unbalanced modules: one rotor off the shared tilt, or balanced rotors
    # whose declared tilt is turned off their thrust axis or reversed.
    modules += ([_perturbed(m, rng) for m in modules]
                + [dataclasses.replace(m, tilt=rot_x(0.2) @ m.tilt) for m in modules[:50]]
                + [dataclasses.replace(m, tilt=rot_x(np.pi) @ m.tilt) for m in modules[:50]])
    outcomes = set()
    for idx, module in enumerate(modules):
        report = check_balanced(module)
        for name, want in _oracle_balance(module).items():
            _assert_same_bits(getattr(report, name), want, f"module {idx}: {name}")
        outcomes.add(report.is_balanced)
    assert outcomes == {True, False}


def test_shared_svd_matches_fresh_numpy(layouts, all_structures):
    # actuation_ellipsoid and Controller.pinv read SVDs that assemble and
    # Controller take once; they must equal numpy's own calls bit for bit.
    for idx, structure in enumerate(list(layouts) + list(all_structures.values())):
        sigmas, axes = actuation_ellipsoid(structure)
        u, s, _ = np.linalg.svd(structure.force_map)
        lead = np.argmax(np.abs(u), axis=0)
        u = np.where(u[lead, range(3)] < 0.0, -u, u)
        _assert_same_bits(sigmas, s, f"structure {idx}: ellipsoid sigmas")
        _assert_same_bits(axes, u, f"structure {idx}: ellipsoid axes")
        ctrl = Controller(structure)
        _assert_same_bits(ctrl.pinv, np.linalg.pinv(ctrl.reduced_map),
                          f"structure {idx}: pinv")
