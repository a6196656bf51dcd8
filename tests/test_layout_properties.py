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
loops, and the thrust frame, the allocation, the ellipsoid and its polygon
to the numpy forms their float paths replaced.
"""

import dataclasses
import math

import numpy as np
import pytest

from modrotor import (Controller, ModulePlacement, actuation_ellipsoid, assemble, build_r_module,
                      check_balanced)
from modrotor.lazy import read_only, unchecked
from modrotor.module_design import ModuleSpec
from modrotor.so3 import E3, rot_x, rot_z
from modrotor.structure import StructureModel, _thrust_frame, ellipsoid_xz_polygon, numerical_rank
from test_module_design import build_draws
from test_structure import RANK1_CASES, TIED_LAYOUTS

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


def test_rotor_block_is_kept_outside_the_fields():
    # assemble reads each module's rotor block, built once and kept with the
    # module but not as a field. Three kinds of module assemble to the
    # oracle: the remembered build_r_module one, one from the constructor,
    # and one that dataclasses.replace gives new rotors after the first
    # module's block was built, which must not carry that block over.
    remembered = build_r_module(beta=0.3, k_m=0.01)
    assert build_r_module(beta=0.3, k_m=0.01) is remembered
    names = [f.name for f in dataclasses.fields(ModuleSpec)]
    constructed = ModuleSpec(mass=0.2, inertia=np.diag([2e-4, 2e-4, 3e-4]),
                             base=remembered.base, height=remembered.height,
                             propellers=remembered.propellers, tilt=remembered.tilt)
    text = repr(constructed)  # before its block is built
    for module in (remembered, constructed):
        for _ in range(2):  # the second assembly reads the kept block
            placements = [ModulePlacement(module), ModulePlacement(module, (1, 0), 1)]
            got = assemble(placements)
            for name, want in _oracle_assemble(placements).items():
                _assert_same_bits(getattr(got, name), want, name)
    replaced = dataclasses.replace(remembered, propellers=tuple(
        dataclasses.replace(p, k_m=0.004 * (j + 1), f_max=1.0 + j)
        for j, p in enumerate(remembered.propellers)))
    placements = [ModulePlacement(replaced), ModulePlacement(remembered, (0, 1), 3),
                  ModulePlacement(constructed, (1, 1), 2)]
    got = assemble(placements)
    for name, want in _oracle_assemble(placements).items():
        _assert_same_bits(getattr(got, name), want, name)
    assert [f.name for f in dataclasses.fields(ModuleSpec)] == names == [
        "mass", "inertia", "base", "height", "propellers", "tilt"]
    assert repr(constructed) == text
    for module in (replaced, remembered, constructed):
        check_balanced(module)
        assert set(vars(module)) == {*names, "_rotors", "_balance"}


def test_check_balanced_matches_per_rotor_oracle(layouts, all_structures):
    structures = list(layouts) + list(all_structures.values())
    modules = [pl.module for s in structures for pl in s.placements]
    rng = np.random.default_rng(2024)
    # Unbalanced modules: one rotor off the shared tilt, or balanced rotors
    # whose declared tilt is turned off their thrust axis or reversed.
    modules += ([_perturbed(m, rng) for m in modules]
                + [dataclasses.replace(m, tilt=rot_x(0.2) @ m.tilt) for m in modules[:50]]
                + [dataclasses.replace(m, tilt=rot_x(np.pi) @ m.tilt) for m in modules[:50]])
    # Uncached builds: tilts at +-pi/2, zero drag and inertia overrides.
    modules += [build_r_module(**kwargs) for kwargs in build_draws(2025, 400)]
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


# ---------------------------------------------------------------- design-call oracle
# The numpy forms that the design calls' float paths replaced, kept as the
# reference: the thrust frame with every sign test a dot product, the reduced
# map by vstack and row indexing, pinv by numpy's formula, the ellipsoid's
# sign rule by np.argmax, and the polygon's radii by np.clip. The library
# reads components and runs entrywise steps on floats; no bit may move.

_AXES = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])]
_ORACLE_ROWS = {1: [2, 3, 4, 5], 2: [2, 0, 3, 4, 5], 3: [0, 1, 2, 3, 4, 5]}


def _oracle_unit_in(block, preferred, signs, drop=None):
    vec = block[:, 0]
    if block.shape[1] > 1:
        for target in preferred:
            proj = block @ (block.T @ target)
            if drop is not None:
                proj = proj - drop * (drop @ proj)
            norm = math.sqrt(proj.dot(proj))
            if norm > 1e-9:
                vec = proj / norm
                break
    for target in signs:
        dot = float(vec @ target)
        if abs(dot) > 1e-12:
            return vec if dot >= 0.0 else -vec
    return vec


def _oracle_thrust_frame(force_map):
    e1, e2, e3 = _AXES
    u, s, _ = np.linalg.svd(force_map)
    values = s.tolist()
    gap = 1e-9 * values[0]
    top = sum(values[0] - x <= gap for x in values)
    uniform_thrust = force_map @ np.ones(force_map.shape[1])
    z_axis = _oracle_unit_in(u[:, list(range(top))], [e3, uniform_thrust, e1],
                             [uniform_thrust, e3, e1])
    group = range(top) if top > 1 else range(1, 1 + sum(values[1] - x <= gap for x in values[1:]))
    x_axis = _oracle_unit_in(u[:, list(group)], [e1, e2, e3], [e1, e2, e3],
                             z_axis if top > 1 else None)
    x_axis = x_axis - z_axis * (z_axis @ x_axis)
    x_axis = x_axis / math.sqrt(x_axis.dot(x_axis))
    y_axis = np.cross(z_axis, x_axis)
    return np.column_stack([x_axis, y_axis, z_axis])


def _oracle_allocation(structure):
    """The reduced map and its pseudoinverse."""
    thrust_frame_map = np.vstack([structure.r_sf.T @ structure.force_map, structure.torque_map])
    reduced = thrust_frame_map[np.array(_ORACLE_ROWS[structure.rank_f])]
    u, s, vt = np.linalg.svd(reduced, full_matrices=False)
    return reduced, np.matmul(vt.T, np.multiply((1 / s)[:, None], u.T))


def _oracle_ellipsoid(sigmas, axes):
    s, u = sigmas.copy(), axes.copy()
    for i in range(3):
        lead = np.argmax(np.abs(u[:, i]))
        if u[lead, i] < 0.0:
            u[:, i] = -u[:, i]
    return s, u


def _oracle_polygon(structure):
    gram = structure.force_map @ structure.force_map.T
    evals, evecs = np.linalg.eigh(gram[::2, ::2])
    radii = np.sqrt(np.clip(evals, 0.0, None))
    angles = np.linspace(0.0, 2.0 * np.pi, 128, endpoint=False)
    return (np.cos(angles)[:, None] * (radii[1] * evecs[:, 1])
            + np.sin(angles)[:, None] * (radii[0] * evecs[:, 0]))


def test_design_calls_match_numpy_oracle(layouts, all_structures):
    # Seeded layouts of 1-6 modules in every mode, the fixtures, layouts whose
    # singular values tie, and rank-1 strips whose x-axis comes from the
    # two-direction null space.
    structures = (list(layouts) + list(all_structures.values())
                  + [assemble(case[1]) for case in TIED_LAYOUTS + RANK1_CASES])
    assert {s.rank_f for s in structures} == {1, 2, 3}
    for idx, structure in enumerate(structures):
        _assert_same_bits(structure.r_sf, _oracle_thrust_frame(structure.force_map),
                          f"structure {idx}: r_sf")
        ctrl = Controller(structure)
        reduced, pinv = _oracle_allocation(structure)
        _assert_same_bits(ctrl.reduced_map, reduced, f"structure {idx}: reduced_map")
        _assert_same_bits(ctrl.pinv, pinv, f"structure {idx}: pinv")
        for got, want in zip(actuation_ellipsoid(structure),
                             _oracle_ellipsoid(structure.force_sigmas, structure._force_axes)):
            _assert_same_bits(got, want, f"structure {idx}: ellipsoid")
        _assert_same_bits(ellipsoid_xz_polygon(structure), _oracle_polygon(structure),
                          f"structure {idx}: polygon")


@pytest.mark.parametrize("columns", [
    [[0.6, -0.6, 0.0], [-0.6, 0.6, 0.1], [0.0, 0.3, -0.3]],  # exact |entry| ties
    [[-0.0, 0.0, 0.0], [0.0, -0.0, -0.0], [-0.5, 0.5, -0.5]],  # a -0.0 lead
    [[-0.8, 0.8, 0.1], [0.1, -0.2, 0.2], [-0.2, -0.2, 0.0]],
], ids=["ties", "negative_zero_lead", "plain"])
def test_ellipsoid_sign_rule_matches_argmax(columns):
    axes = read_only(columns).T
    structure = unchecked(StructureModel, force_sigmas=read_only([3.0, 2.0, 1.0]),
                          _force_axes=axes)
    got = actuation_ellipsoid(structure)
    for g, w in zip(got, _oracle_ellipsoid(structure.force_sigmas, axes)):
        _assert_same_bits(g, w, str(columns))
