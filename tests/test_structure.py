import dataclasses
import math
import re

import numpy as np
import pytest

from modrotor import (
    AssemblyError,
    ModulePlacement,
    SimParams,
    actuation_ellipsoid,
    assemble,
    build_r_module,
    helix,
    numerical_rank,
    rectangle,
    run_closed_loop,
)
from modrotor.structure import _thrust_frame, ellipsoid_xz_polygon
from modrotor.so3 import E1, E3, rot_x, rot_y, rot_z, rotation_angle


def placement_frames(placements):
    """Rotation of each module into the structure frame and its offset from
    the center of mass, rebuilt from the placements alone: the structure
    frame is the first module's, and the grid pitch is the base length."""
    base = placements[0].module.base
    masses = np.array([pl.module.mass for pl in placements])
    grid = np.array([[col * base, row * base, 0.0] for col, row in
                     (pl.grid_offset for pl in placements)])
    com = masses @ grid / masses.sum()
    grid_to_s = rot_z(placements[0].yaw_quarter_turns * np.pi / 2.0).T
    rotations = [grid_to_s @ rot_z(pl.yaw_quarter_turns * np.pi / 2.0) for pl in placements]
    offsets = (grid - com) @ grid_to_s.T
    return rotations, offsets


def brute_force_wrench(structure, u):
    """Independent aggregation: each module's wrench about its own center,
    summed rotor by rotor in the module frame, then rotated and shifted into
    the structure frame and summed."""
    rotations, offsets = placement_frames(structure.placements)
    force = np.zeros(3)
    torque = np.zeros(3)
    for i, pl in enumerate(structure.placements):
        f_m = np.zeros(3)
        tau_m = np.zeros(3)
        for thrust, prop in zip(u[4 * i: 4 * i + 4], pl.module.propellers):
            axis = prop.orientation @ E3
            f_vec = thrust * axis
            f_m += f_vec
            tau_m += np.cross(prop.position, f_vec) + thrust * prop.spin * prop.drag_ratio * axis
        f_s = rotations[i] @ f_m
        force += f_s
        torque += rotations[i] @ tau_m + np.cross(offsets[i], f_s)
    return np.concatenate([force, torque])


def test_single_flat_module_thrust_map(flat_structure):
    a = flat_structure.thrust_map
    assert a.shape == (6, 4)
    for k in range(4):
        np.testing.assert_allclose(a[:3, k], E3, atol=0)
    assert flat_structure.rank_f == 1
    np.testing.assert_allclose(flat_structure.r_sf, np.eye(3), atol=0)


def test_single_module_uniform_thrust_wrench(tilt10_structure):
    # Four rotors on one tilt axis: uniform thrust gives 4x the axis, no torque.
    out = tilt10_structure.thrust_map @ np.ones(4)
    np.testing.assert_allclose(out[:3], 4.0 * (rot_y(np.pi / 18) @ E3), atol=1e-15)
    np.testing.assert_allclose(out[3:], np.zeros(3), atol=1e-15)


def test_tilt10_thrust_frame(tilt10_structure):
    assert np.linalg.norm(tilt10_structure.r_sf - rot_y(np.pi / 18)) < 1e-9
    assert tilt10_structure.rank_f == 1


def test_pitch_pair_rank_and_frame(pitch_pair_structure):
    assert pitch_pair_structure.rank_f == 2
    assert np.linalg.norm(pitch_pair_structure.r_sf - np.eye(3)) < 1e-9


def test_quad_tilt_rank_and_frame(quad_tilt_structure):
    assert quad_tilt_structure.rank_f == 3
    assert np.linalg.norm(quad_tilt_structure.r_sf - np.eye(3)) < 1e-9


def test_thrust_map_matches_brute_force(all_structures):
    rng = np.random.default_rng(21)
    for structure in all_structures.values():
        for _ in range(100):
            u = rng.uniform(0.0, 2.0, size=4 * structure.n)
            np.testing.assert_allclose(
                structure.thrust_map @ u, brute_force_wrench(structure, u), atol=1e-12
            )


def test_rank_splits_between_force_and_torque(all_structures):
    for structure in all_structures.values():
        assert numerical_rank(structure.thrust_map) == structure.rank_f + 3
        assert numerical_rank(structure.torque_map) == 3


def test_numerical_rank_basics():
    assert numerical_rank(np.zeros((3, 4))) == 0
    cols = np.tile(E3.reshape(3, 1), (1, 4))
    assert numerical_rank(cols) == 1
    assert numerical_rank(np.eye(3)) == 3


@pytest.mark.parametrize("m, rank", [
    ([[1e308, 1e308], [1e308, 1e308]], 1),
    ([[1.5e308, 1.5e308, 0.0]], 1),
    ([[1.5e308, 0.0], [0.0, 1.5e308]], 2),
    ([[1.7e308, 1.0], [1.7e308, -1.0]], 1),  # sigma_2 / sigma_1 is about 6e-309
    (np.diag([1.7e308, 1.7e308, 1e300]), 3),
])
def test_numerical_rank_of_finite_matrix_past_float_range(m, rank):
    # The largest singular value of these finite matrices overflows to inf;
    # the rank is still counted, relative to it.
    assert numerical_rank(np.array(m)) == rank


def test_numerical_rank_is_kept_under_power_of_two_scaling():
    # Scaling by a power of two changes no ratio of singular values, so the
    # rank is kept up to the largest scale at which every entry stays finite,
    # where the largest singular value overflows.
    rng = np.random.default_rng(31)
    overflowed = 0
    for i in range(60):
        rows, cols = rng.integers(1, 7, size=2)
        rank = int(rng.integers(0, min(rows, cols) + 1))
        m = rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, cols))
        expected = numerical_rank(m)
        assert expected == rank
        if rank == 0:
            continue
        top = 1024 - math.frexp(float(np.abs(m).max()))[1]
        for e in (-500, 500, top - 1, top):
            scaled = np.ldexp(m, e)
            assert np.isfinite(scaled).all()
            with np.errstate(over="ignore", invalid="ignore"):
                overflowed += e == top and not np.isfinite(np.linalg.svd(scaled, compute_uv=False)[0])
            assert numerical_rank(scaled) == expected, (i, e)
    assert overflowed > 0


def test_strong_axis_maximizes_force_gain(all_structures):
    rng = np.random.default_rng(22)
    dirs = rng.normal(size=(10_000, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    for structure in all_structures.values():
        z_f = structure.r_sf @ E3
        best_sampled = np.max(np.linalg.norm(dirs @ structure.force_map, axis=1))
        assert np.linalg.norm(structure.force_map.T @ z_f) >= best_sampled - 1e-6


def test_r_sf_invariant_under_module_permutation():
    m_plus = build_r_module(beta=np.pi / 6)
    m_minus = build_r_module(beta=-np.pi / 6)
    s1 = assemble([ModulePlacement(m_plus, (0, 0)), ModulePlacement(m_minus, (1, 0))])
    s2 = assemble([ModulePlacement(m_minus, (1, 0)), ModulePlacement(m_plus, (0, 0))])
    np.testing.assert_allclose(s1.r_sf, s2.r_sf, atol=1e-12)


def test_r_sf_is_thrust_frame_of_force_map(all_structures):
    for structure in all_structures.values():
        np.testing.assert_allclose(
            _thrust_frame(structure.force_map, structure.rank_f,
                          np.linalg.svd(structure.force_map)[:2]),
            structure.r_sf, atol=0,
        )


def test_structure_arrays_are_read_only(all_structures):
    # Controllers and the integrator convert these to floats once per
    # structure, so a later write to one must not pass silently.
    for structure in all_structures.values():
        for name in ("thrust_map", "f_max", "inertia", "inertia_inv", "force_sigmas", "r_sf"):
            assert not getattr(structure, name).flags.writeable, name


def test_single_module_inertia_passthrough(flat_structure):
    np.testing.assert_allclose(
        flat_structure.inertia,
        flat_structure.placements[0].module.inertia,
        atol=0,
    )


def test_two_module_inertia_parallel_axis(pitch_pair_structure):
    # Hand values for two 0.135 kg modules 0.12 m apart along x:
    # Ixx stacks, Iyy and Izz gain 2 m (l/2)^2 = 9.72e-4.
    i_s = pitch_pair_structure.inertia
    np.testing.assert_allclose(i_s[0, 0], 4.05e-4, rtol=1e-12)
    np.testing.assert_allclose(i_s[1, 1], 1.377e-3, rtol=1e-12)
    np.testing.assert_allclose(i_s[2, 2], 1.62e-3, rtol=1e-12)


def test_square_block_inertia_diagonal(quad_tilt_structure):
    i_s = quad_tilt_structure.inertia
    np.testing.assert_allclose(i_s, np.diag(np.diag(i_s)), atol=1e-12)


def test_actuation_ellipsoid_flat(flat_structure):
    sigmas, _ = actuation_ellipsoid(flat_structure)
    np.testing.assert_allclose(sigmas, [2.0, 0.0, 0.0], atol=1e-12)


def test_actuation_ellipsoid_pitch_pair(pitch_pair_structure):
    # Hand SVD of eight unit columns at +-30 degrees from vertical:
    # gram = diag(8 sin^2, 0, 8 cos^2) so sigmas are sqrt(6), sqrt(2), 0.
    sigmas, axes = actuation_ellipsoid(pitch_pair_structure)
    np.testing.assert_allclose(sigmas, [np.sqrt(6.0), np.sqrt(2.0), 0.0], atol=1e-12)
    np.testing.assert_allclose(np.abs(axes[:, 0]), E3, atol=1e-12)


def test_actuation_ellipsoid_quad(quad_tilt_structure):
    sigmas, _ = actuation_ellipsoid(quad_tilt_structure)
    np.testing.assert_allclose(
        sigmas, [np.sqrt(12.0), np.sqrt(2.0), np.sqrt(2.0)], atol=1e-12
    )
    assert np.all(sigmas > 1e-9)


def test_ellipsoid_projection_extents(pitch_pair_structure):
    poly = ellipsoid_xz_polygon(pitch_pair_structure)
    assert poly.shape == (128, 2)
    # Elongated along z: semi-axes sqrt(2) in x, sqrt(6) in z.
    assert abs(np.max(np.abs(poly[:, 0])) - np.sqrt(2.0)) < 1e-3
    assert abs(np.max(np.abs(poly[:, 1])) - np.sqrt(6.0)) < 1e-3


def test_com_is_mass_weighted_center(pitch_pair_structure):
    # Uniform thrust on one balanced module adds no torque about the
    # module's center, so the torque rows show the moment arm from the
    # center of mass: d x F with the modules at -0.06 and +0.06 m along x.
    for i, d in enumerate(([-0.06, 0.0, 0.0], [0.06, 0.0, 0.0])):
        u = np.zeros(8)
        u[4 * i: 4 * i + 4] = 1.0
        w = pitch_pair_structure.thrust_map @ u
        np.testing.assert_allclose(w[3:], np.cross(d, w[:3]), atol=1e-15)
    # A double-mass module at x = 0.12 pulls the center to x = 0.08.
    s = assemble([ModulePlacement(build_r_module()),
                  ModulePlacement(build_r_module(mass=0.27), (1, 0))])
    np.testing.assert_allclose(s.torque_map @ np.repeat([1.0, 0.0], 4), [0.0, 0.32, 0.0],
                               atol=1e-15)
    np.testing.assert_allclose(s.torque_map @ np.repeat([0.0, 1.0], 4), [0.0, -0.16, 0.0],
                               atol=1e-15)


def test_assemble_rejects_collisions_and_empty():
    m = build_r_module()
    with pytest.raises(AssemblyError, match="grid cell"):
        assemble([ModulePlacement(m, (0, 0)), ModulePlacement(m, (0, 0))])
    with pytest.raises(AssemblyError):
        assemble([])


def test_assemble_rejects_mixed_frame_sizes():
    with pytest.raises(AssemblyError, match="frame"):
        assemble([
            ModulePlacement(build_r_module(), (0, 0)),
            ModulePlacement(build_r_module(base=0.2, height=0.06), (1, 0)),
        ])


def test_yawed_first_module_defines_structure_frame():
    # With the first module yawed a quarter turn, the structure frame follows
    # it, so a pitch tilt shows up rolled in the body frame.
    s = assemble([ModulePlacement(build_r_module(beta=np.pi / 18), yaw_quarter_turns=1)])
    unyawed = assemble([ModulePlacement(build_r_module(beta=np.pi / 18))])
    np.testing.assert_allclose(s.thrust_map, unyawed.thrust_map, atol=1e-15)
    assert np.linalg.norm(s.r_sf - rot_y(np.pi / 18)) < 1e-12


def test_half_turn_yaw_equals_opposite_tilt():
    # Yawing a pitched module 180 degrees flips its thrust lean, so the
    # assembly must match the mirrored-tilt build up to rotor numbering
    # (the half turn swaps opposite rotors, which carry equal spins).
    flat = build_r_module()
    yawed = assemble([
        ModulePlacement(flat, (0, 0)),
        ModulePlacement(build_r_module(beta=np.pi / 6), (1, 0), yaw_quarter_turns=2),
    ])
    mirrored = assemble([
        ModulePlacement(flat, (0, 0)),
        ModulePlacement(build_r_module(beta=-np.pi / 6), (1, 0)),
    ])
    perm = [0, 1, 2, 3, 6, 7, 4, 5]
    np.testing.assert_allclose(yawed.thrust_map, mirrored.thrust_map[:, perm], atol=1e-12)
    np.testing.assert_allclose(yawed.r_sf, mirrored.r_sf, atol=1e-12)
    np.testing.assert_allclose(yawed.inertia, mirrored.inertia, atol=1e-15)


def test_quarter_turn_validation():
    with pytest.raises(ValueError):
        ModulePlacement(build_r_module(), yaw_quarter_turns=4)


def test_thrust_frame_degenerate_inputs():
    zero = np.zeros((3, 4))
    with pytest.raises(AssemblyError, match="zero"):
        _thrust_frame(zero, 0, np.linalg.svd(zero)[:2])
    # Colinear columns with opposing signs are not a single shared axis.
    cols = np.column_stack([E3, E3, -E3, E3])
    with pytest.raises(AssemblyError, match="^rank-1 structure with mismatched rotor force axes"):
        _thrust_frame(cols, 1, np.linalg.svd(cols)[:2])


@pytest.mark.parametrize("grid_offset", [(float("inf"), 0), (float("nan"), 0),
                                         (0, float("-inf")), (1.5, 0), ("1", 0),
                                         (10**400, 0), (0, -10**400), (1,), (1, 2, 3), 5, "ab",
                                         ((1, 2), 0)])
def test_grid_offset_must_be_finite_integers(grid_offset):
    with pytest.raises(ValueError, match=r"^grid_offset entries must be finite integers"):
        ModulePlacement(build_r_module(), grid_offset)


def test_grid_offset_accepts_integral_floats():
    assert ModulePlacement(build_r_module(), (2.0, -1.0)).grid_offset == (2, -1)


@pytest.mark.parametrize("far", [(10**160, 0), (0, -10**160), (10**300, 10**300)])
def test_assemble_names_an_overflowing_inertia(far):
    # The parallel-axis terms of far-apart modules overflow; that is named
    # before a rank test can blame the geometry, and no RuntimeWarning
    # (an error in this suite) escapes.
    placements = [ModulePlacement(build_r_module(), (0, 0)), ModulePlacement(build_r_module(), far)]
    with pytest.raises(AssemblyError, match="^structure inertia is not finite"):
        assemble(placements)


@pytest.mark.parametrize("far", [(1, 0), (10**160, 0)])
def test_assemble_names_an_overflowing_total_mass(far):
    # Two masses at the top of float range sum to inf: named before the
    # inertia check (which the far pair would also fail), and the sum's
    # overflow RuntimeWarning (an error in this suite) does not escape.
    heavy = build_r_module(mass=1.7e308)
    placements = [ModulePlacement(heavy, (0, 0)), ModulePlacement(heavy, far)]
    with pytest.raises(AssemblyError, match="^structure total mass is not finite"):
        assemble(placements)


def test_assemble_names_an_overflowing_drag_ratio():
    # k_f and k_m each pass their own bound, but k_m / k_f overflows to inf.
    # The module is named before its torque rows fill with inf and NaN,
    # whose RuntimeWarnings (errors in this suite) would come first.
    message = "^module {} has a drag ratio k_m / k_f beyond float range$"
    with pytest.raises(AssemblyError, match=message.format(1)):
        assemble([ModulePlacement(build_r_module(k_f=1e-300, k_m=1e10))])
    # One rotor of a module built by its constructor is enough.
    good = build_r_module()
    props = list(good.propellers)
    props[2] = dataclasses.replace(props[2], k_f=1e-300, k_m=1e10)
    bad = dataclasses.replace(good, propellers=tuple(props))
    with pytest.raises(AssemblyError, match=message.format(2)):
        assemble([ModulePlacement(good), ModulePlacement(bad, (1, 0))])


@pytest.mark.parametrize("k_f, k_m, shown", [(1.0, 3e7, "3.000e+07"), (1e-300, 1e-10, "1.000e+290"),
                                             (1.0, 1e300, "1.000e+300"), (1.0, 0.0, "0.000e+00")])
def test_rank_deficient_torque_block_names_the_largest_drag_ratio(k_f, k_m, shown):
    # A finite drag ratio large enough to swamp the rotor arms leaves the
    # torque block rank-deficient, as a drag-free flat module does; the
    # error names both causes and the ratio, and no RuntimeWarning escapes.
    message = "^" + re.escape("torque block is rank-deficient; module geometry is degenerate, "
                              f"or the largest k_m / k_f ({shown} m) swamps the rotor arms") + "$"
    with pytest.raises(AssemblyError, match=message):
        assemble([ModulePlacement(build_r_module(k_f=k_f, k_m=k_m))])


@pytest.mark.parametrize("first", [1e-10, 5e-11])
def test_rank_deficient_torque_block_names_the_structures_largest_ratio(first):
    # Whichever module carries it, the largest ratio of the structure is named.
    placements = [ModulePlacement(build_r_module(k_f=1e-300, k_m=first)),
                  ModulePlacement(build_r_module(k_f=1e-300, k_m=1.5e-10 - first), (1, 0))]
    with pytest.raises(AssemblyError, match=re.escape("k_m / k_f (1.000e+290 m)")):
        assemble(placements)


def test_drag_ratio_below_the_arms_still_assembles():
    # On one default module 2e7 still spans three torque directions.
    assert assemble([ModulePlacement(build_r_module(k_m=2e7))]).thrust_map.shape == (6, 4)


def _tilted_block(tilt):
    # The experiment3 layout: pitch tilts on one diagonal, roll on the other.
    return [ModulePlacement(build_r_module(beta=tilt), (0, 0)),
            ModulePlacement(build_r_module(beta=-tilt), (1, 1)),
            ModulePlacement(build_r_module(alpha=tilt), (1, 0)),
            ModulePlacement(build_r_module(alpha=-tilt), (0, 1))]


# (name, placements, rank, size of the top tied group, r_sf). The +-45
# degree pair ties sigma_x with sigma_z; at atan(sqrt 2) the block ties all
# three. Flatter blocks tie x with y below z. Steeper ones tie them above
# z, so z leans on the body x-axis (E3 and the uniform thrust have no part
# in that group) and x on the body y-axis.
_PERMUTED = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
TIED_LAYOUTS = [
    ("pair_45", [ModulePlacement(build_r_module(beta=np.pi / 4), (0, 0)),
                 ModulePlacement(build_r_module(beta=-np.pi / 4), (1, 0))], 2, 2, np.eye(3)),
    ("block_atan_sqrt2", _tilted_block(math.atan(math.sqrt(2.0))), 3, 3, np.eye(3)),
    ("block_45", _tilted_block(np.deg2rad(45.0)), 3, 1, np.eye(3)),
    ("block_50", _tilted_block(np.deg2rad(50.0)), 3, 1, np.eye(3)),
    ("block_60", _tilted_block(np.deg2rad(60.0)), 3, 2, _PERMUTED),
    ("block_70", _tilted_block(np.deg2rad(70.0)), 3, 2, _PERMUTED),
]


@pytest.mark.parametrize("name, placements, rank, top, r_sf", TIED_LAYOUTS,
                         ids=[case[0] for case in TIED_LAYOUTS])
def test_tied_singular_values_give_the_one_rule_frame(name, placements, rank, top, r_sf):
    structure = assemble(placements)
    s = structure.force_sigmas
    assert structure.rank_f == rank
    assert np.sum(s[0] - s <= 1e-9 * s[0]) == top
    np.testing.assert_allclose(structure.r_sf, r_sf, atol=1e-12)


@pytest.mark.parametrize("name, placements", [case[:2] for case in TIED_LAYOUTS[:2]],
                         ids=[case[0] for case in TIED_LAYOUTS[:2]])
def test_tied_layouts_fly_the_level_rectangle(name, placements):
    res = run_closed_loop(assemble(placements), rectangle(),
                          params=SimParams(dt=0.001, duration=10.0))
    assert res.rms_pos_err(t_min=3.0) < 0.01


def _same_axis_strip(rng, tilt, first, n):
    """``n`` modules in a row, each tilted about one axis and yawed so that
    all rotors push along one axis: one more quarter turn of yaw moves the
    tilt (0, t) -> (t, 0) -> (0, -t) -> (-t, 0). ``first`` indexes the first
    module's tilt in that cycle. Returns the placements and that tilt as
    (alpha, beta)."""
    cycle = [(0.0, tilt), (tilt, 0.0), (0.0, -tilt), (-tilt, 0.0)]
    yaws = rng.integers(4, size=n)
    tilts = [cycle[(first + yaw - yaws[0]) % 4] for yaw in yaws]
    return [ModulePlacement(build_r_module(alpha=alpha, beta=beta), (k, 0), int(yaw))
            for k, ((alpha, beta), yaw) in enumerate(zip(tilts, yaws))], tilts[0]


def _single_axis_rank1_cases():
    """(name, placements, (alpha, beta) of the first module): the flat and
    tilt10 modules and seeded strips of 1-6 modules, the first tilted about
    its pitch or its roll axis."""
    cases = [("flat", [ModulePlacement(build_r_module())], (0.0, 0.0)),
             ("tilt10", [ModulePlacement(build_r_module(beta=np.pi / 18))], (0.0, np.pi / 18))]
    rng = np.random.default_rng(1201)
    for k in range(24):
        tilt = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.02, 1.2))
        cases.append((f"strip{k}", *_same_axis_strip(rng, tilt, k % 4, 1 + k % 6)))
    return cases


RANK1_CASES = _single_axis_rank1_cases()


@pytest.mark.parametrize("name, placements, tilt", RANK1_CASES,
                         ids=[case[0] for case in RANK1_CASES])
def test_rank1_single_axis_tilt_frame_is_the_rotor_rotation(name, placements, tilt):
    # At rank 1 x is the body x-axis with its z part removed, which is the
    # rotor rotation's own x-axis when the tilt is about one axis only.
    structure = assemble(placements)
    assert structure.rank_f == 1
    alpha, beta = tilt
    np.testing.assert_allclose(structure.r_sf, rot_y(beta) @ rot_x(alpha), rtol=0, atol=1e-15)


def test_rank1_two_axis_tilt_frame_follows_the_one_rule():
    alpha = beta = np.deg2rad(10.0)
    structure = assemble([ModulePlacement(build_r_module(alpha=alpha, beta=beta))])
    rotor = rot_y(beta) @ rot_x(alpha)
    z_axis = rotor @ E3
    x_axis = E1 - z_axis[0] * z_axis
    assert structure.rank_f == 1
    np.testing.assert_allclose(structure.r_sf[:, 2], z_axis, rtol=0, atol=1e-15)
    np.testing.assert_allclose(structure.r_sf[:, 0], x_axis / np.linalg.norm(x_axis),
                               rtol=0, atol=1e-15)
    # Not the rotor rotation: a 1.75 degree turn about the rotor axis away.
    turn = structure.r_sf.T @ rotor
    np.testing.assert_allclose(turn @ E3, E3, atol=1e-15)
    assert abs(np.degrees(rotation_angle(turn)) - 1.75) < 0.01
    res = run_closed_loop(structure, helix, params=SimParams(dt=0.001, duration=17.0))
    assert res.rms_pos_err(t_min=3.0) < 0.01
