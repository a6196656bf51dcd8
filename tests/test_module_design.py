import dataclasses
from functools import partial

import numpy as np
import pytest

from modrotor.module_design import (
    ModuleSpec,
    PropellerSpec,
    build_r_module,
    check_balanced,
    cuboid_inertia,
    propeller_orientation,
)
from modrotor.structure import ModulePlacement, assemble
from modrotor.so3 import E3, rot_x, rot_y


def test_propeller_orientation_identity():
    np.testing.assert_array_equal(propeller_orientation(0.0, 0.0), np.eye(3))


def test_propeller_orientation_pitch_only_matches_y_rotation():
    np.testing.assert_array_equal(
        propeller_orientation(0.0, np.pi / 18), rot_y(np.pi / 18)
    )


def test_propeller_orientation_combined_tilt_direction():
    # Hand evaluation: rot_y(30) applied to rot_x(30) e3 = (0, -1/2, cos30)
    # gives (sin30 cos30, -1/2, cos30^2).
    axis = propeller_orientation(np.pi / 6, np.pi / 6) @ E3
    expected = np.array([0.4330127018922193, -0.5, 0.75])
    np.testing.assert_allclose(axis, expected, atol=1e-15)
    assert axis[0] > 0 and axis[1] < 0


def test_propeller_orientation_range_check():
    with pytest.raises(ValueError):
        propeller_orientation(np.pi, 0.0)
    with pytest.raises(ValueError):
        propeller_orientation(0.0, -2.0)


def test_cuboid_inertia_values():
    # m (l^2 + h^2)/12 and m (2 l^2)/12 for the bench-scale module.
    i = cuboid_inertia(0.135, 0.12, 0.06)
    np.testing.assert_allclose(np.diag(i), [2.025e-4, 2.025e-4, 3.24e-4], rtol=1e-12)
    assert np.all(i == np.diag(np.diag(i)))


def test_build_r_module_geometry():
    m = build_r_module(0.135, 0.12, 0.06, 0.0, np.pi / 18)
    d = 0.03
    np.testing.assert_array_equal(m.propellers[0].position, [d, -d, 0.0])
    np.testing.assert_array_equal(m.propellers[1].position, [d, d, 0.0])
    np.testing.assert_array_equal(m.propellers[2].position, [-d, d, 0.0])
    np.testing.assert_array_equal(m.propellers[3].position, [-d, -d, 0.0])
    assert [p.spin for p in m.propellers] == [1, -1, 1, -1]
    for p in m.propellers:
        np.testing.assert_array_equal(p.orientation, m.tilt)


def test_bench_module_is_balanced():
    report = check_balanced(build_r_module(0.135, 0.12, 0.06, 0.0, np.pi / 18))
    assert report.is_balanced
    assert abs(report.thrust_gain - 4.0) < 1e-12


def test_flat_module_balance_is_exact():
    report = check_balanced(build_r_module())
    assert report.is_balanced
    np.testing.assert_array_equal(report.torque_from_forces, np.zeros(3))
    np.testing.assert_array_equal(report.torque_from_drag, np.zeros(3))
    np.testing.assert_array_equal(report.total_force_axis, E3)
    assert report.thrust_gain == 4.0


def test_thirty_degree_module_orientations():
    m = build_r_module(beta=np.pi / 6)
    for p in m.propellers:
        np.testing.assert_array_equal(p.orientation, rot_y(np.pi / 6))


def test_random_shared_tilt_modules_balanced():
    rng = np.random.default_rng(11)
    for _ in range(50):
        alpha, beta = rng.uniform(-np.pi / 2, np.pi / 2, size=2)
        report = check_balanced(build_r_module(alpha=alpha, beta=beta))
        assert report.is_balanced
        assert abs(report.thrust_gain - 4.0) < 1e-12
        assert np.max(np.abs(report.torque_from_forces)) < 1e-12
        assert np.max(np.abs(report.torque_from_drag)) < 1e-12


def test_perturbed_orientation_breaks_balance():
    m = build_r_module(beta=np.pi / 18)
    props = list(m.propellers)
    props[1] = dataclasses.replace(props[1], orientation=rot_x(0.2) @ props[1].orientation)
    perturbed = ModuleSpec(
        mass=m.mass, inertia=m.inertia, base=m.base, height=m.height,
        propellers=tuple(props), tilt=m.tilt,
    )
    report = check_balanced(perturbed)
    assert not report.is_balanced
    # The drag constraint is violated by construction: one axis rotated away.
    assert np.max(np.abs(report.torque_from_drag)) > 1e-3


def module_wrench(module, u):
    """Force and torque of one module for rotor thrusts ``u``: the thrust
    map of the module assembled alone, whose frame is the module's own."""
    return assemble([ModulePlacement(module)]).thrust_map @ np.asarray(u, dtype=float)


def test_module_wrench_zero_input():
    w = module_wrench(build_r_module(), np.zeros(4))
    np.testing.assert_array_equal(w, np.zeros(6))


def test_module_wrench_uniform_flat():
    w = module_wrench(build_r_module(), np.ones(4))
    np.testing.assert_allclose(w[:3], 4.0 * E3, atol=0)
    np.testing.assert_allclose(w[3:], np.zeros(3), atol=1e-15)


def test_module_wrench_alternating_pairs_spin_torque():
    # Opposite rotor pairs give the same lift but mirrored drag torque:
    # spins (+, -, +, -) so [1,0,1,0] picks +2 k_m/k_f and [0,1,0,1] -2.
    m = build_r_module()
    w13 = module_wrench(m, [1.0, 0.0, 1.0, 0.0])
    w24 = module_wrench(m, [0.0, 1.0, 0.0, 1.0])
    np.testing.assert_allclose(w13[:3], 2.0 * E3, atol=1e-15)
    np.testing.assert_allclose(w24[:3], 2.0 * E3, atol=1e-15)
    np.testing.assert_allclose(w13[3:], [0.0, 0.0, 0.012], atol=1e-15)
    np.testing.assert_allclose(w24[3:], [0.0, 0.0, -0.012], atol=1e-15)


def test_module_wrench_linear_in_thrust():
    rng = np.random.default_rng(12)
    m = build_r_module(alpha=0.4, beta=-0.25)
    for _ in range(20):
        u1, u2 = rng.uniform(0, 0.5, size=(2, 4))
        a, b = rng.uniform(0, 1.5, size=2)
        combined = module_wrench(m, a * u1 + b * u2)
        np.testing.assert_allclose(
            combined, a * module_wrench(m, u1) + b * module_wrench(m, u2), atol=1e-12
        )


def test_module_wrench_uniform_force_along_tilt_axis():
    rng = np.random.default_rng(13)
    for _ in range(20):
        alpha, beta = rng.uniform(-np.pi / 2, np.pi / 2, size=2)
        m = build_r_module(alpha=alpha, beta=beta)
        w = module_wrench(m, np.ones(4))
        assert np.linalg.norm(np.cross(w[:3], m.tilt @ E3)) < 1e-12


def test_module_spec_validation():
    m = build_r_module()
    with pytest.raises(ValueError):
        ModuleSpec(mass=m.mass, inertia=m.inertia, base=m.base, height=m.height,
                   propellers=m.propellers[:3], tilt=m.tilt)
    bad_spins = [dataclasses.replace(p, spin=1) for p in m.propellers]
    with pytest.raises(ValueError):
        ModuleSpec(mass=m.mass, inertia=m.inertia, base=m.base, height=m.height,
                   propellers=tuple(bad_spins), tilt=m.tilt)
    with pytest.raises(ValueError):
        PropellerSpec(position=np.zeros(3), orientation=np.eye(3), spin=2)
    with pytest.raises(ValueError):
        PropellerSpec(position=np.zeros(3), orientation=np.eye(3), spin=1, k_f=0.0)


@pytest.mark.parametrize("offset, mirrored", [(0.0, True), (5e-13, True), (5e-12, False),
                                               (1e-6, False)])
def test_mirrored_pairs_within_1e12(offset, mirrored):
    # p1 = -p3 and p2 = -p4 must hold to 1e-12 m in every coordinate.
    m = build_r_module()
    props = list(m.propellers)
    props[2] = dataclasses.replace(props[2], position=props[2].position + [0.0, offset, 0.0])
    make = partial(ModuleSpec, mass=m.mass, inertia=m.inertia, base=m.base, height=m.height,
                   propellers=tuple(props), tilt=m.tilt)
    if mirrored:
        make()
    else:
        with pytest.raises(ValueError, match="mirrored pairs"):
            make()
