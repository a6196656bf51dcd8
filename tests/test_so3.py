import numpy as np

from modrotor.so3 import E1, E2, E3, exp_map, is_rotation, rot_x, rot_y, rot_z, rotation_angle


def test_rot_zero_angle_is_identity():
    np.testing.assert_array_equal(rot_x(0.0), np.eye(3))


def test_rot_y_quarter_turn_maps_e3_to_e1():
    np.testing.assert_allclose(rot_y(np.pi / 2) @ E3, E1, atol=1e-15)


def test_rot_y_ten_degrees_entries():
    # Direct trigonometric evaluation of the x-z block.
    r = rot_y(np.pi / 18)
    c, s = np.cos(np.pi / 18), np.sin(np.pi / 18)
    np.testing.assert_allclose(
        r, [[c, 0, s], [0, 1, 0], [-s, 0, c]], rtol=0, atol=0
    )
    np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-15)


def test_rotation_inverse_is_transpose():
    rng = np.random.default_rng(7)
    for rot in (rot_x, rot_y, rot_z):
        for angle in rng.uniform(-10, 10, size=20):
            assert np.linalg.norm(rot(angle) @ rot(-angle) - np.eye(3)) < 1e-12


def test_exp_map_zero_and_axis_aligned():
    np.testing.assert_array_equal(exp_map(np.zeros(3)), np.eye(3))
    v = np.array([0.0, np.pi / 2, 0.0])
    assert np.linalg.norm(exp_map(v) - rot_y(np.pi / 2)) < 1e-12
    rng = np.random.default_rng(3)
    for rot, e in ((rot_x, E1), (rot_y, E2), (rot_z, E3)):
        for angle in rng.uniform(-3, 3, size=10):
            assert np.linalg.norm(exp_map(angle * e) - rot(angle)) < 1e-12


def test_exp_map_small_angle_first_order():
    rng = np.random.default_rng(4)
    for scale in (1e-3, 1e-5, 1e-7, 1e-9):
        v = scale * rng.normal(size=3)
        # Column i of the first-order term is v x e_i.
        err = np.linalg.norm(exp_map(v) - np.eye(3) - np.cross(v, np.eye(3)).T)
        assert err <= np.linalg.norm(v) ** 2 + 1e-30


def test_exp_map_output_is_rotation():
    rng = np.random.default_rng(5)
    for _ in range(50):
        assert is_rotation(exp_map(rng.normal(size=3) * 3), tol=1e-9)


def test_rotation_angle():
    assert rotation_angle(np.eye(3)) == 0.0
    assert abs(rotation_angle(rot_y(0.3)) - 0.3) < 1e-12
    assert abs(rotation_angle(rot_y(0.2), rot_y(0.5)) - 0.3) < 1e-12
