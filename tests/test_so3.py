import numpy as np
import pytest

from modrotor.so3 import E1, E2, E3, is_rotation, rot_x, rot_y, rot_z, rotation_angle

from conftest import exp_map


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


def test_rodrigues_zero_and_axis_aligned():
    np.testing.assert_array_equal(exp_map(np.zeros(3)), np.eye(3))
    v = np.array([0.0, np.pi / 2, 0.0])
    assert np.linalg.norm(exp_map(v) - rot_y(np.pi / 2)) < 1e-12
    rng = np.random.default_rng(3)
    for rot, e in ((rot_x, E1), (rot_y, E2), (rot_z, E3)):
        for angle in rng.uniform(-3, 3, size=10):
            assert np.linalg.norm(exp_map(angle * e) - rot(angle)) < 1e-12


def test_rodrigues_small_angle_first_order():
    rng = np.random.default_rng(4)
    for scale in (1e-3, 1e-5, 1e-7, 1e-9):
        v = scale * rng.normal(size=3)
        # Column i of the first-order term is v x e_i.
        err = np.linalg.norm(exp_map(v) - np.eye(3) - np.cross(v, np.eye(3)).T)
        assert err <= np.linalg.norm(v) ** 2 + 1e-30


def test_rodrigues_output_is_rotation():
    rng = np.random.default_rng(5)
    for _ in range(50):
        assert is_rotation(exp_map(rng.normal(size=3) * 3), tol=1e-9)


def test_rotation_angle():
    assert rotation_angle(np.eye(3)) == 0.0
    assert abs(rotation_angle(rot_y(0.3)) - 0.3) < 1e-12
    assert abs(rotation_angle(rot_y(0.2), rot_y(0.5)) - 0.3) < 1e-12


def _oracle_is_rotation(r, tol=1e-9):
    return bool(np.linalg.norm(r @ r.T - np.eye(3)) < tol and abs(np.linalg.det(r) - 1.0) < tol)


def test_is_rotation_matches_numpy_oracle():
    # Perturbations of Frobenius norm 1e-12..1e-10 stay well inside the 1e-9
    # tolerance and those of 1e-8..1e-6 mostly well outside, so the float
    # and numpy arithmetic cannot disagree through rounding at the edge.
    rng = np.random.default_rng(11)
    results = []
    for scale in np.concatenate([np.logspace(-12, -10, 60), np.logspace(-8, -6, 60)]):
        noise = rng.normal(size=(3, 3))
        r = exp_map(rng.normal(size=3) * 2.0) + scale * noise / np.linalg.norm(noise)
        results.append(is_rotation(r))
        assert results[-1] == _oracle_is_rotation(r), scale
    assert all(results[:60]) and not any(results[60:])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("r", [
    np.full((3, 3), np.nan), np.diag([1.0, np.inf, 1.0]), np.diag([1.0, 1.0, -np.inf]),
    np.diag([1.0, 1.0, -1.0]), 2.0 * np.eye(3), np.eye(2), [[1, 0], [0, 1, 0]], "eye",
    np.eye(3)[:, :, None], np.eye(3).ravel(),
], ids=["nan", "inf", "-inf", "reflection", "2I", "2x2", "ragged", "string", "3x3x1", "9"])
def test_is_rotation_rejects_non_rotations(r):
    assert is_rotation(r) is False
