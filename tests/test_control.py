import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from modrotor import (
    AllocationError,
    AssemblyError,
    ControlDegeneracyError,
    Controller,
    Gains,
    RigidState,
    actuation_ellipsoid,
    assemble,
)
from modrotor import control
from modrotor.config import GainsConfig
from modrotor.lazy import finite_array
from modrotor.structure import _thrust_frame
from modrotor.so3 import E1, E3, rot_x, rot_y, rot_z
from modrotor.trajectory import TrajectorySample

from conftest import (_oracle_cross, _oracle_is_rotation, accelerations, exp_map,
                      overflowing_allocation)

G = 9.81


def min_norm_oracle(m, b):
    """Exact minimum-norm solution via the normal equations of m m^T."""
    return m.T @ np.linalg.solve(m @ m.T, b)


def level_state(r=(0, 0, 0), v=(0, 0, 0), r_ws=None, omega=(0, 0, 0)):
    return RigidState(
        r=np.array(r, float), v=np.array(v, float),
        r_ws=np.eye(3) if r_ws is None else r_ws, omega=np.array(omega, float),
    )


def still_sample(r=(0, 0, 0), yaw=0.0, pitch=0.0, a_r=(0, 0, G)):
    """Sample at rest with the attitude target rot_z(yaw) @ rot_y(pitch),
    whose commanded acceleration from a state at ``r`` with zero velocity
    is exactly ``a_r``."""
    a_d = np.array(a_r, float) - G * E3
    return TrajectorySample(t=0.0, r_d=np.array(r, float), v_d=np.zeros(3),
                            a_d=a_d, r_wf_d=rot_z(yaw) @ rot_y(pitch))


def strong_axis_thrust(structure, out):
    """Commanded force along the thrust frame's z-axis."""
    return float((structure.r_sf.T @ out.desired_wrench.force)[2])


def commanded_accel(structure, state, sample, gains=None):
    """Acceleration the 6-DOF controller commands, read off its body force."""
    out = Controller(structure, gains, G).step(state, sample)
    return state.r_ws @ out.desired_wrench.force / structure.total_mass


def commanded_torque(structure, r_wf, r_wf_d, omega=(0, 0, 0), omega_d=(0, 0, 0), gains=None):
    """Torque the 6-DOF controller commands with its thrust frame at world
    attitude ``r_wf`` and the target ``r_wf_d``, at the position target."""
    state = level_state(r_ws=r_wf @ structure.r_sf.T, omega=omega)
    sample = TrajectorySample(t=0.0, r_d=np.zeros(3), v_d=np.zeros(3), a_d=np.zeros(3),
                              r_wf_d=r_wf_d, omega_d=np.array(omega_d, float))
    return Controller(structure, gains, G).step(state, sample).desired_wrench.torque


def desired_attitude(structure, a_r, yaw=0.0, pitch=0.0):
    """Thrust-frame target a 4- or 5-DOF controller builds for the
    commanded acceleration ``a_r`` from a level state at rest."""
    sample = still_sample(yaw=yaw, pitch=pitch, a_r=a_r)
    return Controller(structure, gravity=G).step(level_state(), sample).desired_attitude


class TestPositionAccel:
    def test_hover_feed_forward_only(self, quad_tilt_structure):
        a = commanded_accel(quad_tilt_structure, level_state(), still_sample(), Gains())
        np.testing.assert_allclose(a, G * E3, rtol=1e-15, atol=1e-15)

    def test_single_axis_error(self, quad_tilt_structure):
        gains = Gains(k_pos=2.0, k_vel=1.0, k_rot=1.0, k_ang=1.0)
        a = commanded_accel(quad_tilt_structure, level_state(), still_sample(r=(1, 0, 0)), gains)
        np.testing.assert_allclose(a, [2.0, 0.0, G], rtol=1e-15, atol=1e-15)

    def test_velocity_term(self, quad_tilt_structure):
        gains = Gains(k_pos=2.0, k_vel=3.0, k_rot=1.0, k_ang=1.0)
        a = commanded_accel(quad_tilt_structure, level_state(v=(0, 1, 0)), still_sample(), gains)
        np.testing.assert_allclose(a, [0.0, -3.0, G], rtol=1e-15, atol=1e-15)


class TestAttitudeError:
    # With no rate, no rate error and gain k_rot, the 6-DOF torque is
    # -k_rot * I @ e_rot, so it carries the rotation error.
    def test_aligned_is_zero(self, quad_tilt_structure):
        for r_wf in (np.eye(3), rot_z(0.3) @ rot_y(-0.2)):
            tau = commanded_torque(quad_tilt_structure, r_wf, r_wf)
            np.testing.assert_allclose(tau, np.zeros(3), atol=1e-15)

    def test_yaw_offset_error(self, quad_tilt_structure):
        # Frame rotated from target by rot_z(theta): error is sin(theta) e3.
        gains = Gains(k_pos=1, k_vel=1, k_rot=5.0, k_ang=1.0)
        inertia = quad_tilt_structure.inertia
        for theta in (0.1, 0.5, -0.3):
            tau = commanded_torque(quad_tilt_structure, rot_z(theta), np.eye(3), gains=gains)
            np.testing.assert_allclose(tau, -5.0 * inertia @ [0, 0, np.sin(theta)],
                                       rtol=1e-12, atol=1e-15)

    def test_omega_transport(self, quad_tilt_structure):
        # The desired rate enters rotated into the current frame by
        # R_wf^T R_d: from zero rate, it adds k_ang * I @ R_wf^T R_d omega_d.
        gains = Gains(k_pos=1, k_vel=1, k_rot=1.0, k_ang=3.0)
        r_wf_d, omega_d = rot_z(0.7), np.array([0.4, -0.3, 0.1])
        still = commanded_torque(quad_tilt_structure, np.eye(3), r_wf_d, gains=gains)
        moving = commanded_torque(quad_tilt_structure, np.eye(3), r_wf_d, omega_d=omega_d,
                                  gains=gains)
        np.testing.assert_allclose(moving - still,
                                   3.0 * quad_tilt_structure.inertia @ r_wf_d @ omega_d,
                                   rtol=1e-12, atol=1e-15)


class TestAttitudeTorque:
    def test_zero_error_zero_torque(self, quad_tilt_structure):
        tau = commanded_torque(quad_tilt_structure, np.eye(3), np.eye(3))
        np.testing.assert_array_equal(tau, np.zeros(3))

    def test_single_axis_gain(self, quad_tilt_structure):
        # A rotation error of 0.1 about z alone: -k_rot * 0.1 * I_zz on z.
        gains = Gains(k_pos=1, k_vel=1, k_rot=5.0, k_ang=1.0)
        tau = commanded_torque(quad_tilt_structure, rot_z(np.arcsin(0.1)), np.eye(3), gains=gains)
        i_zz = quad_tilt_structure.inertia[2, 2]
        np.testing.assert_allclose(tau, [0, 0, -0.5 * i_zz], rtol=1e-12, atol=1e-15)

    def test_gyroscopic_feed_forward(self, quad_tilt_structure):
        # Aligned and at the desired rate: only omega x I omega remains.
        i_s = quad_tilt_structure.inertia
        omega = np.array([0.3, -0.2, 0.5])
        tau = commanded_torque(quad_tilt_structure, np.eye(3), np.eye(3), omega, omega)
        np.testing.assert_allclose(tau, np.cross(omega, i_s @ omega), rtol=1e-12, atol=1e-15)


class TestDesiredAttitude4:
    def test_hover_identity(self, flat_structure, tilt10_structure):
        for structure in (flat_structure, tilt10_structure):
            np.testing.assert_allclose(desired_attitude(structure, G * E3), np.eye(3), atol=1e-15)

    def test_hover_with_yaw(self, flat_structure, tilt10_structure):
        for structure in (flat_structure, tilt10_structure):
            np.testing.assert_allclose(
                desired_attitude(structure, G * E3, yaw=np.pi / 2), rot_z(np.pi / 2), atol=1e-15
            )

    def test_lateral_acceleration_tilts_thrust_axis(self, flat_structure, tilt10_structure):
        a_r = np.array([1.0, 0.0, G])
        for structure in (flat_structure, tilt10_structure):
            r = desired_attitude(structure, a_r)
            assert _oracle_is_rotation(r, tol=1e-12)
            np.testing.assert_allclose(r @ E3, a_r / np.linalg.norm(a_r), atol=1e-12)
            # Zero yaw keeps the x-axis in the xz-plane.
            assert abs((r @ E1)[1]) < 1e-12

    def test_heading_ignores_pitch(self, flat_structure, tilt10_structure):
        # A pitched target has the heading of its yaw alone: the desired
        # frame is the one for the level target, whose y-axis is normal to
        # that heading.
        a_r = np.array([1.0, 0.5, G])
        for structure in (flat_structure, tilt10_structure):
            for yaw, pitch in [(0.0, 0.4), (0.7, -0.6), (-2.0, 1.2)]:
                level = desired_attitude(structure, a_r, yaw)
                pitched = desired_attitude(structure, a_r, yaw, pitch)
                np.testing.assert_allclose(pitched, level, rtol=0, atol=1e-15)
                assert abs(pitched[:, 1] @ [np.cos(yaw), np.sin(yaw), 0.0]) < 1e-15

    def test_degenerate_inputs_raise(self, flat_structure, tilt10_structure):
        for structure in (flat_structure, tilt10_structure):
            with pytest.raises(ControlDegeneracyError, match="too small"):
                desired_attitude(structure, np.zeros(3))
            with pytest.raises(ControlDegeneracyError, match="heading"):
                desired_attitude(structure, np.array([1.0, 0.0, 0.0]))  # thrust along heading
            with pytest.raises(ControlDegeneracyError, match="heading"):
                desired_attitude(structure, G * E3, pitch=np.pi / 2)  # no horizontal heading


class TestThrust4:
    def test_hover_aligned(self, flat_structure):
        out = Controller(flat_structure).step(level_state(), still_sample())
        assert abs(strong_axis_thrust(flat_structure, out) - flat_structure.total_mass * G) < 1e-12

    def test_orthogonal_acceleration_gives_zero(self, flat_structure):
        sample = still_sample(yaw=np.pi / 2, a_r=(1.0, 0.0, 0.0))
        out = Controller(flat_structure).step(level_state(), sample)
        assert abs(strong_axis_thrust(flat_structure, out)) < 1e-15

    def test_counter_tilted_module_full_projection(self, tilt10_structure):
        # Body tilted opposite the rotor tilt: strong axis is vertical.
        state = level_state(r_ws=tilt10_structure.r_sf.T)
        out = Controller(tilt10_structure).step(state, still_sample())
        f = strong_axis_thrust(tilt10_structure, out)
        assert abs(f - tilt10_structure.total_mass * G) < 1e-12


class TestBuildA4:
    def test_flat_signs_all_positive(self, flat_structure):
        ctrl = Controller(flat_structure)
        np.testing.assert_array_equal(ctrl.rows, [2, 3, 4, 5])
        assert ctrl.reduced_map.shape == (4, 4)
        np.testing.assert_allclose(ctrl.reduced_map[0], np.ones(4), atol=1e-15)
        np.testing.assert_allclose(ctrl.reduced_map[1:], flat_structure.torque_map, atol=0)

    def test_tilt10_signs_all_positive(self, tilt10_structure):
        # The strong-axis row of a tilted module is its all-ones thrust row.
        np.testing.assert_allclose(
            Controller(tilt10_structure).reduced_map[0], np.ones(4), atol=1e-15
        )

    def test_flipped_axis_sign(self, flat_structure):
        # A rank-1 force block whose rotors do not all push the same way
        # never reaches the controller: the thrust frame rejects it.
        flipped = np.array(flat_structure.force_map)
        flipped[:, 2] *= -1.0
        with pytest.raises(AssemblyError):
            _thrust_frame(flipped, 1, np.linalg.svd(flipped)[:2])

    def test_wrong_rank_rejected(self, flat_structure):
        # All six rows of a single module's map cannot be realized.
        with pytest.raises(AllocationError):
            Controller(replace(flat_structure, rank_f=3))


class TestAllocate4:
    def test_uniform_split(self, flat_structure):
        sample = still_sample(a_r=(0.0, 0.0, 4.0 / flat_structure.total_mass))
        out = Controller(flat_structure).step(level_state(), sample)
        np.testing.assert_allclose(out.u, np.ones(4), atol=1e-12)
        assert not out.saturated
        assert out.mode == "4dof"

    def test_pure_spin_torque_alternates(self, flat_structure):
        u = Controller(flat_structure).pinv @ np.array([0.0, 0.0, 0.0, 1e-3])
        assert u[0] > 0 and u[2] > 0 and u[1] < 0 and u[3] < 0

    def test_consistency_and_minimality(self, tilt10_structure):
        rng = np.random.default_rng(31)
        ctrl = Controller(tilt10_structure)
        for _ in range(50):
            b = np.concatenate([[rng.uniform(0, 5)], rng.uniform(-0.02, 0.02, 3)])
            u = ctrl.pinv @ b
            np.testing.assert_allclose(ctrl.reduced_map @ u, b, atol=1e-9)
            assert np.linalg.norm(u) <= np.linalg.norm(min_norm_oracle(ctrl.reduced_map, b)) + 1e-9

    def test_saturation_flag(self, flat_structure):
        out = Controller(flat_structure).step(level_state(), still_sample(r=(0, 0, 100.0)))
        assert out.saturated
        assert np.all(out.u <= flat_structure.f_max + 1e-15)


class TestDesiredAttitude5:
    def test_hover_identity(self, pitch_pair_structure):
        np.testing.assert_allclose(desired_attitude(pitch_pair_structure, G * E3), np.eye(3),
                                   atol=1e-15)

    def test_pitch_command_is_exact(self, pitch_pair_structure):
        # The x column must be exactly the target's x-axis, which carries
        # its yaw and pitch.
        for yaw, pitch in [(0.0, np.deg2rad(-5)), (0.4, 0.3), (-1.0, -0.6)]:
            r = desired_attitude(pitch_pair_structure, G * E3, yaw, pitch)
            np.testing.assert_array_equal(r[:, 0], (rot_z(yaw) @ rot_y(pitch))[:, 0])

    def test_minus_five_degree_column(self, pitch_pair_structure):
        r = desired_attitude(pitch_pair_structure, G * E3, pitch=np.deg2rad(-5.0))
        expected = [np.cos(np.deg2rad(-5.0)), 0.0, -np.sin(np.deg2rad(-5.0))]
        np.testing.assert_allclose(r[:, 0], expected, atol=1e-15)

    def test_orthonormal_for_random_inputs(self, pitch_pair_structure):
        rng = np.random.default_rng(32)
        for _ in range(50):
            a_r = rng.normal(size=3) + [0, 0, 12.0]
            r = desired_attitude(pitch_pair_structure, a_r, rng.uniform(-np.pi, np.pi),
                                 rng.uniform(-0.5, 0.5))
            assert np.linalg.norm(r.T @ r - np.eye(3)) < 1e-12

    def test_degenerate_alignment_raises(self, pitch_pair_structure):
        with pytest.raises(ControlDegeneracyError, match="x-axis"):
            desired_attitude(pitch_pair_structure, np.array([1.0, 0.0, 0.0]))


class TestAllocate5:
    def test_symmetric_hover_split(self, pitch_pair_structure):
        # Eight rotors tilted 30 degrees sharing a pure strong-axis force.
        nm_g = pitch_pair_structure.total_mass * G
        u = Controller(pitch_pair_structure).pinv @ np.array([nm_g, 0.0, 0.0, 0.0, 0.0])
        expected = nm_g / (8.0 * np.cos(np.pi / 6))
        np.testing.assert_allclose(u, np.full(8, expected), atol=1e-12)

    def test_lateral_force_antisymmetric(self, pitch_pair_structure):
        u = Controller(pitch_pair_structure).pinv @ np.array([0.0, 1.0, 0.0, 0.0, 0.0])
        # Modules tilt opposite ways, so net lateral force needs opposing
        # thrust sums; strong-axis force stays zero.
        assert abs(np.sum(u[:4]) + np.sum(u[4:])) < 1e-12
        assert np.sum(u[:4]) > 0.1

    def test_consistency_and_minimality(self, pitch_pair_structure):
        rng = np.random.default_rng(33)
        ctrl = Controller(pitch_pair_structure)
        np.testing.assert_array_equal(ctrl.rows, [2, 0, 3, 4, 5])
        for _ in range(50):
            b = np.concatenate([rng.uniform([0, -1], [6, 1]), rng.uniform(-0.02, 0.02, 3)])
            u = ctrl.pinv @ b
            np.testing.assert_allclose(ctrl.reduced_map @ u, b, atol=1e-9)
            assert np.linalg.norm(u) <= np.linalg.norm(min_norm_oracle(ctrl.reduced_map, b)) + 1e-9

    def test_wrong_rank_rejected(self, flat_structure):
        # A single module has no force along the thrust frame's x-axis.
        with pytest.raises(AllocationError):
            Controller(replace(flat_structure, rank_f=2))


class TestAllocate6:
    def test_hover_equilibrium(self, quad_tilt_structure):
        state = level_state(r_ws=quad_tilt_structure.r_sf.T)
        out = Controller(quad_tilt_structure).step(state, still_sample())
        wrench = quad_tilt_structure.thrust_map @ out.u_raw
        np.testing.assert_allclose(
            wrench[:3], quad_tilt_structure.total_mass * G * quad_tilt_structure.r_sf @ E3,
            atol=1e-9,
        )
        np.testing.assert_allclose(wrench[3:], np.zeros(3), atol=1e-9)
        assert np.all(out.u_raw > 0)

    def test_lateral_acceleration_realized(self, quad_tilt_structure):
        a_cmd = np.array([0.8, -0.4, G + 0.3])
        state = level_state(r_ws=quad_tilt_structure.r_sf.T)
        out = Controller(quad_tilt_structure).step(state, still_sample(a_r=a_cmd))
        assert not out.saturated
        rdd, wdd = accelerations(quad_tilt_structure, state.r_ws, state.omega, out.u_raw, G)
        np.testing.assert_allclose(rdd, a_cmd - G * E3, atol=1e-9)
        np.testing.assert_allclose(wdd, np.zeros(3), atol=1e-9)

    def test_torque_command_does_not_disturb_force(self, quad_tilt_structure):
        pinv = Controller(quad_tilt_structure).pinv
        nm_g = quad_tilt_structure.total_mass * G
        tau_cmd = quad_tilt_structure.inertia @ [0, 0, 2.0]
        base = pinv @ np.array([0.0, 0.0, nm_g, 0.0, 0.0, 0.0])
        spun = pinv @ np.concatenate([[0.0, 0.0, nm_g], tau_cmd])
        f_base = (quad_tilt_structure.thrust_map @ base)[:3]
        f_spun = (quad_tilt_structure.thrust_map @ spun)[:3]
        np.testing.assert_allclose(f_base, f_spun, atol=1e-9)
        tau = (quad_tilt_structure.thrust_map @ spun)[3:]
        np.testing.assert_allclose(tau, tau_cmd, atol=1e-9)

    def test_rank_deficient_rejected(self, pitch_pair_structure):
        with pytest.raises(AllocationError):
            Controller(replace(pitch_pair_structure, rank_f=3))


class TestControllerStep:
    def test_flat_hover_uniform_quarter_weight(self, flat_structure):
        state = level_state(r=(0, 0, 0.7))
        out = Controller(flat_structure).step(state, still_sample(r=(0, 0, 0.7)))
        np.testing.assert_allclose(
            out.u, np.full(4, flat_structure.total_mass * G / 4.0), atol=1e-12
        )
        assert out.mode == "4dof"

    def test_mode_dispatch(self, all_structures):
        expected = {"flat": "4dof", "tilt10": "4dof", "pitch_pair": "5dof", "quad_tilt": "6dof"}
        for name, structure in all_structures.items():
            state = level_state(r=(0, 0, 0.7), r_ws=structure.r_sf.T)
            sample = still_sample(r=(0, 0, 0.7))
            ctrl = Controller(structure)
            assert ctrl.mode == expected[name]
            assert ctrl.step(state, sample).mode == expected[name]

    def test_six_dof_tracks_explicit_attitude(self, quad_tilt_structure):
        sample = TrajectorySample(
            t=0.0, r_d=np.array([0, 0, 0.7]), v_d=np.zeros(3), a_d=np.zeros(3),
            r_wf_d=rot_z(0.3),
        )
        out = Controller(quad_tilt_structure).step(level_state(r=(0, 0, 0.7)), sample)
        np.testing.assert_array_equal(out.desired_attitude, rot_z(0.3))

    def test_negative_thrust_clamped_in_4dof(self, flat_structure):
        # Commanded acceleration pointing down: projection is negative, cut to 0.
        sample = TrajectorySample(
            t=0.0, r_d=np.array([0, 0, -100.0]), v_d=np.zeros(3), a_d=np.zeros(3),
        )
        out = Controller(flat_structure).step(level_state(), sample)
        f_realized = out.desired_wrench.force
        assert np.linalg.norm(f_realized) < 1e-12

    def test_reused_controller_matches_fresh_one(self, pitch_pair_structure):
        # A step leaves no state behind: a controller that has already run
        # answers the next state exactly as a freshly built one does.
        gains = Gains()
        ctrl = Controller(pitch_pair_structure, gains)
        sample = still_sample(r=(0, 0, 0.7), pitch=np.deg2rad(-5))
        ctrl.step(level_state(r=(0.3, 0.1, 0.5), v=(0, 0.2, 0)), sample)
        state = level_state(r=(0.05, -0.02, 0.68), v=(0.1, 0, -0.05))
        a = ctrl.step(state, sample)
        b = Controller(pitch_pair_structure, gains).step(state, sample)
        np.testing.assert_array_equal(a.u, b.u)
        np.testing.assert_array_equal(a.desired_attitude, b.desired_attitude)

    def test_desired_wrench_is_realized_by_u_raw(self, all_structures):
        # The commanded body wrench has no component outside the mode's rows,
        # so the unclamped thrusts realize all of it.
        for structure in all_structures.values():
            state = level_state(r=(0.05, -0.02, 0.68), v=(0.1, 0, -0.05), r_ws=structure.r_sf.T)
            out = Controller(structure).step(state, still_sample(r=(0, 0, 0.7), yaw=0.2))
            wrench = np.concatenate([out.desired_wrench.force, out.desired_wrench.torque])
            np.testing.assert_allclose(structure.thrust_map @ out.u_raw, wrench, atol=1e-12)


def test_gains_validation():
    with pytest.raises(ValueError):
        Gains(k_pos=-1.0, k_vel=1.0, k_rot=1.0, k_ang=1.0)
    with pytest.raises(ValueError):
        Gains(k_pos=np.ones((3, 3)), k_vel=1.0, k_rot=1.0, k_ang=1.0)
    g = Gains(k_pos=(1.0, 2.0, 3.0), k_vel=1.0, k_rot=1.0, k_ang=1.0)
    assert g.k_pos == (1.0, 2.0, 3.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("form", ["scalar", "vector", "matrix"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("name", ["k_pos", "k_vel", "k_rot", "k_ang"])
def test_gains_reject_non_finite(name, value, form):
    gain = {"scalar": value, "vector": np.array([1.0, value, 2.0]),
            "matrix": np.diag([2.0, 1.0, value])}[form]
    with pytest.raises(ValueError, match=f"^{name} must be a finite array, got"):
        Gains(**{name: gain})


def _checked_values(monkeypatch):
    """The values Gains passes to finite_array, recorded as it runs."""
    seen = []

    def recorded(name, value, shape):
        seen.append(value)
        return finite_array(name, value, shape)

    monkeypatch.setattr(control, "finite_array", recorded)
    return seen


@pytest.mark.parametrize("value, want", [
    (2.5, (2.5,) * 3),
    (5e-324, (5e-324,) * 3),
    (1.7976931348623157e308, (1.7976931348623157e308,) * 3),
    (2, (2.0,) * 3),
    (True, (1.0,) * 3),
    (np.float64(0.1), (0.1,) * 3),
    (np.float32(0.1), (float(np.float32(0.1)),) * 3),
    (np.array(3.0), (3.0,) * 3),
    ([1, 2.5, 3e-300], (1.0, 2.5, 3e-300)),
    (np.array([4.0, 5.0, 6.0]), (4.0, 5.0, 6.0)),
    (np.diag([4.0, 5.0, 6.0]), (4.0, 5.0, 6.0)),
    ([[7, -0.0, 0], [0, 8, 0], [0.0, 0, 9]], (7.0, 8.0, 9.0)),
], ids=["float", "tiny", "max", "int", "bool", "float64", "float32", "0d_array", "entries",
        "vector", "matrix", "matrix_signed_zero"])
def test_gains_keep_every_form_as_its_diagonal_floats(value, want, monkeypatch):
    # Every form takes the one path, finite_array included, and is kept as
    # the tuple of its three diagonal floats: the floats the law reads.
    seen = _checked_values(monkeypatch)
    g = Gains(k_pos=value, k_vel=value, k_rot=value, k_ang=value)
    assert seen == [value] * 4
    for name in ("k_pos", "k_vel", "k_rot", "k_ang"):
        gain = getattr(g, name)
        assert type(gain) is tuple and all(type(x) is float for x in gain), name
        assert np.array(gain).tobytes() == np.array(want).tobytes(), name


# Every accepted form of a gain, as a rejection lists them.
_FORMS = ("k_ang must be a positive number, three positive entries or a diagonal 3x3 matrix "
          "with a positive diagonal, got ")


@pytest.mark.parametrize("value, message", [
    (-0.0, _FORMS + "-0.0"),
    (0.0, _FORMS + "0.0"),
    (-1.0, _FORMS + "-1.0"),
    (-5e-324, _FORMS + "-5e-324"),
    (float("nan"), "k_ang must be a finite array, got nan"),
    (float("inf"), "k_ang must be a finite array, got inf"),
    (float("-inf"), "k_ang must be a finite array, got -inf"),
    ((1.0, 0.0, 1.0), _FORMS + "(1.0, 0.0, 1.0)"),
    (np.diag([1.0, 1.0, -0.0]), _FORMS + "[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -0.0]]"),
    ((1.0, 2.0), _FORMS + "(1.0, 2.0)"),
    ([[1.0]], _FORMS + "[[1.0]]"),
    (np.ones((3, 3)), _FORMS + "[[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]"),
    (np.eye(4), _FORMS + str(np.eye(4).tolist())),
    ([[1.0, 2.0, 3.0]], _FORMS + "[[1.0, 2.0, 3.0]]"),
    ("a", "k_ang must be a finite array, got 'a'"),
])
def test_gains_rejections_keep_their_messages(value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Gains(k_ang=value)


@pytest.mark.filterwarnings("error")
def test_overflowing_thrusts_raise_control_degeneracy():
    # The wrench is finite, but the allocation product overflows: the step
    # names the thrusts, with no warning, instead of returning infinities.
    structure, gains, state, trajectory = overflowing_allocation()
    with pytest.raises(ControlDegeneracyError, match=re.escape(
            "minimum-norm thrusts are not finite: u_raw = (-inf, inf, -inf, inf) N")):
        Controller(structure, gains).step(state, trajectory(0.0))


@pytest.mark.parametrize("name", ["rows", "reduced_map", "pinv"])
def test_controller_arrays_are_read_only(all_structures, name):
    # A write would change every later step's allocation; pinv, built on a
    # step's first read, is read-only when it is built.
    for structure in all_structures.values():
        with pytest.raises(ValueError, match="read-only"):
            getattr(Controller(structure), name)[0] = 1


def test_nan_thrust_raises_control_degeneracy(flat_structure):
    # A NaN entry differs from its clamp, so it is caught even when no other
    # entry needs clamping; the zero torque row times inf makes it here.
    ctrl = Controller(flat_structure)
    state, sample = level_state(r=(0, 0, 0.7)), still_sample(r=(0, 0, 0.7))
    assert not ctrl.step(state, sample).saturated
    pinv = ctrl.pinv.copy()
    pinv[0] = (0.0, np.inf, 0.0, 0.0)
    ctrl.pinv = pinv
    with pytest.raises(ControlDegeneracyError,
                       match=r"^minimum-norm thrusts are not finite: u_raw = \(nan, "):
        ctrl.step(state, sample)


def test_attitude_accel_signs(quad_tilt_structure):
    # e_rot = (0.1, 0, 0) and e_omega = (0.05, 0.2, 0) give the angular
    # acceleration (-0.5, -0.4, 0), which the torque carries through I.
    gains = Gains(k_pos=1, k_vel=1, k_rot=4.0, k_ang=2.0)
    i_s = quad_tilt_structure.inertia
    omega = np.array([0.05, 0.2, 0.0])
    tau = commanded_torque(quad_tilt_structure, rot_x(np.arcsin(0.1)), np.eye(3), omega,
                           gains=gains)
    np.testing.assert_allclose(tau, i_s @ [-0.5, -0.4, 0.0] + np.cross(omega, i_s @ omega),
                               rtol=1e-12, atol=1e-15)


def _oracle_frame(a_r, second, first_is_x):
    """Thrust-frame target of the numpy controller: z (4 DOF) or x (5 DOF)
    fixed, the other axis projected; raises where that controller raised."""
    norm = np.linalg.norm(a_r)
    if norm <= 1e-6:
        raise ControlDegeneracyError("desired acceleration too small")
    z_c = a_r / norm
    cross = _oracle_cross(z_c, second)
    if np.linalg.norm(cross) <= 1e-6:
        raise ControlDegeneracyError("aligned")
    y_d = cross / np.linalg.norm(cross)
    if first_is_x:
        return np.column_stack([second, y_d, _oracle_cross(second, y_d)])
    return np.column_stack([_oracle_cross(y_d, z_c), y_d, z_c])


def _oracle_step(ctrl, state, sample):
    """The numpy ``Controller.step`` that the float kernel replaced:
    (u_raw, u, saturated, desired attitude, body force, torque)."""
    structure, gains = ctrl.structure, ctrl.gains
    k_pos, k_vel, k_rot, k_ang = (np.diag(k) for k in (gains.k_pos, gains.k_vel, gains.k_rot,
                                                         gains.k_ang))
    a_r = (k_pos @ (sample.r_d - state.r) + k_vel @ (sample.v_d - state.v)
           + ctrl.gravity * E3 + sample.a_d)
    x_d = sample.r_wf_d[:, 0]
    if ctrl.mode == "4dof":
        heading = np.array([x_d[0], x_d[1], 0.0])
        r_wf_d = _oracle_frame(a_r, heading, first_is_x=False)
    elif ctrl.mode == "5dof":
        r_wf_d = _oracle_frame(a_r, x_d, first_is_x=True)
    else:
        r_wf_d = sample.r_wf_d
    r_wf = state.r_ws @ structure.r_sf
    skew = r_wf_d.T @ r_wf - r_wf.T @ r_wf_d
    e_rot = 0.5 * np.array([skew[2, 1], skew[0, 2], skew[1, 0]])
    e_omega = state.omega - r_wf.T @ r_wf_d @ sample.omega_d
    alpha = -k_rot @ e_rot - k_ang @ e_omega
    inertia, omega = structure.inertia, state.omega
    torque = inertia @ alpha + _oracle_cross(omega, inertia @ omega)
    mask = np.isin(np.arange(3), ctrl.rows).astype(float)
    force = structure.total_mass * (r_wf.T @ a_r) * mask
    if ctrl.mode == "4dof":
        force[2] = max(force[2], 0.0)
    u_raw = ctrl.pinv @ np.concatenate([force, torque])[ctrl.rows]
    u = np.clip(u_raw, 0.0, structure.f_max)
    saturated = bool(np.any(np.abs(u - u_raw) > 1e-12))
    return u_raw, u, saturated, r_wf_d, structure.r_sf @ force, torque


def test_step_matches_numpy_oracle(all_structures):
    # 4 fixtures (4, 4, 5 and 6 DOF) x 160 random states and samples.
    rng = np.random.default_rng(44)
    thrust_cut = 0
    for structure in all_structures.values():
        saturated = 0
        gains = Gains(k_pos=rng.uniform(2.0, 20.0, 3), k_vel=rng.uniform(1.0, 10.0, 3),
                      k_rot=rng.uniform(50.0, 300.0, 3), k_ang=rng.uniform(5.0, 30.0, 3))
        ctrl = Controller(structure, gains, float(rng.uniform(9.0, 10.0)))
        for _ in range(160):
            # Small errors keep the rotors in range; large ones saturate. A
            # tumbled body can point its thrust away from the command.
            scale = float(rng.choice([0.01, 0.3]))
            tilt = 2.0 if rng.random() < 0.25 else scale
            state = RigidState(r=rng.normal(size=3) * scale, v=rng.normal(size=3) * scale,
                               r_ws=exp_map(rng.normal(size=3) * tilt) @ structure.r_sf.T,
                               omega=rng.normal(size=3) * scale)
            # A target with yaw, pitch and roll: 4 DOF honour its heading,
            # 5 DOF its x-axis and 6 DOF all of it.
            sample = TrajectorySample(
                t=0.0, r_d=rng.normal(size=3) * scale, v_d=rng.normal(size=3) * scale,
                a_d=rng.normal(size=3) * scale, r_wf_d=exp_map(rng.normal(size=3) * scale),
                omega_d=rng.normal(size=3) * scale,
            )
            u_raw, u, sat, r_wf_d, force, torque = _oracle_step(ctrl, state, sample)
            out = ctrl.step(state, sample)
            for name, got, want in (("u_raw", out.u_raw, u_raw), ("u", out.u, u),
                                    ("desired_attitude", out.desired_attitude, r_wf_d),
                                    ("force", out.desired_wrench.force, force),
                                    ("torque", out.desired_wrench.torque, torque)):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=name)
            assert out.saturated == sat
            assert out.mode == ctrl.mode
            saturated += sat
            thrust_cut += ctrl.mode == "4dof" and not force.any()
        assert 20 <= saturated <= 140, saturated
    assert thrust_cut >= 10, thrust_cut


@pytest.mark.parametrize("excess, saturated", [(2e-12, True), (5e-13, False), (0.0, False)])
def test_saturation_flag_follows_clamp_distance(pitch_pair_structure, excess, saturated):
    # A rotor is saturated when clamping moves it by more than 1e-12 N: cap
    # the largest minimum-norm thrust just below itself and read the flag.
    state, sample = level_state(r=(0, 0, 0.69)), still_sample(r=(0, 0, 0.7))
    u_raw = Controller(pitch_pair_structure).step(state, sample).u_raw
    top = int(np.argmax(u_raw))
    f_max = pitch_pair_structure.f_max.copy()
    f_max[top] = u_raw[top] - excess
    out = Controller(replace(pitch_pair_structure, f_max=f_max)).step(state, sample)
    np.testing.assert_array_equal(out.u_raw, u_raw)
    assert out.u[top] == min(u_raw[top], f_max[top])
    assert out.saturated is saturated


def test_allocate_is_the_clamped_minimum_norm_solve(all_structures):
    # The allocation alone, on seeded thrust-frame wrenches about hover and
    # far from it, and on both signed zeros: the minimum-norm product, its
    # np.clip to [0, f_max] and the 1e-12 N saturation test, bit for bit.
    rng = np.random.default_rng(36)
    for name, structure in all_structures.items():
        ctrl = Controller(structure)
        hover = structure.total_mass * G
        wrenches = [(0.0,) * 6, (-0.0,) * 6]
        for _ in range(100):
            scale = float(rng.choice([0.02, 1.0]))
            force = hover * (E3 + rng.normal(size=3) * scale)
            wrenches.append((*force, *(rng.normal(size=3) * scale * hover * 0.05)))
        flags = []
        for wrench in wrenches:
            u, u_raw, saturated = ctrl._allocate(wrench)
            want_raw = ctrl.pinv.dot(np.array(wrench)[ctrl.rows])
            want = np.clip(want_raw, 0.0, structure.f_max)
            for got, expected in ((u_raw, want_raw), (np.array(u), want)):
                np.testing.assert_array_equal(got, expected, err_msg=name)
                np.testing.assert_array_equal(np.signbit(got), np.signbit(expected), err_msg=name)
            assert type(u) is list and type(saturated) is bool, name
            assert saturated == (np.max(np.abs(want - want_raw)) > 1e-12), name
            if not saturated:
                assert u == u_raw.tolist(), name
            flags.append(saturated)
        assert 10 <= sum(flags) <= len(flags) - 10, (name, sum(flags))
        # A product that is not finite raises, naming every entry; inf
        # against inf in one sum makes NaN. Like its callers, the test runs
        # it inside the errstate that silences numpy's warnings.
        for bad in (np.nan, np.inf, -np.inf, 1e308):
            wrench = (0.0, 0.0, bad, bad, -bad, bad)
            with np.errstate(over="ignore", invalid="ignore"):
                raw = ctrl.pinv.dot(np.array(wrench)[ctrl.rows])
                assert not np.isfinite(raw).all(), (name, bad)
                with pytest.raises(ControlDegeneracyError) as info:
                    ctrl._allocate(wrench)
            assert str(info.value) == "minimum-norm thrusts are not finite: u_raw = ({}) N".format(
                ", ".join(f"{x:.3e}" for x in raw.tolist())), (name, bad)


def test_non_finite_command_raises_degeneracy_error(all_structures):
    # An overflowing gyroscopic torque and an acceleration whose magnitude
    # overflows: a named ControlDegeneracyError, with no numpy warning.
    sample = still_sample(r=(0, 0, 0.7))
    for structure in all_structures.values():
        ctrl = Controller(structure)
        for state_fields, what in [({"omega": (1e200, 2e200, 0.0)}, "wrench"),
                                   ({"r": (0.0, 0.0, -1e307)}, "acceleration")]:
            state = level_state(r_ws=structure.r_sf.T, **state_fields)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ControlDegeneracyError, match=what):
                    ctrl.step(state, sample)


def test_design_path_makes_at_most_three_svds(all_structures, monkeypatch):
    # assemble takes the torque block's singular values and the force
    # block's SVD, which rank_f, force_sigmas, the thrust frame and
    # actuation_ellipsoid share; Controller takes its rank test and its
    # pseudoinverse from one more.
    calls = []

    def counted(name):
        call = getattr(np.linalg, name)

        def wrapper(a, *args, **kwargs):
            calls.append((name, a.shape))
            return call(a, *args, **kwargs)
        return wrapper

    # np.linalg.pinv runs one SVD through its own module's name, so a pinv
    # call counts as one SVD.
    monkeypatch.setattr(np.linalg, "svd", counted("svd"))
    monkeypatch.setattr(np.linalg, "pinv", counted("pinv"))
    for name, structure in all_structures.items():
        calls.clear()
        rebuilt = assemble(structure.placements)
        actuation_ellipsoid(rebuilt)
        Controller(rebuilt)
        assert len(calls) <= 3, f"{name}: {len(calls)} SVDs: {calls}"


def test_degeneracy_thresholds_and_messages():
    # Each unit vector a desired attitude needs raises, with its own
    # message, at a norm of 1e-6 and is formed just above it.
    level = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
    too_small = "desired acceleration too small to define a thrust direction"
    cases = [
        (control._attitude_4dof, lambda n: ((0.0, 0.0, n), level), too_small),
        (control._attitude_5dof, lambda n: ((0.0, 0.0, n), level), too_small),
        (control._attitude_4dof, lambda n: ((0.0, 0.0, 1.0), (n, 0.0, 0.0, 0.0, 1.0, 0.0,
                                                               0.0, 0.0, 1.0)),
         "thrust direction aligned with the heading"),
        (control._attitude_5dof, lambda n: ((0.0, 0.0, 1.0), (n, 0.0, 0.0, 0.0, 1.0, 0.0,
                                                               1.0, 0.0, 0.0)),
         "thrust direction aligned with the commanded x-axis"),
    ]
    for attitude, inputs, message in cases:
        with pytest.raises(ControlDegeneracyError, match=f"^{re.escape(message)}$"):
            attitude(*inputs(1e-6))
        assert len(attitude(*inputs(np.nextafter(1e-6, 1.0)))) == 9


def test_controller_rejects_a_force_rank_without_a_mode(flat_structure):
    # Modes exist for force-block ranks 1, 2 and 3 only; a structure of
    # another rank, here one built by replace, has no control law.
    with pytest.raises(AllocationError, match="^unsupported force-block rank 0$"):
        Controller(replace(flat_structure, rank_f=0))


@pytest.mark.parametrize("argument, value", [
    ("structure", "x"), ("structure", None), ("gains", GainsConfig()), ("gains", {}),
], ids=["structure-str", "structure-None", "gains-GainsConfig", "gains-dict"])
def test_controller_arguments_must_be_their_records(flat_structure, argument, value):
    # A structure that is not a StructureModel, or gains that are not a
    # Gains (a config's GainsConfig included), is named when the controller
    # is built, not by an AttributeError or TypeError in its first step.
    kinds = {"structure": "StructureModel", "gains": "Gains"}
    arguments = {"structure": flat_structure, argument: value}
    message = f"{argument} must be a {kinds[argument]}, got {value!r}"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        Controller(**arguments)
