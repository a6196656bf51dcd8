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
    attitude_error,
    attitude_torque,
    default_gains,
    desired_attitude_4dof,
    desired_attitude_5dof,
    position_accel,
)
from modrotor.control import attitude_accel
from modrotor.structure import _thrust_frame
from modrotor.so3 import E1, E3, exp_map, is_rotation, rot_y, rot_z
from modrotor.trajectory import TrajectorySample

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
    """Sample at rest whose commanded acceleration from a state at ``r``
    with zero velocity is exactly ``a_r``."""
    a_d = np.array(a_r, float) - G * E3
    return TrajectorySample(t=0.0, r_d=np.array(r, float), v_d=np.zeros(3),
                            a_d=a_d, yaw_d=yaw, pitch_d=pitch)


def strong_axis_thrust(structure, out):
    """Commanded force along the thrust frame's z-axis."""
    return float((structure.r_sf.T @ out.desired_wrench.force)[2])


class TestPositionAccel:
    def test_hover_feed_forward_only(self):
        a = position_accel(level_state(), still_sample(), default_gains(), G)
        np.testing.assert_allclose(a, G * E3, atol=0)

    def test_single_axis_error(self):
        gains = Gains(k_pos=2.0, k_vel=1.0, k_rot=1.0, k_ang=1.0)
        a = position_accel(level_state(), still_sample(r=(1, 0, 0)), gains, G)
        np.testing.assert_allclose(a, [2.0, 0.0, G], atol=0)

    def test_velocity_term(self):
        gains = Gains(k_pos=2.0, k_vel=3.0, k_rot=1.0, k_ang=1.0)
        a = position_accel(level_state(v=(0, 1, 0)), still_sample(), gains, G)
        np.testing.assert_allclose(a, [0.0, -3.0, G], atol=0)


class TestAttitudeError:
    def test_aligned_is_zero(self, tilt10_structure):
        r_sf = tilt10_structure.r_sf
        err = attitude_error(r_sf.T, r_sf, np.eye(3), np.zeros(3), np.zeros(3))
        np.testing.assert_allclose(err.e_rot, np.zeros(3), atol=1e-15)
        np.testing.assert_allclose(err.e_omega, np.zeros(3), atol=0)

    def test_yaw_offset_error(self):
        # Frame rotated from target by rot_z(theta): error is sin(theta) e3.
        for theta in (0.1, 0.5, -0.3):
            err = attitude_error(rot_z(theta), np.eye(3), np.eye(3), np.zeros(3), np.zeros(3))
            np.testing.assert_allclose(err.e_rot, [0, 0, np.sin(theta)], atol=1e-12)

    def test_omega_transport(self):
        omega_d = np.array([0.0, 0.0, 0.4])
        err = attitude_error(np.eye(3), np.eye(3), rot_z(0.7), np.array([0.0, 0.0, 0.4]), omega_d)
        np.testing.assert_allclose(err.e_omega, np.zeros(3), atol=1e-15)


class TestAttitudeTorque:
    def test_zero_error_zero_torque(self):
        err = attitude_error(np.eye(3), np.eye(3), np.eye(3), np.zeros(3), np.zeros(3))
        tau = attitude_torque(err, default_gains(), np.diag([1, 2, 3.0]), np.zeros(3))
        np.testing.assert_allclose(tau, np.zeros(3), atol=0)

    def test_single_axis_gain(self):
        from modrotor.control import AttitudeError
        err = AttitudeError(e_rot=0.1 * E3, e_omega=np.zeros(3))
        gains = Gains(k_pos=1, k_vel=1, k_rot=5.0, k_ang=1.0)
        i_s = np.diag([1.0, 1.0, 2.0])
        tau = attitude_torque(err, gains, i_s, np.zeros(3))
        np.testing.assert_allclose(tau, [0, 0, -0.5 * 2.0], atol=1e-15)

    def test_gyroscopic_feed_forward(self):
        from modrotor.control import AttitudeError
        err = AttitudeError(e_rot=np.zeros(3), e_omega=np.zeros(3))
        i_s = np.diag([1.0, 2.0, 3.0])
        omega = np.array([0.3, -0.2, 0.5])
        tau = attitude_torque(err, default_gains(), i_s, omega)
        np.testing.assert_allclose(tau, np.cross(omega, i_s @ omega), atol=1e-15)


class TestDesiredAttitude4:
    def test_hover_identity(self):
        np.testing.assert_allclose(desired_attitude_4dof(G * E3, 0.0), np.eye(3), atol=1e-15)

    def test_hover_with_yaw(self):
        np.testing.assert_allclose(
            desired_attitude_4dof(G * E3, np.pi / 2), rot_z(np.pi / 2), atol=1e-15
        )

    def test_lateral_acceleration_tilts_thrust_axis(self):
        a_r = np.array([1.0, 0.0, G])
        r = desired_attitude_4dof(a_r, 0.0)
        assert is_rotation(r, tol=1e-12)
        np.testing.assert_allclose(r @ E3, a_r / np.linalg.norm(a_r), atol=1e-12)
        # Zero yaw keeps the x-axis in the xz-plane.
        assert abs((r @ E1)[1]) < 1e-12

    def test_degenerate_inputs_raise(self):
        with pytest.raises(ControlDegeneracyError):
            desired_attitude_4dof(np.zeros(3), 0.0)
        with pytest.raises(ControlDegeneracyError):
            desired_attitude_4dof(np.array([1.0, 0.0, 0.0]), 0.0)  # thrust along heading


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
            _thrust_frame(flipped, 1, np.eye(3))

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
    def test_hover_identity(self):
        np.testing.assert_allclose(desired_attitude_5dof(G * E3, 0.0, 0.0), np.eye(3), atol=1e-15)

    def test_pitch_command_is_exact(self):
        # The x column must be exactly the commanded yaw/pitch heading.
        for yaw, pitch in [(0.0, np.deg2rad(-5)), (0.4, 0.3), (-1.0, -0.6)]:
            r = desired_attitude_5dof(G * E3, yaw, pitch)
            np.testing.assert_array_equal(r[:, 0], rot_z(yaw) @ rot_y(pitch) @ E1)

    def test_minus_five_degree_column(self):
        r = desired_attitude_5dof(G * E3, 0.0, np.deg2rad(-5.0))
        expected = [np.cos(np.deg2rad(-5.0)), 0.0, -np.sin(np.deg2rad(-5.0))]
        np.testing.assert_allclose(r[:, 0], expected, atol=1e-15)

    def test_orthonormal_for_random_inputs(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            a_r = rng.normal(size=3) + [0, 0, 12.0]
            r = desired_attitude_5dof(a_r, rng.uniform(-np.pi, np.pi), rng.uniform(-0.5, 0.5))
            assert np.linalg.norm(r.T @ r - np.eye(3)) < 1e-12

    def test_degenerate_alignment_raises(self):
        with pytest.raises(ControlDegeneracyError):
            desired_attitude_5dof(np.array([1.0, 0.0, 0.0]), 0.0, 0.0)


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
        from modrotor import accelerations
        a_cmd = np.array([0.8, -0.4, G + 0.3])
        state = level_state(r_ws=quad_tilt_structure.r_sf.T)
        out = Controller(quad_tilt_structure).step(state, still_sample(a_r=a_cmd))
        assert not out.saturated
        rdd, wdd = accelerations(quad_tilt_structure, state, out.u_raw, G)
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
        gains = default_gains()
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
    np.testing.assert_array_equal(np.diag(g.k_pos), [1.0, 2.0, 3.0])


def test_attitude_accel_signs():
    from modrotor.control import AttitudeError
    gains = Gains(k_pos=1, k_vel=1, k_rot=4.0, k_ang=2.0)
    err = AttitudeError(e_rot=np.array([0.1, 0, 0]), e_omega=np.array([0, 0.2, 0]))
    np.testing.assert_allclose(attitude_accel(err, gains), [-0.4, -0.4, 0.0], atol=1e-15)


def _oracle_cross(a, b):
    return np.array([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


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
    a_r = (gains.k_pos @ (sample.r_d - state.r) + gains.k_vel @ (sample.v_d - state.v)
           + ctrl.gravity * E3 + sample.a_d)
    if ctrl.mode == "4dof":
        heading = np.array([np.cos(sample.yaw_d), np.sin(sample.yaw_d), 0.0])
        r_wf_d = _oracle_frame(a_r, heading, first_is_x=False)
    elif ctrl.mode == "5dof":
        r_wf_d = _oracle_frame(a_r, rot_z(sample.yaw_d) @ rot_y(sample.pitch_d) @ E1,
                               first_is_x=True)
    else:
        r_wf_d = sample.r_wf_d
    r_wf = state.r_ws @ structure.r_sf
    skew = r_wf_d.T @ r_wf - r_wf.T @ r_wf_d
    e_rot = 0.5 * np.array([skew[2, 1], skew[0, 2], skew[1, 0]])
    e_omega = state.omega - r_wf.T @ r_wf_d @ sample.omega_d
    alpha = -gains.k_rot @ e_rot - gains.k_ang @ e_omega
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
            sample = TrajectorySample(
                t=0.0, r_d=rng.normal(size=3) * scale, v_d=rng.normal(size=3) * scale,
                a_d=rng.normal(size=3) * scale, yaw_d=float(rng.uniform(-np.pi, np.pi) * scale),
                pitch_d=float(rng.uniform(-0.5, 0.5)) * scale,
                r_wf_d=exp_map(rng.normal(size=3) * scale), omega_d=rng.normal(size=3) * scale,
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


def test_non_finite_command_raises_degeneracy_error(all_structures):
    # An overflowing gyroscopic torque and an acceleration whose magnitude
    # overflows: a named ControlDegeneracyError, with no numpy warning.
    sample = still_sample(r=(0, 0, 0.7))
    for structure in all_structures.values():
        ctrl = Controller(structure)
        for fields, what in (({"omega": (1e200, 2e200, 0.0)}, "wrench"),
                             ({"r": (0.0, 0.0, -1e307)}, "acceleration")):
            state = level_state(r_ws=structure.r_sf.T, **fields)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ControlDegeneracyError, match=what):
                    ctrl.step(state, sample)
