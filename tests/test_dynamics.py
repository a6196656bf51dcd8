import numpy as np
import pytest

from modrotor import IntegrationError, RigidState, SimParams, accelerations, step
from modrotor.so3 import E3, exp_map, rot_z


def level_state(r=(0, 0, 0), v=(0, 0, 0), omega=(0, 0, 0)):
    return RigidState(r=np.array(r, float), v=np.array(v, float),
                      r_ws=np.eye(3), omega=np.array(omega, float))


def top_closed_form(inertia, omega0, r_ws0, t):
    """Torque-free axisymmetric body (Ixx = Iyy): the body-frame angular
    velocity precesses about the symmetry axis while the body precesses
    about the fixed angular momentum."""
    it, ia = inertia[0, 0], inertia[2, 2]
    body_rate = (ia - it) / it * omega0[2]
    l_world = r_ws0 @ (inertia @ omega0)
    r_ws = exp_map(t * l_world / it) @ r_ws0 @ exp_map(np.array([0.0, 0.0, -body_rate * t]))
    omega = rot_z(body_rate * t) @ omega0
    return r_ws, omega


def test_free_fall_acceleration(flat_structure):
    rdd, wdd = accelerations(flat_structure, level_state(), np.zeros(4))
    np.testing.assert_allclose(rdd, -9.81 * E3, atol=0)
    np.testing.assert_array_equal(wdd, np.zeros(3))


def test_hover_thrust_balances_gravity(flat_structure):
    g = 9.81
    u = np.full(4, flat_structure.total_mass * g / 4.0)
    rdd, wdd = accelerations(flat_structure, level_state(), u, gravity=g)
    np.testing.assert_allclose(rdd, np.zeros(3), atol=1e-12)
    np.testing.assert_allclose(wdd, np.zeros(3), atol=1e-12)


def test_tilted_module_needs_counter_tilt_to_hover(tilt10_structure):
    # Uniform thrust along the tilted axis: level attitude leaves a lateral
    # residual; counter-tilting the body by the same angle makes the thrust
    # vertical, so hover takes exactly weight / 4 per rotor.
    g = 9.81
    u = np.full(4, tilt10_structure.total_mass * g / 4.0)
    level = level_state()
    rdd_level, _ = accelerations(tilt10_structure, level, u, gravity=g)
    assert abs(rdd_level[0]) > 0.1
    counter = RigidState(r=np.zeros(3), v=np.zeros(3),
                         r_ws=tilt10_structure.r_sf.T, omega=np.zeros(3))
    rdd, _ = accelerations(tilt10_structure, counter, u, gravity=g)
    np.testing.assert_allclose(rdd, np.zeros(3), atol=1e-12)


def test_accelerations_rejects_wrong_length(flat_structure):
    with pytest.raises(ValueError):
        accelerations(flat_structure, level_state(), np.zeros(5))


def test_free_fall_position_closed_form(flat_structure):
    # Constant acceleration integrates exactly; only roundoff remains.
    state = level_state(r=(1, 2, 3), v=(0.5, -0.2, 0.1))
    dt, t_end = 1e-3, 2.0
    for _ in range(int(t_end / dt)):
        state = step(flat_structure, state, np.zeros(4), dt)
    expected = np.array([1, 2, 3]) + np.array([0.5, -0.2, 0.1]) * t_end - 0.5 * 9.81 * t_end**2 * E3
    assert np.linalg.norm(state.r - expected) < 1e-12
    np.testing.assert_array_equal(state.omega, np.zeros(3))


def test_constant_spin_torque_grows_omega_z_linearly(flat_structure):
    # Symmetric thrusts with a spin imbalance: pure drag torque about z.
    delta = 0.1
    u = np.array([0.5 + delta, 0.5 - delta, 0.5 + delta, 0.5 - delta])
    tau_z = (flat_structure.thrust_map @ u)[5]
    state = level_state()
    dt, t_end = 1e-3, 1.0
    for _ in range(int(t_end / dt)):
        state = step(flat_structure, state, u, dt)
    izz = flat_structure.inertia[2, 2]
    np.testing.assert_allclose(state.omega, [0.0, 0.0, tau_z * t_end / izz], atol=1e-10)


def test_hover_equilibrium_is_stationary(flat_structure):
    u = np.full(4, flat_structure.total_mass * 9.81 / 4.0)
    state = level_state(r=(0, 0, 1))
    nxt = step(flat_structure, state, u, 1e-3)
    assert np.linalg.norm(nxt.r - state.r) < 1e-9
    assert np.linalg.norm(nxt.v) < 1e-9
    assert np.linalg.norm(nxt.r_ws - np.eye(3)) < 1e-12


def test_zero_spin_stays_zero(flat_structure):
    state = level_state(v=(1.0, 0, 0))
    for _ in range(1000):
        state = step(flat_structure, state, np.zeros(4), 1e-3)
    np.testing.assert_array_equal(state.omega, np.zeros(3))


def test_torque_free_top_matches_closed_form(flat_structure):
    omega0 = np.array([3.0, 0.0, 8.0])
    state = level_state(omega=omega0)
    dt, t_end = 1e-3, 2.0
    for _ in range(int(t_end / dt)):
        state = step(flat_structure, state, np.zeros(4), dt)
    r_exact, omega_exact = top_closed_form(flat_structure.inertia, omega0, np.eye(3), t_end)
    assert np.linalg.norm(state.r_ws - r_exact) < 1e-9
    assert np.linalg.norm(state.omega - omega_exact) < 1e-9


def test_integrator_fourth_order_on_tumbling(flat_structure):
    omega0 = np.array([3.0, 0.0, 8.0])
    t_end = 2.0
    errs = []
    for dt in (2e-2, 1e-2, 5e-3):
        state = level_state(omega=omega0)
        for _ in range(int(round(t_end / dt))):
            state = step(flat_structure, state, np.zeros(4), dt)
        r_exact, omega_exact = top_closed_form(flat_structure.inertia, omega0, np.eye(3), t_end)
        errs.append(np.linalg.norm(state.r_ws - r_exact) + np.linalg.norm(state.omega - omega_exact))
    assert errs[0] / errs[1] >= 8.0
    assert errs[1] / errs[2] >= 8.0


def test_angular_momentum_conserved_torque_free(flat_structure):
    state = level_state(omega=(0.3, 0.0, 1.0))
    h0 = np.linalg.norm(flat_structure.inertia @ state.omega)
    for _ in range(10_000):
        state = step(flat_structure, state, np.zeros(4), 1e-3)
    h1 = np.linalg.norm(flat_structure.inertia @ state.omega)
    assert abs(h1 - h0) < 1e-6


def test_attitude_stays_on_rotation_group(flat_structure):
    state = level_state(omega=(0.3, 0.2, 1.0))
    for _ in range(100_000):
        state = step(flat_structure, state, np.zeros(4), 1e-3)
    r = state.r_ws
    assert np.linalg.norm(r @ r.T - np.eye(3)) < 1e-9
    assert abs(np.linalg.det(r) - 1.0) < 1e-9


def test_non_finite_state_raises(flat_structure):
    state = level_state(v=(1e308, 0, 0))
    with pytest.raises(IntegrationError):
        step(flat_structure, state, np.zeros(4), 10.0)


def test_state_and_params_validation(flat_structure):
    with pytest.raises(ValueError):
        RigidState(r=[np.nan, 0, 0], v=np.zeros(3), r_ws=np.eye(3), omega=np.zeros(3))
    with pytest.raises(ValueError):
        SimParams(dt=0.0)
    with pytest.raises(ValueError):
        SimParams(dt=0.1, duration=0.05)
    for bad in ({"dt": np.nan}, {"dt": np.inf}, {"duration": np.nan}, {"duration": np.inf}):
        with pytest.raises(ValueError):
            SimParams(**bad)
