import struct
import warnings

import numpy as np
import pytest

from modrotor import IntegrationError, RigidState, SimParams, step
from modrotor.dynamics import GRAVITY, _advance, _floats_of
from modrotor.so3 import E3, matmul3, rodrigues, rot_z

from conftest import _oracle_cross, accelerations, exp_map


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
    rdd, wdd = accelerations(flat_structure, np.eye(3), np.zeros(3), np.zeros(4))
    np.testing.assert_allclose(rdd, -9.81 * E3, atol=0)
    np.testing.assert_array_equal(wdd, np.zeros(3))


def test_hover_thrust_balances_gravity(flat_structure):
    g = 9.81
    u = np.full(4, flat_structure.total_mass * g / 4.0)
    rdd, wdd = accelerations(flat_structure, np.eye(3), np.zeros(3), u, gravity=g)
    np.testing.assert_allclose(rdd, np.zeros(3), atol=1e-12)
    np.testing.assert_allclose(wdd, np.zeros(3), atol=1e-12)


def test_tilted_module_needs_counter_tilt_to_hover(tilt10_structure):
    # Uniform thrust along the tilted axis: level attitude leaves a lateral
    # residual; counter-tilting the body by the same angle makes the thrust
    # vertical, so hover takes exactly weight / 4 per rotor.
    g = 9.81
    u = np.full(4, tilt10_structure.total_mass * g / 4.0)
    rdd_level, _ = accelerations(tilt10_structure, np.eye(3), np.zeros(3), u, gravity=g)
    assert abs(rdd_level[0]) > 0.1
    rdd, _ = accelerations(tilt10_structure, tilt10_structure.r_sf.T, np.zeros(3), u, gravity=g)
    np.testing.assert_allclose(rdd, np.zeros(3), atol=1e-12)


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
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError, match=r"\|v\|=1\.000e\+308"):
            step(flat_structure, state, np.zeros(4), 10.0)


@pytest.mark.parametrize(
    "state, u, dt, message",
    [
        (level_state(omega=(0.6e200, 0, 0.8e200)), np.zeros(4), 1e-3, r"\|omega\|=1\.000e\+200"),
        (level_state(), np.array([1e300, 0.0, 0.0, 0.0]), 10.0, "non-finite"),
        # A roll rate under a pitch torque, from a level start: each stage's
        # increment rate grows with the square of its rotation increment, and
        # the last stage's (about 1e160) enters only the step's increment
        # phi, whose |phi|^2 passes float range, so its rotation is NaN.
        (level_state(omega=(1e16, 0, 0)), np.array([1.0, 1.0, 0.0, 0.0]), 1.0,
         "attitude update overflowed"),
    ],
    ids=["omega", "u", "attitude"],
)
def test_divergence_raises_integration_error_only(flat_structure, state, u, dt, message):
    # Overflow must surface as IntegrationError with a finite magnitude in
    # its message: no ValueError or OverflowError from float math and no
    # numpy warning on the way.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError, match=message):
            step(flat_structure, state, u, dt)


def test_step_returns_fresh_float_arrays(quad_tilt_structure):
    state = level_state(v=(1.0, 0.0, 0.0), omega=(0.3, 0.2, 1.0))
    nxt = step(quad_tilt_structure, state, np.ones(16), 1e-3)
    fields = {"r": (3,), "v": (3,), "r_ws": (3, 3), "omega": (3,)}
    for name, shape in fields.items():
        arr = getattr(nxt, name)
        assert isinstance(arr, np.ndarray) and arr.dtype == np.float64 and arr.shape == shape
        assert not any(np.shares_memory(arr, getattr(state, other)) for other in fields)
        assert not any(np.shares_memory(arr, getattr(nxt, other)) for other in fields if other != name)
        assert not arr.flags.writeable


@pytest.mark.parametrize("dt", [0.0, -0.0, -1.0, -1e-3])
def test_step_rejects_a_step_that_is_not_positive(flat_structure, dt):
    # dt = 0 would return the same state and dt < 0 integrate backwards.
    with pytest.raises(ValueError, match=r"^dt must be positive and finite"):
        step(flat_structure, level_state(), np.full(4, 0.3), dt)


@pytest.mark.parametrize("r_ws", [2.0 * np.eye(3), np.diag([1.0, 1.0, -1.0]),
                                  np.diag([1.0, np.nan, 1.0])],
                         ids=["2I", "reflection", "nan"])
def test_state_attitude_must_be_a_rotation(r_ws):
    # One step from 2 I gives -I, a reflection that flies with no error.
    with pytest.raises(ValueError, match=r"^r_ws must be a finite 3x3 rotation matrix"):
        RigidState(r=np.zeros(3), v=np.zeros(3), r_ws=r_ws, omega=np.zeros(3))


def test_state_holds_read_only_copies_of_its_arrays():
    # The kernels read the floats a state takes at construction, so a later
    # write to the caller's array or to the state's own must not pass silently.
    r = np.array([0.1, 0.2, 0.3])
    state = RigidState(r=r, v=np.zeros(3), r_ws=np.eye(3), omega=np.zeros(3))
    r[0] = 5.0
    assert state.r[0] == 0.1
    for name in ("r", "v", "r_ws", "omega"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(state, name)[0] = 1.0


# The numpy RKMK step that the flat kernel replaced, kept as the oracle for
# the float-level kernel: same stages, same Rodrigues formula, same polar pass.


def _oracle_exp_map(v):
    angle = np.linalg.norm(v)
    k = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])
    if angle < 1e-8:
        return np.eye(3) + k + 0.5 * (k @ k)
    return np.eye(3) + (np.sin(angle) / angle) * k + ((1.0 - np.cos(angle)) / angle**2) * (k @ k)


def _oracle_derivative(structure, r_ws0, v, phi, omega, u, gravity):
    if phi[0] == 0.0 and phi[1] == 0.0 and phi[2] == 0.0:
        r_ws, phi_dot = r_ws0, omega
    else:
        r_ws = r_ws0 @ _oracle_exp_map(phi)
        phi_dot = (omega + 0.5 * _oracle_cross(phi, omega)
                   + (1.0 / 12.0) * _oracle_cross(phi, _oracle_cross(phi, omega)))
    r_ddot, omega_dot = accelerations(structure, r_ws, omega, u, gravity)
    return v, r_ddot, phi_dot, omega_dot


def _oracle_step(structure, state, u, dt, gravity=9.81):
    r0, v0, omega0 = state.r, state.v, state.omega
    k1 = _oracle_derivative(structure, state.r_ws, v0, np.zeros(3), omega0, u, gravity)
    k2 = _oracle_derivative(structure, state.r_ws, v0 + 0.5 * dt * k1[1], 0.5 * dt * k1[2],
                            omega0 + 0.5 * dt * k1[3], u, gravity)
    k3 = _oracle_derivative(structure, state.r_ws, v0 + 0.5 * dt * k2[1], 0.5 * dt * k2[2],
                            omega0 + 0.5 * dt * k2[3], u, gravity)
    k4 = _oracle_derivative(structure, state.r_ws, v0 + dt * k3[1], dt * k3[2],
                            omega0 + dt * k3[3], u, gravity)
    sixth = dt / 6.0
    r1, v1, phi, omega1 = (
        base + sixth * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
        for i, base in enumerate((r0, v0, 0.0, omega0))
    )
    r_ws1 = state.r_ws @ _oracle_exp_map(phi)
    r_ws1 = r_ws1 @ (1.5 * np.eye(3) - 0.5 * (r_ws1.T @ r_ws1))
    return r1, v1, r_ws1, omega1


def test_step_matches_numpy_oracle(all_structures):
    # 4 fixtures x 160 random states, thrusts, steps and gravities.
    rng = np.random.default_rng(20)
    for structure in all_structures.values():
        for _ in range(160):
            state = RigidState(
                r=rng.normal(size=3), v=rng.normal(size=3),
                r_ws=exp_map(rng.normal(size=3) * 2.0), omega=rng.normal(size=3) * 2.0,
            )
            u = rng.uniform(0.0, 1.0, size=4 * structure.n) * structure.f_max
            dt = float(rng.choice([1e-3, 5e-3, 2e-2]))
            gravity = float(rng.uniform(9.0, 10.0))
            got = step(structure, state, u, dt, gravity)
            for name, want in zip(("r", "v", "r_ws", "omega"),
                                  _oracle_step(structure, state, u, dt, gravity)):
                np.testing.assert_allclose(getattr(got, name), want, rtol=0, atol=1e-13,
                                           err_msg=name)


# The list-based kernel that ``_advance``'s stage loop replaced, kept as it
# was: a bitwise oracle. The run CSV records the kernel's bits, so the
# rewrite must keep every float operation and its order, down to the sign of
# a zero.


def _list_start(state):
    flat = _floats_of(state)
    return (*flat[0:6], 0.0, 0.0, 0.0, *flat[15:18])


def _list_step_model(structure, state, u, gravity):
    wrench = structure.thrust_map.dot(u).tolist()
    mass, inertia, inertia_inv = structure._rigid_body
    return (_floats_of(state)[6:15], (wrench[0] / mass, wrench[1] / mass, wrench[2] / mass),
            wrench[3:], inertia, inertia_inv, gravity)


def _list_derivative(y, r_ws0, force, torque, inertia, inertia_inv, gravity):
    _, _, _, vx, vy, vz, px, py, pz, wx, wy, wz = y
    fx, fy, fz = force
    if px == 0.0 and py == 0.0 and pz == 0.0:
        dpx, dpy, dpz = wx, wy, wz
    else:
        e0, e1, e2, e3, e4, e5, e6, e7, e8 = rodrigues(px, py, pz)
        fx, fy, fz = (
            e0 * fx + e1 * fy + e2 * fz,
            e3 * fx + e4 * fy + e5 * fz,
            e6 * fx + e7 * fy + e8 * fz,
        )
        cx, cy, cz = py * wz - pz * wy, pz * wx - px * wz, px * wy - py * wx
        dpx = wx + 0.5 * cx + (1.0 / 12.0) * (py * cz - pz * cy)
        dpy = wy + 0.5 * cy + (1.0 / 12.0) * (pz * cx - px * cz)
        dpz = wz + 0.5 * cz + (1.0 / 12.0) * (px * cy - py * cx)
    r0, r1, r2, r3, r4, r5, r6, r7, r8 = r_ws0
    i0, i1, i2, i3, i4, i5, i6, i7, i8 = inertia
    hx = i0 * wx + i1 * wy + i2 * wz
    hy = i3 * wx + i4 * wy + i5 * wz
    hz = i6 * wx + i7 * wy + i8 * wz
    tx, ty, tz = torque
    gx = tx - (wy * hz - wz * hy)
    gy = ty - (wz * hx - wx * hz)
    gz = tz - (wx * hy - wy * hx)
    j0, j1, j2, j3, j4, j5, j6, j7, j8 = inertia_inv
    return (
        vx, vy, vz,
        r0 * fx + r1 * fy + r2 * fz,
        r3 * fx + r4 * fy + r5 * fz,
        r6 * fx + r7 * fy + r8 * fz - gravity,
        dpx, dpy, dpz,
        j0 * gx + j1 * gy + j2 * gz,
        j3 * gx + j4 * gy + j5 * gz,
        j6 * gx + j7 * gy + j8 * gz,
    )


def _list_advance(structure, state, u, dt, gravity):
    """The 18 floats of the next state."""
    model = _list_step_model(structure, state, u, gravity)
    y0 = _list_start(state)
    half = 0.5 * dt
    k1 = _list_derivative(y0, *model)
    k2 = _list_derivative([a + half * b for a, b in zip(y0, k1)], *model)
    k3 = _list_derivative([a + half * b for a, b in zip(y0, k2)], *model)
    k4 = _list_derivative([a + dt * b for a, b in zip(y0, k3)], *model)
    sixth = dt / 6.0
    y1 = [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
          for a, b1, b2, b3, b4 in zip(y0, k1, k2, k3, k4)]
    r_ws1 = matmul3(model[0], rodrigues(*y1[6:9]))
    g0, g1, g2, g3, g4, g5, g6, g7, g8 = matmul3(r_ws1[0::3] + r_ws1[1::3] + r_ws1[2::3], r_ws1)
    r_ws1 = matmul3(r_ws1, (
        1.5 - 0.5 * g0, -0.5 * g1, -0.5 * g2,
        -0.5 * g3, 1.5 - 0.5 * g4, -0.5 * g5,
        -0.5 * g6, -0.5 * g7, 1.5 - 0.5 * g8,
    ))
    return (*y1[0:6], *r_ws1, *y1[9:12])


def _bits(floats):
    """Exact bits, so 0.0 and -0.0 differ."""
    return struct.pack(f"<{len(floats)}d", *floats)


def test_kernel_matches_list_kernel_bit_for_bit(all_structures):
    # Random states, thrusts, steps and gravities, with about a third of
    # the entries of v, omega and u set to 0.0 or -0.0 and some attitudes
    # with exact (and negative) zeros, where the sign of a zero can reach
    # the result.
    rng = np.random.default_rng(19)
    signed_zero_eye = np.where(np.eye(3) == 1.0, 1.0, -0.0)

    def sparse(values):
        zeros = np.where(rng.random(values.shape) < 0.5, -0.0, 0.0)
        return np.where(rng.random(values.shape) < 0.35, zeros, values)

    for name, structure in all_structures.items():
        for case in range(300):
            r_ws = (exp_map(rng.normal(size=3) * 2.0), np.eye(3), signed_zero_eye,
                    rot_z(rng.normal()))[case % 4]
            state = RigidState(r=rng.normal(size=3), v=sparse(rng.normal(size=3)),
                               r_ws=r_ws, omega=sparse(rng.normal(size=3) * 2.0))
            u = sparse(rng.uniform(0.0, 1.0, size=4 * structure.n) * structure.f_max)
            dt = float(rng.choice([1e-3, 5e-3, 2e-2]))
            gravity = float(rng.choice([0.0, -0.0, rng.uniform(9.0, 10.0)]))
            got = _advance(structure, _floats_of(state), u, dt, gravity)
            want = _list_advance(structure, state, u, dt, gravity)
            assert _bits(got) == _bits(want), f"{name} case {case}: {got} != {want}"

        # Rest states under uniform hover thrust, as every flight starts. On
        # flat and tilt10 that thrust has exactly zero torque, so phi stays
        # zero and all four stages take the phi = 0 branch.
        u = np.full(4 * structure.n, structure.total_mass * GRAVITY / (4 * structure.n))
        if name in ("flat", "tilt10"):
            assert structure.thrust_map.dot(u)[3:].tolist() == [0.0, 0.0, 0.0]
        for omega in ((0.0, 0.0, 0.0), (-0.0, 0.0, -0.0)):
            for r_ws in (np.eye(3), structure.r_sf.T):
                for dt in (1e-3, 2e-2):
                    state = RigidState(r=np.zeros(3), v=np.zeros(3), r_ws=r_ws, omega=omega)
                    got = _advance(structure, _floats_of(state), u, dt, GRAVITY)
                    want = _list_advance(structure, state, u, dt, GRAVITY)
                    assert _bits(got) == _bits(want), f"{name} at rest: {got} != {want}"


def test_state_and_params_validation(flat_structure):
    with pytest.raises(ValueError):
        RigidState(r=[np.nan, 0, 0], v=np.zeros(3), r_ws=np.eye(3), omega=np.zeros(3))
    for bad in ({"r": np.zeros(4)}, {"v": np.zeros((3, 1))}, {"r_ws": np.eye(4)},
                {"omega": np.zeros(2)}, {"r_ws": np.full((3, 3), np.inf)}):
        fields = dict(r=np.zeros(3), v=np.zeros(3), r_ws=np.eye(3), omega=np.zeros(3))
        fields.update(bad)
        with pytest.raises(ValueError):
            RigidState(**fields)
    with pytest.raises(ValueError):
        SimParams(dt=0.0)
    with pytest.raises(ValueError):
        SimParams(dt=0.1, duration=0.05)
    for bad in ({"dt": np.nan}, {"dt": np.inf}, {"duration": np.nan}, {"duration": np.inf}):
        with pytest.raises(ValueError):
            SimParams(**bad)
