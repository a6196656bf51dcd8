"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import time

import numpy as np
import pytest

from modrotor import (
    Controller,
    RigidState,
    SimParams,
    build_r_module,
    check_balanced,
    helix,
    hover,
    initial_state_from_sample,
    numerical_rank,
    rectangle,
    run_closed_loop,
    step,
)
from modrotor.so3 import E3, rot_y, rotation_angle
from modrotor.trajectory import HELIX_PERIOD, RECT_ALTITUDE, RECT_SPEED, _rect_schedule

from conftest import exp_map, make_flat, make_pitch_pair, make_quad_tilt, make_tilt10
from test_structure import brute_force_wrench
from test_dynamics import top_closed_form

TRANSIENT_S = 3.0


def report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def fixtures():
    return {
        "flat": make_flat(),
        "tilt10": make_tilt10(),
        "pitch_pair": make_pitch_pair(),
        "quad_tilt": make_quad_tilt(),
    }


def test_criterion_1_balanced_module_suite():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst_residual = 0.0
    worst_gain = 0.0
    for _ in range(200):
        alpha, beta = rng.uniform(-np.pi / 2, np.pi / 2, size=2)
        rep = check_balanced(build_r_module(alpha=alpha, beta=beta))
        worst_residual = max(
            worst_residual,
            np.max(np.abs(rep.torque_from_forces)),
            np.max(np.abs(rep.torque_from_drag)),
        )
        worst_gain = max(worst_gain, abs(rep.thrust_gain - 4.0))
        assert rep.is_balanced
    elapsed = time.perf_counter() - t0
    ok = worst_residual < 1e-9 and worst_gain < 1e-9 and elapsed < 1.0
    report(
        "criterion 1: 200 random shared-tilt modules balanced",
        ok,
        f"max residual {worst_residual:.2e}, max |gain-4| {worst_gain:.2e}, {elapsed:.2f} s",
    )


def test_criterion_2_rank_detection(fixtures):
    expected = {"flat": 4, "tilt10": 4, "pitch_pair": 5, "quad_tilt": 6}
    ok = True
    details = []
    for name, structure in fixtures.items():
        mine = numerical_rank(structure.thrust_map)
        sigma_max = np.linalg.svd(structure.thrust_map, compute_uv=False)[0]
        oracle = np.linalg.matrix_rank(structure.thrust_map, tol=1e-9 * sigma_max)
        ok &= mine == expected[name] == oracle
        details.append(f"{name}={mine}")
    report("criterion 2: rank detection 4/5/6 vs SVD oracle", ok, ", ".join(details))


def test_criterion_3_thrust_frame_exactness(fixtures):
    err10 = np.linalg.norm(fixtures["tilt10"].r_sf - rot_y(np.pi / 18))
    err_pair = np.linalg.norm(fixtures["pitch_pair"].r_sf - np.eye(3))
    err_quad = np.linalg.norm(fixtures["quad_tilt"].r_sf - np.eye(3))
    ok = err10 < 1e-9 and err_pair < 1e-9 and err_quad < 1e-9
    report(
        "criterion 3: thrust frames exact",
        ok,
        f"tilt10 {err10:.2e}, pair {err_pair:.2e}, block {err_quad:.2e}",
    )


def test_criterion_4_thrust_map_oracle(fixtures):
    rng = np.random.default_rng(104)
    worst = 0.0
    for structure in fixtures.values():
        for _ in range(100):
            u = rng.uniform(0.0, 2.0, size=4 * structure.n)
            err = np.max(np.abs(structure.thrust_map @ u - brute_force_wrench(structure, u)))
            worst = max(worst, err)
    report("criterion 4: thrust map equals brute-force aggregation", worst < 1e-12,
           f"max deviation {worst:.2e}")


def test_criterion_5_allocation_consistency_and_minimality(fixtures):
    rng = np.random.default_rng(105)

    def min_norm_oracle(m, b):
        return m.T @ np.linalg.solve(m @ m.T, b)

    # Each case runs on the reduced map and pseudoinverse its controller
    # allocates with; commands are drawn in that map's row order.
    worst_res, worst_norm = 0.0, 0.0
    cases = [
        (Controller(fixtures["tilt10"]),
         lambda: np.concatenate([[rng.uniform(0, 5)], rng.uniform(-0.05, 0.05, 3)])),
        (Controller(fixtures["pitch_pair"]),
         lambda: np.concatenate([rng.uniform([-2, -2], [6, 2]), rng.uniform(-0.05, 0.05, 3)])),
        (Controller(fixtures["quad_tilt"]),
         lambda: np.concatenate([rng.uniform(-3, 6, 3), rng.uniform(-0.05, 0.05, 3)])),
    ]

    for ctrl, draw in cases:
        matrix = ctrl.reduced_map
        for _ in range(100):
            b = draw()
            u = ctrl.pinv @ b
            worst_res = max(worst_res, np.max(np.abs(matrix @ u - b)))
            worst_norm = max(worst_norm, np.linalg.norm(u) - np.linalg.norm(min_norm_oracle(matrix, b)))
    ok = worst_res < 1e-9 and worst_norm < 1e-9
    report(
        "criterion 5: allocation exact and minimum-norm in every mode",
        ok,
        f"max residual {worst_res:.2e}, max norm excess {worst_norm:.2e}",
    )


def test_criterion_6_hover_convergence(fixtures):
    axis = np.ones(3) / np.sqrt(3)
    ok = True
    details = []
    for name, structure in fixtures.items():
        traj = hover((0.0, 0.0, 0.7))
        nominal = initial_state_from_sample(structure, traj(0.0))
        state0 = RigidState(
            r=nominal.r + np.array([0.1, 0.0, 0.0]),
            v=np.zeros(3),
            r_ws=nominal.r_ws @ exp_map(np.deg2rad(5.0) * axis),
            omega=np.zeros(3),
        )
        t0 = time.perf_counter()
        res = run_closed_loop(structure, traj, params=SimParams(dt=0.001, duration=5.0),
                              state0=state0)
        elapsed = time.perf_counter() - t0
        pos_err = np.linalg.norm(res.final_state.r - np.array([0.0, 0.0, 0.7]))
        att_err_deg = np.degrees(res.att_err[-1])
        fixture_ok = pos_err < 1e-3 and att_err_deg < 0.1 and elapsed < 10.0
        if name == "tilt10":
            hover_align_deg = np.degrees(
                rotation_angle(res.final_state.r_ws, structure.r_sf.T)
            )
            fixture_ok &= hover_align_deg < 0.5
            details.append(f"{name}: counter-tilt {hover_align_deg:.3f} deg")
        details.append(f"{name}: {pos_err * 1e3:.3f} mm, {att_err_deg:.4f} deg, {elapsed:.1f} s")
        ok &= fixture_ok
    report("criterion 6: hover recovery on every fixture", ok, "; ".join(details))


def test_criterion_7_helix_tracking(fixtures):
    duration = TRANSIENT_S + HELIX_PERIOD
    res = run_closed_loop(fixtures["tilt10"], helix,
                          params=SimParams(dt=0.001, duration=duration))
    mask = res.t >= TRANSIENT_S
    rms = np.sqrt(np.mean(res.pos_err[mask] ** 2))
    yaw_ref = (2 * np.pi / HELIX_PERIOD) * res.t
    yaw_err = np.arctan2(np.sin(res.euler_f[:, 0] - yaw_ref), np.cos(res.euler_f[:, 0] - yaw_ref))
    max_yaw_deg = np.degrees(np.max(np.abs(yaw_err[mask])))
    ok = rms < 0.05 and max_yaw_deg < 3.0
    report("criterion 7: helix tracked on the tilted module",
           ok, f"rms {rms * 100:.2f} cm, max yaw err {max_yaw_deg:.2f} deg")


def test_criterion_8_rectangle_with_pitch_hold(fixtures):
    duration = TRANSIENT_S + _rect_schedule(RECT_SPEED, RECT_ALTITUDE)[2]
    ok = True
    details = []
    for hold_deg in (0.0, -5.0):
        traj = rectangle(pitch_hold=np.deg2rad(hold_deg))
        res = run_closed_loop(fixtures["pitch_pair"], traj,
                              params=SimParams(dt=0.001, duration=duration))
        mask = res.t >= TRANSIENT_S
        rms = np.sqrt(np.mean(res.pos_err[mask] ** 2))
        mean_pitch_deg = np.degrees(np.mean(res.euler_f[mask, 1]))
        ok &= rms < 0.05 and abs(mean_pitch_deg - hold_deg) < 0.5
        details.append(f"hold {hold_deg:+.0f}: pitch {mean_pitch_deg:+.3f} deg, rms {rms * 100:.2f} cm")
    report("criterion 8: rectangle with independent pitch hold", ok, "; ".join(details))


def test_criterion_9_level_rectangle_attitude(fixtures):
    duration = TRANSIENT_S + _rect_schedule(RECT_SPEED, RECT_ALTITUDE)[2]
    res = run_closed_loop(fixtures["quad_tilt"], rectangle(),
                          params=SimParams(dt=0.001, duration=duration))
    mask = res.t >= TRANSIENT_S
    rms = np.sqrt(np.mean(res.pos_err[mask] ** 2))
    max_roll = np.degrees(np.max(np.abs(res.euler_f[mask, 2])))
    max_pitch = np.degrees(np.max(np.abs(res.euler_f[mask, 1])))
    ok = rms < 0.05 and max_roll < 0.5 and max_pitch < 0.5
    report("criterion 9: level-attitude rectangle on the 2x2 block", ok,
           f"rms {rms * 100:.3f} cm, |roll| {max_roll:.3f} deg, |pitch| {max_pitch:.3f} deg")


def test_criterion_10_integrator_order(fixtures):
    structure = fixtures["flat"]
    omega0 = np.array([3.0, 0.0, 8.0])
    v0 = np.array([0.5, -0.2, 0.1])
    t_end = 2.0
    u0 = np.zeros(4)

    def run(dt):
        state = RigidState(r=np.zeros(3), v=v0, r_ws=np.eye(3), omega=omega0)
        for _ in range(int(round(t_end / dt))):
            state = step(structure, state, u0, dt)
        return state

    # Tumbling free fall: translation has the quadratic closed form and the
    # axisymmetric body has the precession closed form.
    r_expected = v0 * t_end - 0.5 * 9.81 * t_end**2 * E3
    r_exact, omega_exact = top_closed_form(structure.inertia, omega0, np.eye(3), t_end)

    errs = []
    pos_errs = []
    for dt in (2e-2, 1e-2):
        state = run(dt)
        pos_errs.append(np.linalg.norm(state.r - r_expected))
        errs.append(np.linalg.norm(state.r_ws - r_exact) + np.linalg.norm(state.omega - omega_exact))
    ratio = errs[0] / errs[1]

    state = RigidState(r=np.zeros(3), v=np.zeros(3), r_ws=np.eye(3), omega=np.array([0.3, 0.2, 1.0]))
    for _ in range(100_000):
        state = step(structure, state, u0, 1e-3)
    ortho = np.linalg.norm(state.r_ws @ state.r_ws.T - np.eye(3))
    det_err = abs(np.linalg.det(state.r_ws) - 1.0)

    ok = ratio >= 8.0 and max(pos_errs) < 1e-12 and ortho < 1e-9 and det_err < 1e-9
    report(
        "criterion 10: integrator order and rotation-group drift",
        ok,
        f"halving ratio {ratio:.1f}, free-fall pos err {max(pos_errs):.1e}, "
        f"orthogonality {ortho:.1e} after 1e5 steps",
    )
