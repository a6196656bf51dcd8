import dataclasses
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from modrotor import (
    ControlOutput,
    Controller,
    RigidState,
    SimParams,
    SimulationError,
    Wrench,
    hover,
    initial_state_from_sample,
    parse_config,
    run_closed_loop,
    step,
)
from modrotor.sim import euler_zyx
from modrotor.so3 import rot_x, rot_y, rot_z, rotation_angle
from modrotor.trajectory import TrajectorySample, helix
from conftest import CONFIG_DIR, exp_map, overflowing_allocation


def test_euler_zyx_roundtrip():
    rng = np.random.default_rng(41)
    for _ in range(50):
        yaw, roll = rng.uniform(-np.pi, np.pi, 2)
        pitch = rng.uniform(-np.pi / 2 + 0.01, np.pi / 2 - 0.01)
        r = rot_z(yaw) @ rot_y(pitch) @ rot_x(roll)
        got = euler_zyx(r)
        np.testing.assert_allclose(got, [yaw, pitch, roll], atol=1e-12)


def test_recording_matches_numpy_oracle():
    # The numpy recording functions the float ones replaced, on random
    # rotations and on the clamp edges just outside [-1, 1].
    def oracle_euler(r):
        return (np.arctan2(r[1, 0], r[0, 0]), -np.arcsin(np.clip(r[2, 0], -1.0, 1.0)),
                np.arctan2(r[2, 1], r[2, 2]))

    def oracle_angle(ra, rb=None):
        m = ra if rb is None else ra.T @ rb
        return np.arccos(np.clip((np.trace(m) - 1.0) / 2.0, -1.0, 1.0))

    rng = np.random.default_rng(42)
    above_one = np.nextafter(1.0, 2.0)  # 1 + 2.2e-16
    pairs = [(exp_map(rng.normal(size=3) * 2.0), exp_map(rng.normal(size=3) * 2.0))
             for _ in range(300)]
    edges = []
    for sign in (1.0, -1.0):
        r = np.eye(3)
        r[2, 0] = sign * above_one
        edges.append(r)
    trace_edge = np.diag([above_one, above_one, 1.0])  # trace 3 + 4.4e-16
    assert (np.trace(trace_edge) - 1.0) / 2.0 > 1.0
    for ra, rb in pairs + [(r, None) for r in edges] + [(trace_edge, None),
                                                        (np.eye(3), trace_edge)]:
        np.testing.assert_allclose(euler_zyx(ra), oracle_euler(ra), rtol=0, atol=1e-15)
        assert all(type(x) is float for x in euler_zyx(ra))
        for args in ((ra,), (ra, rb)):
            got = rotation_angle(*args)
            assert type(got) is float
            assert abs(got - oracle_angle(*args)) <= 1e-13
    assert euler_zyx(edges[0])[1] == -np.pi / 2 and euler_zyx(edges[1])[1] == np.pi / 2
    assert rotation_angle(trace_edge) == 0.0 and rotation_angle(np.eye(3), trace_edge) == 0.0


def test_initial_state_aligns_thrust_frame(tilt10_structure):
    state = initial_state_from_sample(tilt10_structure, helix(0.0))
    r_wf = state.r_ws @ tilt10_structure.r_sf
    np.testing.assert_allclose(r_wf, helix(0.0).r_wf_d, atol=1e-12)
    np.testing.assert_allclose(state.v, helix(0.0).v_d, atol=0)


def test_hover_run_converges_and_records(flat_structure):
    traj = hover((0.0, 0.0, 0.7))
    start = initial_state_from_sample(flat_structure, traj(0.0))
    offset = RigidState(r=start.r + [0.05, 0, 0], v=np.zeros(3),
                        r_ws=start.r_ws, omega=np.zeros(3))
    result = run_closed_loop(
        flat_structure, traj, params=SimParams(dt=0.002, duration=3.0), state0=offset
    )
    assert result.t.size == 1500
    assert result.u.shape == (1500, 4)
    assert result.pos_err[0] == pytest.approx(0.05)
    assert result.pos_err[-1] < 1e-3
    assert result.rms_pos_err(t_min=2.0) < 1e-3
    assert result.max_pos_err() == pytest.approx(np.max(result.pos_err))
    assert 0.0 <= result.saturation_fraction() <= 1.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t_min", [3.0, 1e300, math.nan, math.inf])
def test_pos_err_rejects_t_min_past_the_last_sample(flat_structure, t_min):
    # Past the last sample (1.99 s) no sample is left to reduce: the error
    # names t_min, where it was a warning and NaN or numpy's unnamed error.
    result = run_closed_loop(flat_structure, hover((0.0, 0.0, 0.7)),
                             params=SimParams(dt=0.01, duration=2.0))
    for error in (result.rms_pos_err, result.max_pos_err):
        with pytest.raises(ValueError, match=r"^t_min must be "):
            error(t_min)
    assert result.max_pos_err(result.t[-1]) == result.pos_err[-1]
    assert result.rms_pos_err(result.t[-1]) == abs(result.pos_err[-1])


def test_closed_loop_enters_errstate_once(flat_structure, monkeypatch):
    # The loop enters numpy's errstate once for the whole run; the step
    # kernel it calls does not enter it again on every step.
    entries = []
    errstate = np.errstate

    def counted(*args, **kwargs):
        entries.append(kwargs)
        return errstate(*args, **kwargs)

    trajectory = hover((0.0, 0.0, 0.7))
    state0 = initial_state_from_sample(flat_structure, trajectory(0.0))
    monkeypatch.setattr(np, "errstate", counted)
    result = run_closed_loop(flat_structure, trajectory, state0=state0,
                             params=SimParams(dt=0.01, duration=2.0))
    assert result.t.size == 200
    assert entries == [{"over": "ignore", "invalid": "ignore"}]


def test_run_aborts_with_timestep_on_failure(flat_structure):
    # Gains violent enough to blow past the motor range induce divergence
    # when paired with a huge step, and the error names the failing step.
    from modrotor import Gains
    bad = Gains(k_pos=1e6, k_vel=1e-6, k_rot=1e6, k_ang=1e-6)
    traj = hover((0.0, 0.0, 1e5))
    with pytest.raises(SimulationError, match="t="):
        run_closed_loop(
            flat_structure, traj, gains=bad,
            params=SimParams(dt=10.0, duration=1000.0),
        )


def test_non_finite_command_aborts_with_timestep(all_structures):
    # The controller's ControlDegeneracyError for an overflowing wrench or
    # acceleration reaches the caller as SimulationError naming the step.
    sample = hover((0.0, 0.0, 0.7))(0.0)
    for structure in all_structures.values():
        start = initial_state_from_sample(structure, sample)
        for state_fields in ({"omega": np.array([1e200, 2e200, 0.0])},
                             {"r": np.array([0.0, 0.0, -1e307])}):
            state0 = RigidState(**{"r": start.r, "v": start.v, "r_ws": start.r_ws,
                                   "omega": start.omega, **state_fields})
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(SimulationError, match="t=0.000000"):
                    run_closed_loop(structure, lambda t, s=sample: s, state0=state0,
                                    params=SimParams(dt=0.01, duration=0.05))


@pytest.mark.filterwarnings("error")
def test_overflowing_thrusts_abort_at_the_first_step():
    # The controller names the overflowing thrusts before any are flown, so
    # the run stops at step 0, not steps later in the integrator.
    structure, gains, state0, trajectory = overflowing_allocation()
    with pytest.raises(SimulationError, match=r"^run aborted at t=0\.000000 s \(step 0\): "
                       r"minimum-norm thrusts are not finite"):
        run_closed_loop(structure, trajectory, gains, state0=state0)


@pytest.mark.filterwarnings("error")
def test_initial_rate_past_float_range_is_rejected_by_the_state():
    # A finite target rate whose body-frame rate overflows: RigidState
    # rejects it with its own message, and numpy warns of nothing.
    structure = parse_config((CONFIG_DIR / "experiment1.cfg").read_text()).to_structure()
    sample = TrajectorySample(t=0.0, r_d=np.zeros(3), v_d=np.zeros(3), a_d=np.zeros(3),
                              omega_d=np.array([1.7e308, 0.0, 1.7e308]))
    message = r"^omega must be a finite array of shape \(3,\), got \[inf, "
    with pytest.raises(ValueError, match=message):
        initial_state_from_sample(structure, sample)
    with pytest.raises(ValueError, match=message):
        run_closed_loop(structure, lambda t: sample, params=SimParams(dt=0.01, duration=0.02))


def test_deterministic_across_runs(pitch_pair_structure):
    traj = hover((0.0, 0.0, 0.7))
    kw = dict(params=SimParams(dt=0.005, duration=1.0))
    a = run_closed_loop(pitch_pair_structure, traj, **kw)
    b = run_closed_loop(pitch_pair_structure, traj, **kw)
    np.testing.assert_array_equal(a.pos, b.pos)
    np.testing.assert_array_equal(a.u, b.u)


@pytest.mark.parametrize("name", ["experiment1", "experiment2", "experiment3", "flat",
                                  "tilted_pair"])
def test_run_matches_hand_loop_of_public_calls(name):
    # run_closed_loop hands floats between private kernels; a loop of the
    # public calls that reads the public array fields must give the same run
    # bit for bit, on every config: both samplers, ranks 1 to 3. Two seconds
    # take experiment3 past its first saturated step.
    config = parse_config((CONFIG_DIR / f"{name}.cfg").read_text())
    structure, trajectory, gains = config.to_structure(), config.to_trajectory(), config.to_gains()
    params = replace(config.to_sim_params(), duration=2.0)
    result = run_closed_loop(structure, trajectory, gains, params)

    controller = Controller(structure, gains, params.gravity)
    state = initial_state_from_sample(structure, trajectory(0.0))
    records = []
    for k in range(result.t.size):
        t = k * params.dt
        sample = trajectory(t)
        out = controller.step(state, sample)
        r_wf = state.r_ws @ structure.r_sf
        records.append((t, *state.r, *sample.r_d, *euler_zyx(r_wf), math.dist(sample.r_d, state.r),
                        rotation_angle(r_wf, out.desired_attitude), *out.u, out.saturated))
        state = step(structure, state, out.u, params.dt, params.gravity)

    expected = np.array(records)
    got = np.column_stack([result.t, result.pos, result.pos_des, result.euler_f, result.pos_err,
                           result.att_err, result.u, result.saturated])
    assert got.tobytes() == expected.tobytes()
    for field in ("r", "v", "r_ws", "omega"):
        assert getattr(result.final_state, field).tobytes() == getattr(state, field).tobytes()
    assert result.saturated.any() == (name == "experiment3")


def _assert_whole(value, rebuild):
    """Every dataclass field of ``value`` is held in the instance itself
    before any is read, read-only, with the type and bits of the same field
    of ``rebuild(value)``, a value built by the public constructors."""
    held = dict(vars(value))
    built = rebuild(value)
    for f in dataclasses.fields(value):
        assert f.name in held, f"{type(value).__name__}.{f.name} is built on first read"
        have, want = held[f.name], getattr(built, f.name)
        assert type(have) is type(want), f.name
        if dataclasses.is_dataclass(have):
            _assert_whole(have, lambda _: want)
        elif isinstance(have, np.ndarray):
            assert not have.flags.writeable, f.name
            assert (have.dtype, have.shape) == (want.dtype, want.shape), f.name
            assert have.tobytes() == want.tobytes(), f.name
        else:
            assert have == want, f.name


def _rebuilt_output(out):
    return ControlOutput(
        u=np.array(out.u), u_raw=np.array(out.u_raw),
        desired_wrench=Wrench(force=out.desired_wrench.force, torque=out.desired_wrench.torque),
        saturated=bool(out.saturated), desired_attitude=np.array(out.desired_attitude),
        mode=str(out.mode))


def _rebuilt_state(state):
    return RigidState(r=state.r, v=state.v, r_ws=state.r_ws, omega=state.omega)


def test_public_calls_return_whole_values(all_structures):
    # The loop runs on floats; what the public calls return is built whole,
    # with no field left to build on first read.
    for structure in all_structures.values():
        state = initial_state_from_sample(structure, helix(0.0))
        out = Controller(structure).step(state, helix(0.0))
        _assert_whole(out, _rebuilt_output)
        _assert_whole(step(structure, state, out.u, 0.01), _rebuilt_state)
        result = run_closed_loop(structure, helix, params=SimParams(dt=0.01, duration=0.05))
        _assert_whole(result.final_state, _rebuilt_state)
