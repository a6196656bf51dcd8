import math
import re
import warnings

import numpy as np
import pytest

from modrotor import trajectory
from modrotor.so3 import rot_y, rot_z
from modrotor.trajectory import (
    HELIX_PERIOD,
    RECT_ALTITUDE,
    RECT_SPEED,
    TrajectorySample,
    helix,
    hover,
    rectangle,
)


def finite_difference_check(traj, times, tol=1e-5, h=1e-4):
    """Central differences of r_d must reproduce v_d and a_d."""
    for t in times:
        if t < h:
            continue
        s = traj(t)
        # Samples carry float tuples; difference them as arrays.
        r, before, after = (np.asarray(x.r_d) for x in (s, traj(t - h), traj(t + h)))
        v_fd = (after - before) / (2 * h)
        a_fd = (after - 2 * r + before) / h**2
        np.testing.assert_allclose(s.v_d, v_fd, atol=tol)
        np.testing.assert_allclose(s.a_d, a_fd, atol=tol)


def _yaw(sample):
    """Heading of the sample's attitude target, z-y-x convention."""
    return np.arctan2(sample.r_wf_d[1, 0], sample.r_wf_d[0, 0])


def test_helix_start_point():
    s = helix(0.0)
    np.testing.assert_allclose(s.r_d, [-0.05, 0.0, 0.45], atol=1e-15)
    np.testing.assert_array_equal(s.r_wf_d, np.eye(3))


def test_helix_radius_constant():
    for t in np.linspace(0, 40, 200):
        s = helix(t)
        radius = np.hypot(s.r_d[0] + 0.5, s.r_d[1])
        assert abs(radius - 0.45) < 1e-12


def test_helix_altitude_band_and_period():
    times = np.linspace(0, 28, 400)
    zs = np.array([helix(t).r_d[2] for t in times])
    assert zs.min() >= 0.45 - 1e-12 and zs.max() <= 0.95 + 1e-12
    for t in np.linspace(0, 14, 50):
        assert abs(helix(t + HELIX_PERIOD).r_d[2] - helix(t).r_d[2]) < 1e-12


def test_helix_yaw_rate_matches_omega_d():
    s = helix(3.0)
    np.testing.assert_allclose(s.omega_d, [0, 0, 2 * np.pi / 14], atol=1e-15)
    h = 1e-5
    yaw_rate = (_yaw(helix(3.0 + h)) - _yaw(helix(3.0 - h))) / (2 * h)
    assert abs(yaw_rate - 2 * np.pi / 14) < 1e-8


def test_helix_derivative_consistency():
    finite_difference_check(helix, np.linspace(0.1, 30, 77))


def test_rectangle_extents_exact():
    period = trajectory._rect_schedule(RECT_SPEED, RECT_ALTITUDE)[2]
    times = np.linspace(0, period, 4001)
    pts = np.array([rectangle()(t).r_d for t in times])
    assert abs((pts[:, 0].max() - pts[:, 0].min()) - 0.8) < 1e-12
    assert abs((pts[:, 1].max() - pts[:, 1].min()) - 0.6) < 1e-12
    np.testing.assert_allclose(pts[:, 2], 0.7, atol=0)


def test_rectangle_pitch_hold_constant():
    hold = np.deg2rad(-5.0)
    for t in np.linspace(0, 20, 50):
        np.testing.assert_array_equal(rectangle(pitch_hold=hold)(t).r_wf_d, rot_y(hold))


def test_rectangle_period_is_perimeter_over_speed():
    assert abs(trajectory._rect_schedule(0.25, RECT_ALTITUDE)[2] - 2.8 / 0.25) < 1e-12


def _bits(sample):
    return np.array([*sample.r_d, *sample.v_d, *sample.a_d, *sample._attitude]).tobytes()


def test_rectangle_builds_its_lap_schedule_once(monkeypatch):
    # Building a rectangle builds its schedule; no sample builds another,
    # and a float32 or 0-d array speed flies the float speed's lap bit for bit.
    calls = []
    build = trajectory._rect_schedule
    monkeypatch.setattr(trajectory, "_rect_schedule",
                        lambda *args: calls.append(args) or build(*args))
    samplers = [rectangle(speed=speed) for speed in (0.25, np.float32(0.25), np.array(0.25))]
    assert len(calls) == 3
    for t in np.linspace(0.0, 25.0, 251):
        assert len({_bits(sampler(t)) for sampler in samplers}) == 1
    assert len(calls) == 3


@pytest.mark.parametrize("speed", [2.0, 1.2])
def test_rectangle_too_fast_is_rejected_when_built(speed):
    # The rounded corners need the speed below 1.2 m/s; no sampler is made.
    # At 1.2 m/s the blends eat the whole 0.6 m edge, exactly, and no straight
    # run is left; one ulp slower still builds.
    with pytest.raises(ValueError, match=rf"^speed must be below 1\.2 for the 0\.5 s corner "
                                         rf"blend, got {re.escape(repr(speed))}$"):
        rectangle(speed=speed)
    rectangle(speed=math.nextafter(1.2, 0.0))


def test_rectangle_cruise_acceleration_zero():
    # Mid-edge samples sit on straight legs at constant velocity.
    s = rectangle()(0.05)
    np.testing.assert_array_equal(s.a_d, np.zeros(3))
    np.testing.assert_allclose(np.linalg.norm(s.v_d), 0.25, atol=1e-15)


def test_rectangle_derivative_consistency():
    finite_difference_check(rectangle(pitch_hold=0.1), np.linspace(0.05, 23, 97))


def test_rectangle_velocity_integrates_to_position():
    period = trajectory._rect_schedule(RECT_SPEED, RECT_ALTITUDE)[2]
    times = np.linspace(0.0, period, 20001)
    vs = np.array([rectangle()(t).v_d for t in times])
    travelled = np.trapezoid(vs, times, axis=0)
    np.testing.assert_allclose(travelled, np.zeros(3), atol=1e-6)


def test_level_rectangle_attitude_is_identity():
    # The default pitch hold is level; experiment3's rectangle flies it.
    for t in np.linspace(0, 25, 60):
        s = rectangle()(t)
        np.testing.assert_array_equal(s.r_wf_d, np.eye(3))
        np.testing.assert_array_equal(s.omega_d, np.zeros(3))


def test_hover_is_constant():
    traj = hover((1.0, -2.0, 0.7), yaw0=0.3)
    for t in (0.0, 1.5, 600.0):
        s = traj(t)
        np.testing.assert_array_equal(s.r_d, [1.0, -2.0, 0.7])
        np.testing.assert_array_equal(s.v_d, np.zeros(3))
        np.testing.assert_array_equal(s.a_d, np.zeros(3))
        np.testing.assert_array_equal(s.r_wf_d, rot_z(0.3))
    finite_difference_check(traj, [0.5, 10.0])


def test_all_trajectories_finite_over_ten_minutes():
    trajs = [helix, rectangle(), rectangle(pitch_hold=-0.1), hover((0, 0, 1))]
    for traj in trajs:
        for t in np.linspace(0.0, 600.0, 601):
            s = traj(t)
            assert np.all(np.isfinite(s.r_d))
            assert np.all(np.isfinite(s.v_d))
            assert np.all(np.isfinite(s.a_d))
            assert np.all(np.isfinite(s.r_wf_d))


TRAJECTORIES = {"helix": helix, "rectangle": rectangle(),
                "rectangle_pitched": rectangle(pitch_hold=-0.1),
                "hover": hover((0, 0, 1), yaw0=0.3)}


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        helix(-0.1)
    with pytest.raises(ValueError):
        rectangle()(-1.0)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", sorted(TRAJECTORIES))
def test_non_finite_time_rejected(name, t):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-negative"):
            TRAJECTORIES[name](t)


def test_hover_rejects_non_finite_yaw():
    for yaw0 in (np.nan, np.inf):
        with pytest.raises(ValueError, match="yaw0"):
            hover((0, 0, 1), yaw0=yaw0)


def test_sample_default_attitude_is_identity():
    s = TrajectorySample(t=0.0, r_d=np.zeros(3), v_d=np.zeros(3), a_d=np.zeros(3))
    np.testing.assert_array_equal(s.r_wf_d, np.eye(3))
    assert s._attitude == (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)


def test_sample_attitude_is_a_read_only_copy():
    # The controller reads the attitude floats a sample takes at
    # construction; its r_wf_d must not be writable, given or built.
    given = rot_z(0.3)
    s = TrajectorySample(t=0.0, r_d=np.zeros(3), v_d=np.zeros(3), a_d=np.zeros(3), r_wf_d=given)
    given[0, 0] = 5.0
    np.testing.assert_array_equal(s.r_wf_d, rot_z(0.3))
    for sample in (s, helix(1.0), rectangle()(1.0), hover((0, 0, 1))(0.0)):
        with pytest.raises(ValueError, match="read-only"):
            sample.r_wf_d[0, 0] = 1.0


@pytest.mark.parametrize("r_wf_d", [np.eye(2), 2.0 * np.eye(3), np.full((3, 3), np.nan),
                                    np.diag([1.0, 1.0, -1.0]), [[1, 0], [0, 1, 0]], "eye"],
                         ids=["2x2", "scaled", "nan", "reflection", "ragged", "string"])
def test_sample_rejects_non_rotation_attitude(r_wf_d):
    # The 5-DOF controller takes the target's x-axis as is, so it must be a
    # unit column of a proper rotation.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="r_wf_d must be a finite 3x3 rotation matrix"):
            TrajectorySample(t=0.0, r_d=np.zeros(3), v_d=np.zeros(3), a_d=np.zeros(3),
                             r_wf_d=r_wf_d)


@pytest.mark.parametrize("name", ["r_d", "v_d", "a_d", "omega_d"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sample_rejects_non_finite_vectors(name, bad):
    vectors = dict(r_d=np.zeros(3), v_d=np.zeros(3), a_d=np.zeros(3), omega_d=np.zeros(3))
    vectors[name] = (bad, 0.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^{name} must be a finite array of shape \(3,\)"):
            TrajectorySample(t=0.0, **vectors)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_sample_rejects_non_finite_time(t):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^t must be finite"):
            TrajectorySample(t=t, r_d=np.zeros(3), v_d=np.zeros(3), a_d=np.zeros(3))


# ---------------------------------------------------------------- numpy oracle
# The numpy formulas the float trajectories replaced, kept as the reference.


def _oracle_helix(t):
    omega = 2.0 * np.pi / HELIX_PERIOD
    c, s = np.cos(omega * t), np.sin(omega * t)
    r_d = np.array([-0.5 + 0.45 * c, 0.0 + 0.45 * s, 0.7 - 0.25 * c])
    v_d = np.array([-0.45 * omega * s, 0.45 * omega * c, 0.25 * omega * s])
    a_d = np.array([-0.45 * omega**2 * c, -0.45 * omega**2 * s, 0.25 * omega**2 * c])
    return r_d, v_d, a_d, omega * t, np.array([0.0, 0.0, omega])


def _oracle_schedule(speed, altitude=0.7, length=0.8, width=0.6, blend=0.5):
    """(start, duration, p0, v_in, v_out) per phase, and the lap time."""
    shrink = speed * blend
    dirs = [np.array(d) for d in ([1.0, 0, 0], [0, 1.0, 0], [-1.0, 0, 0], [0, -1.0, 0])]
    lengths = [length, width, length, width]
    first_run = length / 2.0 - shrink / 2.0
    rest = [first_run] + [lengths[i] - shrink for i in (1, 2, 3)] + [first_run]
    phases, t, p = [], 0.0, np.array([0.0, -width / 2.0, altitude])
    for leg in range(4):
        v, v_next = speed * dirs[leg], speed * dirs[(leg + 1) % 4]
        phases.append((t, rest[leg] / speed, p.copy(), v, v))
        p = p + rest[leg] * dirs[leg]
        t += rest[leg] / speed
        phases.append((t, blend, p.copy(), v, v_next))
        p = p + 0.5 * blend * (v + v_next)
        t += blend
    phases.append((t, rest[4] / speed, p.copy(), speed * dirs[0], speed * dirs[0]))
    return phases, t + rest[4] / speed


def _oracle_rect_point(t, speed):
    phases, period = _oracle_schedule(speed)
    tau = t % period
    starts = np.array([ph[0] for ph in phases])
    start, duration, p0, v_in, v_out = phases[int(np.searchsorted(starts, tau, side="right") - 1)]
    dt, dv = tau - start, v_out - v_in
    if not dv.any():
        return p0 + dt * v_in, v_in.copy(), np.zeros(3)
    x = dt / duration
    s_int = x**4 * (2.5 + x * (-3.0 + x))
    s = x**3 * (10.0 + x * (-15.0 + 6.0 * x))
    s_deriv = 30.0 * x**2 * (1.0 - x) ** 2
    return p0 + dt * v_in + dv * duration * s_int, v_in + dv * s, dv * s_deriv / duration


def _times_over_two_laps(period, starts):
    """A grid over two laps, every phase start and lap wrap one ulp either side."""
    edges = [lap * period + start for lap in (0, 1, 2) for start in starts]
    near = [np.nextafter(e, side) for e in edges for side in (-np.inf, np.inf)] + edges
    return [float(t) for t in np.concatenate([np.linspace(0.0, 2 * period, 801), near])
            if t >= 0.0]


def _assert_sample_matches(s, r_d, v_d, a_d, r_wf_d):
    for got, want in ((s.r_d, r_d), (s.v_d, v_d), (s.a_d, a_d)):
        assert type(got) is tuple and all(type(x) is float for x in got)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
    np.testing.assert_allclose(s.r_wf_d, r_wf_d, rtol=0, atol=1e-15)


def test_helix_matches_numpy_oracle():
    times = _times_over_two_laps(HELIX_PERIOD, [0.0])
    for t in times:
        r_d, v_d, a_d, yaw, omega_d = _oracle_helix(t)
        s = helix(t)
        _assert_sample_matches(s, r_d, v_d, a_d, rot_z(yaw))
        np.testing.assert_allclose(s.omega_d, omega_d, rtol=0, atol=1e-15)


@pytest.mark.parametrize("speed", [0.25, 1.0])
@pytest.mark.parametrize("pitch_deg", [-5.0, 0.0])
def test_rectangle_matches_numpy_oracle(speed, pitch_deg):
    hold = np.deg2rad(pitch_deg)
    phases, period = _oracle_schedule(speed)
    assert trajectory._rect_schedule(speed, RECT_ALTITUDE)[2] == period
    for t in _times_over_two_laps(period, [ph[0] for ph in phases]):
        r_d, v_d, a_d = _oracle_rect_point(t, speed)
        _assert_sample_matches(rectangle(pitch_hold=hold, speed=speed)(t), r_d, v_d, a_d,
                               rot_y(hold))
