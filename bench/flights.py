"""The three flight workloads: the experiment fixtures flown closed-loop.

A plain run times the user-visible pieces from outside:

* short ``modrotor simulate`` calls on the fixture's first PREFIX_S seconds,
  for ``run_wall_s``; each printed summary must match the prefix
  fingerprint in ``fingerprints.json`` and each repeat's CSV the first one
  byte for byte;
* the whole fixture flown by ``run_closed_loop`` in consecutive windows of
  seed-drawn lengths, each started from the last one's final state, for
  ``rtf``; the joined flight must match the full fingerprint;
* the fixture's layout through the design calls, for ``layouts_per_s``;
* a fresh interpreter brought to ready-to-fly, for ``setup_s``.

A traced run flies the whole fixture in short windows, each once by
``run_closed_loop`` and once by a loop of the benchmark's own that makes the
same public calls with one root span per step; the two final states of
every window must agree bit for bit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import time
from dataclasses import replace

import numpy as np
from modrotor import Controller, ModrotorError, SimParams, cli, parse_config, run_closed_loop
from modrotor.dynamics import step
from modrotor.sim import RunResult, euler_zyx, initial_state_from_sample
from modrotor.so3 import rotation_angle

from harness import (BENCH_DIR, CONFIG_DIR, SETUP_EVERY, SETUP_REPEATS, WORK_DIR, Checks, NoTracer,
                     Summary, Tracer, design_calls, design_problems, setup_seconds)

FLIGHTS = {
    "helix_4dof": "experiment1.cfg",
    "rect_pitch_5dof": "experiment2.cfg",
    "rect_level_6dof": "experiment3.cfg",
}

PREFIX_S = 0.05     # simulated seconds of each short ``simulate`` call
SMOKE_FLIGHT_S = 2.0  # the whole flight at smoke size: up to the first corner
# A plain run cuts the flight into rtf windows of seed-drawn lengths within
# these bounds, in simulated seconds; a traced run uses TRACE_WINDOW_S.
WINDOW_MIN_S = 0.5
WINDOW_MAX_S = 1.5
TRACE_WINDOW_S = 0.5
LAYOUTS_PER_ROUND = 20
TRACED_LAYOUTS = 200  # the fixture's layout through the traced design calls
SMOKE_ROUNDS = 2

# Spans under each step's root span, in call order.
STEP_CHILDREN = ("trajectory.sample", "control.step", "sim.record", "dynamics.step")

FINGERPRINT_KEYS = ("rms_pos_err_m", "max_pos_err_m", "final_att_err_deg", "saturation_fraction")
# (relative, absolute) tolerance per fingerprint field. The absolute part
# covers the 9 decimals that ``simulate`` prints; saturation may differ by
# a couple of steps whose clamp decision sits on a rounding edge.
TOLERANCES = {
    "rms_pos_err_m": (1e-6, 2e-9),
    "max_pos_err_m": (1e-6, 2e-9),
    "final_att_err_deg": (1e-6, 2e-9),
    "saturation_fraction": (0.0, 2e-4),
}


def load_fingerprints() -> dict:
    return json.loads((BENCH_DIR / "fingerprints.json").read_text(encoding="utf-8"))


def fingerprint_problems(got: dict, expected: dict) -> list[str]:
    problems = []
    for key in FINGERPRINT_KEYS:
        rel, absolute = TOLERANCES[key]
        if abs(got[key] - expected[key]) > rel * abs(expected[key]) + absolute:
            problems.append(f"{key}={got[key]!r}, expected {expected[key]!r}")
    return problems


def result_fingerprint(result) -> dict:
    """The fingerprint fields as ``simulate`` computes them."""
    return {
        "rms_pos_err_m": result.rms_pos_err(),
        "max_pos_err_m": result.max_pos_err(),
        "final_att_err_deg": float(np.degrees(result.final_att_err())),
        "saturation_fraction": result.saturation_fraction(),
    }


def _parse_summary(text: str) -> dict:
    values = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        if key in FINGERPRINT_KEYS:
            values[key] = float(value)
    return values


class Flight:
    """One fixture: its config, library objects and the CLI arguments."""

    def __init__(self, name: str):
        self.name = name
        self.config_path = CONFIG_DIR / FLIGHTS[name]
        self.text = self.config_path.read_text(encoding="utf-8")
        self.config = parse_config(self.text)
        self.structure = self.config.to_structure()
        self.trajectory = self.config.to_trajectory()
        self.gains = self.config.to_gains()
        self.params = self.config.to_sim_params()
        self.csv_path = WORK_DIR / f"{name}.csv"

    def simulate(self, duration: float | None) -> tuple[float, int, str]:
        """One in-process ``modrotor simulate`` call: wall s, exit code, stdout."""
        argv = ["simulate", "--config", str(self.config_path), "--out", str(self.csv_path)]
        if duration is not None:
            argv += ["--duration", repr(duration)]
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main(argv)
        return time.perf_counter() - start, code, out.getvalue()

    def window(self, first_step: int, steps: int):
        """Trajectory and parameters for ``steps`` steps from ``first_step``.

        ``run_closed_loop`` samples at ``k * dt``; the shifted trajectory
        samples at ``(first_step + k) * dt``, the very float the whole flight
        uses at that step, so windows chained by their final states repeat
        the whole flight bit for bit.
        """
        base, dt = self.trajectory, self.params.dt

        def shifted(t: float):
            return base((first_step + round(t / dt)) * dt)

        return shifted, replace(self.params, duration=steps * dt)


def _simulate_op(flight: Flight, checks: Checks, duration, expected: dict, label: str) -> float:
    """Time one ``simulate`` call and check its printed fingerprint; returns seconds."""
    wall, code, stdout = flight.simulate(duration)
    summary = _parse_summary(stdout)
    if code != cli.EXIT_OK:
        problems = [f"exit code {code}: {stdout.strip()}"]
    elif set(summary) != set(FINGERPRINT_KEYS):
        problems = [f"summary lacks {sorted(set(FINGERPRINT_KEYS) - set(summary))}"]
    else:
        problems = fingerprint_problems(summary, expected)
    checks.record(label, problems)
    return wall


def _design_op(flight: Flight, checks: Checks, tracer) -> float:
    start = time.perf_counter()
    try:
        design = design_calls(flight.text, tracer)
    except ModrotorError as exc:
        checks.record("design", [f"fixture rejected: {exc}"])
        return time.perf_counter() - start
    elapsed = time.perf_counter() - start
    checks.record("design", design_problems(design))
    return elapsed


def _windows(flight: Flight, bounds):
    """Fly consecutive windows with ``run_closed_loop``, each from the last
    one's final state. Yields (first step, steps, trajectory, params, start
    state, result, wall seconds) per window."""
    state = initial_state_from_sample(flight.structure, flight.trajectory(0.0))
    for first, count in bounds:
        trajectory, params = flight.window(first, count)
        start = time.perf_counter()
        result = run_closed_loop(flight.structure, trajectory, flight.gains, params, state)
        wall = time.perf_counter() - start
        yield first, count, trajectory, params, state, result, wall
        state = result.final_state


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    flight = Flight(name)
    expected = load_fingerprints()[name]
    if trace:
        return _run_traced(flight, expected, smoke)

    checks = Checks()
    dt = flight.params.dt
    duration = SMOKE_FLIGHT_S if smoke else flight.params.duration
    reference = expected["smoke" if smoke else "full"]
    steps = int(round(duration / dt))
    # The seed decides where the flight is cut into rtf windows.
    rng = np.random.default_rng(seed)
    bounds, first = [], 0
    while first < steps:
        count = int(rng.integers(round(WINDOW_MIN_S / dt), round(WINDOW_MAX_S / dt) + 1))
        bounds.append((first, min(count, steps - first)))
        first += count
    windows = _windows(flight, bounds)

    setup, prefix_walls, rtfs, layout_times, results = [], [], [], [], []
    digest = None
    setup_target = SMOKE_ROUNDS if smoke else SETUP_REPEATS
    start = time.perf_counter()
    rounds = 0
    while True:
        round_start = time.perf_counter()
        if rounds % SETUP_EVERY == 0 or smoke:
            setup.append(setup_seconds(flight.config_path))
        rounds += 1
        prefix_walls.append(_simulate_op(flight, checks, PREFIX_S, expected["prefix"], "prefix"))
        csv_digest = hashlib.sha256(flight.csv_path.read_bytes()).hexdigest()
        digest = digest or csv_digest
        checks.record("csv repeat", [] if csv_digest == digest else ["CSV differs from first repeat"])

        for _, count, _, _, _, result, wall in itertools.islice(windows, 1):
            rtfs.append(count * dt / wall)
            results.append(result)

        layout_times += [_design_op(flight, checks, NoTracer()) for _ in range(LAYOUTS_PER_ROUND)]
        now = time.perf_counter()
        if len(setup) >= setup_target and now - start + (now - round_start) > seconds:
            break
    for _, count, _, _, _, result, wall in windows:  # the rest of the flight, if any
        rtfs.append(count * dt / wall)
        results.append(result)

    fingerprint = result_fingerprint(_joined(results, dt))
    checks.record("whole flight", fingerprint_problems(fingerprint, reference))
    return {
        "summaries": {
            "setup_s": Summary("setup_s", "s", "lower", setup, "median"),
            "run_wall_s": Summary("run_wall_s", "s", "lower", prefix_walls),
            "rtf": Summary("rtf", "s/s", "higher", rtfs),
            "layouts_per_s": Summary("layouts_per_s", "1/s", "higher",
                                     [1.0 / t for t in layout_times]),
            "rms_pos_err_m": Summary("rms_pos_err_m", "m", "lower",
                                     [fingerprint["rms_pos_err_m"]], "whole flight"),
        },
        "info": {"command": f"simulate --duration {PREFIX_S}"},
        **checks.result(),
    }


def mirror_loop(flight: Flight, trajectory, params: SimParams, state0, tracer: Tracer):
    """The calls of ``run_closed_loop``, each in a span, one root span per step.

    Records the same per-step values as ``run_closed_loop`` and, for the
    allocation residual, each step's commanded body wrench. Returns the
    final state, the thrusts, the commanded wrenches and the saturation flags.
    """
    structure = flight.structure
    with tracer.span("control.init"):
        controller = Controller(structure, flight.gains, params.gravity)
    state = state0
    steps = int(round(params.duration / params.dt))
    n_u = 4 * structure.n
    t_arr = np.empty(steps)
    pos = np.empty((steps, 3))
    pos_des = np.empty((steps, 3))
    euler = np.empty((steps, 3))
    pos_err = np.empty(steps)
    att_err = np.empty(steps)
    u_arr = np.empty((steps, n_u))
    sat = np.zeros(steps, dtype=bool)
    wrench = np.empty((steps, 6))
    for k in range(steps):
        with tracer.span("sim.step"):
            t = k * params.dt
            with tracer.span("trajectory.sample"):
                sample = trajectory(t)
            with tracer.span("control.step"):
                out = controller.step(state, sample)
            with tracer.span("sim.record"):
                r_wf = state.r_ws @ structure.r_sf
                t_arr[k] = t
                pos[k] = state.r
                pos_des[k] = sample.r_d
                euler[k] = euler_zyx(r_wf)
                pos_err[k] = np.linalg.norm(sample.r_d - state.r)
                att_err[k] = rotation_angle(r_wf, out.desired_attitude)
                u_arr[k] = out.u
                sat[k] = out.saturated
            with tracer.span("dynamics.step"):
                state = step(structure, state, out.u, params.dt, params.gravity)
            wrench[k, :3] = out.desired_wrench.force
            wrench[k, 3:] = out.desired_wrench.torque
    return state, u_arr, wrench, sat


def _same_state(a, b) -> bool:
    return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in ("r", "v", "r_ws", "omega"))


def _joined(results: list, dt: float) -> RunResult:
    """One RunResult from consecutive windows of a flight."""
    def cat(field):
        return np.concatenate([getattr(r, field) for r in results])

    steps = sum(r.t.size for r in results)
    return RunResult(
        t=np.arange(steps) * dt, pos=cat("pos"), pos_des=cat("pos_des"),
        euler_f=cat("euler_f"), pos_err=cat("pos_err"), att_err=cat("att_err"),
        u=cat("u"), saturated=cat("saturated"), final_state=results[-1].final_state,
    )


def _run_traced(flight: Flight, expected: dict, smoke: bool) -> dict:
    """Fly the fixture once in TRACE_WINDOW_S windows chained by final states.

    Each window is flown plainly by ``run_closed_loop`` and then by the
    traced mirror loop from the same state, so each pair runs close in time
    and sees the same machine load; the traced final state must equal the
    plain one bit for bit. The joined plain windows are the whole flight,
    checked against the fingerprint and written as the run CSV. The run
    does this fixed work whatever ``--seconds`` asks.
    """
    checks = Checks()
    tracer = Tracer()
    duration = SMOKE_FLIGHT_S if smoke else flight.params.duration
    reference = expected["smoke" if smoke else "full"]
    dt = flight.params.dt
    steps = int(round(duration / dt))
    window = int(round(TRACE_WINDOW_S / dt))

    for _ in range(TRACED_LAYOUTS):
        with tracer.span("structure.layout"):
            _design_op(flight, checks, tracer)

    bounds = [(first, min(window, steps - first)) for first in range(0, steps, window)]
    results, pairs = [], []  # pairs: (first span, last span, steps, plain s, traced s)
    residual_max, saturated = 0.0, 0
    for first, count, trajectory, params, state, result, plain in _windows(flight, bounds):
        spans_before = len(tracer.starts)
        w_start = time.perf_counter()
        traced_state, u, wrench, sat = mirror_loop(flight, trajectory, params, state, tracer)
        traced = time.perf_counter() - w_start
        checks.record(f"mirror loop from step {first}",
                      [] if _same_state(traced_state, result.final_state)
                      else ["final state differs from run_closed_loop"])

        pairs.append((spans_before, len(tracer.starts), count, plain, traced))
        residual = np.linalg.norm(u @ flight.structure.thrust_map.T - wrench, axis=1)
        residual_max = max(residual_max, float(residual.max()))
        saturated += int(sat.sum())
        results.append(result)

    # Per pair: untraced us per step, its excess over the traced layers' self
    # times, and the traced loop's time against the untraced one.
    in_step = np.isin(np.asarray(tracer.names), STEP_CHILDREN)
    self_us = np.where(in_step, tracer.self_times_ns() / 1e3, 0.0)
    plain_us = np.array([plain / count * 1e6 for _, _, count, plain, _ in pairs])
    attributed = np.array([self_us[a:b].sum() / count for a, b, count, _, _ in pairs])
    overhead = np.array([traced / plain - 1.0 for _, _, _, plain, traced in pairs])

    whole = _joined(results, dt)
    checks.record("flight", fingerprint_problems(result_fingerprint(whole), reference))
    csv_start = time.perf_counter()
    cli.write_run_csv(whole, flight.structure, str(flight.csv_path))
    csv_row_us = (time.perf_counter() - csv_start) / steps * 1e6

    layer = {
        "sim.loop_us": float(np.median(plain_us)),
        "sim.unattributed_us": float(np.median(plain_us - attributed)),
        "control.unsaturated_share": 1.0 - saturated / steps,
        "control.alloc_residual_max_n": residual_max,
        "cli.csv_row_us": csv_row_us,
        "cli.csv_bytes": flight.csv_path.stat().st_size,
        "sim.steps": steps,
        "structure.layouts": TRACED_LAYOUTS,
        "trace.overhead_share": float(np.median(overhead)),
    }
    return {"tracer": tracer, "layer": layer, **checks.result()}
