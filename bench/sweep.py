"""The design_sweep workload: seeded random docked layouts, no flight.

Each layout is a connected set of 1-6 grid cells, one module per cell. Every
module takes a pitch tilt from TILT_DEG and a random quarter-turn yaw, so
pitch tilts of yawed modules act as roll tilts of the structure and the
layouts span 4, 5 and 6 controllable DOF. Sizes are stratified (each size
equally often, in shuffled order) so that the cost per layout does not
depend on how the seed happened to draw sizes.
"""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass, field

import numpy as np
from modrotor import ModrotorError, cli

from harness import (SETUP_EVERY, SETUP_REPEATS, WORK_DIR, Checks, NoTracer, Summary, Tracer,
                     design_calls, design_problems, setup_seconds)

TILT_DEG = (-30.0, -10.0, 0.0, 10.0, 30.0)
MAX_MODULES = 6
POOL_SIZE = 120
SMOKE_POOL_SIZE = 12
MIN_PASSES = 2
_NEIGHBOURS = ((1, 0), (-1, 0), (0, 1), (0, -1))


@dataclass(frozen=True)
class Layout:
    n: int
    text: str


def generate_layouts(seed: int, count: int) -> list[Layout]:
    """``count`` layouts drawn from ``seed``; the same seed gives the same list."""
    rng = np.random.default_rng(seed)
    sizes = np.resize(np.arange(1, MAX_MODULES + 1), count)
    rng.shuffle(sizes)
    return [_draw_layout(rng, int(n)) for n in sizes]


def _draw_layout(rng: np.random.Generator, n: int) -> Layout:
    cells = [(0, 0)]
    while len(cells) < n:
        col, row = cells[rng.integers(len(cells))]
        d_col, d_row = _NEIGHBOURS[rng.integers(len(_NEIGHBOURS))]
        cell = (col + d_col, row + d_row)
        if cell not in cells:
            cells.append(cell)
    lines = []
    for idx, (col, row) in enumerate(cells, start=1):
        lines += [
            f"[module.{idx}]",
            f"beta_deg = {TILT_DEG[rng.integers(len(TILT_DEG))]!r}",
            f"grid_col = {col}",
            f"grid_row = {row}",
            f"yaw_quarter_turns = {int(rng.integers(4))}",
            "",
        ]
    return Layout(n, "\n".join(lines))


@dataclass
class SweepState:
    """Per-run bookkeeping shared by the plain and the traced sweep."""

    layouts: list
    # First-pass outcome per layout: (rank, mode), or the rejection's name.
    outcomes: list = field(init=False)
    checks: Checks = field(default_factory=Checks)

    def __post_init__(self):
        self.outcomes = [None] * len(self.layouts)

    def mix(self) -> dict:
        """Measured 4/5/6-DOF mix and rejected share over the layout pool."""
        seen = [o for o in self.outcomes if o is not None]
        total = max(len(seen), 1)
        shares = {
            f"structure.dof{3 + rank}_share":
                sum(isinstance(o, tuple) and o[0] == rank for o in seen) / total
            for rank in (1, 2, 3)
        }
        shares["structure.rejected_share"] = sum(isinstance(o, str) for o in seen) / total
        return shares


def _process(state: SweepState, index: int, tracer) -> float:
    """Time one layout through the design calls and check it; returns seconds."""
    layout = state.layouts[index]
    start = time.perf_counter()
    try:
        design = design_calls(layout.text, tracer)
    except ModrotorError as exc:
        elapsed = time.perf_counter() - start
        outcome = type(exc).__name__
        problems = []
    except Exception as exc:  # any other exception is a defect, not a rejection
        state.checks.record(f"layout {index}", [f"{type(exc).__name__}: {exc}"])
        return time.perf_counter() - start
    else:
        elapsed = time.perf_counter() - start
        outcome = (design.structure.rank_f, design.controller.mode)
        problems = design_problems(design)
    if state.outcomes[index] is None:
        state.outcomes[index] = outcome
    elif state.outcomes[index] != outcome:
        problems.append(f"outcome {outcome} differs from first pass {state.outcomes[index]}")
    state.checks.record(f"layout {index}", problems)
    return elapsed


def _cli_check(state: SweepState, index: int, path) -> float:
    """Time one in-process ``modrotor check`` call on a layout; returns seconds."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(["check", "--config", str(path)])
    elapsed = time.perf_counter() - start
    outcome = state.outcomes[index]
    if isinstance(outcome, tuple):
        ok = code == cli.EXIT_OK and f"controllable DOF: {3 + outcome[0]}" in out.getvalue()
    else:
        ok = code == cli.EXIT_VALIDATION
    state.checks.record(f"layout {index} check",
                        [] if ok else [f"exited {code} for outcome {outcome}"])
    return elapsed


def _setup_layout(state: SweepState) -> int:
    """The first accepted layout of the most modules: the one ``setup_s`` flies."""
    accepted = [i for i, o in enumerate(state.outcomes) if isinstance(o, tuple)]
    if not accepted:
        raise RuntimeError("every layout in the pool was rejected; nothing to set up")
    return max(accepted, key=lambda i: (state.layouts[i].n, -i))


def _write_configs(layouts: list) -> list:
    folder = WORK_DIR / "sweep"
    folder.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, layout in enumerate(layouts):
        path = folder / f"layout-{i:04d}.cfg"
        path.write_text(layout.text, encoding="utf-8")
        paths.append(path)
    return paths


def run(seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """One design_sweep run; returns summaries, layer metrics and checks."""
    layouts = generate_layouts(seed, SMOKE_POOL_SIZE if smoke else POOL_SIZE)
    state = SweepState(layouts)
    if trace:
        return _run_traced(state, seconds)
    paths = _write_configs(layouts)

    # Per layout and pass: seconds in the design calls and in ``check``.
    design_s, check_s, setup = [], [], []
    setup_target = MIN_PASSES if smoke else SETUP_REPEATS
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        design_s.append([_process(state, i, NoTracer()) for i in range(len(layouts))])
        check_s.append([_cli_check(state, i, paths[i]) for i in range(len(layouts))])
        if len(design_s) % SETUP_EVERY == 1 or smoke:
            setup.append(setup_seconds(paths[_setup_layout(state)]))
        now = time.perf_counter()
        if (len(design_s) >= MIN_PASSES and len(setup) >= setup_target
                and now - start + (now - pass_start) > seconds):
            break
    # Layouts differ in cost, so the figures take each layout's best time
    # over the passes; the samples are whole passes and single calls.
    design_s, check_s = np.array(design_s), np.array(check_s)
    return {
        "summaries": {
            "setup_s": Summary("setup_s", "s", "lower", setup, "median"),
            "run_wall_s": Summary("run_wall_s", "s", "lower", list(check_s.ravel()),
                                  "mean of per-layout best", float(check_s.min(axis=0).mean())),
            "layouts_per_s": Summary("layouts_per_s", "1/s", "higher",
                                     list(len(layouts) / design_s.sum(axis=1)),
                                     "pool over per-layout best",
                                     len(layouts) / float(design_s.min(axis=0).sum())),
        },
        "info": {"command": "check", **state.mix(), "layouts": len(layouts)},
        **state.checks.result(),
    }


def _run_traced(state: SweepState, seconds: float) -> dict:
    """Each layout plainly, then traced; spans give the per-layer figures.

    Pairing each layout's plain and traced pass keeps both under the same
    machine load, so their ratio is the tracing overhead.
    """
    tracer = Tracer()
    plain = traced = 0.0
    passes = 0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for i in range(len(state.layouts)):
            plain += _process(state, i, NoTracer())
            with tracer.span("structure.layout"):
                traced += _process(state, i, tracer)
        passes += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    layer = {
        "structure.layouts": passes * len(state.layouts),
        "trace.overhead_share": traced / plain - 1.0,
        **state.mix(),
    }
    return {"tracer": tracer, "layer": layer, **state.checks.result()}
