"""Shared pieces of the benchmark: environment record, statistics, span
tracer, the fresh-interpreter set-up measurement and the per-layout design
pipeline that both the flights and the design sweep time.

Importing this module assumes ``run.py`` has already pinned the BLAS thread
count and put the checkout's ``src`` directory first on ``sys.path``.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from modrotor import (Controller, actuation_ellipsoid, check_balanced, numerical_rank,
                      parse_config)
from modrotor.structure import ellipsoid_xz_polygon

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = ROOT / "bench"
CONFIG_DIR = ROOT / "configs"
WORK_DIR = ROOT / ".bench_work"

# Least number of fresh interpreters started per run to measure set-up
# time, and the rounds (flights) or passes (sweep) between two of them.
SETUP_REPEATS = 5
SETUP_EVERY = 3
SETUP_TIMEOUT_S = 60.0

MODE_OF_RANK = {1: "4dof", 2: "5dof", 3: "6dof"}


def environment() -> dict:
    """Interpreter, numpy, core count and BLAS pinning of this process."""
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: value for var, value in sorted(os.environ.items())
                         if var.endswith("_NUM_THREADS")},
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------- statistics


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def tail_label(n: int) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it.

    With fewer than 20 samples no percentile above the median qualifies, so
    the extreme sample is reported instead.
    """
    if n < 20:
        return "max", 100.0
    q = math.floor(100.0 * (1.0 - 10.0 / n))
    q = min(q, 99)
    return f"p{q}", float(q)


@dataclass
class Summary:
    """Samples of one end-to-end metric within a run, and the run's figure.

    The figure is the median for ``setup_s``. Elsewhere it is the best (the
    least time, the highest rate) of repeated timings of the same work: on a
    shared machine other tenants only ever add time, so the best repeat is
    the steadiest estimate of the work's own cost. The median and the
    worse-side tail of the samples are printed beside it.
    """

    name: str
    unit: str
    better: str
    samples: list
    how: str = "best"
    figure: float | None = None  # set when ``how`` is not "best" or "median"

    @property
    def n(self) -> int:
        return len(self.samples)

    @property
    def median(self) -> float:
        return float(np.median(self.samples))

    @property
    def value(self) -> float:
        if self.figure is not None:
            return self.figure
        if self.how == "median":
            return self.median
        return float(max(self.samples) if self.better == "higher" else min(self.samples))

    def tail(self) -> tuple[str, float]:
        label, q = tail_label(self.n)
        if self.better == "higher":
            label = "min" if label == "max" else f"p{100 - int(q)}"
            q = 100.0 - q
        return label, percentile(self.samples, q)

    def line(self) -> str:
        label, tail = self.tail()
        return (f"  {self.name:<14} {self.value:<12.6g} {self.unit:<5} ({self.how}); "
                f"samples: median={self.median:.6g} {label}={tail:.6g} n={self.n}")


class Checks:
    """Operations attempted and failed in one run, with the first messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{what}: {'; '.join(problems)}")

    def result(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "problems": self.problems}


# -------------------------------------------------------------------- tracing


class Tracer:
    """In-memory spans: name, start, end and the index of the parent span.

    Spans are recorded around calls into the library from the benchmark's
    own code and written out only when the run ends.
    """

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self._open: list[int] = [-1]

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def durations_ns(self) -> np.ndarray:
        return np.asarray(self.ends, dtype=np.int64) - np.asarray(self.starts, dtype=np.int64)

    def self_times_ns(self) -> np.ndarray:
        """Each span's duration minus the time its direct children cover."""
        dur = self.durations_ns()
        parents = np.asarray(self.parents, dtype=np.int64)
        covered = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(covered, parents[has_parent], dur[has_parent])
        return dur - covered

    def self_us(self, name: str) -> np.ndarray:
        mask = np.asarray(self.names) == name
        return self.self_times_ns()[mask] / 1e3

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            handle.write("id,parent,name,start_ns,end_ns\n")
            for i, (name, parent, start, end) in enumerate(
                zip(self.names, self.parents, self.starts, self.ends)
            ):
                handle.write(f"{i},{parent},{name},{start},{end}\n")


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.starts)
        tr.names.append(self.name)
        tr.parents.append(tr._open[-1])
        tr.ends.append(0)
        tr._open.append(self.index)
        tr.starts.append(time.perf_counter_ns())
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.ends[self.index] = time.perf_counter_ns()
        tr._open.pop()
        return False


class NoTracer:
    """Stand-in with the same ``span`` call that records nothing."""

    def span(self, name: str) -> "NoTracer":
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


# ------------------------------------------------------------------- set-up


def setup_seconds(config_path: Path) -> float:
    """Wall seconds for a fresh interpreter to get ready to fly ``config_path``.

    The child imports modrotor, parses the config, assembles the structure
    and builds its Controller (see ready.py), then exits.
    """
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "ready.py"), str(config_path)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed ({proc.returncode}): {proc.stderr.strip()}")
    return elapsed


# ---------------------------------------------------------- design pipeline


@dataclass(frozen=True, eq=False)
class Design:
    """Everything the design calls produce for one layout."""

    config: object
    structure: object
    reports: list
    rank_force: int
    sigmas: np.ndarray
    axes: np.ndarray
    polygon: np.ndarray
    controller: Controller


def design_calls(text: str, tracer) -> Design:
    """Run one layout's config text through the public design calls.

    A rejected layout raises the library's named ``ModrotorError``.
    """
    with tracer.span("config.parse"):
        config = parse_config(text)
    with tracer.span("structure.assemble"):
        structure = config.to_structure()
    reports = []
    for placement in structure.placements:
        with tracer.span("module_design.check_balanced"):
            reports.append(check_balanced(placement.module))
    with tracer.span("structure.ellipsoid"):
        rank_force = numerical_rank(structure.force_map)
        sigmas, axes = actuation_ellipsoid(structure)
        polygon = ellipsoid_xz_polygon(structure)
    with tracer.span("control.init"):
        controller = Controller(structure, config.to_gains(), config.sim.gravity_mps2)
    return Design(config, structure, reports, rank_force, sigmas, axes, polygon, controller)


def design_problems(design: Design) -> list[str]:
    """Invariant violations of one assembled layout; empty when correct."""
    problems = []
    structure = design.structure
    r_sf = structure.r_sf
    if (np.linalg.norm(r_sf.T @ r_sf - np.eye(3)) > 1e-9
            or abs(np.linalg.det(r_sf) - 1.0) > 1e-9):
        problems.append("r_sf is not a rotation")
    if structure.rank_f not in (1, 2, 3) or design.rank_force != structure.rank_f:
        problems.append(f"force rank {structure.rank_f} (recomputed {design.rank_force})")
    if not all(report.is_balanced for report in design.reports):
        problems.append("unbalanced module")
    if design.controller.mode != MODE_OF_RANK.get(structure.rank_f):
        problems.append(f"controller mode {design.controller.mode} for rank {structure.rank_f}")
    if np.any(np.diff(design.sigmas) > 0.0) or design.axes.shape != (3, 3):
        problems.append("ellipsoid singular values not descending")
    if design.polygon.shape != (128, 2) or not np.all(np.isfinite(design.polygon)):
        problems.append("ellipsoid polygon malformed")
    return problems
