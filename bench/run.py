"""modrotor benchmark: one workload per run, from one single-threaded process.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Workloads: helix_4dof, rect_pitch_5dof and rect_level_6dof fly
configs/experiment{1,2,3}.cfg; design_sweep puts seeded random layouts
through the design calls. ``all`` runs each in turn, each in a fresh
process. See bench/README.md for why each workload is there and what each
metric should move.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it drives the same calls with spans around each layer and
reports per-layer metrics, writing the spans to .bench_work/. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics. The exit code is 0 when every check passed, 1 when a
check failed and 2 when the library cannot be imported from the checkout.
"""

from __future__ import annotations

import os

# Pin the BLAS pool before numpy is first imported; set-up children inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

FLIGHT_WORKLOADS = ("helix_4dof", "rect_pitch_5dof", "rect_level_6dof")
WORKLOADS = FLIGHT_WORKLOADS + ("design_sweep",)

# End-to-end metrics reported with --trace 0, as in BENCHMARK.json.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "run_wall_s": ("s", "lower"),
    "layouts_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

# Printed with --trace 0 where a workload has them, but not in BENCHMARK.json:
# the design sweep flies nothing, so it has no value for them.
REPORT_ONLY = {"rtf": "s/s", "rms_pos_err_m": "m"}

# Per-layer metrics reported with --trace 1, as in BENCHMARK.json. A layer
# a workload does not exercise reads 0.
PER_LAYER = {
    "trajectory.sample_us": ("us", "lower"),
    "control.step_us": ("us", "lower"),
    "control.step_p90_us": ("us", "lower"),
    "dynamics.step_us": ("us", "lower"),
    "sim.record_us": ("us", "lower"),
    "sim.loop_us": ("us", "lower"),
    "sim.unattributed_us": ("us", "lower"),
    "control.unsaturated_share": ("share", "higher"),
    "control.alloc_residual_max_n": ("N", "lower"),
    "cli.csv_row_us": ("us", "lower"),
    "cli.csv_bytes": ("bytes", "lower"),
    "config.parse_us": ("us", "lower"),
    "structure.assemble_us": ("us", "lower"),
    "structure.ellipsoid_us": ("us", "lower"),
    "module_design.check_balanced_us": ("us", "lower"),
    "control.init_us": ("us", "lower"),
    "structure.rejected_share": ("share", "lower"),
    "sim.steps": ("count", "higher"),
    "structure.layouts": ("count", "higher"),
    "trace.overhead_share": ("share", "lower"),
}

# Per-layer metrics read from span self times: the median over the run.
SPAN_MEDIANS = {
    "trajectory.sample_us": "trajectory.sample",
    "control.step_us": "control.step",
    "dynamics.step_us": "dynamics.step",
    "sim.record_us": "sim.record",
    "config.parse_us": "config.parse",
    "structure.assemble_us": "structure.assemble",
    "structure.ellipsoid_us": "structure.ellipsoid",
    "module_design.check_balanced_us": "module_design.check_balanced",
    "control.init_us": "control.init",
}


def _import_library() -> None:
    """Import modrotor from this checkout's src, or exit with code 2."""
    sys.path.insert(0, str(SRC))
    try:
        import modrotor
    except ImportError as exc:
        print(f"error: cannot import modrotor from {SRC}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    if not Path(modrotor.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: modrotor was imported from {modrotor.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)


def _layer_metrics(outcome: dict) -> dict:
    import numpy as np

    tracer = outcome["tracer"]
    layer = {name: 0.0 for name in PER_LAYER}
    for metric, span in SPAN_MEDIANS.items():
        times = tracer.self_us(span)
        if times.size:
            layer[metric] = float(np.median(times))
    control = tracer.self_us("control.step")
    if control.size:
        layer["control.step_p90_us"] = float(np.percentile(control, 90))
    layer.update({k: v for k, v in outcome["layer"].items() if k in PER_LAYER})
    return layer


def run_one(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    _import_library()
    import flights
    import harness
    import sweep

    harness.WORK_DIR.mkdir(exist_ok=True)
    env = harness.environment()
    print(f"modrotor benchmark: workload={workload} seed={seed} seconds={seconds} "
          f"trace={int(trace)}{' smoke' if smoke else ''}")
    print(f"env: {json.dumps(env)}")
    if workload == "design_sweep":
        outcome = sweep.run(seed, seconds, trace, smoke)
    else:
        outcome = flights.run(workload, seed, seconds, trace, smoke)
    attempted, failed = outcome["attempted"], outcome["failed"]

    if trace:
        layer = _layer_metrics(outcome)
        info = {k: v for k, v in outcome["layer"].items() if k not in PER_LAYER}
        trace_path = harness.WORK_DIR / f"trace-{workload}.csv"
        outcome["tracer"].write(trace_path, {"workload": workload, "seed": seed, "env": env,
                                             "metrics": layer, "info": info})
        print("per-layer (medians of span self times unless named otherwise):")
        for name, (unit, _) in PER_LAYER.items():
            print(f"  {name:<32} {layer[name]:<14.6g} {unit}")
        for name, value in info.items():
            print(f"  {name:<32} {value:<14.6g} (info)")
        print(f"spans written to {trace_path.relative_to(ROOT)}")
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, (unit, _) in PER_LAYER.items()}
    else:
        summaries = outcome["summaries"]
        summaries["peak_rss_mb"] = harness.Summary("peak_rss_mb", "MB", "lower",
                                                   [harness.peak_rss_mb()])
        print("end-to-end:")
        for summary in summaries.values():
            print(summary.line())
        for name, unit in REPORT_ONLY.items():
            if name not in summaries:
                print(f"  {name:<14} n/a          {unit:<5} (no flight in this workload)")
        print(f"  {'failed_share':<14} {failed / max(attempted, 1):<12.6g} {'share':<5} "
              f"({failed} failed of n={attempted} operations)")
        for name, value in outcome["info"].items():
            print(f"  {name:<14} {value}")
        metrics = {name: {"value": summaries[name].value, "unit": unit}
                   for name, (unit, _) in END_TO_END.items()}

    for problem in outcome["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    """Each workload in a fresh process, then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv + (["--smoke"] if smoke else []), capture_output=True,
                              text=True, cwd=ROOT, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: {workload} exited {proc.returncode} without a result", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time; a run still does its least work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for the smoke tests: 2 s flights, a 12-layout pool")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace), args.smoke)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)


if __name__ == "__main__":
    sys.exit(main())
