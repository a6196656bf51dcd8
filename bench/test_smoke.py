"""Fast checks of the benchmark itself: run with ``python -m pytest bench``.

Each workload runs at its smoke size (2 s flights, a 12-layout pool) in
both modes and must pass its checks and print every metric with its unit.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import sweep  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_smoke_prints_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "0.1",
                  "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    table = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert set(result["metrics"]) == set(table)
    report = proc.stdout.splitlines()[:-1]
    for name, (unit, _) in table.items():
        assert result["metrics"][name]["unit"] == unit
        assert any(name in line and unit in line.split() for line in report), name
    assert any(line.startswith("env:") and '"blas_threads"' in line for line in report)


def test_sweep_repeats_exactly_for_a_seed():
    first = sweep.generate_layouts(11, 60)
    assert first == sweep.generate_layouts(11, 60)
    assert first != sweep.generate_layouts(12, 60)
    sizes = [layout.n for layout in first]
    assert all(sizes.count(n) == 10 for n in range(1, sweep.MAX_MODULES + 1))


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in spec[key]} == table
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "helix_4dof", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
