"""Behaviour fingerprint of the three experiment flights.

Each experiment config flies its first 2 s through ``run_closed_loop`` and
must reproduce the "smoke" fingerprint recorded in ``bench/fingerprints.json``
within the benchmark's tolerances. Refactors of the controller, integrator
or trajectories that move the flown behaviour fail here. The flights, the
flight length, the fingerprint fields and their tolerances are the
benchmark's own, taken from ``bench/flights.py``, so this check and the
benchmark's gate cannot drift apart.

The same flights, and ``check`` on every config, are also run under a
forced OpenBLAS core, where byte identity is not promised: exit codes and
stdout must hold, and each run-CSV cell must stay within its column's bound.
"""

import contextlib
import importlib
import io
import json
import os
import platform
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from modrotor import parse_config, run_closed_loop
from modrotor.cli import main

from conftest import CONFIG_DIR, ROOT

sys.path.insert(0, str(ROOT / "bench"))
from flights import (FLIGHTS, SMOKE_FLIGHT_S, TOLERANCES, load_fingerprints,  # noqa: E402
                     result_fingerprint)


@pytest.mark.parametrize("name", sorted(FLIGHTS))
def test_smoke_flight_matches_fingerprint(name):
    expected = load_fingerprints()[name]["smoke"]
    config = parse_config((CONFIG_DIR / FLIGHTS[name]).read_text(encoding="utf-8"))
    result = run_closed_loop(
        config.to_structure(),
        config.to_trajectory(),
        gains=config.to_gains(),
        params=replace(config.to_sim_params(), duration=SMOKE_FLIGHT_S),
    )
    got = result_fingerprint(result)
    for key, (rel, absolute) in TOLERANCES.items():
        assert abs(got[key] - expected[key]) <= rel * abs(expected[key]) + absolute, (
            f"{name} {key}={got[key]!r}, expected {expected[key]!r}"
        )


# The most a run-CSV cell of the flights above moved, in ulps of 1.0
# (2**-52), between a run on the default core and one under
# OPENBLAS_CORETYPE=Prescott, which OpenBLAS runs as Katmai: the maxima of a
# probe over the three flights with SkylakeX or Haswell as the default core.
# Euler angles are compared around the circle.
_CORE_ULPS = {"t_s": 0.0, "pos": 1.5, "pos_des": 0.0, "yaw_rad": 2.5, "pitch_rad": 6.13,
              "roll_rad": 6.49, "pos_err_m": 1.32, "u": 29.0, "saturated": 0.0}
_COLUMN_GROUPS = {"x_m": "pos", "y_m": "pos", "z_m": "pos", "xd_m": "pos_des",
                  "yd_m": "pos_des", "zd_m": "pos_des"}
# Run in a subprocess: prints the core in use and _core_runs' list as JSON.
_FORCED_RUN = """
import json, sys
from pathlib import Path
sys.path[:0] = sys.argv[2:]
from output_digest import blas_core
from test_fingerprint import _core_runs
print(json.dumps([blas_core(), _core_runs(Path(sys.argv[1]))]))
"""


def _core_runs(out_dir: Path) -> list:
    """[command, exit code, stdout] of check on each config and of the CLI
    flying each flight above for SMOKE_FLIGHT_S, its run CSV written to
    ``out_dir`` (whose path is taken out of stdout)."""
    commands = [["check", "--config", str(path)] for path in sorted(CONFIG_DIR.glob("*.cfg"))]
    commands += [["simulate", "--config", str(CONFIG_DIR / FLIGHTS[name]), "--out",
                  str(out_dir / f"{name}.csv"), "--duration", str(SMOKE_FLIGHT_S)]
                 for name in sorted(FLIGHTS)]
    runs = []
    for args in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(args)
        runs.append([args[0], code, out.getvalue().replace(str(out_dir), "<out>")])
    return runs


def test_outputs_hold_across_blas_cores(tmp_path, monkeypatch):
    # Byte identity holds per BLAS core. On the pre-AVX core any x86-64 CPU
    # runs, check and the flights exit alike and print the same stdout, and
    # each run-CSV cell stays within its column's bound in _CORE_ULPS.
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip("OPENBLAS_CORETYPE=Prescott forces an x86-64 core")
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    blas_core = importlib.import_module("output_digest").blas_core
    if blas_core() == "unknown":
        pytest.skip("numpy's BLAS is not an OpenBLAS that names its core")
    default, forced = tmp_path / "default", tmp_path / "forced"
    default.mkdir()
    forced.mkdir()
    paths = [str(ROOT / name) for name in ("src", "tests", "tools", "bench")]
    completed = subprocess.run(
        [sys.executable, "-c", _FORCED_RUN, str(forced), *paths], capture_output=True,
        text=True, timeout=60, env={**os.environ, "OPENBLAS_CORETYPE": "Prescott"})
    assert completed.returncode == 0, completed.stderr
    core, runs = json.loads(completed.stdout)
    assert core in ("Prescott", "Katmai"), core  # the forced core took effect
    assert runs == _core_runs(default)
    for name in sorted(FLIGHTS):
        header = (default / f"{name}.csv").read_bytes().split(b"\r\n", 1)[0]
        assert (forced / f"{name}.csv").read_bytes().startswith(header + b"\r\n")
        want = np.loadtxt(default / f"{name}.csv", delimiter=",", skiprows=1)
        got = np.loadtxt(forced / f"{name}.csv", delimiter=",", skiprows=1)
        for j, column in enumerate(header.decode().split(",")):
            diff = got[:, j] - want[:, j]
            if column.endswith("_rad"):
                diff = np.where(np.abs(diff) > np.pi, diff - np.copysign(2 * np.pi, diff), diff)
            bound = _CORE_ULPS["u" if column[0] == "u" else _COLUMN_GROUPS.get(column, column)]
            assert np.abs(diff).max() <= bound * 2.0**-52, (name, column)
