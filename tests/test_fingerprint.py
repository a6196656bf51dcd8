"""Behaviour fingerprint of the three experiment flights.

Each experiment config flies its first 2 s through ``run_closed_loop`` and
must reproduce the "smoke" fingerprint recorded in ``bench/fingerprints.json``
within the benchmark's tolerances. Refactors of the controller, integrator
or trajectories that move the flown behaviour fail here.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from modrotor import parse_config, run_closed_loop

from conftest import CONFIG_DIR

FINGERPRINTS = Path(__file__).resolve().parent.parent / "bench" / "fingerprints.json"
FLIGHT_S = 2.0
FLIGHTS = {
    "helix_4dof": "experiment1.cfg",
    "rect_pitch_5dof": "experiment2.cfg",
    "rect_level_6dof": "experiment3.cfg",
}
# (relative, absolute) tolerance per field. The absolute part covers the 9
# decimals that ``simulate`` prints; saturation may differ by a step whose
# clamp decision sits on a rounding edge.
TOLERANCES = {
    "rms_pos_err_m": (1e-6, 2e-9),
    "max_pos_err_m": (1e-6, 2e-9),
    "final_att_err_deg": (1e-6, 2e-9),
    "saturation_fraction": (0.0, 2e-4),
}


@pytest.mark.parametrize("name", sorted(FLIGHTS))
def test_smoke_flight_matches_fingerprint(name):
    expected = json.loads(FINGERPRINTS.read_text(encoding="utf-8"))[name]["smoke"]
    config = parse_config((CONFIG_DIR / FLIGHTS[name]).read_text(encoding="utf-8"))
    result = run_closed_loop(
        config.to_structure(),
        config.to_trajectory(),
        gains=config.to_gains(),
        params=replace(config.to_sim_params(), duration=FLIGHT_S),
    )
    got = {
        "rms_pos_err_m": result.rms_pos_err(),
        "max_pos_err_m": result.max_pos_err(),
        "final_att_err_deg": float(np.degrees(result.final_att_err())),
        "saturation_fraction": result.saturation_fraction(),
    }
    for key, (rel, absolute) in TOLERANCES.items():
        assert abs(got[key] - expected[key]) <= rel * abs(expected[key]) + absolute, (
            f"{name} {key}={got[key]!r}, expected {expected[key]!r}"
        )
