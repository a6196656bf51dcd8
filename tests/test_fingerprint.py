"""Behaviour fingerprint of the three experiment flights.

Each experiment config flies its first 2 s through ``run_closed_loop`` and
must reproduce the "smoke" fingerprint recorded in ``bench/fingerprints.json``
within the benchmark's tolerances. Refactors of the controller, integrator
or trajectories that move the flown behaviour fail here. The flights, the
flight length, the fingerprint fields and their tolerances are the
benchmark's own, taken from ``bench/flights.py``, so this check and the
benchmark's gate cannot drift apart.
"""

import sys
from dataclasses import replace

import pytest

from modrotor import parse_config, run_closed_loop

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
