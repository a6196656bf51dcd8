"""Set-up child: a fresh interpreter brought to the point of flying one config.

Usage: python3 bench/ready.py CONFIG_PATH

Imports modrotor from the checkout's ``src``, parses the config, assembles
the structure and builds its Controller, then exits. ``run.py`` times whole
runs of this script to measure ``setup_s``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import modrotor  # noqa: E402

config = modrotor.parse_config(Path(sys.argv[1]).read_text(encoding="utf-8"))
structure = config.to_structure()
modrotor.Controller(structure, config.to_gains(), config.sim.gravity_mps2)
