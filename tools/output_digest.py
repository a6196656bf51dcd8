"""Print sha256 digests of modrotor's command-line outputs and flights.

Usage, from the root of a checkout:

    python3 tools/output_digest.py

Run it in each of two checkouts, each in its own process, and diff what it
prints: an empty diff means the two trees write the same bytes. The first
line, ``blas-core <name>``, names the kernel that numpy's OpenBLAS picked
when it loaded (``unknown`` when numpy carries no OpenBLAS that can say).
The SVDs and products behind the digests give other bits under another
core, so compare two digests only when this line is the same. The groups:

    <name>.cfg   for each configs/*.cfg: check, ellipsoid --out (stdout and
                 polygon CSV) and the full simulate (stdout and run CSV)
    sweep        check on the layouts that bench/sweep.generate_layouts
                 draws for seeds 1-10
    contract     check and, where the case flies, a 0.01 s simulate (with
                 its run CSV) on each case of tests/test_cli._contract_variants,
                 one group per fixture config the cases are drawn from

Each config's contract digests are preceded by ``contract <name>.cfg
cases <n>``, the number of its cases hashed. Dropping or adding cases moves
both of its contract digests as surely as a changed output does; an
unchanged count says the digests moved because outputs did, and a changed
one says to compare the cases named in both trees instead.

Each command adds its exit code, stdout and stderr to its group's hash, and
an escaped exception adds its type and message. The run CSVs go to a second
hash, printed as ``<name>.cfg run-csv`` and ``contract run-csv``, so a
change that moves only recorded values shows apart from command output.
Each config gets a third hash, printed as ``<name>.cfg run-result``: its
full flight flown in process by ``run_closed_loop``, with every array of
the ``RunResult`` and of its final state byte for byte. The run CSV has no
``att_err`` column and no final state, and the summary prints only the
last ``att_err``, to 9 decimals.
Every command reads and writes in a temporary directory whose path is taken
out of what it prints, so checkouts in different directories compare. Like bench/run.py, it exits
with code 2 when modrotor cannot be imported from the checkout's src.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SWEEP_SEEDS = range(1, 11)


def blas_core() -> str:
    """The OpenBLAS core in use, read by ``scipy_openblas_get_corename64_``
    from the library in numpy's ``numpy.libs``, or ``unknown`` when that
    library or symbol is missing. Loading the library numpy already loaded
    returns the same handle, so the name is the one this process runs."""
    import numpy as np

    for library in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            corename = ctypes.CDLL(str(library)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return (corename() or b"unknown").decode()
    return "unknown"


def _run(digest, work: Path, *args: str) -> None:
    """Run the CLI on ``args`` and add what it returned and printed to
    ``digest``, with ``work``'s path taken out."""
    from modrotor.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(args))
        except Exception as exc:  # noqa: BLE001 - an escape is an output too
            code = f"{type(exc).__name__}: {exc}"
    prefix = f"{work}/"
    for part in (args[0], str(code), out.getvalue(), err.getvalue()):
        digest.update(part.replace(prefix, "").encode() + b"\0")


def _add_file(digest, path: Path) -> None:
    digest.update(path.read_bytes() if path.exists() else b"<missing>")
    digest.update(b"\0")
    path.unlink(missing_ok=True)


def _add_run_result(digest, text: str) -> None:
    """Fly the full flight of config ``text`` by ``run_closed_loop`` and add
    the bytes of every ``RunResult`` array and of the final state's arrays
    to ``digest``; an escaped exception adds its type and message."""
    import numpy as np
    from modrotor import parse_config, run_closed_loop

    try:
        config = parse_config(text)
        result = run_closed_loop(config.to_structure(), config.to_trajectory(),
                                 gains=config.to_gains(), params=config.to_sim_params())
    except Exception as exc:  # noqa: BLE001 - an escape is an output too
        digest.update(f"{type(exc).__name__}: {exc}".encode() + b"\0")
        return
    for record in (result, result.final_state):
        for field in dataclasses.fields(record):
            value = getattr(record, field.name)
            if isinstance(value, np.ndarray):
                digest.update(f"{field.name} {value.dtype} {value.shape}\0".encode())
                digest.update(value.tobytes())


def config_digest(path: Path) -> tuple[str, str, str]:
    """check, ellipsoid with its polygon CSV and the full simulate, then the
    simulate's run CSV, on a copy of one config file; then the full flight's
    ``RunResult``."""
    digest, csv_digest, result_digest = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        config, polygon, run_csv = work / path.name, work / "polygon.csv", work / "run.csv"
        config.write_bytes(path.read_bytes())
        _run(digest, work, "check", "--config", str(config))
        _run(digest, work, "ellipsoid", "--config", str(config), "--out", str(polygon))
        _add_file(digest, polygon)
        _run(digest, work, "simulate", "--config", str(config), "--out", str(run_csv))
        _add_file(csv_digest, run_csv)
    _add_run_result(result_digest, path.read_text(encoding="utf-8"))
    return digest.hexdigest(), csv_digest.hexdigest(), result_digest.hexdigest()


def sweep_digest() -> str:
    """check on each layout of the design sweep's seeds 1-10."""
    sys.path.insert(0, str(ROOT / "bench"))
    from sweep import POOL_SIZE, generate_layouts

    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        work, config = Path(tmp), Path(tmp) / "layout.cfg"
        for seed in SWEEP_SEEDS:
            for layout in generate_layouts(seed, POOL_SIZE):
                config.write_text(layout.text)
                _run(digest, work, "check", "--config", str(config))
    return digest.hexdigest()


def contract_digests() -> dict:
    """For each fixture config, the number of config-contract cases of the
    test suite drawn from it; check, and a short simulate where the case
    flies, on each; then the run CSVs."""
    sys.path.insert(0, str(ROOT / "tests"))
    from test_cli import _contract_variants

    groups = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        config, run_csv = work / "variant.cfg", work / "run.csv"
        for name, text, simulate in _contract_variants():
            fixture = name.split(" ", 1)[0]
            cases, digest, csv_digest = groups.get(fixture, (0, hashlib.sha256(), hashlib.sha256()))
            groups[fixture] = cases + 1, digest, csv_digest
            digest.update(name.encode() + b"\0")
            csv_digest.update(name.encode() + b"\0")
            config.write_text(text)
            _run(digest, work, "check", "--config", str(config))
            if simulate:
                _run(digest, work, "simulate", "--config", str(config), "--out", str(run_csv),
                     "--duration", "0.01")
                _add_file(csv_digest, run_csv)
    return {name: (cases, digest.hexdigest(), csv_digest.hexdigest())
            for name, (cases, digest, csv_digest) in groups.items()}


def main() -> int:
    if len(sys.argv) > 1:
        print("usage: python3 tools/output_digest.py (takes no options)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "bench"))
    from run import _import_library

    _import_library()
    print("blas-core", blas_core(), flush=True)
    for config in sorted((ROOT / "configs").glob("*.cfg")):
        outputs, run_csvs, run_result = config_digest(config)
        print(config.name, outputs, flush=True)
        print(config.name, "run-csv", run_csvs, flush=True)
        print(config.name, "run-result", run_result, flush=True)
    print("sweep", sweep_digest(), flush=True)
    for name, (cases, outputs, run_csvs) in contract_digests().items():
        print("contract", name, "cases", cases, flush=True)
        print("contract", name, outputs, flush=True)
        print("contract", name, "run-csv", run_csvs, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
