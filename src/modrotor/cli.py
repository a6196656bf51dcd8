"""Command-line interface: design checks, ellipsoid reports, simulations.

Exit codes: 0 on success, 2 on configuration or validation failure, 3 on a
runtime simulation failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import StructureConfig, _built, parse_config
from .errors import ConfigError, ModrotorError, SimulationError
from .module_design import check_balanced
from .sim import RunResult, run_closed_loop
from .structure import StructureModel, _rank_of, actuation_ellipsoid, ellipsoid_xz_polygon
from .so3 import rotation_angle

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3
_CSV_BLOCK_ROWS = 1024  # rows a CSV writer holds as Python floats at once


def _fixed(value: float, sign: str = "") -> str:
    """``value`` to 9 decimals; a value that rounds to zero prints unsigned."""
    text = f"{value:{sign}.9f}"
    return text if text != "-0.000000000" else f"{0.0:{sign}.9f}"


def _fmt_vec(v) -> str:
    return "[" + " ".join(_fixed(x, " ") for x in v) + "]"


def _load_config(path: str) -> StructureConfig:
    """The config at ``path`` less one leading byte-order mark; text not UTF-8
    is a ConfigError naming the file and the offset of its first bad byte."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: byte 0x{exc.object[exc.start]:02x} at "
                          f"offset {exc.start} ({exc.reason})") from None
    return parse_config(text.removeprefix("\ufeff"))


def _frame_summary(r_sf: np.ndarray) -> str:
    angle = math.degrees(rotation_angle(r_sf))
    if angle < 1e-9:
        return "identity"
    skew = 0.5 * (r_sf - r_sf.T)
    axis = np.array([skew[2, 1], skew[0, 2], skew[1, 0]])
    norm = math.sqrt(axis.dot(axis))  # np.linalg.norm's own formula
    if norm > 1e-12:
        axis = axis / norm
    else:  # a half turn: R + I = 2 n n^T, whose largest column lies along n
        sym = r_sf + np.eye(3)
        axis = sym[:, np.argmax(np.linalg.norm(sym, axis=0))]
        axis = axis * np.sign(axis[np.argmax(np.abs(axis))]) / np.linalg.norm(axis)
    return f"angle_deg={angle:.6f} axis={_fmt_vec(axis.tolist())}"


def cmd_check(config: StructureConfig) -> int:
    """Report per-module balance and the structure's actuation frame; each
    line is formatted from the floats its report holds."""
    structure = config.to_structure()
    all_balanced = True
    for idx, placement in enumerate(structure.placements, start=1):
        report = check_balanced(placement.module)
        all_balanced &= report.is_balanced
        status = "balanced" if report.is_balanced else "UNBALANCED"
        forces, drags = report.torque_from_forces.tolist(), report.torque_from_drag.tolist()
        print(
            f"module.{idx}: {status} thrust_gain={report.thrust_gain:.9f} "
            f"axis={_fmt_vec(report.total_force_axis.tolist())} "
            f"torque_residuals=({max(map(abs, forces)):.3e}, {max(map(abs, drags)):.3e})"
        )
    # The library built this map, so numerical_rank's input checks are skipped.
    rank_a = _rank_of(np.linalg.svd(structure.thrust_map, compute_uv=False))
    print(f"modules: {structure.n}  total_mass_kg: {structure.total_mass:.6f}")
    print(f"rank(A) = {rank_a}")
    print(f"force-block rank = {structure.rank_f}")
    print(f"controllable DOF: {3 + structure.rank_f}")
    print(f"force singular values: {_fmt_vec(structure.force_sigmas.tolist())}")
    print(f"F-frame: {_frame_summary(structure.r_sf)}")
    for row in structure.r_sf.tolist():
        print(f"    {_fmt_vec(row)}")
    if not all_balanced:
        print("error: structure contains unbalanced modules", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_ellipsoid(config: StructureConfig, out_path: str | None) -> int:
    """Print force-ellipsoid axes; optionally write its xz-projection as CSV."""
    structure = config.to_structure()
    sigmas, axes = actuation_ellipsoid(structure)
    sigmas = sigmas.tolist()
    print(f"force singular values: {_fmt_vec(sigmas)}")
    for i, direction in enumerate(axes.T.tolist()):
        print(f"axis {i + 1}: sigma={_fixed(sigmas[i])} direction={_fmt_vec(direction)}")
    if out_path is not None:
        polygon = ellipsoid_xz_polygon(structure)
        _write_csv(out_path, ["x_n", "z_n"], polygon, ["\r\n"] * len(polygon))
        print(f"wrote xz projection to {out_path}")
    return EXIT_OK


def _write_csv(out_path: str, header: list[str], table: np.ndarray, ends) -> None:
    """``header`` and a row per row of the float ``table`` as CSV: cells
    ``%.17g``, comma separated; the header ends in CRLF, each row in the next
    of ``ends``. Rows become Python floats _CSV_BLOCK_ROWS at a time."""
    row_format = ",".join(["%.17g"] * table.shape[1])
    ends = iter(ends)
    with open(out_path, "w", newline="") as handle:
        handle.write(",".join(header) + "\r\n")
        for start in range(0, len(table), _CSV_BLOCK_ROWS):
            handle.writelines(row_format % tuple(row) + end for row, end in
                              zip(table[start:start + _CSV_BLOCK_ROWS].tolist(), ends))


def write_run_csv(result: RunResult, structure: StructureModel, out_path: str) -> None:
    """One row per step; floats carry 17 significant digits for regression.
    The thrust columns are counted from ``result.u``; a ``structure`` with a
    different rotor count raises ValueError before the file is opened."""
    n_u = result.u.shape[1]
    if 4 * structure.n != n_u:
        raise ValueError(f"structure must have {n_u} rotors, one per thrust column of "
                         f"result.u, got {4 * structure.n}")
    header = ["t_s", "x_m", "y_m", "z_m", "xd_m", "yd_m", "zd_m", "yaw_rad", "pitch_rad",
              "roll_rad", "pos_err_m", *(f"u{k + 1:02d}_n" for k in range(n_u)), "saturated"]
    # The 0/1 flag rides in the line end: 11 + 4n floats never make a 20-item
    # tuple, which CPython 3.11 parks on a free list it never draws from.
    ends = map((",0\r\n", ",1\r\n").__getitem__, result.saturated.tolist())
    table = np.column_stack([result.t, result.pos, result.pos_des, result.euler_f,
                             result.pos_err, result.u])
    _write_csv(out_path, header, table, ends)


def cmd_simulate(config: StructureConfig, out_path: str) -> int:
    """Run the closed loop and write the per-step CSV plus a summary."""
    structure = config.to_structure()
    result = run_closed_loop(
        structure,
        config.to_trajectory(),
        gains=config.to_gains(),
        params=config.to_sim_params(),
    )
    write_run_csv(result, structure, out_path)
    print(f"steps: {result.t.size}  dt_s: {config.sim.dt_s}")
    print(f"rms_pos_err_m: {result.rms_pos_err():.9f}")
    print(f"max_pos_err_m: {result.max_pos_err():.9f}")
    print(f"final_att_err_deg: {np.degrees(result.final_att_err()):.9f}")
    print(f"saturation_fraction: {result.saturation_fraction():.9f}")
    print(f"wrote {out_path}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modrotor",
        description="Design, analyze and simulate modular tilted-rotor structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="validate module balance and report the actuation frame")
    p_check.add_argument("--config", required=True, help="path to a config file")

    p_ell = sub.add_parser("ellipsoid", help="report the force ellipsoid")
    p_ell.add_argument("--config", required=True, help="path to a config file")
    p_ell.add_argument("--out", default=None, help="CSV path for the xz-projection polygon")

    p_sim = sub.add_parser("simulate", help="run the closed loop and write a CSV")
    p_sim.add_argument("--config", required=True, help="path to a config file")
    p_sim.add_argument("--out", required=True, help="CSV output path")
    p_sim.add_argument("--duration", type=float, default=None, help="override duration, s")
    p_sim.add_argument("--dt", type=float, default=None, help="override step, s")
    return parser


# Built once: argparse set-up costs about a quarter of a ``check`` call.
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        config = _load_config(args.config)
        if args.command == "check":
            return cmd_check(config)
        if args.command == "ellipsoid":
            return cmd_ellipsoid(config, args.out)
        # An override takes its key's rule: "sim: dt_s must be ..." if rejected.
        overrides = {key: value for key, value in (("duration_s", args.duration),
                                                   ("dt_s", args.dt)) if value is not None}
        config = replace(config, sim=_built("sim", replace, config.sim, **overrides))
        return cmd_simulate(config, args.out)
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ModrotorError, OSError) as exc:  # ConfigError is a ModrotorError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
