"""Command-line interface: design checks, ellipsoid reports, simulations.

Exit codes: 0 on success, 2 on configuration or validation failure, 3 on a
runtime simulation failure.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from .config import StructureConfig, override_sim, parse_config
from .errors import ConfigError, ModrotorError, SimulationError
from .module_design import check_balanced
from .sim import RunResult, run_closed_loop
from .structure import StructureModel, actuation_ellipsoid, ellipsoid_xz_polygon, numerical_rank
from .so3 import rotation_angle, vee

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _fmt_vec(v) -> str:
    return "[" + " ".join(f"{x: .9f}" for x in v) + "]"


def _load_config(path: str) -> StructureConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"))


def _frame_summary(r_sf: np.ndarray) -> str:
    angle = np.degrees(rotation_angle(r_sf))
    if angle < 1e-9:
        return "identity"
    skew = 0.5 * (r_sf - r_sf.T)
    axis = vee(skew, tol=np.inf)
    norm = np.linalg.norm(axis)
    if norm > 1e-12:
        axis = axis / norm
    return f"angle_deg={angle:.6f} axis={_fmt_vec(axis)}"


def cmd_check(config: StructureConfig) -> int:
    """Report per-module balance and the structure's actuation frame."""
    structure = config.to_structure()
    all_balanced = True
    for idx, placement in enumerate(structure.placements, start=1):
        report = check_balanced(placement.module)
        all_balanced &= report.is_balanced
        status = "balanced" if report.is_balanced else "UNBALANCED"
        print(
            f"module.{idx}: {status} thrust_gain={report.thrust_gain:.9f} "
            f"axis={_fmt_vec(report.total_force_axis)} "
            f"torque_residuals=({np.max(np.abs(report.torque_from_forces)):.3e}, "
            f"{np.max(np.abs(report.torque_from_drag)):.3e})"
        )
    rank_a = numerical_rank(structure.thrust_map)
    print(f"modules: {structure.n}  total_mass_kg: {structure.total_mass:.6f}")
    print(f"rank(A) = {rank_a}")
    print(f"force-block rank = {structure.rank_f}")
    print(f"controllable DOF: {3 + structure.rank_f}")
    print(f"force singular values: {_fmt_vec(structure.force_sigmas)}")
    print(f"F-frame: {_frame_summary(structure.r_sf)}")
    for row in structure.r_sf:
        print(f"    {_fmt_vec(row)}")
    if not all_balanced:
        print("error: structure contains unbalanced modules", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_ellipsoid(config: StructureConfig, out_path: str | None) -> int:
    """Print force-ellipsoid axes; optionally write its xz-projection as CSV."""
    structure = config.to_structure()
    sigmas, axes = actuation_ellipsoid(structure)
    print(f"force singular values: {_fmt_vec(sigmas)}")
    for i in range(3):
        print(f"axis {i + 1}: sigma={sigmas[i]:.9f} direction={_fmt_vec(axes[:, i])}")
    if out_path is not None:
        polygon = ellipsoid_xz_polygon(structure)
        with open(out_path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["x_n", "z_n"])
            for x, z in polygon:
                writer.writerow([_fmt(x), _fmt(z)])
        print(f"wrote xz projection to {out_path}")
    return EXIT_OK


def write_run_csv(result: RunResult, structure: StructureModel, out_path: str) -> None:
    """One row per step; floats carry 17 significant digits for regression."""
    n_u = 4 * structure.n
    header = (
        ["t_s", "x_m", "y_m", "z_m", "xd_m", "yd_m", "zd_m",
         "yaw_rad", "pitch_rad", "roll_rad", "pos_err_m"]
        + [f"u{k + 1:02d}_n" for k in range(n_u)]
        + ["saturated"]
    )
    columns = (result.t, result.pos, result.pos_des, result.euler_f, result.pos_err, result.u,
               result.saturated)
    t, pos, pos_des, euler, pos_err, u, saturated = (c.tolist() for c in columns)
    with open(out_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for k in range(len(t)):
            writer.writerow(
                [_fmt(t[k]), *map(_fmt, pos[k]), *map(_fmt, pos_des[k]), *map(_fmt, euler[k]),
                 _fmt(pos_err[k]), *map(_fmt, u[k]), int(saturated[k])]
            )


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


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        if args.command == "check":
            return cmd_check(config)
        if args.command == "ellipsoid":
            return cmd_ellipsoid(config, args.out)
        config = override_sim(config, args.duration, args.dt)
        return cmd_simulate(config, args.out)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except ModrotorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
