"""Declarative run configuration: parsing, validation and serialization.

Configs are INI-style text with one ``[module.N]`` section per module plus
optional ``[gains]``, ``[sim]`` and ``[trajectory]`` sections. Keys carry
their unit in the name; angles are degrees in the file and radians in code.
Unknown sections or keys are rejected, and every value is validated with an
error naming the offending field.

Module keys (defaults in parentheses): mass_kg (0.135), base_m (0.12),
height_m (0.06), alpha_deg (0), beta_deg (0), k_f (1.0), k_m (0.006),
f_max_n (2.0), grid_col (0), grid_row (0), yaw_quarter_turns (0),
inertia_diag_kgm2 (cuboid model; comma triple to override).

Gains keys: k_pos (12), k_vel (6), k_rot (200), k_ang (20).
Sim keys: dt_s (0.001), gravity_mps2 (9.81), duration_s (10).
Trajectory keys: kind (hover | helix | rectangle | rectangle_fixed),
pitch_hold_deg (0), speed_mps (0.25), altitude_m (0.7), hover_x_m (0),
hover_y_m (0), hover_z_m (0.7), hover_yaw_deg (0).
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from .control import Gains
from .dynamics import SimParams
from .errors import ConfigError
from .module_design import build_r_module
from .structure import ModulePlacement, StructureModel, assemble
from .trajectory import (
    RECT_ALTITUDE,
    RECT_SPEED,
    TrajectorySample,
    helix,
    hover,
    rectangle,
    rectangle_fixed_attitude,
)

_TRAJECTORY_KINDS = ("hover", "helix", "rectangle", "rectangle_fixed")


@dataclass(frozen=True)
class ModuleConfig:
    mass_kg: float = 0.135
    base_m: float = 0.12
    height_m: float = 0.06
    alpha_deg: float = 0.0
    beta_deg: float = 0.0
    k_f: float = 1.0
    k_m: float = 0.006
    f_max_n: float = 2.0
    grid_col: int = 0
    grid_row: int = 0
    yaw_quarter_turns: int = 0
    inertia_diag_kgm2: tuple[float, float, float] | None = None


@dataclass(frozen=True)
class GainsConfig:
    k_pos: float = 12.0
    k_vel: float = 6.0
    k_rot: float = 200.0
    k_ang: float = 20.0


@dataclass(frozen=True)
class SimConfig:
    dt_s: float = 0.001
    gravity_mps2: float = 9.81
    duration_s: float = 10.0


@dataclass(frozen=True)
class TrajectoryConfig:
    kind: str = "hover"
    pitch_hold_deg: float = 0.0
    speed_mps: float = RECT_SPEED
    altitude_m: float = RECT_ALTITUDE
    hover_x_m: float = 0.0
    hover_y_m: float = 0.0
    hover_z_m: float = 0.7
    hover_yaw_deg: float = 0.0


@dataclass(frozen=True)
class StructureConfig:
    modules: tuple[ModuleConfig, ...]
    gains: GainsConfig = field(default_factory=GainsConfig)
    sim: SimConfig = field(default_factory=SimConfig)
    trajectory: TrajectoryConfig = field(default_factory=TrajectoryConfig)

    def to_structure(self) -> StructureModel:
        placements = []
        for m in self.modules:
            module = build_r_module(
                mass=m.mass_kg,
                base=m.base_m,
                height=m.height_m,
                alpha=np.deg2rad(m.alpha_deg),
                beta=np.deg2rad(m.beta_deg),
                k_f=m.k_f,
                k_m=m.k_m,
                f_max=m.f_max_n,
                inertia=np.diag(m.inertia_diag_kgm2) if m.inertia_diag_kgm2 else None,
            )
            placements.append(
                ModulePlacement(
                    module=module,
                    grid_offset=(m.grid_col, m.grid_row),
                    yaw_quarter_turns=m.yaw_quarter_turns,
                )
            )
        return assemble(placements)

    def to_gains(self) -> Gains:
        g = self.gains
        return Gains(k_pos=g.k_pos, k_vel=g.k_vel, k_rot=g.k_rot, k_ang=g.k_ang)

    def to_sim_params(self) -> SimParams:
        s = self.sim
        try:
            return SimParams(dt=s.dt_s, gravity=s.gravity_mps2, duration=s.duration_s)
        except ValueError as exc:
            raise ConfigError(f"sim: {exc}") from None

    def to_trajectory(self) -> Callable[[float], TrajectorySample]:
        tr = self.trajectory
        if tr.kind == "hover":
            return hover(
                (tr.hover_x_m, tr.hover_y_m, tr.hover_z_m),
                yaw0=float(np.deg2rad(tr.hover_yaw_deg)),
            )
        if tr.kind == "helix":
            return helix
        if tr.kind == "rectangle":
            return partial(
                rectangle,
                pitch_hold=float(np.deg2rad(tr.pitch_hold_deg)),
                speed=tr.speed_mps,
                altitude=tr.altitude_m,
            )
        return partial(rectangle_fixed_attitude, speed=tr.speed_mps, altitude=tr.altitude_m)


def _get_float(section, key: str, default: float, where: str,
               positive: bool = False, non_negative: bool = False) -> float:
    raw = section.get(key)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{where}: {key} must be a number, got {raw!r}") from None
    if not np.isfinite(value):
        raise ConfigError(f"{where}: {key} must be finite")
    if positive and value <= 0.0:
        raise ConfigError(f"{where}: {key} must be positive, got {value}")
    if non_negative and value < 0.0:
        raise ConfigError(f"{where}: {key} must be non-negative, got {value}")
    return value


def _get_int(section, key: str, default: int, where: str) -> int:
    raw = section.get(key)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{where}: {key} must be an integer, got {raw!r}") from None


def _check_keys(section, allowed: set[str], where: str) -> None:
    unknown = set(section.keys()) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")


_MODULE_KEYS = {
    "mass_kg", "base_m", "height_m", "alpha_deg", "beta_deg", "k_f", "k_m",
    "f_max_n", "grid_col", "grid_row", "yaw_quarter_turns", "inertia_diag_kgm2",
}
_GAINS_KEYS = {"k_pos", "k_vel", "k_rot", "k_ang"}
_SIM_KEYS = {"dt_s", "gravity_mps2", "duration_s"}
_TRAJ_KEYS = {
    "kind", "pitch_hold_deg", "speed_mps", "altitude_m",
    "hover_x_m", "hover_y_m", "hover_z_m", "hover_yaw_deg",
}


def _parse_module(section, where: str) -> ModuleConfig:
    _check_keys(section, _MODULE_KEYS, where)
    alpha = _get_float(section, "alpha_deg", 0.0, where)
    beta = _get_float(section, "beta_deg", 0.0, where)
    if not -90.0 <= alpha <= 90.0:
        raise ConfigError(f"{where}: alpha_deg must be within [-90, 90], got {alpha}")
    if not -90.0 <= beta <= 90.0:
        raise ConfigError(f"{where}: beta_deg must be within [-90, 90], got {beta}")
    yaw = _get_int(section, "yaw_quarter_turns", 0, where)
    if yaw not in (0, 1, 2, 3):
        raise ConfigError(f"{where}: yaw_quarter_turns must be 0..3, got {yaw}")
    inertia = None
    raw_inertia = section.get("inertia_diag_kgm2")
    if raw_inertia is not None:
        parts = [p.strip() for p in raw_inertia.split(",")]
        try:
            values = tuple(float(p) for p in parts)
        except ValueError:
            raise ConfigError(f"{where}: inertia_diag_kgm2 must be three numbers") from None
        if len(values) != 3 or any(v <= 0.0 for v in values):
            raise ConfigError(f"{where}: inertia_diag_kgm2 must be three positive numbers")
        inertia = values
    return ModuleConfig(
        mass_kg=_get_float(section, "mass_kg", 0.135, where, positive=True),
        base_m=_get_float(section, "base_m", 0.12, where, positive=True),
        height_m=_get_float(section, "height_m", 0.06, where, positive=True),
        alpha_deg=alpha,
        beta_deg=beta,
        k_f=_get_float(section, "k_f", 1.0, where, positive=True),
        k_m=_get_float(section, "k_m", 0.006, where, non_negative=True),
        f_max_n=_get_float(section, "f_max_n", 2.0, where, positive=True),
        grid_col=_get_int(section, "grid_col", 0, where),
        grid_row=_get_int(section, "grid_row", 0, where),
        yaw_quarter_turns=yaw,
        inertia_diag_kgm2=inertia,
    )


def parse_config(text: str) -> StructureConfig:
    """Parse and validate configuration text into a :class:`StructureConfig`."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"syntax error: {exc}") from exc

    module_sections: dict[int, str] = {}
    gains = GainsConfig()
    sim = SimConfig()
    trajectory = TrajectoryConfig()
    for name in parser.sections():
        if name.startswith("module."):
            suffix = name[len("module."):]
            if not suffix.isdigit() or int(suffix) < 1:
                raise ConfigError(f"[{name}]: module sections must be [module.1], [module.2], ...")
            module_sections[int(suffix)] = name
        elif name not in ("gains", "sim", "trajectory"):
            raise ConfigError(f"unknown section [{name}]")

    if not module_sections:
        raise ConfigError("config defines no [module.N] section")
    modules = tuple(
        _parse_module(parser[module_sections[idx]], f"module.{idx}")
        for idx in sorted(module_sections)
    )

    cells: dict[tuple[int, int], int] = {}
    ordered = sorted(module_sections)
    for idx, m in zip(ordered, modules):
        cell = (m.grid_col, m.grid_row)
        if cell in cells:
            raise ConfigError(
                f"module.{cells[cell]} and module.{idx} both occupy grid cell {cell}"
            )
        cells[cell] = idx

    if parser.has_section("gains"):
        sec = parser["gains"]
        _check_keys(sec, _GAINS_KEYS, "gains")
        gains = GainsConfig(
            k_pos=_get_float(sec, "k_pos", 12.0, "gains", positive=True),
            k_vel=_get_float(sec, "k_vel", 6.0, "gains", positive=True),
            k_rot=_get_float(sec, "k_rot", 200.0, "gains", positive=True),
            k_ang=_get_float(sec, "k_ang", 20.0, "gains", positive=True),
        )
    if parser.has_section("sim"):
        sec = parser["sim"]
        _check_keys(sec, _SIM_KEYS, "sim")
        sim = SimConfig(
            dt_s=_get_float(sec, "dt_s", 0.001, "sim", positive=True),
            gravity_mps2=_get_float(sec, "gravity_mps2", 9.81, "sim"),
            duration_s=_get_float(sec, "duration_s", 10.0, "sim", positive=True),
        )
    if parser.has_section("trajectory"):
        sec = parser["trajectory"]
        _check_keys(sec, _TRAJ_KEYS, "trajectory")
        kind = sec.get("kind", "hover").strip()
        if kind not in _TRAJECTORY_KINDS:
            raise ConfigError(
                f"trajectory: kind must be one of {_TRAJECTORY_KINDS}, got {kind!r}"
            )
        trajectory = TrajectoryConfig(
            kind=kind,
            pitch_hold_deg=_get_float(sec, "pitch_hold_deg", 0.0, "trajectory"),
            speed_mps=_get_float(sec, "speed_mps", RECT_SPEED, "trajectory", positive=True),
            altitude_m=_get_float(sec, "altitude_m", RECT_ALTITUDE, "trajectory", positive=True),
            hover_x_m=_get_float(sec, "hover_x_m", 0.0, "trajectory"),
            hover_y_m=_get_float(sec, "hover_y_m", 0.0, "trajectory"),
            hover_z_m=_get_float(sec, "hover_z_m", 0.7, "trajectory"),
            hover_yaw_deg=_get_float(sec, "hover_yaw_deg", 0.0, "trajectory"),
        )
    return StructureConfig(modules=modules, gains=gains, sim=sim, trajectory=trajectory)


def serialize_config(config: StructureConfig) -> str:
    """Canonical text form; parse(serialize(c)) == c."""
    lines: list[str] = []
    for idx, m in enumerate(config.modules, start=1):
        lines.append(f"[module.{idx}]")
        lines.append(f"mass_kg = {m.mass_kg!r}")
        lines.append(f"base_m = {m.base_m!r}")
        lines.append(f"height_m = {m.height_m!r}")
        lines.append(f"alpha_deg = {m.alpha_deg!r}")
        lines.append(f"beta_deg = {m.beta_deg!r}")
        lines.append(f"k_f = {m.k_f!r}")
        lines.append(f"k_m = {m.k_m!r}")
        lines.append(f"f_max_n = {m.f_max_n!r}")
        lines.append(f"grid_col = {m.grid_col}")
        lines.append(f"grid_row = {m.grid_row}")
        lines.append(f"yaw_quarter_turns = {m.yaw_quarter_turns}")
        if m.inertia_diag_kgm2 is not None:
            lines.append(
                "inertia_diag_kgm2 = "
                + ", ".join(repr(v) for v in m.inertia_diag_kgm2)
            )
        lines.append("")
    g = config.gains
    lines += ["[gains]", f"k_pos = {g.k_pos!r}", f"k_vel = {g.k_vel!r}",
              f"k_rot = {g.k_rot!r}", f"k_ang = {g.k_ang!r}", ""]
    s = config.sim
    lines += ["[sim]", f"dt_s = {s.dt_s!r}", f"gravity_mps2 = {s.gravity_mps2!r}",
              f"duration_s = {s.duration_s!r}", ""]
    tr = config.trajectory
    lines += [
        "[trajectory]",
        f"kind = {tr.kind}",
        f"pitch_hold_deg = {tr.pitch_hold_deg!r}",
        f"speed_mps = {tr.speed_mps!r}",
        f"altitude_m = {tr.altitude_m!r}",
        f"hover_x_m = {tr.hover_x_m!r}",
        f"hover_y_m = {tr.hover_y_m!r}",
        f"hover_z_m = {tr.hover_z_m!r}",
        f"hover_yaw_deg = {tr.hover_yaw_deg!r}",
        "",
    ]
    return "\n".join(lines)


def override_sim(config: StructureConfig, duration: float | None = None,
                 dt: float | None = None) -> StructureConfig:
    """Copy of ``config`` with command-line sim overrides applied.

    The values are not checked here: ``to_sim_params`` rejects an unusable
    step or duration as a ConfigError naming the field.
    """
    sim = config.sim
    if duration is not None:
        sim = replace(sim, duration_s=duration)
    if dt is not None:
        sim = replace(sim, dt_s=dt)
    return replace(config, sim=sim)
