"""Declarative run configuration: parsing and validation.

Configs are INI-style text with one ``[module.N]`` section per module plus
optional ``[gains]``, ``[sim]`` and ``[trajectory]`` sections. Keys carry
their unit in the name; angles are degrees in the file and radians in code.
Each section is one of the dataclasses below, and its fields are the only
definition of the section's keys, their types and their defaults: a key the
file leaves out takes the field's default. Unknown sections or keys are
rejected. A number goes through :func:`~modrotor.lazy.checked` against its
key's bound in ``_BOUNDS``, and ``kind`` must be a key of ``_TRAJECTORIES``;
the rest, overlapping grid cells included, is checked by the library when
the ``to_*`` builders run. A value rejected by either is a ConfigError
``<section>: <message>`` whose message names the field.

The grammar is the standard library INI reader's default one, without
interpolation or default merging (``[DEFAULT]`` is just an unknown section).
A ``[name]`` line opens a section, its name kept verbatim; a section appears
once. ``key = value`` or ``key: value`` splits at the first ``=`` or ``:``;
both sides are stripped and the key is lower-cased, so it appears once per
section in any case. A line whose first non-blank character is ``#`` or
``;`` is a comment, and a ``#`` after whitespace starts an inline one. A
line indented deeper than its key line continues that key's value, joined
with a newline. Anything else is a ConfigError ``syntax error: line N: ...``
naming the line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields, replace
from typing import Callable

import numpy as np

from .control import Gains
from .dynamics import SimParams
from .errors import ConfigError
from .lazy import FINITE, NON_NEGATIVE, POSITIVE, QUARTERS, checked, shown
from .module_design import build_r_module
from .structure import ModulePlacement, StructureModel, assemble
from .trajectory import RECT_ALTITUDE, RECT_SPEED, TrajectorySample, helix, hover, rectangle


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
    k_pos: float = Gains.k_pos
    k_vel: float = Gains.k_vel
    k_rot: float = Gains.k_rot
    k_ang: float = Gains.k_ang


@dataclass(frozen=True)
class SimConfig:
    dt_s: float = SimParams.dt
    gravity_mps2: float = SimParams.gravity
    duration_s: float = SimParams.duration


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
        """The assembled structure; a module the library rejects, such as one
        whose inertia overflows or whose grid offset is beyond float range,
        is ConfigError("module.N: ...") with N its position in ``modules``."""
        return assemble([_built(f"module.{n}", _placement, m)
                         for n, m in enumerate(self.modules, start=1)])

    def to_gains(self) -> Gains:
        g = self.gains
        return _built("gains", Gains, k_pos=g.k_pos, k_vel=g.k_vel, k_rot=g.k_rot, k_ang=g.k_ang)

    def to_sim_params(self) -> SimParams:
        s = self.sim
        return _built("sim", SimParams, dt=s.dt_s, gravity=s.gravity_mps2, duration=s.duration_s)

    def to_trajectory(self) -> Callable[[float], TrajectorySample]:
        return _built("trajectory", lambda tr: _builder(tr.kind)(tr), self.trajectory)


def _built(where: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``; a ValueError it raises is the one form of
    a config error, ConfigError("<where>: <message>")."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _placement(m: ModuleConfig) -> ModulePlacement:
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
    return ModulePlacement(
        module=module,
        grid_offset=(m.grid_col, m.grid_row),
        yaw_quarter_turns=m.yaw_quarter_turns,
    )


# Each trajectory kind and the sampler it flies, built from the section.
_TRAJECTORIES = {
    "hover": lambda tr: hover((tr.hover_x_m, tr.hover_y_m, tr.hover_z_m),
                              yaw0=float(np.deg2rad(tr.hover_yaw_deg))),
    "helix": lambda tr: helix,
    "rectangle": lambda tr: rectangle(float(np.deg2rad(tr.pitch_hold_deg)), tr.speed_mps,
                                      tr.altitude_m),
    # The level rectangle: pitch_hold_deg does not apply.
    "rectangle_fixed": lambda tr: rectangle(0.0, tr.speed_mps, tr.altitude_m),
}


def _builder(kind):
    """``_TRAJECTORIES[kind]``; a ValueError naming ``kind`` if it is not a key."""
    if isinstance(kind, str) and kind in _TRAJECTORIES:
        return _TRAJECTORIES[kind]
    raise ValueError(f"kind must be one of {tuple(_TRAJECTORIES)}, got {shown(kind)}")


# The bound, in lazy.checked's form, on a key's number or on each part of
# its triple; a float key not listed must be finite, and an int key not
# listed (grid_col, grid_row) is left to ModulePlacement.
_BOUNDS = {
    **dict.fromkeys(
        ("mass_kg", "base_m", "height_m", "k_f", "f_max_n", "k_pos", "k_vel", "k_rot",
         "k_ang", "dt_s", "duration_s", "speed_mps", "altitude_m", "inertia_diag_kgm2"),
        POSITIVE,
    ),
    "k_m": NON_NEGATIVE,
    **dict.fromkeys(("alpha_deg", "beta_deg"), (-90.0, 90.0, "within [-90, 90]")),
    "yaw_quarter_turns": QUARTERS,
}

# The optional sections, each named after its StructureConfig field.
_SECTIONS = {f.name: f.default_factory for f in fields(StructureConfig) if f.name != "modules"}
# Each section dataclass's keys and their declared types.
_KEY_TYPES = {cls: {f.name: f.type for f in fields(cls)}
              for cls in (ModuleConfig, *_SECTIONS.values())}


def _convert(type_name: str, raw: str, key: str):
    """``raw`` as the field's declared type, float, int, str or a number
    triple, within the key's bound; otherwise a ValueError naming ``key``."""
    if type_name == "float":
        return checked(key, raw, _BOUNDS.get(key, FINITE))
    if type_name == "str":
        _builder(raw)
        return raw
    if type_name == "int":
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(f"{key} must be an integer, got {raw!r}") from None
        if key in _BOUNDS:
            checked(key, value, _BOUNDS[key])
        return value
    parts = raw.split(",")
    if len(parts) != 3:
        raise ValueError(f"{key} must be three numbers, got {raw!r}")
    return tuple(checked(key, part.strip(), _BOUNDS[key]) for part in parts)


def _parse_section(cls, section, where: str):
    """An instance of the dataclass ``cls`` from the keys ``section`` sets;
    the dataclass supplies the default of every key the section leaves out."""
    types = _KEY_TYPES[cls]
    unknown = sorted(key for key in section if key not in types)
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {unknown}")
    return _built(where, lambda: cls(**{key: _convert(types[key], raw, key)
                                        for key, raw in section.items()}))


_INLINE_COMMENT = re.compile(r"\s#")
_DELIMITER = re.compile("[=:]")


def _read_ini(text: str) -> dict[str, dict[str, str]]:
    """``{section: {key: raw value}}`` from config text, in file order, by
    the grammar in the module docstring."""
    sections: dict[str, dict[str, list[str]]] = {}
    section = value_lines = None  # the open section and the open key's lines
    key_indent = 0
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped:
            if value_lines is not None:
                value_lines.append("")
            continue
        if stripped[0] in "#;":
            continue
        if "#" in stripped:
            stripped = _INLINE_COMMENT.split(stripped, 1)[0].rstrip()
        indent = len(line) - len(line.lstrip())
        if value_lines is not None and indent > key_indent:
            value_lines.append(stripped)
            continue
        key_indent = indent
        close = stripped.rfind("]")
        if stripped[0] == "[" and close >= 2:
            name = stripped[1:close]
            if name in sections:
                raise ConfigError(f"syntax error: line {lineno}: section [{name}] is repeated")
            section = sections[name] = {}
            value_lines = None
            continue
        if section is None:
            raise ConfigError(f"syntax error: line {lineno}: {stripped!r} comes before "
                              "any [section] header")
        key, *raw = _DELIMITER.split(stripped, 1)
        key = key.rstrip().lower()
        if not raw or not key:
            raise ConfigError(f"syntax error: line {lineno}: {stripped!r} is not "
                              "'key = value' or 'key: value'")
        if key in section:
            raise ConfigError(f"syntax error: line {lineno}: key {key!r} is repeated "
                              f"in [{name}]")
        value_lines = section[key] = [raw[0].strip()]
    return {name: {key: "\n".join(lines).rstrip() for key, lines in keys.items()}
            for name, keys in sections.items()}


def parse_config(text: str) -> StructureConfig:
    """Parse and validate configuration text into a :class:`StructureConfig`."""
    parsed = _read_ini(text)
    module_sections: dict[int, str] = {}
    for name, keys in parsed.items():
        if name.startswith("module."):
            suffix = name[len("module."):]
            if not (suffix.isascii() and suffix.isdigit()) or int(suffix) < 1:
                raise ConfigError(f"[{name}]: module sections must be [module.1], [module.2], ...")
            idx = int(suffix)
            if idx in module_sections:
                raise ConfigError(
                    f"[{module_sections[idx]}] and [{name}] both define module {idx}"
                )
            module_sections[idx] = name
        elif name not in _SECTIONS:
            named = f" setting {sorted(keys)}" if keys else ""
            raise ConfigError(f"unknown section [{name}]{named}")

    if not module_sections:
        raise ConfigError("config defines no [module.N] section")
    # Numbered without gaps, a module's section number is its position,
    # which is how the library's messages count modules.
    modules = []
    for idx in range(1, len(module_sections) + 1):
        if idx not in module_sections:
            raise ConfigError(f"[module.{idx}] is missing; module sections are numbered "
                              "[module.1], [module.2], ... without gaps")
        modules.append(_parse_section(ModuleConfig, parsed[module_sections[idx]],
                                      f"module.{idx}"))

    sections = {
        name: _parse_section(cls, parsed[name], name)
        for name, cls in _SECTIONS.items()
        if name in parsed
    }
    return StructureConfig(modules=tuple(modules), **sections)


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
