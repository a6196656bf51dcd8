import configparser
import dataclasses
import re

import numpy as np
import pytest

from modrotor import (AssemblyError, ConfigError, Gains, ModrotorError, SimParams, build_r_module,
                      parse_config, rectangle)
from modrotor.config import (GainsConfig, ModuleConfig, SimConfig, StructureConfig,
                             TrajectoryConfig, _read_ini)
from conftest import CONFIG_DIR, ROOT
from test_cli import _contract_variants

MINIMAL = "[module.1]\n"


def test_minimal_config_gets_defaults():
    cfg = parse_config(MINIMAL)
    assert len(cfg.modules) == 1
    m = cfg.modules[0]
    assert m.mass_kg == 0.135 and m.base_m == 0.12 and m.height_m == 0.06
    assert cfg.gains.k_pos == 12.0 and cfg.gains.k_ang == 20.0
    assert cfg.sim.dt_s == 0.001 and cfg.sim.duration_s == 10.0
    assert cfg.trajectory.kind == "hover"


def test_minimal_config_builds_working_structure():
    cfg = parse_config(MINIMAL)
    structure = cfg.to_structure()
    assert structure.n == 1
    assert structure.rank_f == 1
    traj = cfg.to_trajectory()
    assert np.all(np.isfinite(traj(1.0).r_d))


def test_grid_collision_names_both_modules():
    text = "[module.1]\ngrid_col = 2\n\n[module.2]\ngrid_col = 2\n"
    with pytest.raises(AssemblyError, match=r"modules 1 and 2"):
        parse_config(text).to_structure()


def test_bench_experiment_fixture_parses():
    cfg = parse_config((CONFIG_DIR / "experiment3.cfg").read_text())
    assert len(cfg.modules) == 4
    tilts = {(m.alpha_deg, m.beta_deg) for m in cfg.modules}
    assert tilts == {(0.0, 30.0), (0.0, -30.0), (30.0, 0.0), (-30.0, 0.0)}
    assert cfg.trajectory.kind == "rectangle_fixed"
    structure = cfg.to_structure()
    assert structure.rank_f == 3


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("[module.1]\nmass = 1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("[module.1]\n\n[sim]\nspeed = 1\n")


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config("[module.1]\n\n[modules]\n")


@pytest.mark.parametrize("rest", ["[module.1]\n", "[module.1]\n\n[gains]\nk_pos = 12\n"])
def test_default_section_keys_rejected(rest):
    # configparser would merge these into every section: without [gains]
    # the key tilted every module, with it [gains] named a key it never set.
    with pytest.raises(ConfigError, match=r"\[DEFAULT\].*beta_deg"):
        parse_config("[DEFAULT]\nbeta_deg = 10\n\n" + rest)


def test_bad_values_name_the_field():
    with pytest.raises(ConfigError, match="mass_kg"):
        parse_config("[module.1]\nmass_kg = heavy\n")
    with pytest.raises(ConfigError, match="mass_kg"):
        parse_config("[module.1]\nmass_kg = -2\n")
    with pytest.raises(ConfigError, match="beta_deg"):
        parse_config("[module.1]\nbeta_deg = 120\n")
    with pytest.raises(ConfigError, match="yaw_quarter_turns"):
        parse_config("[module.1]\nyaw_quarter_turns = 5\n")
    with pytest.raises(ConfigError, match="kind"):
        parse_config("[module.1]\n\n[trajectory]\nkind = spiral\n")
    with pytest.raises(ConfigError, match="grid_col must be an integer, got '1.5'"):
        parse_config("[module.1]\ngrid_col = 1.5\n")
    with pytest.raises(ConfigError, match="mass_kg must be positive and finite, got 'nan'"):
        parse_config("[module.1]\nmass_kg = nan\n")
    with pytest.raises(ConfigError, match="inertia_diag_kgm2 must be positive and finite, got"):
        parse_config("[module.1]\ninertia_diag_kgm2 = 1e-4, heavy, 2e-4\n")


def test_syntax_error_reports_line():
    with pytest.raises(ConfigError, match="line"):
        parse_config("[module.1]\nmass_kg\n= 2\n")


@pytest.mark.parametrize("text, message", [
    ("mass_kg = 1\n[module.1]\n", r"line 1: 'mass_kg = 1' comes before any \[section\]"),
    ("[module.1]\n\nmass_kg\n", r"line 3: 'mass_kg' is not 'key = value'"),
    ("[module.1]\n = 2\n", r"line 2: '= 2' is not 'key = value'"),
    ("[module.1]\n[gains]\n[module.1]\n", r"line 3: section \[module.1\] is repeated"),
    ("[module.1]\nMass_kg = 1\nmass_KG: 2\n", r"line 3: key 'mass_kg' is repeated in \[module.1\]"),
])
def test_syntax_errors_name_the_line(text, message):
    with pytest.raises(ConfigError, match=rf"^syntax error: {message}"):
        parse_config(text)


def test_continuation_lines_join_the_value():
    cfg = parse_config("[module.1]\nbeta_deg =\n    10\n")
    assert cfg.modules[0].beta_deg == 10.0
    assert _read_ini("[a]\nk = 1\n\n  2  # c\n  ; c\n\t3\n\n") == {"a": {"k": "1\n\n2\n3"}}


def _stdlib_sections(text: str) -> dict:
    """``{section: {key: value}}`` by the standard library reader; the
    defaults it merges into every section are left out of the corpus."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    parser.read_string(text)
    assert not parser.defaults()
    return {name: dict(parser[name]) for name in parser.sections()}


_HEADERS = ("[a]", "[A]", "[ a ]", "  [a]", "\t[b]", "[a] junk", "[a]x]", "[b]#c", "[b] # c",
            "[c]\r", "[]", "[", "[[a]]", "[]]", "[module.1]")
_KEYS = ("k", "K", "key", "Key", "KEY", "a b", "x.y", "k2", "[a")
_DELIMITERS = ("=", ":", " = ", ": ", "\t=\t", " :", "==", ":=")
_VALUES = ("1", "", "a=b", "x: y", "v # c", "v\t# c", "v#c", "v ; c", " 2 ", "#", "# c",
           "[a]", "v\r", "10 \t")
_OTHER_LINES = ("", "   ", "\t", "\r", "# c", "; c", "  # c", "\t; c", "  more", "\tmore",
                "    10", "  v # c", "  [a]", "  k = 3", "junk", "= 1", ": 1", " =1", "k = 1\r")


def _random_ini(rng) -> str:
    lines = [_HEADERS[rng.integers(len(_HEADERS))]] if rng.random() < 0.8 else []
    for _ in range(rng.integers(1, 10)):
        kind = rng.random()
        if kind < 0.15:
            lines.append(_HEADERS[rng.integers(len(_HEADERS))])
        elif kind < 0.6:
            indent = ("", "", "", " ", "\t")[rng.integers(5)]
            lines.append(indent + _KEYS[rng.integers(len(_KEYS))]
                         + _DELIMITERS[rng.integers(len(_DELIMITERS))]
                         + _VALUES[rng.integers(len(_VALUES))])
        else:
            lines.append(_OTHER_LINES[rng.integers(len(_OTHER_LINES))])
    return "\n".join(lines) + ("\n" if rng.random() < 0.7 else "")


def _oracle_corpus():
    for path in sorted(CONFIG_DIR.glob("*.cfg")):
        yield path.read_text()
    for _, text, _ in _contract_variants():
        yield text
    rng = np.random.default_rng(2024)
    for _ in range(800):
        yield _random_ini(rng)
    yield from ("k = 1\n[a]\n", "# c\nk: 1\n", "[a]\njunk\n", "[a]\n= 1\n", "[a]\n  : 1\n",
                "junk\n", "[a]\nk = 1\nK = 2\n", "[a]\n[b]\n[a]\n", "[a]\nk =\n  10\n")


def test_reader_matches_the_standard_library_reader():
    # Where the standard library accepts a text, the sections, keys and raw
    # values agree; where it raises, parse_config raises a ConfigError that
    # names the line.
    accepted = rejected = 0
    for text in _oracle_corpus():
        try:
            want = _stdlib_sections(text)
        except configparser.Error:
            rejected += 1
            with pytest.raises(ConfigError, match=r"^syntax error: line \d+: "):
                parse_config(text)
        else:
            accepted += 1
            assert _read_ini(text) == want, text
    assert accepted > 750 and rejected > 500, (accepted, rejected)


def test_empty_default_section_is_an_unknown_section():
    # The one text the standard library reader accepts and this one rejects:
    # [DEFAULT] is an ordinary section name here, so even empty it is unknown.
    text = "[DEFAULT]\n\n[module.1]\n"
    assert _stdlib_sections(text) == {"module.1": {}}
    with pytest.raises(ConfigError, match=r"^unknown section \[DEFAULT\]$"):
        parse_config(text)


def test_missing_modules_rejected():
    with pytest.raises(ConfigError, match="module"):
        parse_config("[gains]\nk_pos = 5\n")


# A non-default value for every key of every section.
EVERY_KEY = {
    "module.1": {
        "mass_kg": 0.2, "base_m": 0.15, "height_m": 0.05, "alpha_deg": -20.0,
        "beta_deg": 15.0, "k_f": 1.5, "k_m": 0.01, "f_max_n": 3.0, "grid_col": -1,
        "grid_row": 2, "yaw_quarter_turns": 3, "inertia_diag_kgm2": (0.001, 0.002, 0.003),
    },
    "gains": {"k_pos": 7.5, "k_vel": 3.0, "k_rot": 150.0, "k_ang": 10.0},
    "sim": {"dt_s": 0.002, "gravity_mps2": 9.8, "duration_s": 4.0},
    "trajectory": {
        "kind": "rectangle", "pitch_hold_deg": -5.0, "speed_mps": 0.3, "altitude_m": 0.9,
        "hover_x_m": 0.1, "hover_y_m": -0.2, "hover_z_m": 1.1, "hover_yaw_deg": 45.0,
    },
}


def _ini_value(value) -> str:
    return ", ".join(map(repr, value)) if isinstance(value, tuple) else str(value)


def test_every_key_lands_in_its_field():
    text = "".join(
        f"[{name}]\n" + "".join(f"{key} = {_ini_value(v)}\n" for key, v in keys.items())
        for name, keys in EVERY_KEY.items()
    )
    cfg = parse_config(text)
    default = parse_config(MINIMAL)
    parsed = {"module.1": cfg.modules[0], "gains": cfg.gains, "sim": cfg.sim,
              "trajectory": cfg.trajectory}
    defaults = {"module.1": ModuleConfig(), "gains": GainsConfig(), "sim": SimConfig(),
                "trajectory": TrajectoryConfig()}
    assert sum(map(len, EVERY_KEY.values())) == 27
    for name, keys in EVERY_KEY.items():
        assert set(keys) == {f.name for f in dataclasses.fields(defaults[name])}, name
        for key, value in keys.items():
            assert getattr(parsed[name], key) == value, (name, key)
            assert getattr(defaults[name], key) != value, (name, key)
    assert len(default.modules) == 1
    for name, section in (("module.1", default.modules[0]), ("gains", default.gains),
                          ("sim", default.sim), ("trajectory", default.trajectory)):
        for f in dataclasses.fields(section):
            assert getattr(section, f.name) == getattr(defaults[name], f.name), (name, f.name)


def test_duplicate_module_number_names_both_sections():
    with pytest.raises(ConfigError, match=r"\[module\.1\] and \[module\.01\]"):
        parse_config("[module.1]\n\n[module.01]\ngrid_col = 1\n")


@pytest.mark.parametrize("numbers, missing", [((1, 3), 2), ((2,), 1), ((1, 2, 4, 6), 3)])
def test_module_numbering_gap_names_the_first_missing_section(numbers, missing):
    text = "".join(f"[module.{k}]\ngrid_col = {k}\n\n" for k in numbers)
    with pytest.raises(ConfigError, match=rf"^\[module\.{missing}\] is missing"):
        parse_config(text)


def test_module_number_must_be_ascii_digits():
    # Other Unicode digits either broke int() or named a module twice.
    for name in ("module.\u00b2", "module.\u0661"):
        with pytest.raises(ConfigError, match="module sections must be"):
            parse_config(f"[{name}]\n")


def test_readme_config_example_names_every_field():
    # The documented key list, commented-out keys included, is exactly the
    # fields of the config dataclasses, and the example parses.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Configuration format\n.*?```\n(.*?)```", readme, re.S).group(1)
    parse_config(block)
    documented: dict[str, list[str]] = {}
    for line in block.splitlines():
        header = re.match(r"\[([\w.]+)\]", line)
        if header:
            section = documented.setdefault(header.group(1), [])
        key = re.match(r"#?\s*(\w+)\s*=", line)
        if key:
            section.append(key.group(1))
    classes = {"module.1": ModuleConfig, "gains": GainsConfig, "sim": SimConfig,
               "trajectory": TrajectoryConfig}
    assert documented == {name: [f.name for f in dataclasses.fields(cls)]
                          for name, cls in classes.items()}


def test_inertia_override_applied():
    cfg = parse_config("[module.1]\ninertia_diag_kgm2 = 0.001, 0.002, 0.003\n")
    structure = cfg.to_structure()
    np.testing.assert_allclose(np.diag(structure.inertia), [0.001, 0.002, 0.003], atol=0)


def test_inertia_triple_must_be_finite():
    for bad in ("nan", "inf"):
        with pytest.raises(ConfigError, match="module.1: inertia_diag_kgm2"):
            parse_config(f"[module.1]\ninertia_diag_kgm2 = 0.001, {bad}, 0.003\n")


def test_trajectory_kinds_build():
    for kind, extra in [
        ("hover", "hover_z_m = 1.0"),
        ("helix", ""),
        ("rectangle", "pitch_hold_deg = -5"),
        ("rectangle_fixed", "speed_mps = 0.2"),
    ]:
        cfg = parse_config(f"[module.1]\n\n[trajectory]\nkind = {kind}\n{extra}\n")
        sample = cfg.to_trajectory()(2.0)
        assert np.all(np.isfinite(sample.r_d))


def test_rectangle_fixed_is_the_level_rectangle():
    # The pitch hold does not apply to the level rectangle.
    cfg = parse_config("[module.1]\n\n[trajectory]\nkind = rectangle_fixed\n"
                       "pitch_hold_deg = -5\nspeed_mps = 0.2\n")
    trajectory = cfg.to_trajectory()
    for t in (0.0, 2.0, 7.5):
        got, want = trajectory(t), rectangle(speed=0.2)(t)
        assert (got.r_d, got.v_d, got.a_d) == (want.r_d, want.v_d, want.a_d)
        np.testing.assert_array_equal(got.r_wf_d, np.eye(3))


def test_omitted_sections_take_the_library_defaults():
    # A bare module section builds build_r_module's default module, the
    # cached instance itself, so ModuleConfig's defaults are the library's.
    cfg = parse_config("[module.1]\n")
    assert cfg.to_structure().placements[0].module is build_r_module()
    gains, want = cfg.to_gains(), Gains()
    for f in dataclasses.fields(Gains):
        np.testing.assert_array_equal(getattr(gains, f.name), getattr(want, f.name), f.name)
    params, want = cfg.to_sim_params(), SimParams()
    for f in dataclasses.fields(SimParams):
        assert getattr(params, f.name) == getattr(want, f.name), f.name


def test_config_dataclass_equality_is_by_value():
    a = parse_config(MINIMAL)
    b = parse_config(MINIMAL)
    assert a == b and isinstance(a, StructureConfig)


# Values a caller may put in a field of a config built in code, which no
# parsing has checked.
_CODE_EDGES = (float("nan"), float("inf"), float("-inf"), -1.0, 0.0, 1e308, "a")
_KINDS = ("hover", "helix", "rectangle", "rectangle_fixed")


def _code_variants():
    """(name, config, its builder's name) for each field of each section
    set to each edge value; a trajectory field under each kind."""
    base = parse_config(MINIMAL)
    for f in dataclasses.fields(ModuleConfig):
        values = _CODE_EDGES
        if f.name == "inertia_diag_kgm2":
            values += tuple((1e-3, x, 1e-3) for x in _CODE_EDGES)
        for value in values:
            module = dataclasses.replace(ModuleConfig(), **{f.name: value})
            yield (f"module {f.name}={value}", dataclasses.replace(base, modules=(module,)),
                   "to_structure")
    for section, builder in (("gains", "to_gains"), ("sim", "to_sim_params")):
        for f in dataclasses.fields(getattr(base, section)):
            for value in _CODE_EDGES:
                changed = dataclasses.replace(getattr(base, section), **{f.name: value})
                yield (f"{section} {f.name}={value}",
                       dataclasses.replace(base, **{section: changed}), builder)
    fields = [f.name for f in dataclasses.fields(TrajectoryConfig) if f.name != "kind"]
    for kind in _KINDS + _CODE_EDGES + ("helx",):
        for name, value in [(None, None)] + [(n, v) for n in fields for v in _CODE_EDGES]:
            changed = TrajectoryConfig(kind=kind, **({} if name is None else {name: value}))
            yield (f"trajectory kind={kind} {name}={value}",
                   dataclasses.replace(base, trajectory=changed), "to_trajectory")


def test_configs_built_in_code_build_or_raise_config_errors():
    # A config built in code skips the parser's checks; each to_* builder
    # still returns a value (a sampler that samples) or raises a
    # ModrotorError, never another exception or a warning, and an unknown
    # kind never flies.
    failures, flown = [], set()
    for name, config, builder in _code_variants():
        try:
            value = getattr(config, builder)()
            if builder == "to_trajectory":
                value(1.0)
                flown.add(config.trajectory.kind)
        except ModrotorError:
            pass
        except Exception as exc:  # noqa: BLE001 - any other escape is a failure
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
    assert not failures, "\n".join(failures)
    assert flown == set(_KINDS)


@pytest.mark.parametrize("kind", ["helx", "", "Hover", float("nan"), 0, None, ["hover"]])
def test_unknown_kind_never_flies(kind):
    config = dataclasses.replace(parse_config(MINIMAL), trajectory=TrajectoryConfig(kind=kind))
    with pytest.raises(ConfigError, match=r"^trajectory: kind must be one of \('hover', "):
        config.to_trajectory()


@pytest.mark.parametrize("section, change, builder, message", [
    ("gains", {"k_pos": -1.0}, "to_gains", r"gains: k_pos diagonal entries must be positive"),
    ("sim", {"dt_s": 0.0}, "to_sim_params", r"sim: dt must be positive and finite, got 0.0"),
    ("trajectory", {"hover_x_m": float("nan")}, "to_trajectory",
     r"trajectory: r0 must be a finite array of shape \(3,\), got \(nan, 0.0, 0.7\)"),
    ("trajectory", {"kind": "rectangle", "altitude_m": float("nan")}, "to_trajectory",
     r"trajectory: altitude must be finite, got nan"),
    ("trajectory", {"kind": "rectangle_fixed", "speed_mps": 5.0}, "to_trajectory",
     r"trajectory: speed must be below 1.2 for the 0.5 s corner blend, got 5.0"),
])
def test_code_built_errors_name_section_and_field(section, change, builder, message):
    # Every builder maps a rejected value the same way: "<section>: <message>".
    config = parse_config(MINIMAL)
    config = dataclasses.replace(
        config, **{section: dataclasses.replace(getattr(config, section), **change)})
    with pytest.raises(ConfigError, match=rf"^{message}$"):
        getattr(config, builder)()
