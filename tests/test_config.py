import configparser
import dataclasses
import inspect
import itertools
import re

import numpy as np
import pytest

from modrotor import (AssemblyError, ConfigError, Gains, ModrotorError, PropellerSpec, SimParams,
                      build_r_module, parse_config)
from modrotor.config import (_TRAJECTORIES, GainsConfig, ModuleConfig, SimConfig,
                             StructureConfig, TrajectoryConfig, _read_ini)
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
    assert cfg.trajectory.kind == "rectangle" and cfg.trajectory.pitch_hold_deg == 0.0
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
        "beta_deg": 15.0, "k_m": 0.01, "f_max_n": 3.0, "grid_col": -1,
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
    assert sum(map(len, EVERY_KEY.values())) == 26
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
    ]:
        cfg = parse_config(f"[module.1]\n\n[trajectory]\nkind = {kind}\n{extra}\n")
        sample = cfg.to_trajectory()(2.0)
        assert np.all(np.isfinite(sample.r_d))


@pytest.mark.parametrize("value", ["-0.5", "0", "1e-300", "1e300", "-1e300", "nan", "inf",
                                   "-inf", "1e400", "a"])
def test_path_altitudes_take_one_rule(value):
    # The rectangle's altitude and the hover height are both a position on
    # the world z axis, which the samplers take anywhere finite: text
    # accepts and rejects the same values for both, by the same rule.
    def outcome(kind, key):
        try:
            config = parse_config(f"[module.1]\n\n[trajectory]\nkind = {kind}\n{key} = {value}\n")
            return config.to_trajectory()(0.0).r_d[2]
        except ConfigError as exc:
            return str(exc).replace(key, "<key>")

    rectangle, hover = outcome("rectangle", "altitude_m"), outcome("hover", "hover_z_m")
    assert rectangle == hover
    if value in ("nan", "inf", "-inf", "1e400", "a"):
        assert rectangle == f"trajectory: <key> must be finite, got {value!r}"
    else:
        assert rectangle == float(value)


def test_every_trajectory_kind_samples_its_own_path():
    # Each kind, at the section's defaults, flies something no other kind
    # does: no second name for one sampler.
    samples = {kind: [_TRAJECTORIES[kind](TrajectoryConfig(kind=kind))(t)
                      for t in (0.5, 2.0, 7.5)] for kind in _TRAJECTORIES}
    for first, second in itertools.combinations(samples, 2):
        assert any(not np.array_equal(getattr(a, name), getattr(b, name))
                   for a, b in zip(samples[first], samples[second])
                   for name in ("r_d", "v_d", "a_d", "r_wf_d", "omega_d")), (first, second)


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


def test_module_defaults_agree_in_every_copy():
    # The default module is written out three times: ModuleConfig's fields,
    # build_r_module's signature and PropellerSpec's rotor fields.
    config = {f.name: f.default for f in dataclasses.fields(ModuleConfig)}
    builder = {name: p.default for name, p in inspect.signature(build_r_module).parameters.items()}
    rotor = {f.name: f.default for f in dataclasses.fields(PropellerSpec)}
    for config_key, builder_key, want in (("mass_kg", "mass", 0.135), ("base_m", "base", 0.12),
                                          ("height_m", "height", 0.06),
                                          ("alpha_deg", "alpha", 0.0), ("beta_deg", "beta", 0.0),
                                          ("k_m", "k_m", 0.006), ("f_max_n", "f_max", 2.0)):
        assert config[config_key] == builder[builder_key] == want, config_key
    assert (rotor["k_m"], rotor["f_max"]) == (0.006, 2.0)


def test_config_dataclass_equality_is_by_value():
    a = parse_config(MINIMAL)
    b = parse_config(MINIMAL)
    assert a == b and isinstance(a, StructureConfig)


# Values a caller may put in a field of a config built in code.
_CODE_EDGES = (float("nan"), float("inf"), float("-inf"), -1.0, 0.0, 1e308, "a")
_KINDS = ("hover", "helix", "rectangle")
_RECORDS = {"module.1": ModuleConfig, "gains": GainsConfig, "sim": SimConfig,
            "trajectory": TrajectoryConfig}


def _code_variants():
    """(name, section, {field: value}, its builder's name) for each field of
    each section set to each edge value; a trajectory field under each kind."""
    for f in dataclasses.fields(ModuleConfig):
        values = _CODE_EDGES
        if f.name == "inertia_diag_kgm2":
            values += tuple((1e-3, x, 1e-3) for x in _CODE_EDGES)
        for value in values:
            yield f"module {f.name}={value}", "module.1", {f.name: value}, "to_structure"
    for section, builder in (("gains", "to_gains"), ("sim", "to_sim_params")):
        for f in dataclasses.fields(_RECORDS[section]):
            for value in _CODE_EDGES:
                yield f"{section} {f.name}={value}", section, {f.name: value}, builder
    fields = [f.name for f in dataclasses.fields(TrajectoryConfig) if f.name != "kind"]
    for kind in _KINDS + _CODE_EDGES + ("helx",):
        for name, value in [(None, None)] + [(n, v) for n in fields for v in _CODE_EDGES]:
            changes = {"kind": kind, **({} if name is None else {name: value})}
            yield (f"trajectory kind={kind} {name}={value}", "trajectory", changes,
                   "to_trajectory")


def _code_config(section, changes) -> StructureConfig:
    """The minimal config with ``section`` built in code from ``changes``."""
    record = _RECORDS[section](**changes)
    if section == "module.1":
        return dataclasses.replace(parse_config(MINIMAL), modules=(record,))
    return dataclasses.replace(parse_config(MINIMAL), **{section: record})


def _text_config(section, changes) -> StructureConfig:
    """The minimal config with ``changes`` written as ``section``'s text."""
    keys = "".join(f"{key} = {_ini_value(value)}\n" for key, value in changes.items())
    return parse_config(MINIMAL + (keys if section == "module.1" else f"\n[{section}]\n{keys}"))


def _bytes_of(value) -> tuple:
    """The bytes a builder's value holds: a structure's thrust map and
    inertia, every field of a Gains or SimParams, and a sampler's samples."""
    if callable(value):  # a trajectory sampler
        return tuple(np.asarray(getattr(value(t), name)).tobytes() for t in (0.0, 1.0, 7.5)
                     for name in ("r_d", "v_d", "a_d", "r_wf_d", "omega_d"))
    if hasattr(value, "thrust_map"):
        return value.thrust_map.tobytes(), value.inertia.tobytes()
    return tuple(np.asarray(getattr(value, f.name)).tobytes() for f in dataclasses.fields(value))


def _outcome(make_config, rejection, builder):
    """What a config gives: ``("rule", bound)`` when ``make_config`` raises
    ``rejection``, the bound being its message between the key and ", got";
    the ModrotorError the builder or a sample raises, by type and message;
    or the bytes of the builder's value. Any other exception escapes."""
    try:
        config = make_config()
    except rejection as exc:
        return "rule", re.sub(r"^[\w.]+: ", "", str(exc)).partition(", got ")[0]
    try:
        return _bytes_of(getattr(config, builder)())
    except ModrotorError as exc:
        return type(exc).__name__, str(exc)


def test_configs_built_in_code_build_or_raise_config_errors():
    # Each key has one rule, however its value arrives: a record built in
    # code accepts a value exactly when the same value in text is accepted,
    # builds the same bytes when it is, and otherwise raises ValueError at
    # construction naming the key with the text path's bound. A record that
    # built gives a value or a ModrotorError from every builder, never
    # another exception or a warning, and an unknown kind never flies.
    failures, flown, rejected = [], set(), 0
    for name, section, changes, builder in _code_variants():
        code = _outcome(lambda: _code_config(section, changes), ValueError, builder)
        text = _outcome(lambda: _text_config(section, changes), ConfigError, builder)
        if code != text:
            failures.append(f"{name}: code {str(code)[:100]} != text {str(text)[:100]}")
        if code[0] == "rule":
            rejected += 1
            if code[1].split(" ", 1)[0] not in changes:
                failures.append(f"{name}: {code[1]!r} names no key it was given")
        elif builder == "to_trajectory" and isinstance(code[0], bytes):
            flown.add(changes["kind"])
    assert not failures, "\n".join(failures)
    assert flown == set(_KINDS)
    assert rejected > 500, rejected


@pytest.mark.parametrize("field, value", [
    ("modules", None), ("modules", ModuleConfig()), ("modules", (GainsConfig(),)),
    ("modules", "module.1"), ("gains", None), ("gains", SimConfig()), ("sim", GainsConfig()),
    ("trajectory", "hover"),
])
def test_structure_config_fields_must_be_their_records(field, value):
    # A field that is not its record raises ValueError naming the field, so
    # no builder meets an AttributeError; modules given as a list are kept
    # as a tuple.
    config = parse_config(MINIMAL)
    with pytest.raises(ValueError, match=rf"^{field} must be a "):
        dataclasses.replace(config, **{field: value})
    listed = dataclasses.replace(config, modules=[ModuleConfig(), ModuleConfig(grid_col=1)])
    assert type(listed.modules) is tuple and listed.to_structure().n == 2


@pytest.mark.parametrize("kind", ["helx", "", "Hover", float("nan"), 0, None, ["hover"]])
def test_unknown_kind_never_flies(kind):
    # An unknown kind is rejected when the record is built, directly or by
    # replace, so no config holds one.
    for build in (lambda: TrajectoryConfig(kind=kind),
                  lambda: dataclasses.replace(TrajectoryConfig(), kind=kind)):
        with pytest.raises(ValueError, match=r"^kind must be one of \('hover', "):
            build()


@pytest.mark.parametrize("section, change, builder, message", [
    ("gains", {"k_pos": -1.0}, None, r"k_pos must be positive and finite, got -1.0"),
    ("sim", {"dt_s": 0.0}, None, r"dt_s must be positive and finite, got 0.0"),
    ("trajectory", {"hover_x_m": float("nan")}, None, r"hover_x_m must be finite, got nan"),
    ("trajectory", {"kind": "rectangle", "altitude_m": float("nan")}, None,
     r"altitude_m must be finite, got nan"),
    ("trajectory", {"kind": "rectangle", "speed_mps": 5.0}, "to_trajectory",
     r"trajectory: speed must be below 1.2 for the 0.5 s corner blend, got 5.0"),
])
def test_code_built_errors_name_section_and_field(section, change, builder, message):
    # A value its key's rule rejects raises ValueError naming the key when
    # the record is built; one only the library rejects raises, from the
    # builder, the one form of a config error: "<section>: <message>".
    config = parse_config(MINIMAL)
    if builder is None:
        with pytest.raises(ValueError, match=rf"^{message}$"):
            dataclasses.replace(getattr(config, section), **change)
        return
    config = dataclasses.replace(
        config, **{section: dataclasses.replace(getattr(config, section), **change)})
    with pytest.raises(ConfigError, match=rf"^{message}$"):
        getattr(config, builder)()


@pytest.mark.parametrize("change, message", [
    ({"alpha_deg": 100.0}, "alpha_deg must be within [-90, 90], got 100.0"),
    ({"beta_deg": -90.5}, "beta_deg must be within [-90, 90], got -90.5"),
    ({"inertia_diag_kgm2": 5.0}, "inertia_diag_kgm2 must be three numbers, got 5.0"),
    ({"inertia_diag_kgm2": (1.0, 2.0)}, "inertia_diag_kgm2 must be three numbers, got (1.0, 2.0)"),
    ({"inertia_diag_kgm2": ()}, "inertia_diag_kgm2 must be three numbers, got ()"),
    ({"inertia_diag_kgm2": (1e-3, -2e-3, 3e-3)},
     "inertia_diag_kgm2 must be positive and finite, got -0.002"),
    ({"grid_col": True}, "grid_col must be an integer, got True"),
    ({"grid_row": 1.0}, "grid_row must be an integer, got 1.0"),
    ({"yaw_quarter_turns": 4}, "yaw_quarter_turns must be 0, 1, 2 or 3, got 4"),
    ({"inertia_diag_kgm2": (1e-3, "1_0", 3e-3)},
     "inertia_diag_kgm2 must be positive and finite, got '1_0'"),
])
def test_code_built_module_keys_take_the_text_rules(change, message):
    # A module config built in code gets the degree bound and the
    # three-positive-numbers rule that its keys get in text, named as keys,
    # when it is built, directly or by replace.
    for build in (lambda: ModuleConfig(**change),
                  lambda: dataclasses.replace(ModuleConfig(), **change)):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            build()


def test_code_built_int_keys_take_an_int_or_its_text():
    # As in text, an integer key takes an int or the text of one, and the
    # record keeps the int.
    module = ModuleConfig(grid_col="-2", grid_row=10**400, yaw_quarter_turns="3")
    assert (module.grid_col, module.grid_row, module.yaw_quarter_turns) == (-2, 10**400, 3)
    assert type(module.grid_col) is int and type(module.yaw_quarter_turns) is int


@pytest.mark.parametrize("triple", [np.array([1e-3, 2e-3, 3e-3]), [1e-3, 2e-3, 3e-3],
                                    (np.float64(1e-3), 2e-3, 3e-3)],
                         ids=["array", "list", "numpy_float"])
def test_code_built_inertia_triple_takes_any_sequence(triple):
    # Three positive numbers in any sequence build the module the text
    # "0.001, 0.002, 0.003" builds, bit for bit.
    text = parse_config("[module.1]\ninertia_diag_kgm2 = 0.001, 0.002, 0.003\n")
    config = dataclasses.replace(text, modules=(ModuleConfig(inertia_diag_kgm2=triple),))
    want = text.to_structure().placements[0].module.inertia
    assert config.to_structure().placements[0].module.inertia.tobytes() == want.tobytes()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), -1.0, 0.0, 0.5,
                                   90.0, 100.0, 1e300])
@pytest.mark.parametrize("key", ["mass_kg", "base_m", "height_m", "alpha_deg", "beta_deg", "k_m",
                                 "f_max_n"])
def test_code_built_module_key_fares_as_its_text(key, value):
    # A number set on a ModuleConfig in code is accepted exactly when the
    # same number in text is, and builds the same bits when it is. The rule
    # rejects it with the same bound in both: as a ConfigError when text is
    # parsed, as a ValueError when the record is built.
    code = _outcome(lambda: _code_config("module.1", {key: value}), ValueError, "to_structure")
    text = _outcome(lambda: _text_config("module.1", {key: value}), ConfigError, "to_structure")
    assert code == text


@pytest.mark.parametrize("line, message", [
    ("grid_col = ٣", "module.1: grid_col must be an integer, got '٣'"),
    ("yaw_quarter_turns = 0_1", "module.1: yaw_quarter_turns must be an integer, got '0_1'"),
    ("mass_kg = 0_0.2", "module.1: mass_kg must be positive and finite, got '0_0.2'"),
    ("beta_deg = １０", "module.1: beta_deg must be within [-90, 90], got '１０'"),
    ("inertia_diag_kgm2 = 1e-3, 1_0, 1e-3",
     "module.1: inertia_diag_kgm2 must be three numbers, got '1e-3, 1_0, 1e-3'"),
], ids=["arabic_indic_digit", "int_underscore", "float_underscore", "full_width_digits",
        "triple_underscore"])
def test_number_text_is_ascii_without_underscores(line, message):
    # int() and float() also read other scripts' digits and '_' between
    # digits; config number text takes neither, in a file or in code.
    with pytest.raises(ConfigError, match="^" + re.escape(message) + "$"):
        parse_config(f"[module.1]\n{line}\n")
    key, _, value = line.partition(" = ")
    with pytest.raises(ValueError, match="^" + re.escape(message.split(": ", 1)[1]) + "$"):
        ModuleConfig(**{key: value})


def _spelt_otherwise(text: str, form: str) -> str:
    """``text`` with its first digit group led by ``0_``, or with every
    digit in Arabic-Indic script: forms int() and float() still read."""
    if form == "underscore":
        return re.sub(r"\d", lambda m: "0_" + m[0], text, count=1)
    return re.sub(r"\d", lambda m: chr(0x0660 + int(m[0])), text)


_NUMBER_KEYS = [(section, key) for section, keys in EVERY_KEY.items() for key in keys
                if key != "kind"]


@pytest.mark.parametrize("form", ["underscore", "arabic_indic"])
@pytest.mark.parametrize("section, key", _NUMBER_KEYS,
                         ids=[f"{section}-{key}" for section, key in _NUMBER_KEYS])
def test_every_number_key_takes_only_ascii_text(section, key, form):
    # Each number key has the one rule, in a file and in code: text that
    # int() or float() would read as the key's valid value is still rejected
    # when it holds '_' or a non-ASCII digit, named by the key's own wording.
    valid = _ini_value(EVERY_KEY[section][key])
    text = _spelt_otherwise(valid, form)
    reads = [int(p) if isinstance(EVERY_KEY[section][key], int) else float(p)
             for p in text.split(",")]
    assert reads == [float(p) for p in valid.split(",")], text  # only the rule rejects it
    got = f", got {text!r}"
    with pytest.raises(ConfigError) as from_text:
        _text_config(section, {key: text})
    assert str(from_text.value).startswith(f"{section}: {key} must be ")
    assert str(from_text.value).endswith(got)
    with pytest.raises(ValueError) as from_code:
        _RECORDS[section](**{key: text})
    assert str(from_code.value) == str(from_text.value).split(": ", 1)[1]


@pytest.mark.parametrize("section, changes", [
    ("module.1", {"base_m": "-1", "mass_kg": "-1"}),
    ("gains", {"k_vel": "-1", "k_pos": "-1"}),
    ("sim", {"duration_s": "-1", "dt_s": "-1"}),
    ("trajectory", {"speed_mps": "-1", "pitch_hold_deg": "nan"}),
], ids=["module", "gains", "sim", "trajectory"])
def test_text_and_code_name_the_same_of_two_bad_keys(section, changes):
    # Two bad keys, set in the reverse of their declaration order, in a file
    # and as the same text in code: both name the key the record declares
    # first, with one message.
    first = next(key for key in _RECORDS[section].__dataclass_fields__ if key in changes)
    assert first == list(changes)[-1]
    with pytest.raises(ConfigError) as from_text:
        _text_config(section, changes)
    with pytest.raises(ValueError) as from_code:
        _code_config(section, changes)
    assert str(from_text.value) == f"{section}: {from_code.value}"
    assert str(from_code.value).startswith(f"{first} must be ")


def test_plain_number_text_still_parses():
    config = parse_config("[module.1]\nmass_kg = 1e-3\ngrid_col = +2\nbeta_deg = -30\n"
                          "inertia_diag_kgm2 =  1e-3 ,2e-3,  3e-3  \n\n[gains]\nk_pos = .5\n")
    module = config.modules[0]
    assert (module.mass_kg, module.grid_col, module.beta_deg) == (1e-3, 2, -30.0)
    assert module.inertia_diag_kgm2 == (1e-3, 2e-3, 3e-3) and config.gains.k_pos == 0.5
    assert ModuleConfig(mass_kg=" 0.2 ", grid_row=" -1 ").mass_kg == 0.2


def test_gains_are_built_once_per_gains_record():
    # Every config without a [gains] section holds the default record and
    # shares its one Gains; another record builds its own.
    bare, other = parse_config(MINIMAL), parse_config((CONFIG_DIR / "experiment1.cfg").read_text())
    assert bare.to_gains() is other.to_gains() is bare.to_gains()
    tuned = dataclasses.replace(bare, gains=GainsConfig(k_pos=3.0))
    assert tuned.to_gains().k_pos == (3.0, 3.0, 3.0) and tuned.to_gains() is tuned.to_gains()
    parsed = parse_config("[module.1]\n\n[gains]\nk_vel = 4\n")
    assert parsed.to_gains() is parsed.to_gains() is not bare.to_gains()
    assert parsed.to_gains().k_vel == (4.0, 4.0, 4.0)
