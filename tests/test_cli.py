import configparser
import csv
import io
from dataclasses import fields, replace

import numpy as np
import pytest

from modrotor import parse_config, run_closed_loop
from modrotor.config import _SECTIONS, ModuleConfig, override_sim
from modrotor.cli import EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, main, write_run_csv
from conftest import CONFIG_DIR


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_flat_reports_rank_four(capsys):
    code, out, _ = run_cli(["check", "--config", str(CONFIG_DIR / "flat.cfg")], capsys)
    assert code == EXIT_OK
    assert "rank(A) = 4" in out
    assert "controllable DOF: 4" in out
    assert "F-frame: identity" in out
    assert "balanced" in out


def test_check_tilted_module_frame_angle(capsys):
    code, out, _ = run_cli(["check", "--config", str(CONFIG_DIR / "experiment1.cfg")], capsys)
    assert code == EXIT_OK
    assert "rank(A) = 4" in out
    assert "angle_deg=10.000000" in out


def test_check_pitch_pair_rank_five(capsys):
    code, out, _ = run_cli(["check", "--config", str(CONFIG_DIR / "experiment2.cfg")], capsys)
    assert code == EXIT_OK
    assert "rank(A) = 5" in out
    assert "controllable DOF: 5" in out


def test_check_quad_rank_six(capsys):
    code, out, _ = run_cli(["check", "--config", str(CONFIG_DIR / "experiment3.cfg")], capsys)
    assert code == EXIT_OK
    assert "rank(A) = 6" in out
    assert "controllable DOF: 6" in out


def test_every_fixture_config_passes_check(capsys):
    for path in sorted(CONFIG_DIR.glob("*.cfg")):
        code, out, err = run_cli(["check", "--config", str(path)], capsys)
        assert code == EXIT_OK, (path.name, err)
        assert "UNBALANCED" not in out


def test_check_bad_config_exits_validation(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    # A value the parser rejects, modules whose inertia overflows to inf or
    # underflows to singular, and a drag-free flat module whose torque block
    # has rank 2.
    for text, message in [
        ("[module.1]\nmass_kg = -1\n", "mass_kg"),
        ("[module.1]\nbase_m = 1e200\n", "error: module.1: inertia must be a finite array"),
        ("[module.1]\n[module.2]\ngrid_col = 1\nbase_m = 1e-300\n",
         "error: module.2: inertia tensor must be positive definite"),
        ("[module.1]\nk_m = 0\n", "torque block is rank-deficient"),
        # A gap is named as such, not by the position of the section after it.
        ("[module.1]\n[module.3]\ngrid_col = 1\nbase_m = 1e200\n",
         "error: [module.2] is missing"),
        # Modules so far apart that the inertia overflows, and an offset no
        # float can hold: named errors, not warnings or a traceback.
        (f"[module.1]\n[module.2]\ngrid_col = {10**160}\n", "error: structure inertia is not finite"),
        (f"[module.1]\n[module.2]\ngrid_row = {-10**400}\n",
         "error: module.2: grid_offset entries must be finite integers"),
        # Module masses whose sum overflows to inf.
        ("[module.1]\nmass_kg = 1.7e308\n[module.2]\nmass_kg = 1.7e308\ngrid_col = 1\n",
         "error: structure total mass is not finite"),
    ]:
        bad.write_text(text)
        code, _, err = run_cli(["check", "--config", str(bad)], capsys)
        assert code == EXIT_VALIDATION, text
        assert message in err, text
        # One error line and nothing else: no warning text, no traceback.
        assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("text, dof", [
    ("[module.1]\nbeta_deg = 45\n[module.2]\nbeta_deg = -45\ngrid_col = 1\n", 5),
    # Rounded so that the three singular values tie in their last bits.
    ((CONFIG_DIR / "experiment3.cfg").read_text().replace("30", "54.7356103172453"), 6),
], ids=["pair_45", "block_atan_sqrt2"])
def test_check_tied_layout_reports_its_frame(text, dof, tmp_path, capsys):
    cfg = tmp_path / "tied.cfg"
    cfg.write_text(text)
    code, out, err = run_cli(["check", "--config", str(cfg)], capsys)
    assert code == EXIT_OK, err
    assert f"controllable DOF: {dof}" in out
    assert "F-frame: identity" in out


def test_check_half_turn_frame_reports_its_axis(tmp_path, capsys):
    # A thrust frame 180 degrees from the body frame has no skew part; its
    # axis comes from R + I, signed by its largest entry.
    cfg = tmp_path / "half_turn.cfg"
    cfg.write_text("[module.1]\nbeta_deg = 60\n\n"
                   "[module.2]\nalpha_deg = -90\nbeta_deg = 30\ngrid_col = 1\n"
                   "yaw_quarter_turns = 1\n\n"
                   "[module.3]\nbeta_deg = 90\ngrid_row = 1\nyaw_quarter_turns = 2\n")
    code, out, err = run_cli(["check", "--config", str(cfg)], capsys)
    assert code == EXIT_OK, err
    assert "F-frame: angle_deg=180.000000 axis=[ 0.763532934  0.000000000 -0.645768889]" in out


@pytest.mark.parametrize("command", ["check", "ellipsoid"])
def test_stdout_has_no_negative_zero(command, capsys):
    # Every fixture prints some component or singular value that rounds to
    # zero; one that rounded from below printed as -0.000000000.
    for path in sorted(CONFIG_DIR.glob("*.cfg")):
        code, out, _ = run_cli([command, "--config", str(path)], capsys)
        assert code == EXIT_OK, path.name
        assert "0.000000000" in out and "-0.000000000" not in out, path.name


@pytest.mark.parametrize("rest", ["[module.1]\n", "[module.1]\n\n[gains]\nk_pos = 12\n"])
def test_check_default_section_exits_validation(rest, tmp_path, capsys):
    path = tmp_path / "default.cfg"
    path.write_text("[DEFAULT]\nbeta_deg = 10\n\n" + rest)
    code, out, err = run_cli(["check", "--config", str(path)], capsys)
    assert code == EXIT_VALIDATION
    assert "[DEFAULT]" in err and "beta_deg" in err and not out


def test_check_missing_file_exits_validation(capsys):
    code, _, err = run_cli(["check", "--config", "/nonexistent/x.cfg"], capsys)
    assert code == EXIT_VALIDATION
    assert err


def test_ellipsoid_flat_single_direction(capsys, tmp_path):
    out_csv = tmp_path / "ellipse.csv"
    code, out, _ = run_cli(
        ["ellipsoid", "--config", str(CONFIG_DIR / "flat.cfg"), "--out", str(out_csv)],
        capsys,
    )
    assert code == EXIT_OK
    sigmas = [float(line.split("sigma=")[1].split()[0])
              for line in out.splitlines() if "sigma=" in line]
    assert sigmas[0] == pytest.approx(2.0, abs=1e-9)
    assert sigmas[1] == pytest.approx(0.0, abs=1e-9)
    rows = list(csv.reader(out_csv.read_text().splitlines()))
    assert rows[0] == ["x_n", "z_n"]
    assert len(rows) == 129


def test_ellipsoid_pair_elongated_along_z(capsys, tmp_path):
    out_csv = tmp_path / "ellipse.csv"
    code, _, _ = run_cli(
        ["ellipsoid", "--config", str(CONFIG_DIR / "experiment2.cfg"), "--out", str(out_csv)],
        capsys,
    )
    assert code == EXIT_OK
    data = np.loadtxt(out_csv, delimiter=",", skiprows=1)
    assert np.max(np.abs(data[:, 1])) > np.max(np.abs(data[:, 0]))


def test_ellipsoid_asymmetric_pair_tilts(capsys):
    code, out, _ = run_cli(
        ["ellipsoid", "--config", str(CONFIG_DIR / "tilted_pair.cfg")], capsys
    )
    assert code == EXIT_OK
    first_axis = [line for line in out.splitlines() if line.startswith("axis 1")][0]
    direction = [float(x) for x in first_axis.split("[")[1].rstrip("]").split()]
    # Strongest direction leans into x: clearly off the body z-axis.
    assert abs(direction[0]) > 0.1


def test_simulate_hover_writes_csv_and_summary(capsys, tmp_path):
    out_csv = tmp_path / "run.csv"
    code, out, _ = run_cli(
        ["simulate", "--config", str(CONFIG_DIR / "flat.cfg"), "--out", str(out_csv),
         "--duration", "2.0", "--dt", "0.002"],
        capsys,
    )
    assert code == EXIT_OK
    assert "rms_pos_err_m" in out and "saturation_fraction" in out
    rows = list(csv.reader(out_csv.read_text().splitlines()))
    header = rows[0]
    assert header[:11] == ["t_s", "x_m", "y_m", "z_m", "xd_m", "yd_m", "zd_m",
                           "yaw_rad", "pitch_rad", "roll_rad", "pos_err_m"]
    assert header[11:15] == ["u01_n", "u02_n", "u03_n", "u04_n"]
    assert header[-1] == "saturated"
    assert len(rows) == 1 + 1000
    # Hover from an aligned start: position error stays tiny.
    errs = [float(r[10]) for r in rows[1:]]
    assert max(errs) < 1e-6


def test_simulate_deterministic_output(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run_cli(
            ["simulate", "--config", str(CONFIG_DIR / "tilted_pair.cfg"),
             "--out", str(path), "--duration", "1.0"],
            capsys,
        )
        assert code == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def _reference_run_csv(result, structure, out_path):
    """The CSV writer that formats each numpy element; the reference for
    ``write_run_csv``."""
    fmt = "{:.17g}".format
    header = (
        ["t_s", "x_m", "y_m", "z_m", "xd_m", "yd_m", "zd_m",
         "yaw_rad", "pitch_rad", "roll_rad", "pos_err_m"]
        + [f"u{k + 1:02d}_n" for k in range(4 * structure.n)]
        + ["saturated"]
    )
    with open(out_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for k in range(result.t.size):
            writer.writerow(
                [fmt(result.t[k])]
                + [fmt(v) for v in result.pos[k]]
                + [fmt(v) for v in result.pos_des[k]]
                + [fmt(v) for v in result.euler_f[k]]
                + [fmt(result.pos_err[k])]
                + [fmt(v) for v in result.u[k]]
                + [int(result.saturated[k])]
            )


def test_run_csv_matches_reference_writer(tmp_path):
    for name in ("experiment1", "experiment2", "experiment3"):
        config = override_sim(parse_config((CONFIG_DIR / f"{name}.cfg").read_text()),
                              duration=0.2)
        structure = config.to_structure()
        result = run_closed_loop(structure, config.to_trajectory(), config.to_gains(),
                                 config.to_sim_params())
        # No fixture saturates this early, so a copy with alternating flags
        # writes both flag values.
        alternating = replace(result, saturated=np.arange(result.t.size) % 2 == 0)
        for run in (result, alternating):
            write_run_csv(run, structure, str(tmp_path / "got.csv"))
            _reference_run_csv(run, structure, tmp_path / "want.csv")
            got, want = (tmp_path / "got.csv").read_bytes(), (tmp_path / "want.csv").read_bytes()
            assert got == want, name


def test_simulate_rejects_bad_duration(capsys, tmp_path):
    code, _, err = run_cli(
        ["simulate", "--config", str(CONFIG_DIR / "flat.cfg"),
         "--out", str(tmp_path / "x.csv"), "--duration", "-3"],
        capsys,
    )
    assert code == EXIT_VALIDATION
    assert "duration" in err


def test_simulate_runtime_failure_exit_code(capsys, tmp_path):
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text(
        "[module.1]\n\n[gains]\nk_pos = 1000000\nk_ang = 0.000001\n"
        "[trajectory]\nkind = hover\nhover_z_m = 100000\n"
        "[sim]\ndt_s = 10\nduration_s = 1000\n"
    )
    code, _, err = run_cli(
        ["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")], capsys
    )
    assert code == EXIT_RUNTIME
    assert "t=" in err


@pytest.mark.parametrize(
    "flags, sim_section, field",
    [
        (["--duration", "0.0001"], "", "duration"),
        (["--duration", "nan"], "", "duration"),
        (["--duration", "inf"], "", "duration"),
        (["--dt", "inf"], "", "dt"),
        (["--dt", "nan"], "", "dt"),
        ([], "[sim]\ndt_s = 0.01\nduration_s = 0.001\n", "duration"),
    ],
)
def test_simulate_rejects_unusable_sim_params(flags, sim_section, field, capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[module.1]\n" + sim_section)
    out_csv = tmp_path / "x.csv"
    code, _, err = run_cli(
        ["simulate", "--config", str(cfg), "--out", str(out_csv)] + flags, capsys
    )
    assert code == EXIT_VALIDATION
    assert err.startswith("error:") and field in err
    assert not out_csv.exists()


@pytest.mark.parametrize("flags, sim_section", [
    (["--dt", "1e-300"], ""),
    ([], "[sim]\ndt_s = 1e-300\n"),
    (["--duration", "1e300", "--dt", "1e-300"], ""),
])
def test_simulate_names_a_step_count_it_cannot_store(flags, sim_section, capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[module.1]\n" + sim_section)
    out_csv = tmp_path / "x.csv"
    code, _, err = run_cli(
        ["simulate", "--config", str(cfg), "--out", str(out_csv)] + flags, capsys
    )
    assert code == EXIT_RUNTIME
    assert err.startswith("error: cannot store") and "steps of dt=1e-300 s" in err
    assert not out_csv.exists()


@pytest.mark.parametrize("kind", ["rectangle", "rectangle_fixed"])
def test_simulate_rejects_rectangle_speed_too_high(kind, capsys, tmp_path):
    # The rounded corners need the speed below 1.2 m/s; a faster lap is a
    # config error, reported before any CSV is written.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[module.1]\n\n[trajectory]\nkind = {kind}\nspeed_mps = 5\n")
    out_csv = tmp_path / "x.csv"
    code, _, err = run_cli(["simulate", "--config", str(cfg), "--out", str(out_csv)], capsys)
    assert code == EXIT_VALIDATION
    assert err.startswith("error: trajectory: speed must be below 1.2")
    assert not out_csv.exists()


# ---------------------------------------------------------------- exit-code contract
# Values every config key takes in turn: zero, negative, tiny and huge, plus
# the ends of the key's declared range. The step counts stay below 1e4 or
# above 1e200, so no variant makes numpy allocate a real run of that size.
_EXTREMES = ("0", "-1", "1e-300", "1e300")
# Grid offsets: one far enough that the parallel-axis inertia overflows, and
# one beyond float range.
_FAR_CELLS = (str(10**160), str(-10**400))
_RANGE_ENDS = {"alpha_deg": ("-90", "90"), "beta_deg": ("-90", "90"), "yaw_quarter_turns": ("3",),
               "kind": ("hover", "helix", "rectangle", "rectangle_fixed"),
               "grid_col": _FAR_CELLS, "grid_row": _FAR_CELLS}
_SIMULATED_SECTIONS = ("gains", "sim", "trajectory")


def _contract_variants():
    """(name, config text, simulate too) for each key of each fixture config
    set to each value; a module key goes to one seeded module section."""
    rng = np.random.default_rng(11)
    for path in sorted(CONFIG_DIR.glob("*.cfg")):
        original = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
        original.read_string(path.read_text())
        modules = [s for s in original.sections() if s.startswith("module.")]
        targets = [(modules[rng.integers(len(modules))], f.name) for f in fields(ModuleConfig)]
        targets += [(section, f.name) for section, cls in _SECTIONS.items() for f in fields(cls)]
        for section, key in targets:
            for value in _EXTREMES + _RANGE_ENDS.get(key, ()):
                parser = configparser.ConfigParser(interpolation=None)
                parser.read_dict(original)
                if not parser.has_section(section):
                    parser.add_section(section)
                parser[section][key] = (", ".join([value] * 3) if key == "inertia_diag_kgm2"
                                        else value)
                text = io.StringIO()
                parser.write(text)
                yield (f"{path.name} [{section}] {key} = {value}", text.getvalue(),
                       section in _SIMULATED_SECTIONS)


def test_no_config_value_escapes_the_exit_codes(capsys, tmp_path):
    # Whatever a config says, check and a short simulate return 0, 2 or 3
    # and raise nothing.
    cfg, out_csv = tmp_path / "variant.cfg", tmp_path / "run.csv"
    failures = []
    for name, text, simulate in _contract_variants():
        cfg.write_text(text)
        commands = [["check", "--config", str(cfg)]]
        if simulate:
            commands.append(["simulate", "--config", str(cfg), "--out", str(out_csv),
                             "--duration", "0.01"])
        for args in commands:
            try:
                code = main(args)
            except Exception as exc:  # noqa: BLE001 - any escape breaks the contract
                code = f"{type(exc).__name__}: {exc}"
            capsys.readouterr()
            if code not in (EXIT_OK, EXIT_VALIDATION, EXIT_RUNTIME):
                failures.append(f"{args[0]} {name}: {code}")
    assert not failures, "\n".join(failures)
