import csv

import numpy as np
import pytest

from modrotor.cli import EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, main
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
    bad.write_text("[module.1]\nmass_kg = -1\n")
    code, _, err = run_cli(["check", "--config", str(bad)], capsys)
    assert code == EXIT_VALIDATION
    assert "mass_kg" in err


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
    rows = list(csv.reader(out_csv.open()))
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
    rows = list(csv.reader(out_csv.open()))
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
