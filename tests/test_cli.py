import configparser
import csv
import hashlib
import importlib
import io
import re
import sys
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

import modrotor
from modrotor import (actuation_ellipsoid, check_balanced, numerical_rank, parse_config,
                      run_closed_loop)
from modrotor.config import _SECTIONS, ModuleConfig
from modrotor.dynamics import RigidState
from modrotor.cli import EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, _fixed, main, write_run_csv
from modrotor.sim import RunResult
from modrotor.so3 import rotation_angle
from modrotor.structure import ellipsoid_xz_polygon
from conftest import CONFIG_DIR, ROOT, make_quad_tilt, make_tilt10
from test_layout_properties import _draw_cells


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


def test_check_reports_unbalanced_modules_and_exits_validation(monkeypatch, capsys):
    # A config can describe only shared-tilt modules, which balance; with
    # the balance check reporting otherwise, check marks each module
    # UNBALANCED, prints the rest of its report unchanged and exits 2.
    args = ["check", "--config", str(CONFIG_DIR / "experiment2.cfg")]
    _, balanced, _ = run_cli(args, capsys)
    real = modrotor.cli.check_balanced
    monkeypatch.setattr(modrotor.cli, "check_balanced",
                        lambda module: replace(real(module), is_balanced=False))
    code, out, err = run_cli(args, capsys)
    assert code == EXIT_VALIDATION
    assert balanced.count(": balanced ") == 2
    assert out == balanced.replace(": balanced ", ": UNBALANCED ")
    assert err == "error: structure contains unbalanced modules\n"


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


@pytest.mark.parametrize("text, message", [
    ("[module.1]\nk_f = 1\n", "module.1: unknown key(s) ['k_f']"),
    ("[module.1]\n[trajectory]\nkind = rectangle_fixed\n",
     "trajectory: kind must be one of ('hover', 'helix', 'rectangle'), got 'rectangle_fixed'"),
], ids=["k_f", "rectangle_fixed"])
@pytest.mark.parametrize("command", ["check", "ellipsoid", "simulate"])
def test_dropped_inputs_exit_validation(command, text, message, tmp_path, capsys):
    # k_m alone sets a rotor's drag, and the level rectangle is kind
    # rectangle at its default pitch: the key and the kind that repeated
    # them are config errors like any unknown one.
    cfg = tmp_path / "dropped.cfg"
    cfg.write_text(text)
    args = [command, "--config", str(cfg)]
    if command == "simulate":
        args += ["--out", str(tmp_path / "run.csv"), "--duration", "0.01"]
    code, out, err = run_cli(args, capsys)
    assert code == EXIT_VALIDATION and not out
    assert err == f"error: {message}\n"
    assert not (tmp_path / "run.csv").exists()


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


# ---------------------------------------------------------------- report oracle
# The numpy-formatting reference for check and ellipsoid: every value
# formatted as the numpy scalar it is read as, the residuals reduced and the
# frame angle converted by numpy. The CLI formats floats; no digit may move.


def _numpy_vec(v) -> str:
    return "[" + " ".join(_fixed(x, " ") for x in v) + "]"


def _numpy_frame(r_sf) -> str:
    angle = np.degrees(rotation_angle(r_sf))
    if angle < 1e-9:
        return "identity"
    skew = 0.5 * (r_sf - r_sf.T)
    axis = np.array([skew[2, 1], skew[0, 2], skew[1, 0]])
    norm = np.linalg.norm(axis)
    if norm > 1e-12:
        axis = axis / norm
    else:
        sym = r_sf + np.eye(3)
        axis = sym[:, np.argmax(np.linalg.norm(sym, axis=0))]
        axis = axis * np.sign(axis[np.argmax(np.abs(axis))]) / np.linalg.norm(axis)
    return f"angle_deg={angle:.6f} axis={_numpy_vec(axis)}"


def _numpy_check_stdout(text: str) -> str:
    structure = parse_config(text).to_structure()
    lines = []
    for idx, placement in enumerate(structure.placements, start=1):
        report = check_balanced(placement.module)
        status = "balanced" if report.is_balanced else "UNBALANCED"
        lines.append(
            f"module.{idx}: {status} thrust_gain={report.thrust_gain:.9f} "
            f"axis={_numpy_vec(report.total_force_axis)} "
            f"torque_residuals=({np.max(np.abs(report.torque_from_forces)):.3e}, "
            f"{np.max(np.abs(report.torque_from_drag)):.3e})")
    lines += [f"modules: {structure.n}  total_mass_kg: {structure.total_mass:.6f}",
              f"rank(A) = {numerical_rank(structure.thrust_map)}",
              f"force-block rank = {structure.rank_f}",
              f"controllable DOF: {3 + structure.rank_f}",
              f"force singular values: {_numpy_vec(structure.force_sigmas)}",
              f"F-frame: {_numpy_frame(structure.r_sf)}"]
    lines += [f"    {_numpy_vec(row)}" for row in structure.r_sf]
    return "".join(line + "\n" for line in lines)


def _numpy_ellipsoid_stdout(text: str) -> str:
    sigmas, axes = actuation_ellipsoid(parse_config(text).to_structure())
    lines = [f"force singular values: {_numpy_vec(sigmas)}"]
    lines += [f"axis {i + 1}: sigma={_fixed(sigmas[i])} direction={_numpy_vec(axes[:, i])}"
              for i in range(3)]
    return "".join(line + "\n" for line in lines)


def _random_layout_text(rng) -> str:
    """1-6 docked modules of one base length, each with roll and pitch tilts
    from 0, +-10 and +-30 degrees and a random quarter turn. Some bases and
    tilts leave a torque residual of a few 1e-18 N*m, of either sign."""
    tilts = (-30, -10, 0, 10, 30)
    base = (0.1, 0.12, 0.13, 0.2, 0.25)[rng.integers(5)]
    return "".join(
        f"[module.{idx}]\nbase_m = {base}\nalpha_deg = {tilts[rng.integers(5)]}\n"
        f"beta_deg = {tilts[rng.integers(5)]}\ngrid_col = {col}\ngrid_row = {row}\n"
        f"yaw_quarter_turns = {rng.integers(4)}\n\n"
        for idx, (col, row) in enumerate(_draw_cells(rng, int(rng.integers(1, 7))), start=1))


def _report_texts():
    yield from (path.read_text() for path in sorted(CONFIG_DIR.glob("*.cfg")))
    rng = np.random.default_rng(23)
    yield from (_random_layout_text(rng) for _ in range(100))


@pytest.mark.parametrize("command, oracle", [("check", _numpy_check_stdout),
                                             ("ellipsoid", _numpy_ellipsoid_stdout)],
                         ids=["check", "ellipsoid"])
def test_report_matches_numpy_formatting_oracle(command, oracle, tmp_path, capsys):
    cfg = tmp_path / "layout.cfg"
    frames, residuals = set(), set()
    for text in _report_texts():
        cfg.write_text(text)
        code, out, err = run_cli([command, "--config", str(cfg)], capsys)
        assert code == EXIT_OK, (text, err)
        assert out == oracle(text), text
        frames.add(out.split("F-frame: ")[-1].split()[0])
        residuals.update(line.split("torque_residuals=")[1] for line in out.splitlines()
                         if line.startswith("module."))
    if command == "check":  # the draw reaches turned frames and nonzero residuals
        assert "identity" in frames and len(frames) > 10, frames
        assert len(residuals) > 1, residuals


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


@pytest.mark.parametrize("command", ["check", "ellipsoid", "simulate"])
@pytest.mark.parametrize("data, offset, byte", [
    (b"[module.1]\nmass_kg = 0.1\xff\n", 24, "0xff"),
    # The offset counts bytes of the file, CRLF line ends and all.
    (b"[module.1]\r\nbeta_deg = 10\r\n# \xc3\xa9 \xe9t\xe9\n", 32, "0xe9"),
], ids=["invalid_start", "invalid_continuation"])
def test_config_that_is_not_utf8_exits_validation(command, data, offset, byte, tmp_path,
                                                   capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(data)
    args = [command, "--config", str(cfg)]
    if command == "simulate":
        args += ["--out", str(tmp_path / "run.csv"), "--duration", "0.01"]
    code, out, err = run_cli(args, capsys)
    assert code == EXIT_VALIDATION and not out
    assert err.startswith(f"error: {cfg}: not UTF-8 text: byte {byte} at offset {offset} (")
    assert err.count("\n") == 1, err
    assert not (tmp_path / "run.csv").exists()


@pytest.mark.parametrize("command", ["check", "ellipsoid", "simulate"])
def test_config_with_a_leading_byte_order_mark_reads_as_without(command, tmp_path, capsys):
    # Some Windows editors save UTF-8 text behind a byte-order mark.
    text = (CONFIG_DIR / "tilted_pair.cfg").read_bytes()
    results = []
    for name, data in (("plain.cfg", text), ("marked.cfg", b"\xef\xbb\xbf" + text)):
        cfg, out_csv = tmp_path / name, tmp_path / "out.csv"
        cfg.write_bytes(data)
        args = [command, "--config", str(cfg)]
        if command != "check":
            args += ["--out", str(out_csv)]
        if command == "simulate":
            args += ["--duration", "0.01"]
        code, out, err = run_cli(args, capsys)
        results.append((code, out, err, out_csv.read_bytes() if out_csv.exists() else None))
        out_csv.unlink(missing_ok=True)
    assert results[0][0] == EXIT_OK and results[1] == results[0]


@pytest.mark.parametrize("data, message", [
    (b"\xef\xbb\xbf\xef\xbb\xbf[module.1]\n",
     "syntax error: line 1: '\\ufeff[module.1]' comes before any [section] header"),
    (b"[module.1]\n\xef\xbb\xbf[sim]\n",
     "syntax error: line 2: '\\ufeff[sim]' is not 'key = value' or 'key: value'"),
    (b"[module.1]\n\xef\xbb\xbfmass_kg = 0.2\n", "module.1: unknown key(s) ['\\ufeffmass_kg']"),
], ids=["second_leading_mark", "mark_before_a_section", "mark_before_a_key"])
def test_byte_order_mark_anywhere_else_is_config_text(data, message, tmp_path, capsys):
    # Only one leading mark is dropped; any other is text the grammar rejects.
    cfg = tmp_path / "marked.cfg"
    cfg.write_bytes(data)
    code, out, err = run_cli(["check", "--config", str(cfg)], capsys)
    assert (code, out, err) == (EXIT_VALIDATION, "", f"error: {message}\n")


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


def test_output_digest_is_reproducible(monkeypatch):
    # tools/output_digest.py compares two checkouts' outputs; each run of a
    # group writes in a fresh temporary directory, and none of its digests,
    # command output, run CSV and in-process RunResult, may depend on that
    # directory or on an earlier run.
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    output_digest = importlib.import_module("output_digest")
    digests = output_digest.config_digest(CONFIG_DIR / "flat.cfg")
    assert len(digests) == 3 and len(set(digests)) == 3
    assert output_digest.config_digest(CONFIG_DIR / "flat.cfg") == digests


def test_output_digest_names_the_blas_core_first(monkeypatch, capsys):
    # Two digests compare only under one BLAS core, so the first line names
    # the core numpy's OpenBLAS runs, or says "unknown" when numpy carries
    # no such library or it has no core-name symbol.
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    output_digest = importlib.import_module("output_digest")
    monkeypatch.setattr(sys, "argv", ["output_digest.py"])
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(output_digest, "config_digest", lambda path: ("a", "b", "c"))
    monkeypatch.setattr(output_digest, "sweep_digest", lambda: "d")
    monkeypatch.setattr(output_digest, "contract_digests", dict)
    assert output_digest.main() == 0
    first, second = capsys.readouterr().out.splitlines()[:2]
    assert re.fullmatch(r"blas-core \w+", first) and first == f"blas-core {output_digest.blas_core()}"
    assert second.endswith(".cfg a")

    def no_library(path):
        raise OSError(f"{path}: cannot open shared object file")

    for loader in (no_library, lambda path: object()):
        monkeypatch.setattr(output_digest.ctypes, "CDLL", loader)
        assert output_digest.blas_core() == "unknown"


def test_output_digest_sees_every_run_result_bit(monkeypatch):
    # The run-result digest covers what the run CSV and the summary leave
    # out: one ulp of one att_err entry or of the final state moves it.
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    output_digest = importlib.import_module("output_digest")
    text = (CONFIG_DIR / "flat.cfg").read_text(encoding="utf-8") + "[sim]\nduration_s = 0.01\n"
    fly = modrotor.run_closed_loop

    def digest_with(change):
        monkeypatch.setattr(modrotor, "run_closed_loop",
                            lambda *args, **kwargs: change(fly(*args, **kwargs)))
        digest = hashlib.sha256()
        output_digest._add_run_result(digest, text)
        return digest.hexdigest()

    def nudge_att_err(result):
        att_err = result.att_err.copy()
        att_err[3] = np.nextafter(att_err[3], 1.0)
        return replace(result, att_err=att_err)

    def nudge_final_state(result):
        state = result.final_state
        return replace(result, final_state=replace(state, omega=np.nextafter(state.omega, 1.0)))

    same = digest_with(lambda result: result)
    assert digest_with(lambda result: result) == same
    assert digest_with(nudge_att_err) != same
    assert digest_with(nudge_final_state) != same


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


def _reference_polygon_csv(polygon, out_path):
    """The CSV writer that formats each numpy element; the reference for
    ``ellipsoid --out``."""
    with open(out_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["x_n", "z_n"])
        for x, z in polygon:
            writer.writerow([format(x, ".17g"), format(z, ".17g")])


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.cfg")), ids=lambda path: path.stem)
def test_polygon_csv_matches_reference_writer(path, tmp_path, capsys):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    code, _, err = run_cli(["ellipsoid", "--config", str(path), "--out", str(got)], capsys)
    assert code == EXIT_OK, err
    _reference_polygon_csv(ellipsoid_xz_polygon(parse_config(path.read_text()).to_structure()),
                           want)
    assert got.read_bytes() == want.read_bytes()


def test_run_csv_matches_reference_writer(tmp_path):
    for name in ("experiment1", "experiment2", "experiment3"):
        config = parse_config((CONFIG_DIR / f"{name}.cfg").read_text())
        config = replace(config, sim=replace(config.sim, duration_s=0.2))
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


def test_run_csv_rejects_a_structure_of_another_rotor_count(tmp_path):
    runs = {}
    for name in ("experiment1", "experiment2"):
        config = parse_config((CONFIG_DIR / f"{name}.cfg").read_text())
        config = replace(config, sim=replace(config.sim, duration_s=0.02))
        structure = config.to_structure()
        runs[name] = (run_closed_loop(structure, config.to_trajectory(), config.to_gains(),
                                      config.to_sim_params()), structure)
    out = tmp_path / "run.csv"
    out.write_bytes(b"kept\r\n")
    for run_of, structure_of, rotors, got in (("experiment2", "experiment1", 8, 4),
                                              ("experiment1", "experiment2", 4, 8)):
        message = (f"structure must have {rotors} rotors, one per thrust column of "
                   f"result.u, got {got}")
        with pytest.raises(ValueError) as info:
            write_run_csv(runs[run_of][0], runs[structure_of][1], str(out))
        assert str(info.value) == message
        assert out.read_bytes() == b"kept\r\n"


def _seeded_run(steps, n_modules, seed=0):
    """A caller-built RunResult of ``steps`` rows of seeded floats, spread
    over 1e-9..1e9 in magnitude with some signed zeros, and random flags."""
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(steps, 12 + 4 * n_modules)) * 10.0 ** rng.integers(-9, 10, (steps, 1))
    rows[rng.random(rows.shape) < 0.02] = -0.0
    state = RigidState(r=np.zeros(3), v=np.zeros(3), r_ws=np.eye(3), omega=np.zeros(3))
    return RunResult(t=rows[:, 0], pos=rows[:, 1:4], pos_des=rows[:, 4:7], euler_f=rows[:, 7:10],
                     pos_err=rows[:, 10], att_err=rows[:, 11], u=rows[:, 12:],
                     saturated=rng.random(steps) < 0.3, final_state=state)


@pytest.mark.parametrize("steps", [1023, 1024, 1025, 2049])
@pytest.mark.parametrize("make_structure", [make_tilt10, make_quad_tilt],
                         ids=["one_module", "four_modules"])
def test_run_csv_matches_reference_writer_across_row_blocks(steps, make_structure, tmp_path):
    # The writer turns rows into floats 1024 at a time: each row is written
    # once, in order, with its own flag, on both sides of each block edge.
    structure = make_structure()
    run = _seeded_run(steps, structure.n, seed=steps)
    write_run_csv(run, structure, str(tmp_path / "got.csv"))
    _reference_run_csv(run, structure, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("short", ["u", "saturated"])
def test_run_csv_rejects_columns_of_different_lengths(short, tmp_path):
    # Such a result cannot be built, so no writer meets one: zip or the row
    # ends would write only the shortest column's rows.
    structure = make_tilt10()
    run = _seeded_run(10, 1)
    out = tmp_path / "run.csv"
    out.write_bytes(b"kept\r\n")
    lengths = ", ".join(f"{name}={4 if name == short else 10}" for name in
                        ("t", "pos", "pos_des", "euler_f", "pos_err", "att_err", "u", "saturated"))
    with pytest.raises(ValueError) as info:
        write_run_csv(replace(run, **{short: getattr(run, short)[:4]}), structure, str(out))
    assert str(info.value) == f"result columns must each hold one row per step, got lengths {lengths}"
    assert out.read_bytes() == b"kept\r\n"


@pytest.mark.parametrize("flag, shown", [(0.5, "0.5"), (2, "2"), (np.nan, "nan"), ("a", "'a'")])
def test_run_result_rejects_flags_other_than_0_and_1(flag, shown, tmp_path):
    # Built directly or by replace, the result raises at construction, so
    # the writer never opens out_path for it.
    run = _seeded_run(10, 1)
    saturated = [False] * 3 + [flag] + [True] * 6
    message = f"saturated must hold only 0/1 flags, got {shown} at entry 3"
    with pytest.raises(ValueError) as info:
        RunResult(**{**vars(run), "saturated": saturated})
    assert str(info.value) == message
    out = tmp_path / "run.csv"
    out.write_bytes(b"kept\r\n")
    with pytest.raises(ValueError) as info:
        write_run_csv(replace(run, saturated=np.array(saturated, dtype=object)), make_tilt10(),
                      str(out))
    assert str(info.value) == message
    assert out.read_bytes() == b"kept\r\n"


@pytest.mark.parametrize("column, cut, want, got", [
    ("pos", np.s_[:, :2], "(rows, 3)", "(10, 2)"),
    ("pos_des", np.s_[:, 0], "(rows, 3)", "(10,)"),
    ("euler_f", np.s_[:, :, None], "(rows, 3)", "(10, 3, 1)"),
    ("u", np.s_[:, 0], "(rows, 4k), k >= 1", "(10,)"),
    ("u", np.s_[:, :0], "(rows, 4k), k >= 1", "(10, 0)"),
    ("u", np.s_[:, :3], "(rows, 4k), k >= 1", "(10, 3)"),
    ("t", np.s_[:, None], "(rows,)", "(10, 1)"),
    ("pos_err", np.s_[:, None], "(rows,)", "(10, 1)"),
    ("att_err", np.s_[:, None], "(rows,)", "(10, 1)"),
    ("saturated", np.s_[:, None], "(rows,)", "(10, 1)"),
])
def test_run_result_rejects_columns_of_another_width(column, cut, want, got, tmp_path):
    # Rows of the right count but not of the column's width raise when the
    # result is built, by a direct build or a replace, so the writer never
    # meets them: not an IndexError, and no row shorter than the header.
    run = _seeded_run(10, 1)
    value = getattr(run, column)[cut]
    message = f"{column} must have shape {want}, got {got}"
    with pytest.raises(ValueError) as info:
        RunResult(**{**vars(run), column: value})
    assert str(info.value) == message
    out = tmp_path / "run.csv"
    out.write_bytes(b"kept\r\n")
    with pytest.raises(ValueError) as info:
        write_run_csv(replace(run, **{column: value}), make_tilt10(), str(out))
    assert str(info.value) == message
    assert out.read_bytes() == b"kept\r\n"


def test_run_csv_writes_lists_of_rows_as_their_arrays(tmp_path):
    # A caller's columns given as nested lists are the same record as the
    # arrays they hold, and write the same bytes.
    structure, run = make_quad_tilt(), _seeded_run(10, 4)
    write_run_csv(run, structure, str(tmp_path / "array.csv"))
    as_lists = {f.name: getattr(run, f.name).tolist() for f in fields(run)[:-1]}
    write_run_csv(RunResult(**as_lists, final_state=run.final_state), structure,
                  str(tmp_path / "list.csv"))
    assert (tmp_path / "list.csv").read_bytes() == (tmp_path / "array.csv").read_bytes()


@pytest.mark.parametrize("column, make, message", [
    ("u", lambda run: run.u.astype(str), r"u must hold numbers, got dtype <U\d+"),
    ("pos", lambda run: [[1.0, 2.0, 3.0], [1.0, 2.0], *run.pos[2:].tolist()],
     "pos must hold rows of equal length"),
    ("att_err", lambda run: [None] * 10, "att_err must hold numbers, got dtype object"),
])
def test_run_result_rejects_columns_that_are_not_numbers(column, make, message, tmp_path):
    # Text and ragged rows raise a ValueError naming the column when the
    # result is built, directly or by replace, so the writer never truncates
    # out_path for them.
    run = _seeded_run(10, 1)
    with pytest.raises(ValueError, match=rf"^{message}$"):
        RunResult(**{**vars(run), column: make(run)})
    out = tmp_path / "run.csv"
    out.write_bytes(b"kept\r\n")
    with pytest.raises(ValueError, match=rf"^{message}$"):
        write_run_csv(replace(run, **{column: make(run)}), make_tilt10(), str(out))
    assert out.read_bytes() == b"kept\r\n"


def test_run_result_summaries_read_list_columns_as_arrays():
    # Columns given as lists are converted once, so the summaries read the
    # same floats they read from the arrays.
    run = replace(_seeded_run(10, 1), t=np.arange(10) * 0.1)
    as_lists = RunResult(**{f.name: getattr(run, f.name).tolist() for f in fields(run)[:-1]},
                         final_state=run.final_state)
    for summary, args in (("rms_pos_err", ()), ("rms_pos_err", (0.35,)), ("max_pos_err", ()),
                          ("max_pos_err", (0.35,)), ("saturation_fraction", ()),
                          ("final_att_err", ())):
        assert getattr(as_lists, summary)(*args) == getattr(run, summary)(*args), summary


def test_run_result_keeps_float64_columns_without_a_copy():
    # A flight's columns are float64 views of one table and bool flags; the
    # result keeps them as given, so building it costs no memory. Flags of
    # another type become bools.
    run, rows = _seeded_run(10, 1), np.zeros((10, 16))
    columns = dict(t=rows[:, 0], pos=rows[:, 1:4], pos_des=rows[:, 4:7], euler_f=rows[:, 7:10],
                   pos_err=rows[:, 10], att_err=rows[:, 11], u=rows[:, 12:])
    kept = RunResult(**{**vars(run), **columns})
    for name, column in columns.items():
        assert getattr(kept, name) is column and np.shares_memory(getattr(kept, name), rows), name
    flags = np.array(run.saturated)
    assert RunResult(**{**vars(run), "saturated": flags}).saturated is flags
    as_ints = RunResult(**{**vars(run), "saturated": flags.astype(int)}).saturated
    assert as_ints.dtype == bool and np.array_equal(as_ints, flags)


def test_run_csv_writes_any_form_of_0_1_flags_alike(tmp_path):
    # Flags given as bools, ints or floats are one record, written alike.
    structure, run = make_tilt10(), _seeded_run(10, 1)
    written = set()
    for flags in (run.saturated, run.saturated.astype(int), run.saturated.astype(float),
                  run.saturated.tolist()):
        write_run_csv(replace(run, saturated=flags), structure, str(tmp_path / "run.csv"))
        written.add((tmp_path / "run.csv").read_bytes())
    assert len(written) == 1


def test_run_csv_memory_does_not_grow_with_the_run(tmp_path):
    # 15,000 rows of 16 thrusts: the float table itself is 3.2 MB; Python
    # floats of every row at once would be about 17 MB.
    structure = make_quad_tilt()
    run = _seeded_run(15_000, structure.n)
    tracemalloc.start()
    try:
        write_run_csv(run, structure, str(tmp_path / "run.csv"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6e6, peak


def test_simulate_rejects_bad_duration(capsys, tmp_path):
    code, _, err = run_cli(
        ["simulate", "--config", str(CONFIG_DIR / "flat.cfg"),
         "--out", str(tmp_path / "x.csv"), "--duration", "-3"],
        capsys,
    )
    assert code == EXIT_VALIDATION
    assert "duration" in err


@pytest.mark.parametrize("flags, message", [
    (["--dt", "0"], "sim: dt_s must be positive and finite, got 0.0"),
    (["--dt", "nan"], "sim: dt_s must be positive and finite, got nan"),
    (["--duration", "-3"], "sim: duration_s must be positive and finite, got -3.0"),
    (["--duration", "inf", "--dt", "0.01"], "sim: duration_s must be positive and finite, got inf"),
])
def test_simulate_overrides_take_their_keys_rule(flags, message, capsys, tmp_path):
    # --dt and --duration set [sim] dt_s and duration_s, and a rejected one
    # is named by its key, as in text, before anything is flown or written.
    out_csv = tmp_path / "x.csv"
    code, out, err = run_cli(["simulate", "--config", str(CONFIG_DIR / "flat.cfg"),
                              "--out", str(out_csv), *flags], capsys)
    assert (code, out, err) == (EXIT_VALIDATION, "", f"error: {message}\n")
    assert not out_csv.exists()


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


def test_simulate_rejects_rectangle_speed_too_high(capsys, tmp_path):
    # The rounded corners need the speed below 1.2 m/s; a faster lap is a
    # config error, reported before any CSV is written.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[module.1]\n\n[trajectory]\nkind = rectangle\nspeed_mps = 5\n")
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
               "kind": ("hover", "helix", "rectangle"),
               "grid_col": _FAR_CELLS, "grid_row": _FAR_CELLS}
_SIMULATED_SECTIONS = ("gains", "sim", "trajectory")


def _contract_variants():
    """(name, config text, simulate too) for each key of each fixture config
    set to each value; a module key goes to one module section drawn by a
    seed of the config's and the key's names, so adding or dropping a key
    moves no other key's section."""
    for path in sorted(CONFIG_DIR.glob("*.cfg")):
        original = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
        original.read_string(path.read_text())
        modules = [s for s in original.sections() if s.startswith("module.")]
        targets = [(modules[np.random.default_rng(list(f"{path.name} {f.name}".encode()))
                            .integers(len(modules))], f.name) for f in fields(ModuleConfig)]
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
