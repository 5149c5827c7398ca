"""Command-line interface: config handling, CSV contract, exit codes."""

import importlib
import json
import os
import re
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import galpha
from galpha import cli, integrate, l2_error, manufactured_heat, params_from_rho

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
README = PYPROJECT.with_name("README.md")
SPECTRUM_ARGS = ["spectrum", "--k", "1", "--rho", "1", "--theta-min", "1",
                 "--theta-max", "100", "--theta-points", "5"]


def run_cli(tmp_path, command, cfg=None, extra=()):
    argv = [command]
    if cfg is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        argv += ["--config", str(path)]
    argv += [str(a) for a in extra]
    return cli.main(argv)


def read_table(path):
    header, rows, footers = None, [], {}
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, val = line[2:].split(" = ", 1)
            footers[key] = val
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return header, rows, footers


def test_spectrum_csv_shape_and_limits(tmp_path):
    out = tmp_path / "curve.csv"
    code = run_cli(tmp_path, "spectrum", extra=[
        "--k", 2, "--rho", "0.8,0.2", "--theta-points", 50, "--out", out])
    assert code == 0
    header, rows, footers = read_table(out)
    assert header == ["theta", "rho_G", "lambda_abs_1", "lambda_abs_2",
                      "lambda_abs_3", "lambda_abs_4"]
    assert len(rows) == 50
    assert 0.999 <= float(footers["rho_G_at_theta_min"]) <= 1.0 + 1e-12
    assert abs(float(footers["rho_G_at_theta_max"]) - 0.8) <= 1e-5


def test_spectrum_high_frequency_residue(tmp_path):
    # full annihilation approaches zero only algebraically: (2 theta)^(-1/2)
    out = tmp_path / "curve.csv"
    assert run_cli(tmp_path, "spectrum", extra=["--k", 1, "--rho", 0, "--out", out]) == 0
    _, _, footers = read_table(out)
    assert float(footers["rho_G_at_theta_max"]) == pytest.approx(7.071067758832469e-05, rel=1e-9)


def test_spectrum_rejects_empty_grid(tmp_path, capsys):
    code = run_cli(tmp_path, "spectrum", extra=["--k", 1, "--rho", 0.5,
                                                "--theta-points", 0])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_spectrum_deterministic_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    cfg = {"k": 2, "rho": [0.8, 0.2], "theta_points": 40}
    assert run_cli(tmp_path, "spectrum", cfg=cfg, extra=["--out", a]) == 0
    assert run_cli(tmp_path, "spectrum", cfg=cfg, extra=["--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_flags_override_config(tmp_path):
    out = tmp_path / "curve.csv"
    cfg = {"k": 1, "rho": 1.0, "theta_points": 5}
    assert run_cli(tmp_path, "spectrum", cfg=cfg, extra=["--k", 2, "--out", out]) == 0
    header, rows, _ = read_table(out)
    assert len(header) == 2 + 4  # k = 2 from the flag wins
    assert len(rows) == 5


def test_config_must_be_json_object(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert cli.main(["spectrum", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err

    lst = tmp_path / "list.json"
    lst.write_text("[1, 2]")
    assert cli.main(["spectrum", "--config", str(lst)]) == 2


def test_missing_config_file(tmp_path, capsys):
    assert cli.main(["spectrum", "--config", str(tmp_path / "nope.json")]) == 2
    assert "config error" in capsys.readouterr().err


def test_stability_map_footers(tmp_path):
    out = tmp_path / "map.csv"
    code = run_cli(tmp_path, "stability-map", extra=[
        "--k", 1, "--rho", 0.5, "--re-min", 0, "--re-max", 10,
        "--im-min", -10, "--im-max", 10, "--resolution", 11, "--out", out])
    assert code == 0
    header, rows, footers = read_table(out)
    assert header == ["re", "im", "rho_G"]
    assert len(rows) == 121
    assert footers["a_stable"] == "true"
    assert footers["poles"] == "0"
    assert float(footers["max_rho_re_ge_0"]) <= 1.0 + 1e-9


def test_stability_map_degenerate_origin(tmp_path):
    out = tmp_path / "origin.csv"
    cfg = {"k": 2, "rho": 0.5, "re_min": 0, "re_max": 0,
           "im_min": 0, "im_max": 0, "resolution": 1}
    assert run_cli(tmp_path, "stability-map", cfg=cfg, extra=["--out", out]) == 0
    _, rows, _ = read_table(out)
    assert len(rows) == 1
    assert float(rows[0][2]) == pytest.approx(1.0, abs=1e-14)


def test_stability_map_reports_poles(tmp_path):
    out = tmp_path / "poles.csv"
    cfg = {"k": 1, "rho": 1.0, "re_min": -4, "re_max": 0,
           "im_min": 0, "im_max": 0, "resolution": [9, 1]}
    assert run_cli(tmp_path, "stability-map", cfg=cfg, extra=["--out", out]) == 0
    _, rows, footers = read_table(out)
    assert footers["poles"] == "1"
    nan_rows = [r for r in rows if r[2] == "nan"]
    assert len(nan_rows) == 1
    assert float(nan_rows[0][0]) == -2.0


def test_converge_scalar_frozen_run(tmp_path):
    out = tmp_path / "conM.csv"
    code = run_cli(tmp_path, "converge", extra=[
        "--k", 2, "--rho", 0.5, "--tau-max", 0.25, "--halvings", 4, "--out", out])
    assert code == 0
    header, rows, footers = read_table(out)
    assert header == ["tau", "error", "observed_order"]
    assert len(rows) == 5
    assert rows[0][2] == "nan"  # no previous point to compare against
    errs = [float(r[1]) for r in rows]
    assert errs[0] == pytest.approx(3.473148357345246e-04, rel=1e-12)
    assert errs[-1] == pytest.approx(7.8207195330914914e-08, rel=1e-12)
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert float(footers["fitted_slope"]) == pytest.approx(3.0270526105067694, rel=1e-12)
    assert footers["kept_points"] == "5"
    orders = [float(r[2]) for r in rows[1:]]
    assert all(abs(o - 3.0) <= 0.1 for o in orders)


def test_converge_heat_matches_library(tmp_path):
    out = tmp_path / "conH.csv"
    cfg = {"problem": "heat", "elements": 32, "k": 1, "rho": 0.5,
           "tau_max": 0.25, "halvings": 4}
    assert run_cli(tmp_path, "converge", cfg=cfg, extra=["--out", out]) == 0
    _, rows, _ = read_table(out)

    case = manufactured_heat("sin-decay")
    system = case.assemble(32)
    x = np.arange(1, 32) / 32.0
    prm = params_from_rho([0.5])
    for row in rows:
        tau = float(row[0])
        traj = integrate(system, case.u0(x), prm, tau, round(1.0 / tau))
        assert float(row[1]) == pytest.approx(l2_error(traj[-1].u, case, 1.0), rel=1e-12)


def test_converge_rejects_few_halvings(tmp_path, capsys):
    assert run_cli(tmp_path, "converge", extra=[
        "--k", 1, "--rho", 0.5, "--halvings", 3]) == 2
    assert "at least 4" in capsys.readouterr().err


def test_converge_rejects_nonintegral_final_time(tmp_path, capsys):
    assert run_cli(tmp_path, "converge", extra=[
        "--k", 1, "--rho", 0.5, "--T", 1.0, "--tau-max", 0.3]) == 2
    assert "integer multiple" in capsys.readouterr().err


def test_order_check_clean_slopes(tmp_path):
    out = tmp_path / "oc.csv"
    code = run_cli(tmp_path, "order-check", extra=[
        "--k-list", "1,2", "--rho", 0.5, "--out", out])
    assert code == 0
    header, rows, footers = read_table(out)
    assert header == ["k", "perturbed", "fitted_slope", "conditions_ok",
                      "max_condition_residual"]
    assert [r[0] for r in rows] == ["1", "2"]
    assert all(r[3] == "true" for r in rows)
    # slopes of the exact residual on ORDER_CHECK_TAUS, from a 60-digit evaluation
    assert float(rows[0][2]) == pytest.approx(2.993299660506695, rel=1e-9)
    assert float(rows[1][2]) == pytest.approx(5.986141685467558, rel=1e-9)
    assert "degraded" not in footers


def test_order_check_perturbation_degrades_slope(tmp_path):
    out = tmp_path / "ocp.csv"
    code = run_cli(tmp_path, "order-check", extra=[
        "--k-list", "1", "--rho", 0.5, "--perturb-gamma", 0.01, "--out", out])
    assert code == 0
    _, rows, footers = read_table(out)
    assert len(rows) == 2
    clean, pert = rows
    assert (clean[1], pert[1]) == ("0", "1")
    assert pert[3] == "false"
    assert float(pert[4]) == pytest.approx(0.01, rel=1e-9)
    assert 0.9 <= float(footers["slope_drop_k1"]) <= 1.2
    assert footers["degraded"] == "true"


def test_order_check_rejects_unsupported_k(tmp_path, capsys):
    assert run_cli(tmp_path, "order-check", extra=["--k-list", "0"]) == 2
    assert "k must be >= 1" in capsys.readouterr().err


def test_order_check_rejects_vector_rho(tmp_path, capsys):
    assert run_cli(tmp_path, "order-check", extra=[
        "--k-list", "2", "--rho", "0.8,0.2"]) == 2
    assert "scalar rho" in capsys.readouterr().err


def test_solve_scalar_trapezoid(tmp_path):
    out = tmp_path / "solve.csv"
    code = run_cli(tmp_path, "solve", extra=[
        "--k", 1, "--rho", 1, "--tau", 0.1, "--steps", 10, "--out", out])
    assert code == 0
    header, rows, footers = read_table(out)
    assert header == ["t", "dof", "value", "exact", "abs_error"]
    assert len(rows) == 11
    r = (1.0 - 0.05) / (1.0 + 0.05)
    for i, row in enumerate(rows):
        assert float(row[0]) == pytest.approx(0.1 * i, abs=1e-15)
        assert row[1] == "0"
        assert abs(float(row[2]) - r ** i) <= 1e-12
        assert float(row[3]) == pytest.approx(np.exp(-0.1 * i), rel=1e-15)
    assert float(footers["theta"]) == pytest.approx(0.1, rel=1e-15)
    # %.17g round-trips doubles exactly
    assert float(rows[1][2]) == pytest.approx(0.90476190476190477, rel=0, abs=0)


def test_solve_output_every(tmp_path):
    out = tmp_path / "every.csv"
    assert run_cli(tmp_path, "solve", extra=[
        "--k", 1, "--rho", 1, "--tau", 0.1, "--steps", 10,
        "--output-every", 5, "--out", out]) == 0
    _, rows, _ = read_table(out)
    assert [float(r[0]) for r in rows] == [0.0, 0.5, 1.0]


def test_solve_heat_rows_per_output_time(tmp_path):
    out = tmp_path / "heat.csv"
    cfg = {"problem": "heat", "elements": 8, "k": 2, "rho": 0.5,
           "tau": 0.25, "steps": 4, "output_every": 2}
    assert run_cli(tmp_path, "solve", cfg=cfg, extra=["--out", out]) == 0
    header, rows, footers = read_table(out)
    assert header == ["t", "dof", "x", "value", "exact", "abs_error"]
    assert len(rows) == 3 * 7  # three output times, seven interior dofs

    case = manufactured_heat("sin-decay")
    system = case.assemble(8)
    x = np.arange(1, 8) / 8.0
    traj = integrate(system, case.u0(x), params_from_rho([0.5, 0.5]), 0.25, 4)
    expected = l2_error(traj[-1].u, case, 1.0)
    assert float(footers["l2_error_final"]) == pytest.approx(expected, rel=1e-12)


def test_solve_reports_missing_forcing_order(tmp_path, capsys):
    cfg = {"problem": "heat", "elements": 8, "k": 2, "rho": 0.5,
           "tau": 0.25, "steps": 4, "m_max": 1}
    assert run_cli(tmp_path, "solve", cfg=cfg) == 2
    assert "m_max = 1" in capsys.readouterr().err


def test_solve_requires_tau_and_steps(tmp_path, capsys):
    assert run_cli(tmp_path, "solve", extra=["--k", 1, "--rho", 1]) == 2
    assert "required" in capsys.readouterr().err


def test_unknown_problem_rejected(tmp_path, capsys):
    cfg = {"problem": "wave", "k": 1, "rho": 0.5, "tau": 0.1, "steps": 2}
    assert run_cli(tmp_path, "solve", cfg=cfg) == 2
    assert "wave" in capsys.readouterr().err


def test_svg_requires_out(tmp_path, capsys):
    # refused before any work: no CSV on stdout either
    for command in ("spectrum", "stability-map", "converge"):
        assert run_cli(tmp_path, command, extra=["--k", 1, "--rho", 0.5, "--svg"]) == 2
        captured = capsys.readouterr()
        assert "--svg" in captured.err
        assert captured.out == ""


def test_svg_written_next_to_csv(tmp_path):
    out = tmp_path / "curve.csv"
    assert run_cli(tmp_path, "converge", extra=[
        "--k", 1, "--rho", 0.5, "--out", out, "--svg"]) == 0
    svg = tmp_path / "curve.svg"
    assert svg.exists()
    body = svg.read_text()
    assert body.startswith("<svg")
    assert "polyline" in body

    grid = tmp_path / "grid.csv"
    assert run_cli(tmp_path, "stability-map", extra=[
        "--k", 1, "--rho", 0.5, "--resolution", 5, "--out", grid, "--svg"]) == 0
    assert "<rect" in (tmp_path / "grid.svg").read_text()


def test_stdout_when_no_out_given(tmp_path, capsys):
    assert run_cli(tmp_path, "solve", extra=[
        "--k", 1, "--rho", 1, "--tau", 0.1, "--steps", 2]) == 0
    captured = capsys.readouterr().out
    assert captured.splitlines()[0] == "t,dof,value,exact,abs_error"


@pytest.mark.skipif(shutil.which("galpha") is None,
                    reason="galpha console script not on PATH; install the package to run it")
def test_console_script_installed(tmp_path):
    exe = shutil.which("galpha")
    out = tmp_path / "cli.csv"
    proc = subprocess.run(
        [exe, *SPECTRUM_ARGS, "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert out.exists()


def test_console_script_declaration_runs(tmp_path):
    # what an install would put on PATH, checked from the committed pyproject
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["galpha"]
    module, func = target.split(":")
    assert callable(getattr(importlib.import_module(module), func))
    out = tmp_path / "cli.csv"
    # the child imports the same galpha this test imported
    env = dict(os.environ)
    src = str(Path(galpha.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from %s import %s; sys.exit(%s())"
         % (module, func, func), *SPECTRUM_ARGS, "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


def test_order_check_one_grid_for_every_k(tmp_path):
    # one asymptotic grid gives the 3k law and a positive drop for every k
    out = tmp_path / "oc.csv"
    code = run_cli(tmp_path, "order-check", extra=[
        "--k-list", "1,2,3,4,5,6", "--rho", 0.5, "--perturb-gamma", 0.01, "--out", out])
    assert code == 0
    _, rows, footers = read_table(out)
    clean = [float(r[2]) for r in rows if r[1] == "0"]
    for k, slope in enumerate(clean, start=1):
        assert abs(slope - 3 * k) <= 0.2
    for k in range(1, 7):
        assert 0.8 <= float(footers["slope_drop_k%d" % k]) <= 1.5
    assert footers["degraded"] == "true"


@pytest.mark.parametrize("tau", ["nan", "inf"])
def test_solve_rejects_nonfinite_tau(tmp_path, capsys, tau):
    assert run_cli(tmp_path, "solve", extra=[
        "--k", 1, "--rho", 1, "--tau", tau, "--steps", 3]) == 2
    err = capsys.readouterr().err
    assert "tau must be positive" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("im_min", ["-1e3", "-1e-3"])
def test_negative_exponent_flag_value(tmp_path, im_min):
    out = tmp_path / "map.csv"
    assert run_cli(tmp_path, "stability-map", extra=[
        "--k", 2, "--rho", 1, "--im-min", im_min, "--im-max", 1,
        "--resolution", 5, "--out", out]) == 0
    _, rows, _ = read_table(out)
    assert float(rows[0][1]) == float(im_min)


def test_spectrum_rejects_infinite_theta_max(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    assert run_cli(tmp_path, "spectrum", extra=[
        "--k", 1, "--rho", 0.5, "--theta-max", "inf", "--theta-points", 3, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "theta range must be finite" in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_stability_map_rejects_nan_range(tmp_path, capsys):
    out = tmp_path / "map.csv"
    assert run_cli(tmp_path, "stability-map", extra=[
        "--k", 1, "--rho", 0.5, "--re-max", "nan", "--resolution", 3, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "re range must be finite" in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_stability_map_rejects_a_range_whose_width_overflows(tmp_path, capsys):
    out = tmp_path / "map.csv"
    assert run_cli(tmp_path, "stability-map", extra=[
        "--k", 2, "--rho", 0.5, "--re-min", "-1e308", "--re-max", "1e308", "--resolution", 3,
        "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "re range is too wide" in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_stability_map_without_right_half_plane_nodes_is_undetermined(tmp_path):
    out = tmp_path / "map.csv"
    assert run_cli(tmp_path, "stability-map", extra=[
        "--k", 1, "--rho", 0.5, "--re-min", -1, "--re-max", -0.5, "--resolution", 3,
        "--out", out]) == 0
    _, _, footers = read_table(out)
    assert footers["a_stable"] == "undetermined"
    assert footers["max_rho_re_ge_0"] == "nan"


def test_stability_map_certifies_rho_one_far_out(tmp_path):
    out = tmp_path / "map.csv"
    assert run_cli(tmp_path, "stability-map", extra=[
        "--k", 2, "--rho", 1, "--re-max", "1e10", "--im-min", -1, "--im-max", 1,
        "--resolution", 41, "--out", out]) == 0
    _, _, footers = read_table(out)
    assert footers["a_stable"] == "true"
    assert float(footers["max_rho_re_ge_0"]) <= 1.0 + 1e-9


def _modules_after(code):
    """Modules loaded by a fresh interpreter that imports this galpha and runs code."""
    env = dict(os.environ)
    src = str(Path(galpha.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, galpha.cli\n%s\nprint(' '.join(sys.modules))" % code],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_analysis_commands_do_not_import_scipy_linalg(tmp_path):
    # scipy.linalg's package init is most of the import time; the analysis
    # commands never factor, and the factoring ones bind LAPACK without it
    assert "scipy.linalg" not in _modules_after("")
    out = tmp_path / "out.csv"
    for argv in (
        SPECTRUM_ARGS,
        ["solve", "--k", "1", "--rho", "1", "--tau", "0.1", "--steps", "2"],
        ["converge", "--k", "2", "--rho", "0.5", "--problem", "heat", "--elements", "16"],
    ):
        loaded = _modules_after("assert galpha.cli.main(%r) == 0" % (argv + ["--out", str(out)],))
        assert "scipy.linalg" not in loaded, argv[0]
        assert "scipy.linalg._flapack" not in loaded, argv[0]


@pytest.mark.parametrize("u0", ["nan", "inf"])
def test_solve_rejects_nonfinite_u0(tmp_path, capsys, u0):
    out = tmp_path / "run.csv"
    assert run_cli(tmp_path, "solve", extra=[
        "--k", 1, "--rho", 1, "--tau", 0.1, "--steps", 2, "--u0", u0, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "U0 must be finite" in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "converge"])
@pytest.mark.parametrize("lam", ["nan", "inf"])
def test_nonfinite_lambda_theta_rejected(tmp_path, capsys, command, lam):
    extra = ["--k", 1, "--rho", 1, "--lambda-theta", lam]
    if command == "solve":
        extra += ["--tau", 0.1, "--steps", 2]
    assert run_cli(tmp_path, command, extra=extra) == 2
    err = capsys.readouterr().err
    assert "lambda_theta must be positive and finite" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["solve", "converge"])
@pytest.mark.parametrize("kappa", ["nan", "inf"])
def test_nonfinite_kappa_rejected(tmp_path, capsys, command, kappa):
    extra = ["--k", 1, "--rho", 1, "--problem", "heat", "--elements", 8, "--kappa", kappa]
    if command == "solve":
        extra += ["--tau", 0.1, "--steps", 2]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(tmp_path, command, extra=extra) == 2
    err = capsys.readouterr().err
    assert "kappa must be positive and finite" in err
    assert len(err.splitlines()) == 1


def test_converge_rejects_halvings_past_underflow(tmp_path, capsys):
    assert run_cli(tmp_path, "converge", extra=[
        "--k", 1, "--rho", 0.5, "--halvings", 2000]) == 2
    err = capsys.readouterr().err
    assert "underflows to zero" in err
    assert len(err.splitlines()) == 1


def test_converge_rejects_a_grid_past_the_step_budget(tmp_path, capsys):
    # about 2^42 steps at --halvings 40: rejected before any march, not run for days
    start = time.perf_counter()
    assert run_cli(tmp_path, "converge", extra=[
        "--k", 1, "--rho", 0.5, "--halvings", 40]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "steps over 41 tau values; the budget is %d" % cli.MAX_CONVERGE_STEPS in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command, extra", [
    ("solve", ["--k", 1, "--rho", 0.5, "--tau", "1e300", "--steps", 2]),
    ("converge", ["--k", 1, "--rho", 0.5, "--problem", "heat", "--tau-max", "1e300",
                  "--T", "1e300"]),
])
def test_march_that_overflows_exits_one_without_csv(tmp_path, capsys, command, extra):
    out = tmp_path / "out.csv"
    assert run_cli(tmp_path, command, extra=[*extra, "--out", out]) == 1
    err = capsys.readouterr().err
    assert "the march overflows" in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("tau_max", ["nan", "inf", "-0.5"])
def test_converge_rejects_bad_tau_max(tmp_path, capsys, tau_max):
    assert run_cli(tmp_path, "converge", extra=[
        "--k", 1, "--rho", 0.5, "--tau-max", tau_max]) == 2
    err = capsys.readouterr().err
    assert "tau_max must be positive and finite" in err
    assert len(err.splitlines()) == 1


def test_converge_rejects_tau_whose_top_power_overflows(tmp_path, capsys):
    assert run_cli(tmp_path, "converge", extra=[
        "--k", 2, "--rho", 0.5, "--T", "1e300", "--tau-max", "1e299"]) == 2
    err = capsys.readouterr().err
    assert "tau^3 overflows" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("eps", ["nan", "inf"])
def test_order_check_rejects_nonfinite_perturbation(tmp_path, capsys, eps):
    out = tmp_path / "oc.csv"
    assert run_cli(tmp_path, "order-check", extra=[
        "--k-list", "1", "--perturb-gamma", eps, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "perturb_gamma must be finite" in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_order_check_applies_a_negative_perturbation(tmp_path):
    out = tmp_path / "oc.csv"
    assert run_cli(tmp_path, "order-check", extra=[
        "--k-list", "1,2", "--perturb-gamma", "-1e-2", "--out", out]) == 0
    _, rows, footers = read_table(out)
    assert [r[1] for r in rows] == ["0", "1", "0", "1"]
    for k in (1, 2):
        assert 0.8 <= float(footers["slope_drop_k%d" % k]) <= 1.5
    assert footers["degraded"] == "true"


def _flags(cfg):
    """The flags that set what cfg sets: dashed keys, lists as comma text."""
    argv = []
    for key, val in cfg.items():
        argv += ["--" + key.replace("_", "-"),
                 ",".join(map(str, val)) if isinstance(val, list) else str(val)]
    return argv


def _map_cells(cfg):
    region = galpha.stability_region(
        params_from_rho([cfg["rho"]] * cfg["k"]), (cfg["re_min"], cfg["re_max"]),
        (cfg["im_min"], cfg["im_max"]), cfg["resolution"])
    return [(x, y, region.rho[i, j])
            for i, x in enumerate(region.re) for j, y in enumerate(region.im)]


def _heat_solve_cells(cfg):
    # one row per kept step and dof, as a per-dof loop writes them
    case = manufactured_heat("sin-decay")
    ne, tau, steps = cfg["elements"], cfg["tau"], cfg["steps"]
    system = case.assemble(ne)
    x = np.arange(1, ne) / float(ne)
    traj = integrate(system, case.u0(x), params_from_rho([cfg["rho"]] * cfg["k"]), tau, steps)
    cells = []
    for i, state in enumerate(traj):
        if i % cfg["output_every"] and i != steps:
            continue
        exact = case.u(x, i * tau)
        for d in range(system.n):
            val = float(state.u[d])
            cells.append((i * tau, d, x[d], val, float(exact[d]), abs(val - float(exact[d]))))
    return cells


@pytest.mark.parametrize("command, cfg, cells", [
    ("stability-map", {"k": 3, "rho": 0.0, "re_min": 0.0, "re_max": 100.0,
                       "im_min": -100.0, "im_max": 100.0, "resolution": 41}, _map_cells),
    # the pole at theta = -2: a nan cell
    ("stability-map", {"k": 1, "rho": 1.0, "re_min": -4.0, "re_max": 0.0,
                       "im_min": -1.0, "im_max": 1.0, "resolution": 9}, _map_cells),
    # three output times, the last one off the output_every grid
    ("solve", {"problem": "heat", "k": 2, "rho": 0.5, "elements": 8, "tau": 0.125,
               "steps": 6, "output_every": 4}, _heat_solve_cells),
], ids=["map", "map-pole", "solve-heat"])
def test_float_rows_match_cellwise_formatting(tmp_path, command, cfg, cells):
    # the chunked float writer gives the bytes of one _fmt call per cell
    out = tmp_path / "out.csv"
    assert run_cli(tmp_path, command, extra=[*_flags(cfg), "--out", out]) == 0
    expected = [",".join(cli._fmt(v) for v in row) for row in cells(cfg)]
    _, rows, _ = read_table(out)
    assert [",".join(row) for row in rows] == expected
    if command == "stability-map":
        assert any("nan" in line for line in expected) == (cfg["re_min"] < 0)
    else:
        assert len({row[0] for row in rows}) == 3


# per command: a base config, and for every key of its option table a value
# that differs from the default (case has one value only); a rho list matches
# the base k, and a k works with the base's scalar rho
PARITY = {
    "spectrum": ({"k": 2, "rho": 0.5, "theta_points": 5},
                 {"k": 3, "rho": [0.8, 0.2], "theta_min": 0.01, "theta_max": 1e4,
                  "theta_points": 7}),
    "stability-map": ({"k": 2, "rho": 0.5, "resolution": 5},
                      {"k": 1, "rho": [1.0, 0.2], "re_min": -1.5, "re_max": 3.0,
                       "im_min": -2.0, "im_max": 4.0, "resolution": [4, 3]}),
    "converge": ({"k": 2, "rho": 0.5, "tau_max": 0.25},
                 {"k": 1, "rho": [0.3, 0.6], "problem": "heat", "lambda_theta": 2.5,
                  "T": 0.5, "tau_max": 0.125, "halvings": 5, "elements": 16, "kappa": 0.5,
                  "case": "sin-decay"}),
    "order-check": ({"k_list": [1]},
                    {"k_list": [2, 1], "rho": 0.25, "perturb_gamma": 0.01}),
    "solve": ({"k": 2, "rho": 0.5, "tau": 0.25, "steps": 4},
              {"k": 1, "rho": [0.3, 0.6], "problem": "heat", "lambda_theta": 2.5,
               "tau": 0.125, "steps": 6, "output_every": 2, "elements": 8, "kappa": 0.5,
               "case": "sin-decay", "m_max": 5, "u0": -2.0}),
}
HEAT_KEYS = ("elements", "kappa", "case")


def test_parity_cases_cover_every_option():
    assert {cmd: set(values) for cmd, (_, values) in PARITY.items()} == \
        {cmd: {key for key, _, _ in table} for cmd, table in cli.OPTIONS.items()}


@pytest.mark.parametrize("command, key", [
    (command, key) for command, (_, values) in PARITY.items() for key in values])
def test_flag_and_config_give_the_same_csv(tmp_path, command, key):
    base, values = PARITY[command]
    if key in HEAT_KEYS:
        base = dict(base, problem="heat")
    by_flag, by_file = tmp_path / "flag.csv", tmp_path / "file.csv"
    assert run_cli(tmp_path, command, cfg=base,
                   extra=[*_flags({key: values[key]}), "--out", by_flag]) == 0
    assert run_cli(tmp_path, command, cfg=dict(base, **{key: values[key]}),
                   extra=["--out", by_file]) == 0
    assert by_flag.read_bytes() == by_file.read_bytes()


@pytest.mark.parametrize("command, cfg, extra, names", [
    ("spectrum", {"k": 2, "rho": 0.5, "thetamax": 5}, [], "'thetamax'"),
    ("spectrum", {"k": "abc", "rho": 0.5}, [], "k: "),
    ("spectrum", {"k": [2], "rho": 0.5}, [], "k: "),
    ("spectrum", {"k": 2, "rho": [0.5, "x"]}, [], "rho: "),
    ("order-check", {"k_list": 3}, [], "k_list: "),
    ("spectrum", {"k": 2, "rho": 0.5, "theta_points": 1.7}, [], "theta_points: "),
    ("order-check", None, ["--k", 3], "--k"),
    ("spectrum", None, ["--k", 2, "--rho", 0.5, "--theta", 5], "--theta"),
    ("stability-map", {"k": 1, "rho": 1, "resolution": [9]}, [], "resolution"),
    ("stability-map", {"k": 1, "rho": 1, "resolution": [3, 3, 3]}, [], "resolution"),
    ("stability-map", {"k": 1, "rho": 1, "resolution": 2.5}, [], "resolution: "),
    ("stability-map", {"k": 1, "rho": 1}, ["--resolution", "3,3,3"], "resolution"),
    ("spectrum", None, ["--k", 0, "--rho", 0.5], "k: stage count k must be >= 1, got 0"),
    ("order-check", None, ["--k-list", "1,0"], "k_list: stage count k must be >= 1, got 0"),
    ("solve", None, ["--k", 1, "--rho", 0.5, "--tau", 0.1, "--steps", -1],
     "n_steps must be >= 0, got -1"),
    ("order-check", None, ["--k-list", 1, "--svg"], "--svg"),
    ("spectrum", None, ["--k", 1, "--rho", 0.5, "--theta-points", 0],
     "theta_points must be >= 1, got 0"),
    ("spectrum", None, ["--k", 1, "--rho", 0.5, "--theta-points", 1, "--theta-min", 1,
                        "--theta-max", 2], "theta_points = 1 needs a degenerate range"),
], ids=["unknown-key", "k-text", "k-list", "rho-entry", "k_list-number", "fractional-count",
        "order-check-k-flag", "abbreviated-flag", "resolution-one", "resolution-three",
        "resolution-fraction", "resolution-three-flag", "k-zero", "k_list-zero",
        "negative-steps", "order-check-svg", "theta-points-zero", "theta-points-one"])
def test_bad_input_exits_two_with_one_line(tmp_path, capsys, command, cfg, extra, names):
    out = tmp_path / "out.csv"
    assert run_cli(tmp_path, command, cfg=cfg, extra=[*extra, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert names in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("command, extra", [
    ("solve", ["--tau", 0.1, "--steps", 1]),
    ("converge", []),
], ids=["solve", "converge"])
def test_k_86_ends_without_a_traceback(tmp_path, capsys, command, extra):
    # 2k - 1 = 171: the Taylor-shift entry 1/171! lies below the float range,
    # and the run must end in an exit code, not an exception
    code = run_cli(tmp_path, command, extra=["--k", 86, "--rho", 0.5, *extra,
                                             "--out", tmp_path / "out.csv"])
    assert code in (0, 2)
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith("config error: ")
        assert len(err.splitlines()) == 1
    else:
        assert err == ""


@pytest.mark.parametrize("command", sorted(cli.OPTIONS))
def test_help_lists_exactly_the_table_flags(capsys, command):
    # order-check reads no k, so it has no --k; it plots nothing, so it has no --svg
    with pytest.raises(SystemExit):
        cli.main([command, "--help"])
    flags = set(re.findall(r"--[\w-]+", capsys.readouterr().out))
    plots = {"--svg"} if command != "order-check" else set()
    assert flags == {"--help", "--config", "--out"} | plots | {
        "--" + key.replace("_", "-") for key, _, _ in cli.OPTIONS[command]}


def test_null_config_value_is_unset(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(tmp_path, "order-check", cfg={"k_list": [1], "perturb_gamma": None},
                   extra=["--out", a]) == 0
    assert run_cli(tmp_path, "order-check", cfg={"k_list": [1]}, extra=["--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert run_cli(tmp_path, "solve", cfg={"k": None, "rho": 1, "tau": 0.1, "steps": 2}) == 2
    assert "'k' is required" in capsys.readouterr().err


def test_readme_command_table_names_every_option():
    rows = {}
    for line in README.read_text().splitlines():
        m = re.match(r"\| `([a-z-]+)` \| [^|]* \| (.*) \|$", line)
        if m:
            rows[m.group(1)] = set(re.findall(r"`(\w+)`", m.group(2)))
    assert rows == {cmd: {key for key, _, _ in table} for cmd, table in cli.OPTIONS.items()}
