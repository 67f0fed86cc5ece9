"""Command-line surface: exit codes, determinism, config round trips."""

import json
import warnings

import numpy as np
import pytest

from biharm4.cli import (
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_TOLERANCE,
    EXIT_USAGE,
    RunConfig,
    main,
)


def run(args):
    return main(args)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_pass_and_fail_exit_codes(tmp_path):
    out = tmp_path / "r.json"
    assert run(["verify", "--family", "inverse_radius", "--equation", "eq4d",
                "--out", str(out)]) == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["verdict"] == "pass"
    assert rep["equation"] == "yamabe"
    assert rep["sup"] < 1e-6

    # a wrong Einstein constant pushes the residual above tolerance
    assert run(["verify", "--family", "inverse_radius", "--equation", "eq4d",
                "--a", "1", "--out", str(out)]) == EXIT_TOLERANCE
    assert json.loads(out.read_text())["verdict"] == "fail"


def test_verify_bubble_biharmonic(tmp_path):
    out = tmp_path / "r.json"
    assert run(["verify", "--family", "bubble", "--delta", "1", "--equation", "bfo",
                "--out", str(out)]) == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["sup"] < 1e-5
    assert rep["params"]["delta"] == 1.0


def test_verify_unknown_family_is_usage_error():
    assert run(["verify", "--family", "doughnut"]) == EXIT_USAGE


def test_verify_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify", "--family", "sphere_identity", "--equation", "yamabe"]
    assert run(argv + ["--out", str(a)]) == EXIT_OK
    assert run(argv + ["--out", str(b)]) == EXIT_OK
    ra = a.read_bytes().replace(b"a.json", b"x.json")
    rb = b.read_bytes().replace(b"b.json", b"x.json")
    assert ra == rb  # identical up to the output path echoed in the config


def test_verify_seed_recorded_and_changes_grid(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["verify", "--family", "bubble", "--equation", "yamabe", "--out", str(a)])
    run(["verify", "--family", "bubble", "--equation", "yamabe", "--seed", "7", "--out", str(b)])
    ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
    assert ra["grid"]["seed"] is None
    assert rb["grid"]["seed"] == 7
    assert ra["sup"] != rb["sup"]


def test_verify_per_point_csv(tmp_path):
    csv = tmp_path / "points.csv"
    run(["verify", "--family", "inverse_radius", "--equation", "yamabe",
         "--points", "50", "--csv", str(csv), "--out", str(tmp_path / "r.json")])
    rows = csv.read_text().strip().splitlines()
    assert rows[0] == "x1,x2,x3,x4,residual"
    assert len(rows) == 51


def test_config_file_with_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family=inverse_radius\nequation=yamabe\npoints=50\n")
    out = tmp_path / "r.json"
    assert run(["verify", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["n_points"] == 50
    # flags override the file
    assert run(["verify", "--config", str(cfg), "--points", "80", "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["n_points"] == 80


def test_missing_config_file_is_usage_error(tmp_path, capsys):
    assert run(["verify", "--config", str(tmp_path / "nonexistent.cfg")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("args", [
    ["--family", "bubble", "--radius", "0"],
    ["--family", "bubble", "--radius", "-1"],
    ["--family", "bubble", "--radius", "nan"],
    ["--family", "bubble", "--radius", "inf"],
    ["--family", "bubble", "--points", "0"],
    # the exclusion ball around the origin covers the whole grid ball
    ["--family", "inverse_radius", "--radius", "0.01", "--points", "5"],
])
def test_degenerate_verify_grid_is_usage_error(args, capsys):
    assert run(["verify"] + args) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error:")


def test_verify_counts_points_outside_the_poincare_ball_as_failed(tmp_path):
    from biharm4.families import classical_example
    from biharm4.residuals import standard_grid

    out, csv = tmp_path / "r.json", tmp_path / "points.csv"
    assert run(["verify", "--family", "poincare_ball", "--radius", "2", "--equation", "biharmonic",
                "--out", str(out), "--csv", str(csv)]) == EXIT_OK
    rep = json.loads(out.read_text())
    grid = standard_grid(200, 2.0, classical_example("poincare_ball").field.singular_set)
    outside = int(np.count_nonzero(np.linalg.norm(grid, axis=1) > 1.0))
    assert outside > 0
    assert rep["n_failed"] == outside
    assert rep["n_points"] == 200 - outside
    rows = [list(map(float, r.split(","))) for r in csv.read_text().strip().splitlines()[1:]]
    assert len(rows) == rep["n_points"]
    assert all(np.linalg.norm(r[:4]) < 1.0 for r in rows)


def test_runconfig_round_trip():
    cfg = RunConfig("verify", {"family": "bubble", "delta": "1.5", "points": "100"})
    assert RunConfig.from_text(cfg.to_text()) == cfg


# ---------------------------------------------------------------------------
# mobius-audit
# ---------------------------------------------------------------------------

def test_audit_single_transform(tmp_path):
    out = tmp_path / "audit.json"
    assert run(["mobius-audit", "--transform",
                "eps=2 alpha=1 tout=0,0,0,0 tin=0,0,0,0 Q=identity",
                "--pairing", "flat-flat", "--out", str(out)]) == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["rows"][0]["verdict"] == "proper_biharmonic"


def test_audit_identity_is_harmonic(tmp_path):
    out = tmp_path / "audit.json"
    assert run(["mobius-audit", "--transform", "eps=0 alpha=1 Q=identity",
                "--pairing", "flat-flat", "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["rows"][0]["verdict"] == "harmonic"


def test_audit_malformed_transform_usage_error():
    assert run(["mobius-audit", "--transform", "eps=9 alpha=zz"]) == EXIT_USAGE


def test_audit_random_cells_uniform(tmp_path):
    out = tmp_path / "audit.json"
    assert run(["mobius-audit", "--random", "3", "--pairing", "sphere-flat",
                "--out", str(out)]) == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["uniform"] is True
    for cell in rep["cells"]:
        assert cell["verdicts"] == ["not_biharmonic"]
    for row in rep["rows"]:
        assert row["evidence"]["biharmonic_residual_sup"] > 1e-2


def test_audit_all_pairings_with_normal_forms(tmp_path):
    out = tmp_path / "audit.json"
    assert run(["mobius-audit", "--random", "2", "--all-pairings",
                "--out", str(out)]) == EXIT_OK
    rep = json.loads(out.read_text())
    pairings = {c["pairing"] for c in rep["cells"]}
    assert pairings == {"flat-flat", "flat-sphere", "sphere-flat", "sphere-sphere"}
    fs_rows = [r for r in rep["rows"] if r["pairing"] == "flat-sphere"]
    assert all("normal_form" in r and r["normal_form"]["delta"] > 0 for r in fs_rows)


# ---------------------------------------------------------------------------
# solve / sweep
# ---------------------------------------------------------------------------

def test_solve_radial_outputs(tmp_path):
    out, csv = tmp_path / "p.json", tmp_path / "p.csv"
    assert run(["solve", "radial", "--v0", "2", "--rmax", "10", "-N", "500",
                "--out", str(out), "--csv", str(csv)]) == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["profile"]["equation"] == "r4_bubble"
    assert rep["bubble_sup_error"] < 1e-3
    assert len(csv.read_text().strip().splitlines()) == 502


def test_solve_s4_constant(tmp_path):
    out = tmp_path / "s4.json"
    assert run(["solve", "s4", "--k", "3", "--init", "constant", "--out", str(out)]) == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["amplitude"] == 0.0
    vals = np.asarray(rep["profile"]["values"])
    assert np.max(np.abs(vals - np.sqrt(3.0))) < 1e-12


def test_solve_s4_mode_seed(tmp_path):
    out = tmp_path / "s4.json"
    assert run(["solve", "s4", "--k", "5.1", "--init", "mode2:-0.1",
                "--out", str(out)]) == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["amplitude"] > 1e-3


def test_solve_torus_obstruction_exit(tmp_path):
    out = tmp_path / "t.json"
    assert run(["solve", "torus", "--A", "-1", "--out", str(out)]) == EXIT_SOLVER
    rep = json.loads(out.read_text())
    assert rep["status"] == "obstructed"
    assert abs(rep["obstruction"]) > 0.1
    assert run(["solve", "torus", "--A", "0", "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["status"] == "solved"


def test_solve_radial_singular_jacobian_is_solver_failure(capsys):
    assert run(["solve", "radial", "--v0", "1e6"]) == EXIT_SOLVER
    assert capsys.readouterr().err.startswith("solver failure:")


@pytest.mark.parametrize("args", [
    ["solve", "radial", "--rmax", "-1"],
    ["solve", "radial", "--rmax", "nan"],
    ["solve", "torus", "-N", "2"],
    ["solve", "s4", "-N", "1"],
    ["solve", "s4", "--k", "-1"],
    ["sweep", "s4-branch", "--k-from", "-1"],
])
def test_solver_input_checks_are_usage_errors(args, tmp_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(args + ["--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert not caught
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_sweep_leaving_the_window_is_solver_failure(tmp_path):
    rep = tmp_path / "branch.json"
    assert run(["sweep", "s4-branch", "--ell", "2", "--k-from", "5.05", "--k-to", "13",
                "--steps", "30", "-N", "100", "--out", str(tmp_path / "b.jsonl"),
                "--report", str(rep)]) == EXIT_SOLVER
    summary = json.loads(rep.read_text())
    assert summary["status"] == "window"
    assert summary["n_points"] == 26


def test_sweep_below_first_bifurcation_is_solver_failure(tmp_path):
    assert run(["sweep", "s4-branch", "--ell", "2", "--k-from", "1.0", "--k-to", "1.5",
                "--steps", "3", "-N", "200", "--out", str(tmp_path / "b.jsonl")]) == EXIT_SOLVER


def test_sweep_branch_jsonl(tmp_path):
    out = tmp_path / "branch.jsonl"
    rep = tmp_path / "branch.json"
    assert run(["sweep", "s4-branch", "--ell", "2", "--k-from", "5.05", "--k-to", "5.4",
                "--steps", "6", "-N", "300", "--out", str(out), "--report", str(rep)]) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 6
    recs = [json.loads(l) for l in lines]
    amps = [r["amplitude"] for r in recs]
    assert all(b > a for a, b in zip(amps, amps[1:]))
    summary = json.loads(rep.read_text())
    assert summary["status"] == "ok"
    assert summary["n_points"] == 6
