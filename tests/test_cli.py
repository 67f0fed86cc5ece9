"""Command-line surface: exit codes, determinism, config round trips."""

import argparse
import contextlib
import hashlib
import io
import json
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biharm4
from biharm4.cli import (
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_TOLERANCE,
    EXIT_USAGE,
    RunConfig,
    build_parser,
    main,
)
from biharm4.mobius import PAIRINGS, classify_mobius, mobius_normal_form, random_transform


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


def test_grid_too_large_to_allocate_is_usage_error(capsys):
    # 4e11 Halton candidates: the allocation is refused before any memory is touched
    assert run(["verify", "--family", "bubble", "--points", "100000000000"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and "Traceback" not in err


def test_commands_load_no_heavy_scipy_module(tmp_path, fresh_python):
    # scipy.stats is only for scrambled grids; it, scipy.integrate and
    # scipy.special may not load on these paths, Sobolev quotients included
    script = f"""
import sys
import biharm4
from biharm4.cli import main
heavy = ("scipy.stats", "scipy.integrate", "scipy.special")
loaded = [[m for m in heavy if m in sys.modules]]
out = {str(tmp_path)!r}
for args in (["verify", "--family", "bubble"], ["mobius-audit", "--random", "2"], ["solve", "s4"]):
    main(args + ["--out", out + "/" + args[0] + ".json"])
    loaded.append([m for m in heavy if m in sys.modules])
b = biharm4.Bubble(4, 1.0, (0.0,) * 4).as_field()
biharm4.sobolev_quotient(b, 4)
biharm4.sobolev_quotient(b, 4, method="tensor", tensor_nodes=2)
loaded.append([m for m in heavy if m in sys.modules])
print(loaded)
"""
    assert fresh_python(script) == "[[], [], [], [], []]"
    assert (tmp_path / "verify.json").exists() and (tmp_path / "solve.json").exists()


def test_no_command_loads_scipy_linalg(tmp_path, fresh_python):
    # the solvers load scipy's compiled LAPACK module alone, never the
    # scipy.linalg package with the numpy.f2py and numpy.testing it pulls in
    script = f"""
import sys
import biharm4
from biharm4 import solver
from biharm4.cli import main
banned = ("scipy.linalg", "numpy.f2py", "numpy.testing")
loaded = [m for m in banned if m in sys.modules]
out = {str(tmp_path)!r}
codes = []
for args in (["verify", "--family", "bubble"], ["mobius-audit", "--random", "2", "--all-pairings"],
             ["solve", "s4", "--init", "mode2:-0.1"], ["solve", "radial"], ["sweep", "s4-branch"]):
    codes.append(main(args + ["--out", out + "/" + "-".join(args[:2]) + ".json"]))
    loaded += [m for m in banned if m in sys.modules]
b = biharm4.Bubble(4, 1.0, (0.0,) * 4).as_field()
biharm4.sobolev_quotient(b, 4)
biharm4.sobolev_quotient(b, 4, method="tensor", tensor_nodes=2)
codes.append(len(solver.detect_bifurcation_points(1.5, 9.6, 0.05, N=400)))
loaded += [m for m in banned if m in sys.modules]
print(codes, loaded, solver._lapack.cache_info().currsize)
"""
    assert fresh_python(script) == "[0, 0, 0, 0, 0, 3] [] 1"


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


def _declared_options(cmd):
    """Config key of every argument `cmd` declares, --config aside."""
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest.replace("_", "-") for a in subparsers.choices[cmd]._actions if a.dest not in ("help", "config")}


@pytest.mark.parametrize("argv, report", [
    (["verify", "--family", "bubble", "--equation", "yamabe", "--a", "0", "--A", "-2", "--alpha", "0.5",
      "--delta", "1.5", "--x0", "0,0,0,0.5", "--points", "20", "--radius", "4", "--tolerance", "1e-5",
      "--seed", "3", "--out", "r.json", "--csv", "p.csv"], "r.json"),
    (["mobius-audit", "--transform", "eps=2 alpha=1.5 tin=1,0,0,0", "--pairing", "flat-flat",
      "--all-pairings", "--random", "1", "--seed", "5", "--out", "r.json"], "r.json"),
    (["solve", "radial", "--v0", "2", "--rmax", "10", "--k", "3", "--A", "0", "--init", "constant",
      "-N", "200", "--tol", "1e-10", "--out", "r.json", "--csv", "p.csv"], "r.json"),
    (["sweep", "s4-branch", "--ell", "2", "--k-from", "5.05", "--k-to", "5.2", "--steps", "3", "-N", "200",
      "--tol", "1e-9", "--out", "b.jsonl", "--report", "r.json"], "r.json"),
], ids=["verify", "mobius-audit", "solve", "sweep"])
def test_every_option_reaches_the_report_config(argv, report, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == EXIT_OK
    cfg = RunConfig.from_text(json.loads(Path(report).read_text())["config"])
    assert cfg.command == argv[0]
    assert set(cfg.options) == _declared_options(argv[0])
    assert all(v in argv or (k, v) == ("all-pairings", "True") for k, v in cfg.options.items())


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

    # bubbles so wide or narrow that lam^3 is tiny on the fit points still fit
    # A (the fit is scale-covariant); where lam^3 underflows (alpha = 1e-110)
    # the fitted A is null.  Either way the verdicts are criterion 4's table
    for literal, fits in (("eps=2 alpha=0.001 tin=1,0,0,0", True), ("eps=0 alpha=1e-5 tin=1,0.5,0,0", True),
                          ("eps=0 alpha=1000 tin=1,0,0,0", True), ("eps=2 alpha=1e5 tin=1,0,0,0", True),
                          ("eps=0 alpha=1e-110 tin=1,0,0,0", False)):
        assert run(["mobius-audit", "--transform", literal, "--all-pairings", "--out", str(out)]) == EXIT_OK
        rows = json.loads(out.read_text())["rows"]
        eps = rows[0]["eps"]
        assert [r["verdict"] for r in rows] == ["harmonic" if eps == 0 else "proper_biharmonic",
                                                "proper_biharmonic", "not_biharmonic", "not_biharmonic"]
        for r in rows[:2]:  # the flat domains
            assert (r["evidence"]["fitted_A"] is not None) == fits
            assert (r["evidence"]["fit_residual"] is not None) == fits


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


def test_audit_random_report_equals_one_classification_per_transform(tmp_path):
    out = tmp_path / "audit.json"
    assert run(["mobius-audit", "--random", "5", "--all-pairings", "--seed", "3", "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    rows = []
    for pairing in PAIRINGS:
        for eps in (0, 2):
            # the per-cell draws of cmd_mobius_audit
            rng = np.random.default_rng(3 + 7 * eps + 31 * PAIRINGS.index(pairing))
            for T in [random_transform(rng, eps) for _ in range(5)]:
                v = classify_mobius(T, pairing)
                row = {"pairing": pairing, "eps": eps, "verdict": v.classification, "reason": v.reason,
                       "evidence": v.evidence}
                if pairing == "flat-sphere":
                    nf = mobius_normal_form(T)
                    row["normal_form"] = {"delta": nf.delta, "e": list(nf.x0)}
                rows.append(row)
    assert len(rows) == 40
    # the report's own bytes, with its rows rebuilt one transform at a time
    assert (json.dumps(dict(report, rows=rows), sort_keys=True, indent=1) + "\n").encode() == out.read_bytes()


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


def test_solve_radial_overflowing_iterate_is_solver_failure(capsys):
    # v0^3 overflows in the first residual: a solver failure, not a numpy warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["solve", "radial", "--v0", "1e300"]) == EXIT_SOLVER
    assert not caught
    assert capsys.readouterr().err.startswith("solver failure:")


@pytest.mark.parametrize("args", [
    ["solve", "radial", "--rmax", "-1"],
    ["solve", "radial", "--rmax", "nan"],
    ["solve", "torus", "-N", "2"],
    ["solve", "s4", "-N", "1"],
    ["solve", "s4", "--k", "-1"],
    ["sweep", "s4-branch", "--k-from", "-1"],
    ["sweep", "s4-branch", "--k-to", "5.05"],
    ["solve", "radial", "--tol", "nan"],
    ["solve", "s4", "--tol", "-1"],
    ["solve", "torus", "--A", "nan"],
    ["solve", "torus", "--A", "inf"],
    ["solve", "radial", "--rmax", "1e300"],
    ["mobius-audit", "--random", "-1"],
    ["solve", "s4", "--k", "3", "--init", "mode2:nan"],
    ["solve", "s4", "--k", "3", "--init", "mode2:inf"],
    ["solve", "torus", "--init", "sin:nan"],
    ["solve", "torus", "--init", "constant:inf"],
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


def test_sweep_overwrites_its_jsonl(tmp_path):
    out = tmp_path / "branch.jsonl"
    args = ["sweep", "s4-branch", "--ell", "2", "--k-from", "5.05", "--k-to", "5.4", "-N", "200",
            "--out", str(out)]
    assert run(args + ["--steps", "4"]) == EXIT_OK
    assert run(args + ["--steps", "3"]) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3   # the second run's points only


# ---------------------------------------------------------------------------
# the exit-code contract on generated arguments
# ---------------------------------------------------------------------------

_NUMBER = st.sampled_from(["0", "-1", "0.5", "2", "1e-300", "1e300", "nan", "inf", "-inf", "x"])


def _flags(options: dict) -> list:
    return [t for key, value in sorted(options.items()) for t in (key, value)]


_VERIFY = st.fixed_dictionaries(
    {"--family": st.sampled_from(["inverse_radius", "poincare_ball", "power_alpha", "bubble", "nope"]),
     "--equation": st.sampled_from(["yamabe", "biharmonic", "einstein-form", "bogus"]),
     "--points": st.sampled_from(["1", "8", "0", "-2", "1.5"])},
    optional={"--radius": _NUMBER, "--a": _NUMBER, "--A": _NUMBER, "--alpha": _NUMBER,
              "--delta": _NUMBER, "--tolerance": _NUMBER, "--seed": st.sampled_from(["0", "-1", "x"])},
).map(lambda o: ["verify"] + _flags(o))

_AUDIT = st.fixed_dictionaries(
    {"--random": st.sampled_from(["-1", "0", "1", "x"])},
    optional={"--pairing": st.sampled_from(["flat-flat", "sphere-flat", "bogus"]),
              "--seed": st.sampled_from(["0", "-5", "x"])},
).map(lambda o: ["mobius-audit"] + _flags(o))

_RADIAL = st.fixed_dictionaries(
    {"-N": st.sampled_from(["100", "200", "50", "-1", "x"])},
    optional={"--v0": _NUMBER, "--rmax": _NUMBER, "--tol": _NUMBER},
).map(lambda o: ["solve", "radial"] + _flags(o))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(args=st.one_of(_VERIFY, _AUDIT, _RADIAL))
def test_generated_arguments_keep_the_exit_code_contract(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(args)
        except SystemExit as exc:  # argparse rejects the line itself, e.g. "--tol -inf"
            code = exc.code
    assert code in (EXIT_OK, EXIT_TOLERANCE, EXIT_USAGE, EXIT_SOLVER)
    assert "Traceback" not in err.getvalue()


# ---------------------------------------------------------------------------
# the shared parser, and every README example
# ---------------------------------------------------------------------------

def _run_in(workdir, args, monkeypatch):
    """(exit code, stdout, {file name: bytes}) of one in-process run inside a fresh `workdir`."""
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = run(args)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}


def test_build_parser_is_built_once():
    assert build_parser() is build_parser()


def test_seed_does_not_carry_over_to_the_next_run(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify", "--family", "bubble", "--points", "30"]
    assert run(argv + ["--seed", "7", "--out", str(a)]) == EXIT_OK
    assert run(argv + ["--out", str(b)]) == EXIT_OK
    assert json.loads(a.read_text())["grid"]["seed"] == 7
    assert json.loads(b.read_text())["grid"]["seed"] is None


def test_usage_error_leaves_the_parser_intact(tmp_path, monkeypatch):
    argv = ["verify", "--family", "bubble", "--points", "30"]
    build_parser.cache_clear()  # the next run builds the parser afresh
    first = _run_in(tmp_path / "first", argv, monkeypatch)
    assert first[0] == EXIT_OK
    assert _run_in(tmp_path / "bad", argv + ["--bogus", "1"], monkeypatch)[0] == EXIT_USAGE
    assert _run_in(tmp_path / "again", argv, monkeypatch) == first


def _readme_examples():
    """(argv, documented exit code) for each `biharm4 ...` line of the README's CLI section."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        if line.startswith("biharm4 "):
            code = int(line.split("# exits ", 1)[1][0]) if "# exits " in line else EXIT_OK
            examples.append((shlex.split(line, comments=True)[1:], code))
    return examples


README_EXAMPLES = _readme_examples()


def test_readme_library_quick_tour_prints_what_its_comments_claim():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## Library quick tour\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    norm, classification, residual_sup = out.getvalue().split()
    assert float(norm) < 1e-12
    assert classification == "proper_biharmonic"
    assert float(residual_sup) < 1e-12


def test_readme_lists_ten_cli_examples():
    assert len(README_EXAMPLES) == 10
    assert [code for _, code in README_EXAMPLES].count(EXIT_SOLVER) == 1


@pytest.mark.parametrize("argv, code", README_EXAMPLES, ids=[" ".join(a) for a, _ in README_EXAMPLES])
def test_readme_example_exit_code_and_byte_identical_rerun(argv, code, tmp_path, monkeypatch):
    first = _run_in(tmp_path / "first", argv, monkeypatch)
    assert first[0] == code
    assert first[1] or first[2]  # a report on stdout or in a file
    assert _run_in(tmp_path / "second", argv, monkeypatch) == first


# sha256 of the stdout reports of two README audit commands: no caching or batching in the
# classification may move one bit of them
_GOLDEN_REPORTS = [
    (["mobius-audit", "--random", "20", "--pairing", "sphere-flat", "--seed", "1295943087"],
     "c2d7ad9eaddf61d7c339c8985f136990e3c413a0dc58e55e7ea076e7353adf75"),
    (["mobius-audit", "--transform", "eps=2 alpha=1.5 tout=0,0,0,0 tin=1,0,0,0 Q=identity", "--all-pairings"],
     "94dc347a6f8406c1386ce7adf0a0b2491fcaed484e774dfb3c210c639e180958"),
]


@pytest.mark.parametrize("argv, digest", _GOLDEN_REPORTS, ids=["random", "all-pairings"])
def test_audit_report_bytes_are_pinned(argv, digest, tmp_path, monkeypatch):
    code, stdout, files = _run_in(tmp_path / "run", argv, monkeypatch)
    assert (code, files) == (EXIT_OK, {})
    assert hashlib.sha256(stdout.encode()).hexdigest() == digest
