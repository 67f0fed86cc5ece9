"""Command-line surface: verification, Mobius audits, and solver runs.

Reports are deterministic: a fixed quasi-random sequence (or the recorded
seed), sorted JSON keys, and shortest-round-trip float formatting, so
identical configurations produce byte-identical JSON.  Exit codes are a
stable contract: 0 success, 1 residual above tolerance (or a failed audit
assertion), 2 usage error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import families, mobius, residuals, solver
from .fields import EinsteinDatum, domain_mask
from .mobius import PAIRINGS

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_USAGE = 2
EXIT_SOLVER = 3

EQUATION_ALIASES = {
    "yamabe": "yamabe",
    "biharmonic": "biharmonic",
    "einstein-form": "einstein_form",
    "einstein_form": "einstein_form",
    # aliases kept so documented example invocations keep working
    "eq4d": "yamabe",
    "bfo": "biharmonic",
    "sf": "einstein_form",
}
DEFAULT_TOLERANCES = {"yamabe": 1e-6, "biharmonic": 1e-5, "einstein_form": 1e-4}


@dataclass
class RunConfig:
    """Canonical key=value view of one run; round-trips through text."""

    command: str
    options: dict = field(default_factory=dict)

    def to_text(self) -> str:
        lines = [f"command={self.command}"]
        lines += [f"{k}={self.options[k]}" for k in sorted(self.options)]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        opts = {}
        command = ""
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config lines must be key=value, got {line!r}")
            key, _, val = line.partition("=")
            if key == "command":
                command = val
            else:
                opts[key] = val
        return cls(command, opts)

    def get(self, key, default=None):
        return self.options.get(key, default)

    def getfloat(self, key, default=None):
        v = self.options.get(key)
        return default if v is None else _finite(key, v)

    def getint(self, key, default=None):
        v = self.options.get(key)
        return default if v is None else int(v)


def _finite(what: str, text: str) -> float:
    v = float(text)
    if not math.isfinite(v):
        raise ValueError(f"{what} must be a finite number, got {text}")
    return v


def _sci(x: float) -> str:
    return f"{x:.3e}"


def _json_bytes(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1)


def _emit(report: dict, out: str | None, human_lines: list[str]) -> None:
    text = _json_bytes(report) + "\n"
    if out:
        Path(out).write_text(text)
        for line in human_lines:
            print(line)
    else:
        for line in human_lines:
            print(line, file=sys.stderr)
        sys.stdout.write(text)


def _merge_config(args: argparse.Namespace) -> RunConfig:
    opts = RunConfig.from_text(Path(args.config).read_text()).options if args.config else {}
    for key, val in vars(args).items():
        if key not in ("cmd", "config") and val is not None:
            opts[key.replace("_", "-")] = str(val)
    return RunConfig(args.cmd, opts)


def _parse_vec4(text: str) -> tuple:
    parts = [float(t) for t in text.split(",")]
    if len(parts) != 4:
        raise ValueError("expected 4 comma-separated components")
    return tuple(parts)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _resolve_family(cfg: RunConfig):
    name = cfg.get("family")
    if name is None:
        raise ValueError("--family is required")
    if name == "bubble":
        delta = cfg.getfloat("delta", 1.0)
        x0 = _parse_vec4(cfg.get("x0", "0,0,0,0"))
        bubble = families.Bubble(4, delta, x0)
        return families.CatalogEntry("bubble", bubble.as_field(), a=0.0, A=-2.0,
                                     R_h=12.0, grid_radius=5.0,
                                     note="extremal family member"), {"delta": delta, "x0": list(x0)}
    if name == "power_alpha":
        alpha = cfg.getfloat("alpha")
        if alpha is None:
            raise ValueError("power_alpha needs --alpha")
        return families.classical_example(name, alpha=alpha), {"alpha": alpha}
    return families.classical_example(name), {}


def cmd_verify(cfg: RunConfig) -> int:
    entry, extra = _resolve_family(cfg)
    equation_raw = cfg.get("equation", "yamabe")
    if equation_raw not in EQUATION_ALIASES:
        raise ValueError(f"unknown equation {equation_raw!r}")
    equation = EQUATION_ALIASES[equation_raw]
    a = cfg.getfloat("a", entry.a)
    A = cfg.getfloat("A", entry.A if entry.A is not None else 0.0)
    n_points = cfg.getint("points", 200)
    radius = cfg.getfloat("radius", entry.grid_radius)
    seed = cfg.getint("seed")
    tolerance = cfg.getfloat("tolerance", DEFAULT_TOLERANCES[equation])

    grid = residuals.standard_grid(n_points, radius, entry.field.singular_set, seed=seed)
    grid_meta = {"kind": "ball", "radius": radius, "n_points": n_points,
                 "seed": seed, "sequence": "halton" + ("-scrambled" if seed is not None else "")}
    if equation == "yamabe":
        report = residuals.residual_report(equation, entry.field, grid, a=a, A=A, grid_meta=grid_meta)
    else:
        report = residuals.residual_report(equation, entry.field, grid,
                                           datum=EinsteinDatum(4, a), A=None, grid_meta=grid_meta)
    passed = report.sup < tolerance
    out = {
        "command": "verify",
        "config": cfg.to_text(),
        "equation": equation,
        "family": entry.name,
        "params": {**report.params, **extra, "declared_A": entry.A, "declared_R_h": entry.R_h},
        "sup": report.sup,
        "rms": report.rms,
        "sup_sci": _sci(report.sup),
        "rms_sci": _sci(report.rms),
        "n_points": report.n_points,
        "n_failed": report.n_failed,
        "grid": report.grid,
        "tolerance": tolerance,
        "verdict": "pass" if passed else "fail",
    }
    csv_path = cfg.get("csv")
    if csv_path:
        lines = ["x1,x2,x3,x4,residual"]
        kept = grid[domain_mask(entry.field, grid)]
        for p, v in zip(kept.tolist(), report.values.tolist()):
            lines.append(",".join(map(repr, p + [v])))
        Path(csv_path).write_text("\n".join(lines) + "\n")
    _emit(out, cfg.get("out"),
          [f"{entry.name} [{equation}]  sup={_sci(report.sup)}  rms={_sci(report.rms)}  "
           f"({report.n_points} pts, {report.n_failed} excluded)  -> {out['verdict']}"])
    return EXIT_OK if passed else EXIT_TOLERANCE


# ---------------------------------------------------------------------------
# mobius-audit
# ---------------------------------------------------------------------------

def _audit_rows(transforms: list, pairing: str) -> list[dict]:
    rows = [{"pairing": pairing, "eps": T.eps, "verdict": v.classification, "reason": v.reason,
             "evidence": dict(v.evidence)} for T, v in zip(transforms, mobius.classify_many(transforms, pairing))]
    if pairing == "flat-sphere":
        for T, row in zip(transforms, rows):
            nf = mobius.mobius_normal_form(T)
            row["normal_form"] = {"delta": nf.delta, "e": list(nf.x0)}
    return rows


def cmd_mobius_audit(cfg: RunConfig) -> int:
    pairings = list(PAIRINGS) if cfg.get("all-pairings") == "True" else [cfg.get("pairing", "flat-flat")]
    for p in pairings:
        if p not in PAIRINGS:
            raise ValueError(f"unknown pairing {p!r}")
    rows = []
    cells = []
    n_random = cfg.getint("random", 0)
    if n_random < 0:
        raise ValueError(f"--random must be non-negative, got {n_random}")
    seed = cfg.getint("seed", 2024)
    if n_random:
        for pairing in pairings:
            for eps in (0, 2):
                rng = np.random.default_rng(seed + 7 * eps + 31 * PAIRINGS.index(pairing))
                cell_rows = _audit_rows([mobius.random_transform(rng, eps) for _ in range(n_random)], pairing)
                verdicts = sorted({r["verdict"] for r in cell_rows})
                cells.append({
                    "pairing": pairing,
                    "eps": eps,
                    "n": n_random,
                    "verdicts": verdicts,
                    "uniform": len(verdicts) == 1,
                })
                rows.extend(cell_rows)
    else:
        literal = cfg.get("transform")
        T = mobius.parse_transform(literal) if literal else mobius.MobiusTransform.inversion()
        for pairing in pairings:
            rows.extend(_audit_rows([T], pairing))
    uniform_ok = all(c["uniform"] for c in cells) if cells else True
    out = {
        "command": "mobius-audit",
        "config": cfg.to_text(),
        "seed": seed,
        "rows": rows,
        "cells": cells,
        "uniform": uniform_ok,
    }
    human = []
    for r in rows[:12]:
        ev = r["evidence"].get("biharmonic_residual_sup", float("nan"))
        human.append(f"{r['pairing']:14s} eps={r['eps']}  {r['verdict']:18s} residual_sup={_sci(ev)}")
    if len(rows) > 12:
        human.append(f"... {len(rows)} rows total")
    if cells:
        human.append("verdict uniformity per cell: " + ("ok" if uniform_ok else "VIOLATED"))
    _emit(out, cfg.get("out"), human)
    return EXIT_OK if uniform_ok else EXIT_TOLERANCE


# ---------------------------------------------------------------------------
# solve / sweep
# ---------------------------------------------------------------------------

def _profile_outputs(cfg: RunConfig, profile: solver.RadialProfile, extra: dict,
                     human: list[str]) -> None:
    report = {
        "command": cfg.command,
        "config": cfg.to_text(),
        "profile": solver.profile_to_json_dict(profile),
        "residual_sup_sci": _sci(profile.residual_sup),
        **extra,
    }
    csv_path = cfg.get("csv")
    if csv_path:
        solver.profile_to_csv(profile, csv_path)
    _emit(report, cfg.get("out"), human)


def cmd_solve(cfg: RunConfig) -> int:
    what = cfg.get("system")
    if what == "radial":
        v0 = cfg.getfloat("v0", 2.0)
        r_max = cfg.getfloat("rmax", 10.0)
        N = cfg.getint("N", 1000)
        tol = cfg.getfloat("tol", 1e-10)
        profile = solver.solve_radial_r4(v0, r_max, N, tol=tol)
        axis = np.outer(profile.grid, np.eye(4)[0])
        exact = families.Bubble(4, 2.0 / v0, (0.0,) * 4).closed_form.values(axis)
        sup_err = float(np.max(np.abs(profile.values - exact)))
        extra = {"bubble_delta": 2.0 / v0, "bubble_sup_error": sup_err,
                 "bubble_sup_error_sci": _sci(sup_err)}
        _profile_outputs(cfg, profile, extra,
                         [f"radial solve: residual={_sci(profile.residual_sup)}  "
                          f"|v - bubble(delta={2.0 / v0})|_sup={_sci(sup_err)}"])
        return EXIT_OK
    if what == "s4":
        k = cfg.getfloat("k", 3.0)
        if not k > 0:
            raise ValueError("--k must be positive")
        N = cfg.getint("N", 400)
        tol = cfg.getfloat("tol", 1e-9)
        th = solver.s4_theta_grid(N)
        init_spec = cfg.get("init", "constant")
        u0 = np.full(N + 1, np.sqrt(k))
        if init_spec != "constant":
            if not init_spec.startswith("mode"):
                raise ValueError(f"unknown init {init_spec!r} (use constant or mode<ell>[:amp])")
            body = init_spec[4:]
            ell_txt, _, amp_txt = body.partition(":")
            amp = _finite("init amplitude", amp_txt) if amp_txt else 0.1
            u0 = u0 + amp * solver.axisym_mode(int(ell_txt), th)
        point = solver.solve_s4(k, u0, tol=tol)
        extra = {"k": k, "amplitude": point.amplitude, "gradient_energy": point.gradient_energy}
        _profile_outputs(cfg, point.profile, extra,
                         [f"s4 solve at k={k}: residual={_sci(point.profile.residual_sup)}  "
                          f"amplitude={_sci(point.amplitude)}  energy={_sci(point.gradient_energy)}"])
        return EXIT_OK
    if what == "torus":
        A = cfg.getfloat("A", 0.0)
        N = cfg.getint("N", 256)
        tol = cfg.getfloat("tol", 1e-10)
        th = solver.torus_grid(N)
        init_spec = cfg.get("init", "sin:0.3")
        if init_spec.startswith("constant"):
            _, _, c = init_spec.partition(":")
            lam0 = np.full(N, _finite("init constant", c) if c else 1.0)
        elif init_spec.startswith("sin"):
            _, _, amp = init_spec.partition(":")
            lam0 = 1.0 + (_finite("init amplitude", amp) if amp else 0.3) * np.sin(th)
        else:
            raise ValueError(f"unknown init {init_spec!r} (use constant[:c] or sin[:amp])")
        run = solver.solve_torus(A, lam0, tol=tol)
        extra = {
            "status": run.status,
            "obstruction": run.obstruction,
            "obstruction_sci": _sci(run.obstruction),
            "obstruction_history": run.obstruction_history,
            "laplacian_integral_sup": run.laplacian_integral_sup,
        }
        _profile_outputs(cfg, run.profile, extra,
                         [f"torus solve A={A}: status={run.status}  "
                          f"obstruction={_sci(run.obstruction)}  residual={_sci(run.profile.residual_sup)}"])
        return EXIT_OK if run.status == "solved" else EXIT_SOLVER
    raise ValueError(f"unknown solve system {what!r}")


def cmd_sweep(cfg: RunConfig) -> int:
    what = cfg.get("system")
    if what != "s4-branch":
        raise ValueError(f"unknown sweep {what!r}")
    ell = cfg.getint("ell", 2)
    k_from = cfg.getfloat("k-from", 5.05)
    k_to = cfg.getfloat("k-to", 6.0)
    steps = cfg.getint("steps", 20)
    N = cfg.getint("N", 400)
    tol = cfg.getfloat("tol", 1e-9)
    run = solver.continue_branch(ell, k_from, k_to, steps, N=N, tol=tol)
    out_path = cfg.get("out", "s4_branch.jsonl")
    solver.write_branch_jsonl(run.points, out_path)
    summary = {
        "command": "sweep",
        "config": cfg.to_text(),
        "status": run.status,
        "message": run.message,
        "n_points": len(run.points),
        "k_window_explored": [run.points[0].k, run.points[-1].k] if run.points else [],
        "amplitudes": [p.amplitude for p in run.points],
        "gradient_energies": [p.gradient_energy for p in run.points],
        "out": out_path,
    }
    print(f"branch ell={ell}: {len(run.points)} points, k in "
          f"[{summary['k_window_explored'][0]:.4f}, {summary['k_window_explored'][1]:.4f}], "
          f"status={run.status} -> {out_path}")
    report_path = cfg.get("report")
    if report_path:
        Path(report_path).write_text(_json_bytes(summary) + "\n")
    return EXIT_OK if run.status == "ok" else EXIT_SOLVER


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One parser per process, built on the first call: parsing never mutates it; callers must not."""
    ap = argparse.ArgumentParser(prog="biharm4",
                                 description="verify, classify, and solve the conformal-factor equations")
    sub = ap.add_subparsers(dest="cmd", required=True)

    pv = sub.add_parser("verify", help="residual sweep of a catalog family")
    pv.add_argument("--family", type=str)
    pv.add_argument("--equation", type=str)
    pv.add_argument("--a", type=str)
    pv.add_argument("--A", type=str)
    pv.add_argument("--alpha", type=str)
    pv.add_argument("--delta", type=str)
    pv.add_argument("--x0", type=str)
    pv.add_argument("--points", type=str)
    pv.add_argument("--radius", type=str)
    pv.add_argument("--tolerance", type=str)
    pv.add_argument("--seed", type=str)
    pv.add_argument("--out", type=str)
    pv.add_argument("--csv", type=str)
    pv.add_argument("--config", type=str)

    pm = sub.add_parser("mobius-audit", help="classify transforms under the metric pairings")
    pm.add_argument("--transform", type=str)
    pm.add_argument("--pairing", type=str)
    pm.add_argument("--all-pairings", action="store_const", const="True", dest="all_pairings")
    pm.add_argument("--random", type=str)
    pm.add_argument("--seed", type=str)
    pm.add_argument("--out", type=str)
    pm.add_argument("--config", type=str)

    ps = sub.add_parser("solve", help="run one solver")
    ps.add_argument("system", type=str, choices=["radial", "s4", "torus"])
    ps.add_argument("--v0", type=str)
    ps.add_argument("--rmax", type=str)
    ps.add_argument("--k", type=str)
    ps.add_argument("--A", type=str)
    ps.add_argument("--init", type=str)
    ps.add_argument("-N", type=str)
    ps.add_argument("--tol", type=str)
    ps.add_argument("--out", type=str)
    ps.add_argument("--csv", type=str)
    ps.add_argument("--config", type=str)

    pw = sub.add_parser("sweep", help="parameter sweeps emitting JSON lines")
    pw.add_argument("system", type=str, choices=["s4-branch"])
    pw.add_argument("--ell", type=str)
    pw.add_argument("--k-from", type=str, dest="k_from")
    pw.add_argument("--k-to", type=str, dest="k_to")
    pw.add_argument("--steps", type=str)
    pw.add_argument("-N", type=str)
    pw.add_argument("--tol", type=str)
    pw.add_argument("--out", type=str)
    pw.add_argument("--report", type=str)
    pw.add_argument("--config", type=str)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        cfg = _merge_config(args)
        # argparse requires a subcommand, so args.cmd is one of these; built per
        # call, so a cmd_* that a tracer or a test rebinds is the one called
        commands = {"verify": cmd_verify, "mobius-audit": cmd_mobius_audit,
                    "solve": cmd_solve, "sweep": cmd_sweep}
        # out-of-range input raises ArithmeticError, not a numpy warning
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return commands[args.cmd](cfg)
    except (solver.BranchError, solver.ConvergenceError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        if getattr(exc, "residual", None) is not None:
            print(f"last residual: {_sci(exc.residual)}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, OSError, ArithmeticError) as exc:  # DomainError, TransformParseError: ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # a grid or solve too large to allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
