"""Seeded workloads: the ops each one runs, and the check of each op's output.

An op is one public call into `biharm4` (a `residual_report`, a
`sobolev_quotient`, a `classify_mobius`, a solver call or a `cli.main`
invocation).  `build(workload, seed)` turns a seed into a fixed list of
ops; the runner repeats that list in whole cycles.  Every check states
the result the paper, the README or the acceptance suite gives, at the
thresholds the acceptance suite uses.

`small=True` shrinks grids, counts and solver sizes for the benchmark's
own tests; the timed benchmark always runs at full size.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from biharm4 import cli, families, mobius, residuals, solver
from biharm4.fields import EinsteinDatum, ScalarField4

WORKLOADS = ("verify", "audit", "solve", "cli")

# README "Numerical notes": radial sup error ~ 0.47 (r_max/N)^2 at v0 = 2.
# Rescaling by the bubble width delta = 2/v0 multiplies it by (v0/2)^3.
RADIAL_LAW = 0.47
RADIAL_LAW_REL_TOL = 0.1
BIFURCATIONS = (2.0, 5.0, 9.0)


@dataclass
class Op:
    kind: str                                   # groups ops for the layer metrics
    call: Callable[[], Any]                     # the public call; the only timed part
    check: Callable[[Any], Optional[str]]       # None, or why the output is wrong
    digest: Callable[[Any], str]                # exact fingerprint of the output
    label: str = ""                             # the op's inputs, as text
    points: int = 0                             # grid points, for per-point costs
    tally: Callable[[Any], dict] = lambda _: {}  # exact per-op counts read off the output


def digest(*parts) -> str:
    """sha256 over arrays' bytes and other values' repr (floats round-trip)."""
    h = hashlib.sha256()
    for p in parts:
        h.update(p.tobytes() if isinstance(p, np.ndarray) else repr(p).encode())
    return h.hexdigest()


def _fail_if(cond: bool, why: str) -> Optional[str]:
    return why if cond else None


def _identity(field):
    return field


# ---------------------------------------------------------------------------
# verify: residual sweeps and Sobolev quotients under the flat metric
# ---------------------------------------------------------------------------

def _report_digest(r) -> str:
    return digest(r.equation, r.sup, r.rms, r.n_points, r.n_failed, r.values)


def _report_op(kind, equation, lam, grid, datum, A, check, label) -> Op:
    if equation == "yamabe":
        def call():
            return residuals.residual_report("yamabe", lam, grid, a=datum.a, A=A)
    else:
        def call():
            return residuals.residual_report(equation, lam, grid, datum=datum)
    return Op(kind, call, check, _report_digest, label=f"{equation} {label}", points=len(grid),
              tally=lambda r: {"n_failed": r.n_failed})


def _below(tol: float):
    return lambda r: _fail_if(not r.sup < tol, f"sup {r.sup:.3e} not below {tol:g}")


def _above(tol: float):
    return lambda r: _fail_if(not r.sup > tol, f"perturbed sup {r.sup:.3e} not above {tol:g}")


def gaussian(width: float, center) -> ScalarField4:
    """exp(-|x-c|^2/w^2): not a bubble, so its Sobolev quotient sits above the best constant."""
    c = np.asarray(center, dtype=float)

    def value(x):
        y = x - c
        return math.exp(-float(y @ y) / width**2)

    def grad(x):
        y = x - c
        return -2.0 * y / width**2 * math.exp(-float(y @ y) / width**2)

    return ScalarField4(value, grad, name=f"gaussian({width:.3f})")


def verify_ops(seed: int, small: bool = False, wrap=_identity) -> list[Op]:
    rng = np.random.default_rng([seed, 1])
    n_points = 60 if small else 200
    best = families.sobolev_best_constant(4)
    entries = families.solution_catalog()
    bubbles = []
    for i in range(2):
        delta = float(rng.uniform(0.5, 2.0))
        x0 = tuple(float(c) for c in rng.uniform(-1.0, 1.0, 4))
        bubbles.append((delta, x0))
        entries.append(families.CatalogEntry(f"bubble{i}", families.Bubble(4, delta, x0).as_field(),
                                             a=0.0, A=-2.0, R_h=12.0, grid_radius=5.0))
    ops = []
    for entry in entries:
        grid = residuals.standard_grid(n_points, entry.grid_radius, entry.field.singular_set)
        datum = EinsteinDatum(4, entry.a)
        name = entry.name
        if name.startswith("bubble"):
            delta, x0 = bubbles[int(name[-1])]
            name = f"bubble(delta={delta!r}, x0={x0!r})"
        lam = wrap(entry.field)
        ops.append(_report_op("residual.yamabe.closed", "yamabe", lam, grid, datum, entry.A, _below(1e-6), name))
        ops.append(_report_op("residual.biharmonic.closed", "biharmonic", lam, grid, datum, None, _below(1e-5),
                              name))
        # poincare_ball misses 1e-4 in the gradient form (see perfbench/README.md)
        if entry.name != "poincare_ball":
            ops.append(_report_op("residual.einstein_form.closed", "einstein_form", lam, grid, datum, None,
                                  _below(1e-4), name))
        bumped = wrap(families.perturbed(entry.field))
        ops.append(_report_op("residual.yamabe.perturbed", "yamabe", bumped, grid, datum, entry.A, _above(1e-2),
                              f"perturbed {name}"))
        ops.append(_report_op("residual.biharmonic.perturbed", "biharmonic", bumped, grid, datum, None,
                              _above(1e-2), f"perturbed {name}"))
        if entry.name.startswith("bubble"):
            # value-only copy: every derivative goes through the fd fallback,
            # held to its documented 1e-4 (einstein_form has no stated fd
            # tolerance; see perfbench/README.md)
            plain = wrap(ScalarField4(entry.field.value, name=f"value-only {entry.name}"))
            for equation in ("yamabe", "biharmonic"):
                ops.append(_report_op(f"residual.{equation}.fd", equation, plain, grid, datum, entry.A,
                                      _below(1e-4), f"value-only {name}"))

    def quotient(v, center, method):
        return lambda: families.sobolev_quotient(v, 4, center=center, method=method)

    for delta, x0 in bubbles:
        v = wrap(families.Bubble(4, delta, x0).as_field())
        ops.append(Op("sobolev.radial", quotient(v, x0, "radial"),
                      lambda q: _fail_if(not abs(q / best - 1.0) < 5e-3,
                                         f"bubble quotient {q:.6f} not within 0.5% of {best:.6f}"),
                      digest, label=f"radial quotient of bubble(delta={delta!r}, x0={x0!r})"))
    # criterion 7's comparison field; wide enough that the 16-node tensor rule resolves it
    width = float(rng.uniform(2.2, 2.6))
    center = tuple(float(c) for c in rng.uniform(-0.5, 0.5, 4))
    g = wrap(gaussian(width, center))
    state = {}

    def radial_gauss_check(q):
        state["radial"] = q
        return _fail_if(not q >= 1.01 * best, f"gaussian quotient {q:.4f} not 1% above {best:.4f}")

    def tensor_check(q):
        ref = state.get("radial")
        if ref is None:
            return "no radial quotient to compare with"
        return _fail_if(not abs(q / ref - 1.0) < 1e-2,
                        f"tensor quotient {q:.5f} differs from radial {ref:.5f} by 1% or more")

    gname = f"gaussian(width={width!r}, center={center!r})"
    ops.append(Op("sobolev.radial", quotient(g, center, "radial"), radial_gauss_check, digest,
                  label=f"radial quotient of {gname}"))
    ops.append(Op("sobolev.tensor", quotient(g, center, "tensor"), tensor_check, digest,
                  label=f"tensor quotient of {gname}"))
    return ops


def poincare_gradient_form_sup() -> float:
    """The gradient-form residual of poincare_ball, which the workload leaves out."""
    entry = families.classical_example("poincare_ball")
    grid = residuals.standard_grid(200, entry.grid_radius, entry.field.singular_set)
    return residuals.residual_report("einstein_form", entry.field, grid, datum=EinsteinDatum(4, entry.a)).sup


# ---------------------------------------------------------------------------
# audit: Mobius classification in all 8 (pairing, eps) cells plus isometries
# ---------------------------------------------------------------------------

def _verdict_digest(v) -> str:
    return digest(v.classification, v.reason, sorted(v.evidence.items()))


def _expect(pairing: str, eps: int, isometry: bool = False):
    """Criterion 4's verdict table."""
    if isometry:
        want = "harmonic"
    elif pairing == "flat-flat":
        want = "harmonic" if eps == 0 else "proper_biharmonic"
    elif pairing == "flat-sphere":
        want = "proper_biharmonic"
    else:
        want = "not_biharmonic"

    def check(v):
        if v.classification != want:
            return f"{pairing} eps={eps}: {v.classification}, expected {want}"
        if pairing == "flat-sphere" and not v.evidence["normal_form_error"] < 1e-10:
            return f"normal form error {v.evidence['normal_form_error']:.2e} not below 1e-10"
        if pairing == "sphere-flat" and not v.evidence["biharmonic_residual_sup"] > 1e-2:
            return "sphere-flat residual evidence not above 1e-2"
        return None

    return check


def audit_ops(seed: int, small: bool = False, wrap=_identity) -> list[Op]:
    rng = np.random.default_rng([seed, 2])
    per_cell = 1 if small else 4
    n_points = 12 if small else 60

    def classify(T, pairing):
        return lambda: mobius.classify_mobius(T, pairing, n_points=n_points)

    ops = []
    for pairing in mobius.PAIRINGS:
        for eps in (0, 2):
            for _ in range(per_cell):
                T = mobius.random_transform(rng, eps)
                ops.append(Op(f"classify.{pairing}", classify(T, pairing), _expect(pairing, eps),
                              _verdict_digest, label=f"{pairing} {mobius.transform_literal(T)}"))
    for eps in (0, 2):
        for _ in range(per_cell):
            T = mobius.sphere_isometry(eps, mobius.random_orthogonal(rng), rng.uniform(-1.0, 1.0, 4))
            ops.append(Op("classify.sphere-sphere", classify(T, "sphere-sphere"),
                          _expect("sphere-sphere", eps, isometry=True), _verdict_digest,
                          label=f"sphere-sphere isometry {mobius.transform_literal(T)}"))
    return ops


# ---------------------------------------------------------------------------
# solve: the three symmetric solvers, continuation and the bifurcation scan
# ---------------------------------------------------------------------------

def radial_sup_error(profile, v0: float) -> float:
    delta = 2.0 / v0
    exact = 2.0 * delta / (delta**2 + profile.grid**2)   # the n = 4 bubble
    return float(np.max(np.abs(profile.values - exact)))


def radial_error_n1000() -> float:
    """Criterion 5's quantity: stated bound 1e-6, measured 4.67e-5."""
    return radial_sup_error(solver.solve_radial_r4(2.0, 10.0, 1000), 2.0)


def _profile_digest(p) -> str:
    return digest(p.equation, p.residual_sup, p.values)


def _radial_ops(v0: float, r_max: float, state: dict) -> list[Op]:
    ops = []
    for N in (1000, 2000, 8000):
        # the max-norm residual floor grows like eps/dr^2 (criterion 5)
        tol = 1e-10 if N < 8000 else 1e-8

        def check(p, N=N, tol=tol):
            err = radial_sup_error(p, v0)
            state[(v0, N)] = err
            law = RADIAL_LAW * (v0 / 2.0) ** 3 * (r_max / N) ** 2
            if not p.residual_sup < tol:
                return f"radial N={N}: residual {p.residual_sup:.2e} not below {tol:g}"
            if not abs(err / law - 1.0) < RADIAL_LAW_REL_TOL:
                return f"radial N={N}: sup error {err:.3e} off the {law:.3e} law by 10% or more"
            if N == 2000:
                ratio = state.get((v0, 1000), math.nan) / err
                if not 3.5 <= ratio <= 4.5:
                    return f"radial N-doubling ratio {ratio:.3f} outside [3.5, 4.5]"
            return None

        ops.append(Op(f"solver.radial_{N}",
                      lambda N=N, tol=tol: solver.solve_radial_r4(v0, r_max, N, tol=tol),
                      check, _profile_digest, label=f"solve_radial_r4(v0={v0!r}, r_max={r_max}, N={N})"))
    return ops


def _branch_digest(bp) -> str:
    return digest(bp.k, bp.amplitude, bp.profile.values)


def _run_digest(run) -> str:
    return digest(run.status, [(p.k, p.arclength) for p in run.points],
                  *[p.profile.values for p in run.points])


def _branch_check(steps: int):
    def check(run):
        amps = [p.amplitude for p in run.points]
        if run.status != "ok" or len(run.points) != steps:
            return f"continuation ended {run.status!r} after {len(run.points)} of {steps} points"
        if not all(a > 1e-3 for a in amps):
            return "continuation fell back to the constant branch"
        if not all(b > a for a, b in zip(amps, amps[1:])):
            return "continuation amplitudes not monotone"
        if not all(p.profile.residual_sup < 1e-9 for p in run.points):
            return "continuation residual not below 1e-9"
        return None

    return check


def _torus_digest(run) -> str:
    return digest(run.status, run.obstruction, run.obstruction_history, run.profile.values)


def solve_ops(seed: int, small: bool = False, wrap=_identity) -> list[Op]:
    rng = np.random.default_rng([seed, 3])
    N_s4 = 100 if small else 400
    steps = 6 if small else 20
    state: dict = {}
    # Newton takes six banded solves at every N for v0 in [1.85, 2.095] (seven
    # at 2.1), so every seed's ladder costs what v0 = 2's does
    cheap = _radial_ops(2.0, 10.0, state) + _radial_ops(float(rng.uniform(1.85, 2.05)), 10.0, state)

    th = solver.s4_theta_grid(N_s4)
    for k in rng.uniform(2.5, 9.5, 2):
        k = float(k)
        cheap.append(Op("solver.s4", lambda k=k: solver.solve_s4(k, np.full(N_s4 + 1, math.sqrt(k))),
                      lambda bp, k=k: _fail_if(
                          not (np.max(np.abs(bp.profile.values - math.sqrt(k))) < 1e-12
                               and bp.profile.residual_sup < 1e-9),
                          f"constant branch at k={k:.4f} not exact"),
                      _branch_digest, label=f"solve_s4(k={k!r}, constant init, N={N_s4})"))
    for k in rng.uniform(5.06, 5.16, 2):
        k = float(k)
        init = math.sqrt(k) - 0.1 * solver.axisym_mode(2, th)
        cheap.append(Op("solver.s4", lambda k=k, init=init: solver.solve_s4(k, init),
                      lambda bp, k=k: _fail_if(
                          not (bp.amplitude > 1e-3 and bp.profile.residual_sup < 1e-9),
                          f"mode-2 solve at k={k:.4f} fell to the constant branch or did not converge"),
                      _branch_digest, label=f"solve_s4(k={k!r}, mode2:-0.1 init, N={N_s4})"))

    slow = []
    for k_from, k_to in ((5.05, 6.0), (4.95, 4.0)):
        slow.append(Op("solver.continuation",
                      lambda k_from=k_from, k_to=k_to: solver.continue_branch(2, k_from, k_to, steps,
                                                                               N=N_s4, tol=1e-9),
                      _branch_check(steps), _run_digest,
                      label=f"continue_branch(2, {k_from}, {k_to}, {steps}, N={N_s4})",
                      tally=lambda run: {"continuation_points": len(run.points)}))

    tg = solver.torus_grid(256)
    amp, phase = float(rng.uniform(0.2, 0.4)), float(rng.uniform(0.0, 2.0 * math.pi))
    lam0 = 1.0 + amp * np.sin(tg + phase)
    cheap.append(Op("solver.torus", lambda: solver.solve_torus(0.0, lam0),
                  lambda run: _fail_if(not (run.status == "solved" and run.profile.residual_sup < 1e-10),
                                       f"A=0 torus ended {run.status!r}"),
                  _torus_digest, label=f"solve_torus(0, 1 + {amp!r} sin(t + {phase!r}))"))
    cheap.append(Op("solver.torus", lambda: solver.solve_torus(-1.0, lam0),
                  lambda run: _fail_if(not (run.status == "obstructed"
                                            and all(abs(o) > 0.1 for o in run.obstruction_history)),
                                       f"A=-1 torus ended {run.status!r}"),
                  _torus_digest, label=f"solve_torus(-1, 1 + {amp!r} sin(t + {phase!r}))"))

    def scan_check(found):
        missing = [k for k in BIFURCATIONS if not any(abs(k - f) <= 0.05 for f in found)]
        return _fail_if(bool(missing), f"scan found {found}, missing {missing}")

    slow.append(Op("solver.scan", lambda: solver.detect_bifurcation_points(1.5, 9.6, 0.05, N=N_s4),
                   scan_check, digest, label=f"detect_bifurcation_points(1.5, 9.6, 0.05, N={N_s4})"))
    # the millisecond calls run three times before each slow one, nine times a
    # cycle, so that each gets enough repeats for a steady median
    return [op for slow_op in slow for op in cheap * 3 + [slow_op]]


# ---------------------------------------------------------------------------
# cli: every README example, in-process, each in a fresh directory, twice
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    files: tuple    # (name, bytes) pairs, sorted by name

    @property
    def report_bytes(self) -> int:
        return len(self.stdout.encode()) + sum(len(b) for _, b in self.files)


def readme_commands(seed: int, small: bool = False) -> list[tuple[list[str], int]]:
    """(argv, documented exit code) for each README CLI example.

    The seed reaches the one example with a seeded option (`--random`)."""
    rng = np.random.default_rng([seed, 4])
    n_random = "2" if small else "20"
    steps = "5" if small else "20"
    return [
        (["verify", "--family", "inverse_radius", "--equation", "yamabe"], 0),
        (["verify", "--family", "bubble", "--delta", "1", "--equation", "biharmonic", "--out", "report.json"], 0),
        (["verify", "--family", "power_alpha", "--alpha", "-1", "--equation", "yamabe", "--csv", "points.csv"], 0),
        (["mobius-audit", "--transform", "eps=2 alpha=1.5 tout=0,0,0,0 tin=1,0,0,0 Q=identity",
          "--all-pairings"], 0),
        (["mobius-audit", "--random", n_random, "--pairing", "sphere-flat", "--out", "audit.json",
          "--seed", str(int(rng.integers(0, 2**31)))], 0),
        (["solve", "radial", "--v0", "2", "--rmax", "10", "-N", "1000", "--out", "radial.json",
          "--csv", "radial.csv"], 0),
        (["solve", "s4", "--k", "3", "--init", "constant"], 0),
        (["solve", "s4", "--k", "5.1", "--init", "mode2:-0.1"], 0),
        (["solve", "torus", "--A", "-1"], 3),
        (["sweep", "s4-branch", "--ell", "2", "--k-from", "5.05", "--k-to", "6", "--steps", steps,
          "--out", "branch.jsonl"], 0),
    ]


def run_cli(argv: list[str], workdir: Path) -> CliResult:
    """`cli.main(argv)` with cwd in a fresh directory under `workdir`."""
    here = os.getcwd()
    fresh = Path(tempfile.mkdtemp(dir=workdir))
    out, err = io.StringIO(), io.StringIO()
    try:
        os.chdir(fresh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:   # argparse usage errors
                code = exc.code
        files = tuple((p.name, p.read_bytes()) for p in sorted(fresh.iterdir()))
    finally:
        os.chdir(here)
        shutil.rmtree(fresh)
    return CliResult(code, out.getvalue(), files)


def cli_ops(seed: int, small: bool = False, wrap=_identity, workdir: Path | None = None) -> list[Op]:
    if workdir is None:
        raise ValueError("the cli workload needs a work directory")
    commands = readme_commands(seed, small)
    first: dict = {}
    ops = []
    for rerun in (False, True):
        for i, (argv, want) in enumerate(commands):
            def check(res, i=i, want=want, rerun=rerun, argv=argv):
                if res.code != want:
                    return f"`{' '.join(argv)}` exited {res.code}, documented {want}"
                if not res.report_bytes:
                    return f"`{' '.join(argv)}` wrote no report"
                if not rerun:
                    first[i] = res
                elif first.get(i) != res:
                    return f"`{' '.join(argv)}` reports differ between two identical runs"
                return None

            ops.append(Op(f"cli.{argv[0]}", lambda argv=argv: run_cli(argv, workdir), check,
                          lambda r: digest(r.code, r.stdout, r.files), label="biharm4 " + " ".join(argv),
                          tally=lambda r: {"report_bytes": r.report_bytes}))
    return ops


WORKLOAD_OPS = {"verify": verify_ops, "audit": audit_ops, "solve": solve_ops, "cli": cli_ops}


def build(workload: str, seed: int, small: bool = False, wrap=_identity,
          workdir: Path | None = None) -> list[Op]:
    if workload not in WORKLOAD_OPS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    kwargs = {"workdir": workdir} if workload == "cli" else {}
    # numpy seeds must be non-negative; this keeps every integer seed distinct
    return WORKLOAD_OPS[workload](seed % 2**64, small=small, wrap=wrap, **kwargs)


# ---------------------------------------------------------------------------
# warm-up: each public entry point once, at toy size, before timing starts
# ---------------------------------------------------------------------------

def warm_up(workload: str, workdir: Path | None = None) -> None:
    if workload == "verify":
        b = families.Bubble(4, 1.0, (0.0,) * 4).as_field()
        grid = residuals.standard_grid(4, 5.0)
        datum = EinsteinDatum(4, 0.0)
        for lam in (b, families.perturbed(b), ScalarField4(b.value)):
            residuals.residual_report("yamabe", lam, grid, a=0.0, A=-2.0)
            residuals.residual_report("biharmonic", lam, grid, datum=datum)
            residuals.residual_report("einstein_form", lam, grid, datum=datum)
        families.sobolev_quotient(b, 4)
        families.sobolev_quotient(b, 4, method="tensor", tensor_nodes=2)
    elif workload == "audit":
        for pairing in mobius.PAIRINGS:
            mobius.classify_mobius(mobius.MobiusTransform.inversion(), pairing, n_points=4)
    elif workload == "solve":
        solver.solve_radial_r4(2.0, 10.0, 200)
        th = solver.s4_theta_grid(100)
        solver.solve_s4(3.0, np.full(101, math.sqrt(3.0)))
        solver.solve_s4(5.1, math.sqrt(5.1) - 0.1 * solver.axisym_mode(2, th))
        solver.continue_branch(2, 5.05, 5.2, 3, N=100)
        solver.solve_torus(-1.0, 1.0 + 0.3 * np.sin(solver.torus_grid(32)))
        solver.detect_bifurcation_points(4.9, 5.1, 0.05, N=100)
    elif workload == "cli":
        for argv in (["verify", "--family", "bubble", "--points", "4"],
                     ["mobius-audit", "--random", "1"],
                     ["solve", "s4", "--k", "3", "-N", "100"],
                     ["sweep", "s4-branch", "--steps", "2", "-N", "100", "--out", "b.jsonl"]):
            run_cli(argv, workdir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
