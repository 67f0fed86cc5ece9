"""The traced run and the per-layer metrics derived from its spans and counts.

A traced run first runs the ops untraced as the reference, then installs
the tracer, rebuilds the same ops with counting field evaluators and runs
them traced; each side gets whole cycles for half of `--seconds`.  Every
traced output must equal the reference output exactly.  Metrics are per call, per grid point or per
cycle, so they do not depend on how many cycles fit into the run.

The declared metrics (BENCHMARK.json `per_layer`) are counts, bytes and
shares that every workload measures; a layer a workload never reaches
reads 0 there.  The `timings` are per-call times of layers that only some
workloads reach; they are printed with the run and written to the trace.
"""

from __future__ import annotations

from pathlib import Path

from loop import label_medians, run_cycles
from tracing import Tracer

EQUATIONS = ("yamabe", "biharmonic", "einstein_form")
PAIRINGS = ("flat-flat", "flat-sphere", "sphere-flat", "sphere-sphere")
TRACE_DIR = Path(__file__).resolve().parent / "traces"


def traced_run(package, ops, rebuild, seconds, clock=None) -> dict:
    """`ops` untraced, then `rebuild(wrap)`'s ops traced, each for half of `seconds`."""
    reference = run_cycles(ops, seconds / 2, clock)
    tracer = Tracer()
    uninstall = tracer.install(package)
    try:
        traced_ops = rebuild(tracer.wrap_field)
        traced = run_cycles(traced_ops, seconds / 2, clock, tracer)
    finally:
        uninstall()
    want = reference["digests"][0]
    result = dict(traced)
    result["traced_equal"] = all(cycle == want for cycle in reference["digests"] + traced["digests"])
    result["lat"] = reference["lat"] + traced["lat"]
    result["ref"] = reference["ref"] + traced["ref"]
    result["failures"] = reference["failures"] + traced["failures"]
    result["spent"] = reference["spent"] + traced["spent"]
    overhead = sum(label_medians(traced).values()) / sum(label_medians(reference).values())
    declared, timings = layer_metrics(tracer, traced_ops, traced)
    declared["trace.overhead"] = overhead
    result.update(declared=declared, timings=timings, tracer=tracer)
    return result


def write_trace(result: dict, stem: str) -> Path:
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{stem}.jsonl"
    result["tracer"].write(path, {"run": stem, "cycles": result["cycles"],
                                  "declared": result["declared"], "timings": result["timings"]})
    return path


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Tracer, ops, run) -> tuple[dict, dict]:
    cycles = run["cycles"]
    points = {}
    for op in ops:
        points[op.kind] = points.get(op.kind, 0) + op.points * cycles

    def op_time(prefix):
        """(calls, seconds) of the ops whose kind starts with `prefix`."""
        calls = total = 0
        for kind in t.op_names:
            if kind.startswith(prefix):
                c, s = t.total(kind, f"op:{kind}")
                calls, total = calls + c, total + s
        return calls, total

    def mean_ms(prefix):
        calls, total = op_time(prefix)
        return 1e3 * _ratio(total, calls)

    def evals(kind, slot):
        return sum(n for (k, role, s), (n, _) in t.evals.items() if k == kind and role == "lambda" and s == slot)

    _, all_time = op_time("")
    d = {}
    for eq in EQUATIONS:
        kind = f"residual.{eq}.closed"
        for slot in ("value", "grad", "hess"):
            d[f"fields.{slot}_calls_per_pt.{eq}"] = _ratio(evals(kind, slot), points.get(kind, 0))
    d["fields.value_calls_per_pt.biharmonic_fd"] = _ratio(evals("residual.biharmonic.fd", "value"),
                                                          points.get("residual.biharmonic.fd", 0))
    d["fields.self_share"] = _ratio(t.evaluator_time(), all_time)

    setup_excluded = t.counter("setup", "halton_drawn") - t.counter("setup", "grid_points")
    op_excluded = (sum(n for (k, c), n in t.counts.items() if c == "halton_drawn" and k != "setup")
                   - sum(n for (k, c), n in t.counts.items() if c == "grid_points" and k != "setup"))
    n_failed = sum(n for (k, key), n in run["tallies"].items() if key == "n_failed")
    d["residuals.points_excluded"] = setup_excluded + (op_excluded + n_failed) / cycles

    _, classify_time = t.total("", "mobius.classify_mobius")
    to_residuals = sum(s for (k, p, c), s in t.cross.items() if p == "mobius" and c == "residuals")
    d["mobius.residual_share"] = _ratio(to_residuals, classify_time)

    for name in ("radial", "s4", "torus", "continuation"):
        calls, _ = op_time(f"solver.{name}")
        d[f"solver.linear_solves.{name}"] = _ratio(t.counter(f"solver.{name}", "linear_solve"), calls)
    scans, _ = op_time("solver.scan")
    d["solver.svd_calls.scan"] = _ratio(t.counter("solver.scan", "svd"), scans)
    emitted = sum(n for (k, key), n in run["tallies"].items() if key == "continuation_points")
    d["solver.continuation_points"] = emitted / cycles

    _, cli_time = t.total("", "cli.main")
    d["cli.self_share"] = _ratio(t.self_time("cli"), cli_time)
    d["cli.report_bytes"] = sum(n for (k, key), n in run["tallies"].items() if key == "report_bytes") / cycles

    tm = {}
    for eq, variant in [(eq, "closed") for eq in EQUATIONS] + [("biharmonic", "perturbed"), ("biharmonic", "fd")]:
        kind = f"residual.{eq}.{variant}"
        label = "flat" if variant == "closed" else variant
        tm[f"residuals.us_per_pt.{eq}.{label}"] = 1e6 * _ratio(op_time(kind)[1], points.get(kind, 0))
    for name, fn in (("biharmonic", "residuals.biharmonic_residual"), ("tension", "residuals.tension_norm")):
        calls = total = 0
        for pairing in ("sphere-flat", "sphere-sphere"):
            c, s = t.total(f"classify.{pairing}", fn)
            calls, total = calls + c, total + s
        tm[f"residuals.us_per_pt.{name}.spherical"] = 1e6 * _ratio(total, calls)
    grids, grid_time = t.total("", "residuals.standard_grid")
    tm["residuals.grid_ms"] = 1e3 * _ratio(grid_time, grids)
    for method in ("radial", "tensor"):
        tm[f"families.sobolev_ms.{method}"] = mean_ms(f"sobolev.{method}")
    for pairing in PAIRINGS:
        tm[f"mobius.classify_ms.{pairing}"] = mean_ms(f"classify.{pairing}")
    for name in ("radial_1000", "radial_2000", "radial_8000", "s4", "torus", "continuation", "scan"):
        tm[f"solver.ms.{name}"] = mean_ms(f"solver.{name}")
    tm["solver.continuation_ms_per_pt"] = 1e3 * _ratio(op_time("solver.continuation")[1], emitted)
    for command in ("verify", "mobius-audit", "solve", "sweep"):
        tm[f"cli.ms.{command}"] = mean_ms(f"cli.{command}")
    return d, tm


def per_layer_metrics(result: dict, import_s: float, calib_start: float, calib_end: float) -> dict:
    units = {}
    for name, value in result["declared"].items():
        if "calls_per_pt" in name:
            unit = "calls/pt"
        elif name.endswith("_share") or name == "trace.overhead":
            unit = "ratio"
        elif name == "cli.report_bytes":
            unit = "bytes"
        else:
            unit = "count"
        units[name] = {"value": value, "unit": unit}
    units["setup.import_s"] = {"value": import_s, "unit": "s"}
    units["host.calib_ms.start"] = {"value": calib_start, "unit": "ms"}
    units["host.calib_ms.end"] = {"value": calib_end, "unit": "ms"}
    return units

