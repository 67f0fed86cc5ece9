"""The benchmark's own tests, at small sizes.

    python -X dev -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import biharm4
import layers
import workloads
from loop import run_cycles
from tracing import Tracer

BENCH = Path(__file__).resolve().parents[1]
SEED = 3


def build(workload, seed, workdir, **kwargs):
    return workloads.build(workload, seed, small=True, workdir=workdir, **kwargs)


def one_cycle(ops, tracer=None):
    return run_cycles(ops, 0.0, tracer=tracer)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_op_passes_at_the_seed(workload, tmp_path):
    result = one_cycle(build(workload, SEED, tmp_path))
    assert result["failures"] == []
    assert result["cycles"] == 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_inputs_and_results(workload, tmp_path):
    a, b = build(workload, SEED, tmp_path), build(workload, SEED, tmp_path)
    assert [op.label for op in a] == [op.label for op in b]
    assert one_cycle(a)["digests"] == one_cycle(b)["digests"]
    other = build(workload, SEED + 1, tmp_path)
    assert [op.label for op in other] != [op.label for op in a]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_results_equal_untraced(workload, tmp_path):
    original = biharm4.residuals.residual_report
    ops = build(workload, SEED, tmp_path)
    result = layers.traced_run(biharm4, ops, lambda wrap: build(workload, SEED, tmp_path, wrap=wrap), 0.0)
    assert result["traced_equal"]
    assert result["failures"] == []
    assert biharm4.residuals.residual_report is original   # the tracer is uninstalled
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    metrics = layers.per_layer_metrics(result, 1.0, 1.0, 1.0)
    assert sorted(metrics) == sorted(m["name"] for m in declared)
    assert all(metrics[m["name"]]["unit"] == m["unit"] for m in declared)


def test_tracer_counts_scan_svds_and_field_calls(tmp_path):
    ops = [op for op in build("solve", SEED, tmp_path) if op.kind == "solver.scan"]
    tracer = Tracer()
    uninstall = tracer.install(biharm4)
    try:
        one_cycle(ops, tracer)
    finally:
        uninstall()
    assert tracer.counter("solver.scan", "svd") == 163   # one per k in the scan

    lam = tracer.wrap_field(biharm4.Bubble(4, 1.0, (0.0,) * 4).as_field())
    grid = biharm4.standard_grid(3, 5.0)
    biharm4.residual_report("yamabe", lam, grid, a=0.0, A=-2.0)
    assert tracer.evals[("setup", "lambda", "hess")][0] == 3


def test_without_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__", ".work", "traces"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "verify", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_host_clock_scales_by_the_kernel_samples_around_a_section():
    from hostspeed import REF_KERNEL_S, HostClock

    clock = HostClock(interval=None).start()
    mark = clock.mark()
    own, ref = clock.measure(mark, 0.5)
    window = clock.samples[mark[0]:]
    assert len(window) == 2 and own == 0.5
    assert ref == pytest.approx(0.5 * REF_KERNEL_S / (sum(window) / 2))


def test_host_clock_takes_handler_time_out_of_a_section():
    import signal
    import time

    from hostspeed import HostClock

    before = signal.getsignal(signal.SIGALRM)
    clock = HostClock(interval=0.01).start()
    try:
        mark = clock.mark()
        t = time.perf_counter()
        while time.perf_counter() - t < 0.2:
            pass
        elapsed = time.perf_counter() - t
        own, _ = clock.measure(mark, elapsed)
    finally:
        clock.stop()
    assert len(clock.samples) - mark[0] > 3          # samples were taken inside the section
    assert 0.5 * elapsed < own < elapsed                # the handler's time is not the section's
    assert signal.getsignal(signal.SIGALRM) is before   # the handler is uninstalled
