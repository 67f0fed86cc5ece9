"""The timed loop: whole cycles of ops, each op timed alone and checked."""

import contextlib
import statistics
import time

from hostspeed import HostClock


def run_cycles(ops, seconds, clock=None, tracer=None):
    """Repeat the op list in whole cycles until `seconds` of op time are spent.

    Only the public call is timed; checks and fingerprints run between ops.
    Each op's time is kept raw (`lat`) and at the reference host speed
    (`ref`, see hostspeed.py).  Without a `clock`, host speed is sampled
    only between ops."""
    clock = clock or HostClock(interval=None).start()
    lat, ref, failures, digests, tallies = [], [], [], [], {}
    spent, cycles = 0.0, 0
    while cycles == 0 or spent < seconds:
        cycle_digests = []
        for seq, op in enumerate(ops):
            ctx = tracer.op(op.kind, seq) if tracer else contextlib.nullcontext()
            mark = clock.mark()
            t = time.perf_counter()
            try:
                with ctx:
                    out = op.call()
                dt, dt_ref = clock.measure(mark, time.perf_counter() - t)
                why = op.check(out)
                cycle_digests.append(op.digest(out))
                for key, n in op.tally(out).items():
                    tallies[(op.kind, key)] = tallies.get((op.kind, key), 0) + n
            except Exception as exc:  # an op that raises counts as failed
                dt, dt_ref = clock.measure(mark, time.perf_counter() - t)
                why = f"{type(exc).__name__}: {exc}"
                cycle_digests.append(None)
            spent += dt
            lat.append(dt)
            ref.append(dt_ref)
            if why is not None:
                failures.append(f"{op.label}: {why}")
        digests.append(cycle_digests)
        cycles += 1
    return {"lat": lat, "ref": ref, "failures": failures, "digests": digests, "tallies": tallies,
            "spent": spent, "cycles": cycles, "labels": [op.label for op in ops]}


def label_medians(result, key="ref") -> dict:
    """For each distinct call of the workload, the median of its times in the run.

    Ops with the same label make the same call on the same input, so their
    repeats pool, and how often a call repeats in a cycle does not weigh it."""
    labels = result["labels"]
    times: dict = {}
    for i, dt in enumerate(result[key]):
        times.setdefault(labels[i % len(labels)], []).append(dt)
    return {label: statistics.median(ts) for label, ts in times.items()}
