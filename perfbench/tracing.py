"""Tracing for the benchmark, from outside the package: spans and counts.

The tracer wraps module attributes of `biharm4` from outside; nothing in
the package knows it exists.  Every public function of the six modules
becomes a span (name, start, end, parent, op), and a few calls become
counters: linear solves, SVDs, Halton draws and field-evaluator calls.
Spans and counts live in memory until `write` is called at the end of a
run.  Self time is derived online: a span's duration minus the time its
child spans and the field evaluators it called cover.

`install` returns an undo callable; the wrappers only observe, so a
traced run must give bit-identical results (the runner asserts this).
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import time
from collections import Counter, defaultdict

MODULES = ("fields", "residuals", "families", "mobius", "solver", "cli")
# per-point validation helper: a span per call would only measure the tracer
UNWRAPPED = {"as_point"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_module: list[str] = []
        self.spans: list[tuple] = []   # (sid, name_idx, t0, t1, parent_sid, op_seq)
        self.stack: list[list] = []    # [sid, name_idx, module, t0, covered]
        self.next_sid = 0
        self.op_kind = "setup"
        self.op_seq = -1
        self.agg = defaultdict(lambda: [0, 0.0, 0.0])   # (kind, name) -> calls, total s, self s
        self.cross = defaultdict(float)                  # (kind, parent module, child module) -> s
        self.counts = Counter()                          # (kind, counter) -> n
        self.evals = defaultdict(lambda: [0, 0.0])       # (kind, role, slot) -> calls, s
        self.op_names: dict[str, int] = {}

    # -- spans -------------------------------------------------------------

    def _name(self, name: str, module: str) -> int:
        self.names.append(name)
        self.name_module.append(module)
        return len(self.names) - 1

    def _enter(self, idx: int) -> list:
        frame = [self.next_sid, idx, self.name_module[idx], time.perf_counter(), 0.0]
        self.next_sid += 1
        self.stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        t1 = time.perf_counter()
        self.stack.pop()
        sid, idx, module, t0, covered = frame
        dur = t1 - t0
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[4] += dur
            if parent[2] != module:
                self.cross[(self.op_kind, parent[2], module)] += dur
        a = self.agg[(self.op_kind, self.names[idx])]
        a[0] += 1
        a[1] += dur
        a[2] += dur - covered
        self.spans.append((sid, idx, t0, t1, parent[0] if parent is not None else -1, self.op_seq))

    def op(self, kind: str, seq: int) -> "_OpSpan":
        """Root span of one benchmark op; spans of one op share `seq`."""
        if kind not in self.op_names:
            self.op_names[kind] = self._name(f"op:{kind}", "bench")
        return _OpSpan(self, kind, seq)

    def wrap_function(self, name: str, module: str, fn, post=None):
        idx = self._name(name, module)

        def traced(*args, **kwargs):
            frame = self._enter(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            return post(out) if post is not None else out

        traced.__wrapped__ = fn
        return traced

    # -- counters ----------------------------------------------------------

    def count(self, counter: str, n: int = 1) -> None:
        self.counts[(self.op_kind, counter)] += n

    def counting(self, counter: str, fn):
        def counted(*args, **kwargs):
            self.counts[(self.op_kind, counter)] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def wrap_field(self, field, role: str = "lambda"):
        """Copy of a ScalarField4 whose evaluators count calls and time.

        Evaluator time is subtracted from the self time of the calling span,
        so `fields.self_share` is the time spent inside field evaluators."""

        def timed(slot, fn):
            if fn is None:
                return None

            def evaluator(x):
                t0 = time.perf_counter()
                try:
                    return fn(x)
                finally:
                    dur = time.perf_counter() - t0
                    e = self.evals[(self.op_kind, role, slot)]
                    e[0] += 1
                    e[1] += dur
                    if self.stack:
                        self.stack[-1][4] += dur

            return evaluator

        return dataclasses.replace(field, value=timed("value", field.value),
                                   grad=timed("grad", field.grad), hess=timed("hess", field.hess))

    def _count_grid(self, grid):
        self.count("grid_points", len(grid))
        return grid

    # -- installation ------------------------------------------------------

    def install(self, package) -> callable:
        """Wrap the public functions of each module of `package` in place.

        Every binding of a wrapped function object in any of the modules
        (including `from .x import f` copies) is replaced, so calls through
        module globals are seen wherever they come from."""
        import numpy
        from importlib import import_module

        mods = {m: import_module(f"{package.__name__}.{m}") for m in MODULES}
        bindings = [package] + list(mods.values())
        undo = []

        def patch(owner, attr, new):
            undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        post = {
            ("mobius", "mobius_conformal_factor"): self.wrap_field,
            ("fields", "spherical_mu"): lambda f: self.wrap_field(f, "mu"),
            ("residuals", "standard_grid"): self._count_grid,
        }
        replacements = {}
        for m, mod in mods.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_") and name not in UNWRAPPED):
                    replacements[id(obj)] = self.wrap_function(f"{m}.{name}", m, obj, post.get((m, name)))
        for owner in bindings:
            for attr, obj in list(vars(owner).items()):
                if id(obj) in replacements and inspect.isfunction(obj):
                    patch(owner, attr, replacements[id(obj)])

        solver = mods["solver"]
        patch(solver, "solve_banded", self.counting("linear_solve", solver.solve_banded))
        patch(numpy.linalg, "solve", self.counting("linear_solve", numpy.linalg.solve))
        patch(numpy.linalg, "svd", self.counting("svd", numpy.linalg.svd))
        patch(mods["residuals"], "qmc", _CountingQmc(mods["residuals"].qmc, self))

        def uninstall():
            for owner, attr, old in reversed(undo):
                setattr(owner, attr, old)

        return uninstall

    # -- derived quantities ------------------------------------------------

    def total(self, kind_prefix: str, name: str) -> tuple[int, float]:
        calls = total = 0.0
        for (k, n), (c, t, _) in self.agg.items():
            if n == name and k.startswith(kind_prefix):
                calls += c
                total += t
        return int(calls), total

    def self_time(self, module: str) -> float:
        names = {n for n, m in zip(self.names, self.name_module) if m == module}
        return sum(s for (_, n), (_, _, s) in self.agg.items() if n in names)

    def evaluator_time(self) -> float:
        return sum(t for _, t in self.evals.values())

    def counter(self, kind_prefix: str, counter: str) -> int:
        return sum(n for (k, c), n in self.counts.items() if c == counter and k.startswith(kind_prefix))

    def write(self, path, summary: dict) -> None:
        """One summary line, one line per aggregate, then every span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"summary": summary}, sort_keys=True) + "\n")
            for (kind, name), (calls, total, own) in sorted(self.agg.items()):
                fh.write(json.dumps({"kind": kind, "name": name, "calls": calls,
                                     "total_s": total, "self_s": own}) + "\n")
            for sid, idx, t0, t1, parent, seq in self.spans:
                fh.write(json.dumps({"id": sid, "name": self.names[idx], "t0": t0, "t1": t1,
                                     "parent": parent, "op": seq}) + "\n")


class _OpSpan:
    def __init__(self, tracer: Tracer, kind: str, seq: int):
        self.tracer, self.kind, self.seq = tracer, kind, seq

    def __enter__(self):
        t = self.tracer
        t.op_kind, t.op_seq = self.kind, self.seq
        self.frame = t._enter(t.op_names[self.kind])
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t._exit(self.frame)
        t.op_kind, t.op_seq = "setup", -1
        return False


class _CountingQmc:
    """Stands in for `scipy.stats.qmc` inside `residuals`, counting the
    Halton candidates that `standard_grid` draws."""

    def __init__(self, real, tracer: Tracer):
        self._real = real
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._real, name)

    def Halton(self, *args, **kwargs):
        sampler = self._real.Halton(*args, **kwargs)
        draw = sampler.random
        tracer = self._tracer

        def random(n=1, *a, **k):
            tracer.count("halton_drawn", n)
            return draw(n, *a, **k)

        sampler.random = random
        return sampler
