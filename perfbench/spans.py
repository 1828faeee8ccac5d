"""In-memory spans around calls into derivreg's layers, for the traced run.

The program is not edited: :meth:`Tracer.installed` replaces a few public
functions and methods with timing wrappers for the duration of one CLI call
and puts the originals back afterwards.  Each span records its name, start,
end, parent span, CLI call id and operation id (the Monte Carlo replication
on ``mc_table``).  Peak memory of the four array-heavy layers comes from
``tracemalloc`` in a separate memory call, where it runs only while one of
them is on the stack; the timings come from calls without ``tracemalloc``,
whose per-allocation cost would otherwise inflate Python-heavy layers.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
import tracemalloc

import numpy as np

PEAK_LAYERS = (
    "simulation.derivative_ac_curve",
    "estimators.nadaraya_watson_grid",
    "estimators.fit",
    "density.loo_at_rows",
)

# (metric name, unit) in the order BENCHMARK.json lists them.
LAYER_METRICS = [
    ("simulation.generate_s", "s/op"),
    ("simulation.derivative_ac_curve_s", "s/op"),
    ("simulation.derivative_ac_curve.peak_mb", "MB"),
    ("estimators.nadaraya_watson_grid_s", "s/op"),
    ("estimators.nadaraya_watson_grid.peak_mb", "MB"),
    ("estimators.fit.self_s", "s/op"),
    ("estimators.fit.peak_mb", "MB"),
    ("estimators.fit.calls", "count/op"),
    ("density.loo_at_rows_s", "s/op"),
    ("density.loo_at_rows.peak_mb", "MB"),
    ("density.loo_at_rows.calls", "count/op"),
    ("kernels.eval_s", "s/op"),
    ("kernels.eval.calls", "count/op"),
    ("kernels.eval.values", "count/op"),
    ("functionals.weighted_integral_s", "s/op"),
    ("functionals.weighted_integral.calls", "count/op"),
    ("functionals.build_term_plan_s", "s/op"),
    ("core.testfunction_s", "s/op"),
    ("core.testfunction.points", "count/op"),
    ("cli.self_s", "s/op"),
    ("trace.overhead_s", "s/op"),
]

# Span fields.
NAME, START, END, PARENT, CALL, OP, COUNT, PEAK = range(8)


def _rows(pts) -> int:
    return int(np.atleast_2d(np.asarray(pts)).shape[0])


class Tracer:
    """Collects spans for the CLI calls made inside :meth:`call`."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.peaks: list[list[int]] = []  # [base bytes, highest bytes, started here]
        self.calls = 0
        self.memory_calls: set[int] = set()
        self.op = None
        self.replications = 0

    # -- span bookkeeping ---------------------------------------------------

    def _open(self, name: str, count, peak: bool) -> int:
        peak = peak and self.calls in self.memory_calls
        if peak:
            if tracemalloc.is_tracing():
                _, high = tracemalloc.get_traced_memory()
                self.peaks[-1][1] = max(self.peaks[-1][1], high)
                started = False
            else:
                tracemalloc.start()
                started = True
            tracemalloc.reset_peak()
            cur, _ = tracemalloc.get_traced_memory()
            self.peaks.append([cur, cur, started])
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, 0.0, 0.0, parent, self.calls, self.op, count, None])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        self.spans[idx][START] = time.perf_counter()
        return idx

    def _close(self, idx: int, peak: bool) -> None:
        peak = peak and self.calls in self.memory_calls
        span = self.spans[idx]
        span[END] = time.perf_counter()
        self.stack.pop()
        if peak:
            _, high = tracemalloc.get_traced_memory()
            base, top, started = self.peaks.pop()
            top = max(top, high)
            span[PEAK] = top - base
            if self.peaks:
                self.peaks[-1][1] = max(self.peaks[-1][1], top)
            if started:
                tracemalloc.stop()

    def _wrap(self, name: str, fn, count=None, on_enter=None):
        tracer = self
        peak = name in PEAK_LAYERS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # A layer calling itself (TestFunction.deriv -> __call__) is one span.
            if tracer.stack and tracer.spans[tracer.stack[-1]][NAME] == name:
                return fn(*args, **kwargs)
            if on_enter is not None:
                on_enter(args)
            idx = tracer._open(name, count(args) if count else None, peak)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx, peak)

        return wrapper

    def _new_replication(self, args) -> None:
        self.op = self.replications
        self.replications += 1

    # -- installation -------------------------------------------------------

    def _targets(self):
        import derivreg.cli as cli
        import derivreg.core as core
        import derivreg.estimators as estimators
        import derivreg.functionals as functionals
        import derivreg.kernels as kernels
        import derivreg.simulation as simulation

        return [
            (cli, "fit", "estimators.fit", {}),
            (estimators, "loo_at_rows", "density.loo_at_rows", {}),
            (simulation, "derivative_ac_curve", "simulation.derivative_ac_curve", {}),
            (simulation, "nadaraya_watson_grid", "estimators.nadaraya_watson_grid", {}),
            (
                simulation,
                "generate",
                "simulation.generate",
                {"count": lambda a: int(a[0].n), "on_enter": self._new_replication},
            ),
            (kernels.KernelSpec, "eval", "kernels.eval", {"count": lambda a: int(np.size(a[1]))}),
            (functionals, "weighted_integral", "functionals.weighted_integral", {}),
            (core.TestFunction, "deriv", "core.testfunction", {"count": lambda a: _rows(a[2])}),
            (core.TestFunction, "__call__", "core.testfunction", {"count": lambda a: _rows(a[1])}),
            (cli, "build_term_plan", "functionals.build_term_plan", {}),
            (estimators, "build_term_plan", "functionals.build_term_plan", {}),
        ]

    @contextlib.contextmanager
    def installed(self):
        """Wrap the traced boundaries; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name, opts in self._targets():
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, **opts))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def call(self, fn, *args, memory: bool = False):
        """Run one CLI call as a root span named ``cli``; with ``memory``,
        record peaks of the array-heavy layers instead of timings."""
        self.calls += 1
        if memory:
            self.memory_calls.add(self.calls)
        self.op = None
        with self.installed():
            idx = self._open("cli", None, False)
            try:
                return fn(*args)
            finally:
                self._close(idx, False)

    # -- aggregation --------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] is not None:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def layer_metrics(self, n_ops: int, overhead_s: float) -> dict[str, float]:
        """Per-operation totals over the timing calls (means over their
        ``n_ops`` operations) and the largest peak of the memory calls."""
        selfs = self.self_times()
        total: dict[str, float] = {}
        self_total: dict[str, float] = {}
        calls: dict[str, int] = {}
        counts: dict[str, int] = {}
        peak: dict[str, int] = {}
        for s, st in zip(self.spans, selfs):
            name = s[NAME]
            if s[CALL] in self.memory_calls:
                if s[PEAK] is not None:
                    peak[name] = max(peak.get(name, 0), s[PEAK])
                continue
            total[name] = total.get(name, 0.0) + s[END] - s[START]
            self_total[name] = self_total.get(name, 0.0) + st
            calls[name] = calls.get(name, 0) + 1
            if s[COUNT] is not None:
                counts[name] = counts.get(name, 0) + s[COUNT]
        per = max(n_ops, 1)
        values = {"trace.overhead_s": overhead_s}
        for metric, _unit in LAYER_METRICS:
            if metric in values:
                continue
            layer, _, kind = metric.rpartition(".")
            if kind == "peak_mb":
                values[metric] = peak.get(layer, 0) / 2**20
            elif kind == "calls":
                values[metric] = calls.get(layer, 0) / per
            elif kind in ("values", "points"):
                values[metric] = counts.get(layer, 0) / per
            elif kind == "self_s":
                values[metric] = self_total.get(layer, 0.0) / per
            else:  # "<layer>_s"
                values[metric] = total.get(metric[: -len("_s")], 0.0) / per
        return values

    def per_replication(self) -> dict[str, dict[str, float]]:
        """Median seconds per Monte Carlo replication, by sample size n."""
        per_rep: dict[tuple[int, int], dict[str, float]] = {}
        n_of: dict[tuple[int, int], int] = {}
        for s in self.spans:
            if s[OP] is None or s[CALL] in self.memory_calls:
                continue
            key = (s[CALL], s[OP])
            if s[NAME] == "simulation.generate":
                n_of[key] = s[COUNT]
            layers = per_rep.setdefault(key, {})
            layers[s[NAME]] = layers.get(s[NAME], 0.0) + s[END] - s[START]
        by_n: dict[int, list[dict[str, float]]] = {}
        for key, layers in per_rep.items():
            by_n.setdefault(n_of[key], []).append(layers)
        out = {}
        for n, reps in sorted(by_n.items()):
            names = sorted({name for r in reps for name in r})
            out[str(n)] = {
                name: statistics.median(r.get(name, 0.0) for r in reps) for name in names
            }
            out[str(n)]["replications"] = len(reps)
        return out

    def dump(self) -> list[dict]:
        keys = ("name", "start", "end", "parent", "call", "op", "count", "peak_bytes")
        return [dict(zip(keys, s)) for s in self.spans]
