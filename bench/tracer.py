"""Spans around the package's public functions, recorded from outside it.

`Tracer.install` replaces each public function of every layer module (and
each public classmethod of its classes) with a wrapper that records a span:
name, start, end and the index of the enclosing span.  A function is
replaced in every namespace of the package that binds it, so
`driver.derive_scales` is traced as well as `scales.derive_scales`.
Spans stay in memory until `write`.

One stack gives each span its parent.  That is exact because the workloads
leave every thread pool of the package at one worker: the pool thread runs
while the caller blocks, so spans never interleave.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("scales", "fock", "moments", "oracle", "criteria", "loop", "search", "driver")


def _count_fock_terms(counts, args, result, seconds):
    # amplitudes held by every FockState a fock constructor hands back
    amp = getattr(result, "amp", None)
    if isinstance(amp, dict):
        counts["fock.terms"] += len(amp)


def _count_oracle_steps(counts, args, result, seconds):
    counts["oracle.steps"] += len(result.times) - 1
    counts["oracle.integrate_s"] += seconds


def _count_loop_events(counts, args, result, seconds):
    cfg = result.config
    counts[f"loop.{cfg.schedule}.traj_events"] += (
        cfg.trajectories * float(result.n_events[-1]))
    counts[f"loop.{cfg.schedule}.busy_s"] += seconds


def _count_search_rows(counts, args, result, seconds):
    rows = result[2]["rows"]
    counts["search.busy_s"] += seconds
    counts["search.restarts"] += len(rows)
    counts["search.iterations"] += sum(r["iterations"] for r in rows)
    counts["search.converged"] += sum(1 for r in rows if r["converged"])


def _count_bytes_out(counts, args, result, seconds):
    target = args[0] if args else None
    if isinstance(target, str):
        counts["driver.bytes_out"] += os.path.getsize(target)


# span name (or layer prefix ending in ".") -> counter update from the
# arguments, the result and the span's duration
_HOOKS = {
    "fock.": _count_fock_terms,
    "oracle.integrate": _count_oracle_steps,
    "loop.run_ensemble": _count_loop_events,
    "search.search_state": _count_search_rows,
    "driver.write_csv": _count_bytes_out,
    "driver.write_json": _count_bytes_out,
}


def _hook_for(name: str):
    return _HOOKS.get(name) or _HOOKS.get(name.split(".", 1)[0] + ".")


def public_functions(module):
    """(qualified name, owner, attribute, function) for a module's public API."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, module, name, obj
        elif inspect.isclass(obj):
            for attr, raw in vars(obj).items():
                if not attr.startswith("_") and isinstance(raw, classmethod):
                    yield f"{name}.{attr}", obj, attr, raw


class Tracer:
    """Records spans and counts for the calls into the package's layers."""

    def __init__(self, package: str):
        self.package = package
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name, func):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        hook = _hook_for(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if hook is not None:
                hook(counts, args, result, span[2] - span[1])
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{self.package}.{layer}")
            for qual, owner, attr, func in public_functions(module):
                if isinstance(func, classmethod):
                    self._patch(owner, attr,
                                classmethod(self._wrap(f"{layer}.{qual}", func.__func__)))
                else:
                    wrappers[func] = self._wrap(f"{layer}.{qual}", func)
        prefix = self.package + "."
        namespaces = [m for key, m in sys.modules.items()
                      if key == self.package or key.startswith(prefix)]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(ns, attr, wrappers[obj])

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def mark(self) -> tuple[int, Counter]:
        """Position to measure a later stretch of spans and counts from."""
        return len(self.spans), Counter(self.counts)

    def self_times(self, since: int = 0) -> dict[str, float]:
        """Span name -> total self time (duration minus child spans)."""
        spans = self.spans[since:]
        child = defaultdict(float)
        for name, start, end, parent in spans:
            if parent >= since:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _) in enumerate(spans, start=since):
            out[name] += end - start - child[i]
        return dict(out)

    def calls(self, since: int = 0) -> Counter:
        return Counter(span[0] for span in self.spans[since:])

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


def layer_metrics(tracer: Tracer, since: int, counts_before: Counter,
                  traced_s: float, untraced_s: float) -> dict:
    """Per-layer figures for one traced pass, the spans recorded after `since`.

    traced_s and untraced_s are the wall times of the pass with and without
    tracing; the residual is the part of the traced pass no layer covers.
    """
    selfs = tracer.self_times(since)
    calls = tracer.calls(since)
    counts = tracer.counts - counts_before

    def self_of(prefix):
        return sum(v for k, v in selfs.items() if k == prefix or k.startswith(prefix + "."))

    def calls_of(prefix):
        return sum(v for k, v in calls.items() if k == prefix or k.startswith(prefix + "."))

    out = {f"{layer}.self_s": self_of(layer) for layer in LAYERS}
    out.update({
        "driver.write.self_s": self_of("driver.write_csv") + self_of("driver.write_json"),
        "driver.bytes_out": counts["driver.bytes_out"],
        "scales.calls": calls_of("scales"),
        "fock.condensate_state.self_s": self_of("fock.condensate_state"),
        "fock.few_body_expectation.self_s": self_of("fock.few_body_expectation"),
        "fock.few_body_expectation.calls": calls_of("fock.few_body_expectation"),
        "fock.terms": counts["fock.terms"],
        "moments.evolve.calls": calls_of("moments.evolve"),
        "oracle.build_generator.self_s": self_of("oracle.build_generator"),
        "oracle.sector_operator.calls": calls_of("oracle.sector_operator"),
        "oracle.integrate.self_s": self_of("oracle.integrate"),
        "oracle.steps": counts["oracle.steps"],
        "criteria.quadrature_harmonics.calls": calls_of("criteria.quadrature_harmonics"),
    })
    busy = counts["oracle.integrate_s"]
    out["oracle.steps_per_s"] = counts["oracle.steps"] / busy if busy else 0.0
    out["loop.traj_events"] = 0.0
    for sched in ("regular", "poisson"):
        events, busy = counts[f"loop.{sched}.traj_events"], counts[f"loop.{sched}.busy_s"]
        out["loop.traj_events"] += events
        out[f"loop.{sched}.traj_events_per_s"] = events / busy if busy else 0.0
    restarts = counts["search.restarts"]
    out["search.restart_s"] = counts["search.busy_s"] / restarts if restarts else 0.0
    out["search.iterations"] = counts["search.iterations"]
    out["search.converged_frac"] = counts["search.converged"] / restarts if restarts else 0.0
    out["trace.wall_s"] = traced_s
    out["trace.overhead_s"] = traced_s - untraced_s
    out["trace.residual_s"] = traced_s - sum(out[f"{layer}.self_s"] for layer in LAYERS)
    return out
