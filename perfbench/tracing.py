"""Span tracer attached to dualtherm from outside the program.

Each traced layer function is replaced, for the duration of a traced round,
by a wrapper on the attribute the calling module looks it up through (for
example ``dualtherm.scenarios.select_dip_count``, which the record pipeline
calls, and ``dualtherm.fitting.fit_odmr_dips``, which the dip-count selector
calls).  A wrapper records a span (name, start, end, parent) and, for fits,
the counts read off the returned ``FitResult``.  A layer's self time is its
spans' duration minus the time covered by their child spans.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: spans that wrap a whole operation; their self time is benchmark glue
OP_SPAN = "bench.op"

#: (module, attribute, layer name) for every traced call site;
#: ``fitting.fit_odmr_dips`` is split by dip count when it is called
PATCH_POINTS = (
    ("cli", "main", "cli"),
    ("cli", "load_config", "config.load_config"),
    ("cli", "run_scenario", "scenarios"),
    ("cli", "write_records", "records.write_records"),
    ("cli", "parse_records_csv", "records.parse_records_csv"),
    ("cli", "channel_regression", "crossval.channel_regression"),
    ("crossval", "artifact_monitor", "crossval.artifact_monitor"),
    ("scenarios", "run_bfield_artifact", "scenarios"),
    ("scenarios", "run_precision_sweep", "scenarios"),
    ("scenarios", "select_dip_count", "fitting.select_dip_count"),
    ("scenarios", "fit_odmr_dips", "fitting.fit_odmr_dips"),
    ("scenarios", "fit_pl_peak", "fitting.fit_pl_peak"),
    ("scenarios", "sample_poisson_counts", "noise.sample_poisson_counts"),
    ("scenarios", "bfield_sweep", "noise.bfield_sweep"),
    ("scenarios", "drift_step", "noise.drift_step"),
    ("scenarios", "artifact_monitor", "crossval.artifact_monitor"),
    ("fitting", "fit_odmr_dips", "fitting.fit_odmr_dips"),
)

_DIP_NAMES = {1: "one", 2: "two"}


class Tracer:
    """In-memory spans and counts of one traced round."""

    def __init__(self, max_iterations: int) -> None:
        self.max_iterations = max_iterations
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def wrap(self, layer: str, fn: Callable) -> Callable:
        if layer == "fitting.fit_odmr_dips":
            return self._wrap_dip_fit(fn)
        if layer == "fitting.select_dip_count":
            return self._wrap_selection(fn)
        if layer == "fitting.fit_pl_peak":
            return self._wrap_fit(layer, fn)

        def traced(*args: Any, **kwargs: Any) -> Any:
            return self.call(layer, fn, args, kwargs)

        return traced

    def _count_fit(self, prefix: str, fit: Any) -> None:
        self.counts[f"{prefix}.calls"] += 1
        self.counts[f"{prefix}.iterations"] += fit.iterations
        self.counts[f"{prefix}.capped"] += int(fit.iterations >= self.max_iterations)

    def _wrap_fit(self, layer: str, fn: Callable) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            fit = self.call(layer, fn, args, kwargs)
            self._count_fit(layer, fit)
            return fit

        return traced

    def _wrap_dip_fit(self, fn: Callable) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            n_dips = args[1] if len(args) > 1 else kwargs["n_dips"]
            layer = f"fitting.fit_odmr_dips.{_DIP_NAMES[n_dips]}"
            fit = self.call(layer, fn, args, kwargs)
            self._count_fit(layer, fit)
            return fit

        return traced

    def _wrap_selection(self, fn: Callable) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            n_dips, fit = self.call("fitting.select_dip_count", fn, args, kwargs)
            self.counts["fitting.select_dip_count.calls"] += 1
            self.counts["fitting.fit_odmr_dips.two.kept"] += int(n_dips == 2)
            return n_dips, fit

        return traced

    def self_times(self) -> dict[str, float]:
        """Self time in seconds per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: Counter[str] = Counter()
        for (name, start, end, _), covered in zip(self.spans, child):
            totals[name] += end - start - covered
        return dict(totals)

    def root_time(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)


@contextmanager
def attached(tracer: Tracer, package: Any) -> Iterator[None]:
    """Route every patch point through ``tracer``; restore on exit."""
    originals = []
    for module_name, attr, layer in PATCH_POINTS:
        module = getattr(package, module_name)
        fn = getattr(module, attr)
        originals.append((module, attr, fn))
        setattr(module, attr, tracer.wrap(layer, fn))
    try:
        yield
    finally:
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)
