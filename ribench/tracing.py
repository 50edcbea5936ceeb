"""Span tracer that times calls into riimpute from outside the library.

Every traced function is wrapped where its callers look it up: each attribute
of a loaded ``riimpute`` module that is bound to the function object is
replaced by a timing wrapper while a traced operation runs, and restored when
it ends. The library source is never edited, so untraced operations run the
exact code a user runs.

A span records its name, start, end, parent span and operation id. Spans are
kept in memory; ``write_spans`` writes them out when the run ends. A span's
self time is its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import json
import logging
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

# Traced functions by layer; a layer is the module that defines the function.
LAYER_FUNCTIONS: dict[str, tuple[str, ...]] = {
    "rng": ("sample_mvnormal", "sample_bernoulli", "sample_scaled_inv_chi2"),
    "fitters": ("logistic_fit", "ols_fit"),
    "mechanism": ("generate_missingness",),
    "imputation": (
        "ri_impute",
        "mar_impute",
        "impute_given_rdot",
        "draw_psi_posterior",
        "draw_rdot",
        "complete_case",
    ),
    "pooling": ("fit_analysis", "rubin_pool", "single_fit_estimate", "coverage"),
    "simulation": ("run_scenario", "run_replication", "generate_complete_data", "density_summary"),
    "cli": ("main", "read_csv_columns", "write_csv_columns"),
}


def _file_bytes(args, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


# Extra per-call figures read from a traced call's arguments or result.
EXTRAS = {
    "fitters.logistic_fit": lambda args, result: {"iters": result.iterations},
    "cli.read_csv_columns": _file_bytes,
    "cli.write_csv_columns": _file_bytes,
}

FALLBACK_MESSAGE = "sweep uses zero shift"


@dataclass(eq=False)
class Span:
    name: str
    parent: "Span | None"
    op: int
    start: float = 0.0
    end: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class _FallbackCounter(logging.Handler):
    """Counts the imputer's zero-shift fallback warnings."""

    def __init__(self) -> None:
        super().__init__(level=logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        if FALLBACK_MESSAGE in record.getMessage():
            self.count += 1


class Tracer:
    """Collects spans for operations run inside ``operation()``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.roots: list[Span] = []
        self.fallback_sweeps = 0
        self._local = threading.local()
        self._root: Span | None = None

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        extra = EXTRAS.get(name)

        def traced(*args, **kwargs):
            stack = self._stack()
            # calls from worker threads start with an empty stack; they hang off the operation
            span = Span(name, stack[-1] if stack else self._root, self._root.op)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if extra is not None:
                span.extra = extra(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _install(self) -> list[tuple[object, str, object]]:
        modules = [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == "riimpute" or name.startswith("riimpute."))
        ]
        wrappers = {}
        for layer, names in LAYER_FUNCTIONS.items():
            home = sys.modules.get(f"riimpute.{layer}")
            for fn_name in names:
                # a function the library no longer has simply reports zero calls
                original = getattr(home, fn_name, None)
                if callable(original):
                    wrappers[id(original)] = self._wrap(f"{layer}.{fn_name}", original)
        patches = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return patches

    @contextmanager
    def operation(self, name: str):
        """Trace one benchmark operation; yields its root span."""
        root = Span(name, None, len(self.roots))
        patches = self._install()
        counter = _FallbackCounter()
        logger = logging.getLogger("riimpute.imputation")
        logger.addHandler(counter)
        self._root = root
        root.start = time.perf_counter()
        try:
            yield root
        finally:
            root.end = time.perf_counter()
            self._root = None
            logger.removeHandler(counter)
            for module, attr, original in patches:
                setattr(module, attr, original)
            self.roots.append(root)
            self.fallback_sweeps += counter.count


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span, keyed by ``id(span)``."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append(span)
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children[id(span)], key=lambda s: s.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[id(span)] = span.duration - covered
    return out


def function_stats(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per traced function: calls, self seconds, total seconds and extras, summed over all ops."""
    selfs = self_times(tracer.spans + tracer.roots)
    stats: dict[str, dict[str, float]] = {}
    for layer, names in LAYER_FUNCTIONS.items():
        for fn_name in names:
            stats[f"{layer}.{fn_name}"] = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    for span in tracer.spans:
        entry = stats[span.name]
        entry["calls"] += 1
        entry["self_s"] += selfs[id(span)]
        entry["total_s"] += span.duration
        for key, value in span.extra.items():
            entry[key] = entry.get(key, 0) + value
    return stats


def uncovered_by_op(tracer: Tracer) -> dict[int, float]:
    """Operation wall time minus the self times of all library spans inside it."""
    selfs = self_times(tracer.spans + tracer.roots)
    covered: dict[int, float] = defaultdict(float)
    for span in tracer.spans:
        covered[span.op] += selfs[id(span)]
    return {root.op: root.duration - covered[root.op] for root in tracer.roots}


def write_spans(tracer: Tracer, path) -> None:
    """Write every span as one JSON line: name, start, end, parent index, operation id."""
    ordered = sorted(tracer.roots + tracer.spans, key=lambda s: s.start)
    index = {id(span): i for i, span in enumerate(ordered)}
    with open(path, "w", encoding="utf-8") as handle:
        for i, span in enumerate(ordered):
            record = {
                "id": i,
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "parent": None if span.parent is None else index[id(span.parent)],
                "op": span.op,
            }
            if span.extra:
                record["extra"] = span.extra
            handle.write(json.dumps(record) + "\n")
