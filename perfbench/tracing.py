"""Traced in-process run of the CLI: spans around the public functions of
each module of the package, recorded from the benchmark's own code.

The CLI's ``main`` is called in this process with the names each calling
module looks up replaced by wrappers, so every call into a layer opens a span
with its name, start, end and parent, a call count and the tracemalloc peak
inside it. Solvers that take a ``matrix`` argument get their distance matrix
from a separately traced ``pairwise_matrix`` call passed in as ``matrix=``,
which is the work their own "auto" path does, so the metric and medoids spans
do not overlap.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

MB = float(1 << 20)


class Tracer:
    """Spans kept in memory, written out once at the end."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self.open: list[dict] = []
        self.run = None
        self._patched: list[tuple[object, str, object]] = []

    def _fold_peak(self) -> int:
        """Fold the tracemalloc peak since the last boundary into every open
        span that tracks memory; returns the memory traced now."""
        current, peak = tracemalloc.get_traced_memory()
        for span in self.open:
            if "_peak" in span:
                span["_peak"] = max(span["_peak"], peak)
        tracemalloc.reset_peak()
        return current

    @contextmanager
    def span(self, name: str, memory: bool = False):
        """One span. With ``memory`` set, tracemalloc runs inside it unless it
        already runs, and every span opened while it runs records the peak
        allocation above its entry level. tracemalloc slows Python-level
        allocation several-fold, so it stays off around the CSV parser, dedupe
        and the exhaustive scan, whose times it would distort."""
        start = time.perf_counter() - self.t0
        owner = memory and not tracemalloc.is_tracing()
        if owner:
            tracemalloc.start()
        span = {
            "id": len(self.spans),
            "parent": self.open[-1]["id"] if self.open else None,
            "run": self.run,
            "name": name,
            "start": start,
        }
        if tracemalloc.is_tracing():
            span["_entry"] = span["_peak"] = self._fold_peak()
        self.spans.append(span)
        self.open.append(span)
        try:
            yield span
        finally:
            if tracemalloc.is_tracing():
                self._fold_peak()
            self.open.pop()
            if "_peak" in span:
                span["peak_alloc_bytes"] = span.pop("_peak") - span.pop("_entry")
            if owner:
                tracemalloc.stop()
            span["end"] = time.perf_counter() - self.t0

    def patch(self, module, attr: str, replacement) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def wrap(self, module, attr: str, name: str, annotate=None, memory=False) -> None:
        """Replace ``module.attr`` by a traced call; ``annotate(args, result)``
        returns fields recorded on the span. A name the module no longer has
        is skipped, and its layer metrics read 0."""
        fn = getattr(module, attr, None)
        if fn is None:
            return

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, memory) as span:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    span.update(annotate(args, result))
                return result

        self.patch(module, attr, traced)

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans, indent=1) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions under the names their callers use."""
    # the package re-exports the function evaluate under its module's name
    cli, evaluate, kmodes, medoids, metric = (
        importlib.import_module(f"catcluster.{name}")
        for name in ("cli", "evaluate", "kmodes", "medoids", "metric")
    )

    tracer.wrap(cli, "load_csv", "dataset.load_csv",
                lambda a, ds: {"rows": int(ds.total_weight), "records": int(ds.n_records)})
    tracer.wrap(cli, "dedupe", "dataset.dedupe", lambda a, ds: {"records": int(ds.n_records)})
    tracer.wrap(cli, "run_kmodes", "kmodes.run_kmodes", lambda a, r: {"iterations": int(r.iterations)},
                memory=True)
    tracer.wrap(kmodes, "assign_points", "kmodes.assign_points")
    tracer.wrap(evaluate, "mode_cost", "kmodes.mode_cost")
    tracer.wrap(medoids, "mode_cost", "kmodes.mode_cost")
    tracer.wrap(cli, "evaluate", "evaluate.evaluate", memory=True)

    def traced_matrix(dataset):
        with tracer.span("metric.pairwise_matrix", memory=True) as span:
            matrix = metric.pairwise_matrix(dataset)
            span.update(n=int(matrix.shape[0]), m=int(dataset.m), bytes=int(matrix.nbytes))
        return matrix

    def with_matrix(attr, name, annotate=None, memory=True):
        solver = getattr(cli, attr, None)
        if solver is None:
            return
        takes_matrix = "matrix" in inspect.signature(solver).parameters

        @functools.wraps(solver)
        def call(dataset, *args, **kwargs):
            if takes_matrix:
                kwargs["matrix"] = traced_matrix(dataset)
            with tracer.span(name, memory) as span:
                result = solver(dataset, *args, **kwargs)
                if annotate is not None:
                    span.update(annotate(dataset, args, kwargs))
                return result

        tracer.patch(cli, attr, call)

    with_matrix("exhaustive_search", "medoids.exhaustive_search",
                lambda ds, a, kw: {"subsets": math.comb(ds.n_records, a[0]),
                                   "workers": kw.get("workers", 1)},
                memory=False)
    with_matrix("local_search", "medoids.local_search")
    with_matrix("audit_lemma1", "medoids.audit_lemma1")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the time its direct children cover."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: list[dict], report_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run; a layer the workload does not call reads 0."""
    own = self_times(spans)

    def named(name):
        return [s for s in spans if s["name"] == name]

    def seconds(name):
        return sum(own[s["id"]] for s in named(name))

    def rate(work, secs):
        return work / secs if secs > 0 else 0.0

    loads, dedupes = named("dataset.load_csv"), named("dataset.dedupe")
    rows = sum(s["rows"] for s in loads)
    matrices = named("metric.pairwise_matrix")
    exhaustive = named("medoids.exhaustive_search")
    audits = named("medoids.audit_lemma1")
    kmodes_runs = named("kmodes.run_kmodes")
    return {
        "dataset.load_csv_s": (seconds("dataset.load_csv"), "s"),
        "dataset.dedupe_s": (seconds("dataset.dedupe"), "s"),
        "dataset.rows_per_s": (rate(rows, seconds("dataset.load_csv") + seconds("dataset.dedupe")), "1/s"),
        "dataset.records": ((dedupes or loads)[-1]["records"] if loads else 0, "count"),
        "metric.pairwise_matrix_s": (seconds("metric.pairwise_matrix"), "s"),
        "metric.compares_per_s": (
            rate(sum(s["n"] ** 2 * s["m"] for s in matrices), seconds("metric.pairwise_matrix")), "1/s"),
        "metric.matrix_mb": (sum(s["bytes"] for s in matrices) / MB, "MB"),
        "kmodes.run_kmodes_s": (seconds("kmodes.run_kmodes"), "s"),
        "kmodes.assign_points_s": (seconds("kmodes.assign_points"), "s"),
        "kmodes.assign_points_calls": (len(named("kmodes.assign_points")), "count"),
        "kmodes.iterations": (sum(s["iterations"] for s in kmodes_runs), "count"),
        "kmodes.mode_cost_s": (seconds("kmodes.mode_cost"), "s"),
        "kmodes.mode_cost_calls": (len(named("kmodes.mode_cost")), "count"),
        "medoids.exhaustive_search_s": (seconds("medoids.exhaustive_search"), "s"),
        "medoids.subsets_per_s": (
            rate(sum(s["subsets"] for s in exhaustive), seconds("medoids.exhaustive_search")), "1/s"),
        "medoids.local_search_s": (seconds("medoids.local_search"), "s"),
        "medoids.audit_lemma1_s": (seconds("medoids.audit_lemma1"), "s"),
        "medoids.audit_lemma1_peak_alloc_mb": (max((s["peak_alloc_bytes"] for s in audits), default=0) / MB, "MB"),
        "evaluate.evaluate_s": (seconds("evaluate.evaluate"), "s"),
        "cli.self_s": (seconds("cli.main"), "s"),
        "cli.report_bytes": (report_bytes, "bytes"),
    }


def run_main(argv: list[str], tracer: Tracer | None) -> tuple[int, float]:
    """Call the CLI's main in this process; returns (exit code, wall seconds)."""
    cli = importlib.import_module("catcluster.cli")
    t0 = time.perf_counter()
    if tracer is None:
        code = cli.main(argv)
    else:
        with tracer.span("cli.main"):
            code = cli.main(argv)
    return code, time.perf_counter() - t0
