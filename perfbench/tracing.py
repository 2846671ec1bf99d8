"""In-process per-layer tracing for the benchmark's traced run.

Each hook replaces one public spanagree function in the module where its
caller looks the name up (so `spanagree.annotator.runner.extract_last_json_object`,
not `spanagree.grounding.extract_last_json_object`) and records one span per
call. Spans nest through a stack kept per thread, because `annotate` runs
its examples on a thread pool.

A span's self time is the CPU time of its thread while it was open, minus
that of its children. Thread CPU time is used rather than wall time
because the pool's threads share the interpreter lock: in wall time, a
`cache_put` on the main thread would be charged for every stretch it
waited while a worker thread ran extraction.
"""

from __future__ import annotations

import importlib
import os
import statistics
import threading
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "phase", "parent", "extra", "t0", "t1", "c0", "c1")

    def __init__(self, name: str, phase: str, parent: "Span | None"):
        self.name = name
        self.phase = phase
        self.parent = parent
        self.extra: dict[str, float] = {}
        self.t0 = self.t1 = time.perf_counter()
        self.c0 = self.c1 = time.thread_time_ns()


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _cells(span, args, kwargs, result):
    shape = _first_arg(args, kwargs, "cost").shape
    span.extra["cells"] = shape[0] * shape[1]


def _chars(span, args, kwargs, result):
    span.extra["chars"] = len(_first_arg(args, kwargs, "text"))


def _grounded(span, args, kwargs, result):
    report = result[1]
    span.extra["grounded"] = report.grounded
    span.extra["dropped"] = report.dropped


def _success(span, args, kwargs, result):
    span.extra["success"] = 0 if result[1].failed else 1


def _hit(span, args, kwargs, result):
    span.extra["hit"] = 1 if result is not None and not result.get("failed") else 0


def _bytes(span, args, kwargs, result):
    span.extra["bytes"] = os.path.getsize(_first_arg(args, kwargs, "path"))


# (module where the caller looks the name up, attribute, span name, observer)
HOOKS = [
    ("spanagree.cli", "main", "cli", None),
    ("spanagree.cli", "load_dataset", "ingest.load_dataset", None),
    ("spanagree.cli", "load_campaign", "ingest.load_campaign", None),
    ("spanagree.cli", "export_campaign", "ingest.export_campaign", None),
    ("spanagree.cli", "aggregate", "metrics.aggregate", None),
    ("spanagree.cli", "confusion_matrix", "metrics.confusion_matrix", None),
    ("spanagree.cli", "report_to_dict", "report.report_to_dict", None),
    ("spanagree.cli", "write_report_json", "report.write_report_json", _bytes),
    ("spanagree.cli", "write_summary_csv", "report.write_summary_csv", _bytes),
    ("spanagree.cli", "write_per_example_csv", "report.write_per_example_csv", _bytes),
    ("spanagree.cli", "write_confusion_csv", "report.write_confusion_csv", _bytes),
    ("spanagree.metrics", "example_precision", "metrics.example_precision", None),
    ("spanagree.metrics", "gamma_score", "gamma.alignment.gamma_score", None),
    ("spanagree.gamma.alignment", "expected_disorder", "gamma.alignment.expected_disorder", None),
    ("spanagree.gamma.alignment", "alignment_cost", "gamma.alignment.alignment_cost", None),
    ("spanagree.gamma.alignment", "pair_cost_matrix", "gamma.dissimilarity.pair_cost_matrix", None),
    ("spanagree.gamma.alignment", "solve_assignment", "gamma.solver.solve_assignment", _cells),
    ("spanagree.annotator.runner", "render_prompt", "annotator.templates.render_prompt", None),
    ("spanagree.annotator.runner", "split_reasoning", "grounding.split_reasoning", None),
    ("spanagree.annotator.runner", "extract_last_json_object",
     "grounding.extract_last_json_object", _chars),
    ("spanagree.annotator.runner", "ground_annotations", "grounding.ground_annotations", _grounded),
    ("spanagree.annotator.runner", "normalize_annotation_set",
     "model.normalize_annotation_set", None),
    ("spanagree.annotator.runner", "annotate_example", "annotator.runner.annotate_example",
     _success),
    ("spanagree.annotator.runner", "TraceCache.__init__", "annotator.runner.cache_load", None),
    ("spanagree.annotator.runner", "TraceCache.get", "annotator.runner.cache_get", _hit),
    ("spanagree.annotator.runner", "TraceCache.put", "annotator.runner.cache_put", None),
    ("spanagree.annotator.adapters", "MockAdapter.complete", "annotator.adapters.complete", None),
]


class Tracer:
    """Installs the hooks, collects spans, and restores the originals."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans: list[Span] = []
        self.phase = ""
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, name, observe in HOOKS:
            try:
                owner = importlib.import_module(module_name)
                *outer, last = attr.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = vars(owner)[last] if isinstance(owner, type) else getattr(owner, last)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(owner, last, self._hooked(original, name, observe))
            self._patches.append((owner, last, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _hooked(self, original, name, observe):
        tracer = self

        def hooked(*args, **kwargs):
            stack = tracer._stack()
            span = Span(name, tracer.phase, stack[-1] if stack else None)
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.c1 = time.thread_time_ns()
                span.t1 = time.perf_counter()
                stack.pop()
                with tracer._lock:
                    tracer.spans.append(span)
            if observe is not None:
                observe(span, args, kwargs, result)
            return result

        hooked.__name__ = getattr(original, "__name__", name)
        hooked.__doc__ = getattr(original, "__doc__", None)
        return hooked

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def self_times(self) -> dict[int, float]:
        """Self CPU seconds by span id: the span's thread CPU time minus its
        children's, which ran on the same thread inside it. Summed in
        integer nanoseconds, so a self time is never negative."""
        out = {id(span): span.c1 - span.c0 for span in self.spans}
        for span in self.spans:
            if span.parent is not None:
                out[id(span.parent)] -= span.c1 - span.c0
        return {key: ns / 1e9 for key, ns in out.items()}


def layer_metrics(tracer: Tracer, overhead_s: float) -> tuple[dict, dict]:
    """Per-layer metrics from one traced round, and self time by phase."""
    selfs = tracer.self_times()
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    extra: dict[str, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    by_phase: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in tracer.spans:
        calls[span.name] += 1
        self_s[span.name] += selfs[id(span)]
        durations[span.name].append(span.t1 - span.t0)
        by_phase[span.phase][span.name] += selfs[id(span)]
        for key, value in span.extra.items():
            extra[f"{span.name}.{key}"] += value

    present = {name for module, attr, name, _ in HOOKS
               if f"{module}.{attr}" not in tracer.absent}
    m: dict[str, tuple[float, str]] = {}

    def put(key, value, unit, *needs):
        if all(n in present for n in needs):
            m[key] = (value, unit)

    solver, gs = "gamma.solver.solve_assignment", "gamma.alignment.gamma_score"
    ej, ga = "grounding.extract_last_json_object", "grounding.ground_annotations"
    req, ae = "annotator.adapters.complete", "annotator.runner.annotate_example"
    get = "annotator.runner.cache_get"
    counted = (solver, "gamma.dissimilarity.pair_cost_matrix", "metrics.example_precision",
               ej, "annotator.templates.render_prompt", "annotator.runner.cache_put")
    timed = (*counted, "gamma.alignment.expected_disorder", "gamma.alignment.alignment_cost",
             "metrics.aggregate", "metrics.confusion_matrix", "ingest.load_dataset",
             "ingest.load_campaign", "ingest.export_campaign", "grounding.split_reasoning",
             ga, "annotator.runner.cache_load", ae, "model.normalize_annotation_set")
    for name in counted:
        put(f"{name}.calls", calls[name], "count", name)
    for name in timed:
        put(f"{name}.self_s", self_s[name], "s", name)
    put(f"{solver}.cells", extra[f"{solver}.cells"], "count", solver)
    put(f"{ej}.chars", extra[f"{ej}.chars"], "count", ej)
    if len(durations[gs]) > 1:
        deciles = statistics.quantiles(durations[gs], n=10, method="inclusive")
        put(f"{gs}.calls", calls[gs], "count", gs)
        put(f"{gs}.p50_ms", 1e3 * statistics.median(durations[gs]), "ms", gs)
        put(f"{gs}.p90_ms", 1e3 * deciles[8], "ms", gs)
        put("gamma.alignment.solves_per_example", calls[solver] / calls[gs], "ratio",
            gs, solver)
    writers = [n for n in present if n.startswith("report.")]
    put("report.self_s", sum(self_s[n] for n in writers), "s")
    put("report.bytes", sum(extra[f"{n}.bytes"] for n in writers), "bytes")
    put("cli.self_s", self_s["cli"], "s", "cli")
    placed = extra[f"{ga}.grounded"] + extra[f"{ga}.dropped"]
    if placed:
        put("grounding.grounded_ratio", extra[f"{ga}.grounded"] / placed, "ratio", ga)
    put("annotator.adapters.requests", calls[req], "count", req)
    if calls[req]:
        put("annotator.runner.useful_attempt_ratio", extra[f"{ae}.success"] / calls[req],
            "ratio", req, ae)
    if calls[get]:
        put("annotator.runner.cache_hit_ratio", extra[f"{get}.hit"] / calls[get], "ratio", get)
    m["trace.overhead_s"] = (overhead_s, "s")
    return m, by_phase
