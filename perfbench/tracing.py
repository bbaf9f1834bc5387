"""Spans around the calls ``disimpact.cli`` makes into each module.

The tracer replaces the public functions in the ``disimpact.cli``
namespace, as the CLI imports them, with wrappers that record a span
(name, start, end, parent) per call, and wraps the backend that
``make_backend`` returns to count and time its ``complete`` calls.
Spans stay in memory; per-layer metrics are derived from them at the
end of a pass. A traced name the CLI no longer has is reported as
absent, and its metrics stay 0.
"""

from __future__ import annotations

import os
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

# Name as disimpact.cli imports it -> (module, metric the span's time adds to).
TRACED = {
    "load_posts": ("ingestion", "ingestion.load_posts_s"),
    "load_labels": ("ingestion", "ingestion.load_labels_s"),
    "load_ground_truth": ("ingestion", "ingestion.load_ground_truth_s"),
    "write_posts_jsonl": ("ingestion", "ingestion.write_s"),
    "write_labels_csv": ("ingestion", "ingestion.write_s"),
    "clean_dataset": ("annotation", "annotation.clean_s"),
    "annotate_dataset": ("annotation", "annotation.annotate_s"),
    "build_count_series": ("windowing", "windowing.count_s"),
    "read_counts_csv": ("windowing", "windowing.read_counts_s"),
    "write_counts_csv": ("windowing", "windowing.write_counts_s"),
    "compute_impact_series": ("impact", "impact.index_s"),
    "write_index_csv": ("impact", "impact.write_s"),
    "write_domain_csv": ("impact", "impact.write_s"),
    "load_gazetteer": ("spatial", "spatial.load_gazetteer_s"),
    "locate_posts": ("spatial", "spatial.locate_s"),
    "aggregate_state_month": ("spatial", "spatial.aggregate_s"),
    "write_spatial_csv": ("spatial", "spatial.write_s"),
    "read_domain_csv": ("validation", "validation.read_s"),
    "lead_lag_profile": ("validation", "validation.lead_lag_s"),
    "write_leadlag_csv": ("validation", "validation.write_s"),
    "load_annotations_csv": ("agreement", "agreement.load_s"),
    "agreement_report": ("agreement", "agreement.report_s"),
    "chart_csv_to_svg": ("chart", "chart.render_s"),
    "write_manifest": ("cli", "cli.manifest_s"),
    "sha256_file": ("cli", "cli.hash_s"),
}

MODULES = (
    "ingestion", "annotation", "windowing", "impact", "spatial",
    "validation", "agreement", "chart", "cli",
)
COMMANDS = ("clean", "annotate", "counts", "index", "validate", "agreement", "chart", "spatial")

# Every per-layer metric with its unit; absent layers report 0.
LAYER_METRICS: dict[str, str] = {
    "ingestion.load_posts_s": "s",
    "ingestion.load_posts_calls": "count",
    "ingestion.posts_parsed": "count",
    "ingestion.load_labels_s": "s",
    "ingestion.load_ground_truth_s": "s",
    "ingestion.write_s": "s",
    "annotation.clean_s": "s",
    "annotation.annotate_s": "s",
    "annotation.backend_calls": "count",
    "annotation.backend_busy_s": "s",
    "annotation.cache_hits": "count",
    "annotation.cache_hit_ratio": "ratio",
    "annotation.cache_invalid": "count",
    "annotation.errors": "count",
    "annotation.cache_mb": "MB",
    "windowing.count_s": "s",
    "windowing.read_counts_s": "s",
    "windowing.write_counts_s": "s",
    "windowing.windows": "count",
    "impact.index_s": "s",
    "impact.write_s": "s",
    "spatial.load_gazetteer_s": "s",
    "spatial.locate_s": "s",
    "spatial.us_per_post_located": "us/post",
    "spatial.aggregate_s": "s",
    "spatial.located_metadata": "count",
    "spatial.located_text": "count",
    "spatial.unlocated": "count",
    "spatial.cells": "count",
    "spatial.write_s": "s",
    "validation.read_s": "s",
    "validation.lead_lag_s": "s",
    "validation.write_s": "s",
    "agreement.load_s": "s",
    "agreement.report_s": "s",
    "chart.render_s": "s",
    **{f"cli.{command}_s": "s" for command in COMMANDS},
    "cli.manifest_s": "s",
    "cli.hash_s": "s",
    "cli.hashed_mb": "MB",
    **{f"{module}.self_s": "s" for module in MODULES},
    "bench.trace_overhead_s": "s",
    "bench.prepare_s": "s",
}

MB = 2**20


@dataclass
class Span:
    name: str
    module: str
    metric: str | None
    start: float
    end: float
    parent: int | None


class _TimedBackend:
    """Counts and times ``complete`` calls, which run on pool threads."""

    def __init__(self, inner, tracer: "Tracer") -> None:
        self._inner = inner
        self._tracer = tracer

    def complete(self, request):
        start = time.perf_counter()
        try:
            return self._inner.complete(request)
        finally:
            self._tracer.add_backend_call(time.perf_counter() - start)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class Tracer:
    def __init__(self, cli) -> None:
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.unobserved: set[str] = set()
        self.counts: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        for name, (module, metric) in TRACED.items():
            fn = getattr(cli, name, None)
            if fn is None:
                self.absent.append(name)
            else:
                setattr(cli, name, self._wrap(fn, name, module, metric))
        make_backend = getattr(cli, "make_backend", None)
        if make_backend is None:
            self.absent.append("make_backend")
        else:
            cli.make_backend = lambda args: _TimedBackend(make_backend(args), self)

    def add(self, metric: str, value: float) -> None:
        with self._lock:
            self.counts[metric] = self.counts.get(metric, 0) + value

    def add_backend_call(self, seconds: float) -> None:
        self.add("annotation.backend_calls", 1)
        self.add("annotation.backend_busy_s", seconds)

    @contextmanager
    def span(self, name: str, module: str, metric: str | None = None):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        with self._lock:
            index = len(self.spans)
            self.spans.append(Span(name, module, metric, time.perf_counter(), 0.0, parent))
        stack.append(index)
        try:
            yield
        finally:
            self.spans[index].end = time.perf_counter()
            stack.pop()

    def _wrap(self, fn, name: str, module: str, metric: str):
        observe = OBSERVERS.get(name)

        def traced(*args, **kwargs):
            with self.span(name, module, metric):
                result = fn(*args, **kwargs)
            if observe is not None:
                try:
                    observe(self, args, result)
                except (AttributeError, TypeError, IndexError, KeyError, OSError):
                    # The call's result changed shape; leave its counters at 0.
                    self.unobserved.add(name)
            return result

        traced.__wrapped__ = fn
        return traced

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far (bench.* excluded)."""
        out = {name: 0.0 for name in LAYER_METRICS if not name.startswith("bench.")}
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        for i, span in enumerate(self.spans):
            duration = span.end - span.start
            if span.metric in out:
                out[span.metric] += duration
            out[f"{span.module}.self_s"] += duration - child_time[i]
        for metric, value in self.counts.items():
            if metric in out:
                out[metric] += value
        considered = self.counts.get("annotation.cache_considered", 0)
        if considered:
            out["annotation.cache_hit_ratio"] = out["annotation.cache_hits"] / considered
        located = sum(out[f"spatial.{k}"] for k in ("located_metadata", "located_text", "unlocated"))
        if located:
            out["spatial.us_per_post_located"] = out["spatial.locate_s"] * 1e6 / located
        return out


def _observe_load_posts(tracer: Tracer, args, result) -> None:
    tracer.add("ingestion.load_posts_calls", 1)
    tracer.add("ingestion.posts_parsed", result.report.lines_read)


def _observe_annotation(tracer: Tracer, args, result) -> None:
    report = result[1]
    tracer.add("annotation.cache_hits", report.cache_hits)
    tracer.add("annotation.cache_considered", report.cache_hits + report.backend_posts)
    tracer.add("annotation.cache_invalid", report.cache_invalid)
    tracer.add("annotation.errors", len(report.errors))


def _observe_windows(tracer: Tracer, args, result) -> None:
    tracer.add("windowing.windows", len(result[0].windows))


def _observe_located(tracer: Tracer, args, result) -> None:
    for source, n in Counter(item.source.value for item in result).items():
        tracer.add("spatial." + ("unlocated" if source == "none" else f"located_{source}"), n)


def _observe_cells(tracer: Tracer, args, result) -> None:
    tracer.add("spatial.cells", len(result[0]))


def _observe_hash(tracer: Tracer, args, result) -> None:
    tracer.add("cli.hashed_mb", os.path.getsize(args[0]) / MB)


OBSERVERS = {
    "load_posts": _observe_load_posts,
    "clean_dataset": _observe_annotation,
    "annotate_dataset": _observe_annotation,
    "build_count_series": _observe_windows,
    "locate_posts": _observe_located,
    "aggregate_state_month": _observe_cells,
    "sha256_file": _observe_hash,
}


def cache_mb(out: Path) -> float:
    path = out / "annotation_cache.jsonl"
    return path.stat().st_size / MB if path.exists() else 0.0
