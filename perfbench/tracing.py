"""Spans around drqa's layers, installed from outside the package.

``install`` replaces public functions with timing wrappers where the
pipeline looks them up: module attributes such as
``drqa.geometry.rank_structure`` or ``drqa.pipeline.render_heatmap``, the
``_RankCache.ranks_for`` method, and the thread pool class the reduce
stage creates.  No file of the package changes.  Spans stay in memory
until ``Tracer.write`` dumps them as JSON Lines, one object per span with
``id``, ``name``, ``start``, ``end``, ``parent``, ``thread``, ``workload``
and a dict of ``attrs``.

``layer_metrics`` turns such a file into the per-layer metrics of the
benchmark.  A span's self time is its duration minus the union of the
intervals its children cover on the same thread.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REDUCERS = ("pca", "smacof", "local_smacof", "lle", "isomap",
            "laplacian_eigenmaps")
RENDERERS = {"render_heatmap": "heatmap", "render_loess_overlay": "loess",
             "render_scatter": "scatter", "render_lift": "lift"}
WRITERS = ("write_configuration", "write_profile", "write_per_item")


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, parent: int | None = None) -> dict:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]["id"]
        span = {"id": next(self._ids), "name": name,
                "start": time.perf_counter(), "end": None,
                "parent": parent, "thread": threading.get_ident(),
                "workload": self.workload, "attrs": {}}
        stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def wrap(self, owner, attr: str, name: str, annotate=None) -> None:
        """Replace ``owner.attr`` by a function that records a span.

        ``annotate(span, args, result)`` may add attributes from the call.
        """
        inner = getattr(owner, attr)

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = inner(*args, **kwargs)
                if annotate is not None:
                    annotate(span, args, result)
                return result
            finally:
                self.close(span)

        setattr(owner, attr, traced)

    def count(self, name: str, thread: int) -> int:
        """Closed spans called ``name`` on ``thread`` so far."""
        return sum(1 for s in self.spans
                   if s["name"] == name and s["thread"] == thread)

    def write(self, path: Path) -> None:
        with Path(path).open("w") as fh:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    from drqa import dimred, geometry, pipeline

    for method in REDUCERS:
        tracer.wrap(dimred, method, f"dimred.{method}", _iterations)
    tracer.wrap(geometry, "euclidean_distances", "geometry.distances")
    tracer.wrap(geometry, "rank_structure", "geometry.rank_structure")
    tracer.wrap(pipeline, "generate", "manifolds.generate")
    tracer.wrap(pipeline, "ingest_csv", "ingest.read")
    for writer in WRITERS:
        tracer.wrap(pipeline, writer, "ingest.write", _bytes_written)
    tracer.wrap(pipeline, "agreement_profile", "agreement.profile",
                _per_item_bytes)
    for renderer, short in RENDERERS.items():
        tracer.wrap(pipeline, renderer, f"viz.{short}",
                    lambda span, args, result: span["attrs"].update(
                        svg_bytes=len(result.encode())))
    _wrap_rank_cache(tracer, pipeline._RankCache)
    pipeline.ThreadPoolExecutor = _traced_pool(tracer)
    tracer.wrap(pipeline, "run_pipeline", "pipeline.run_pipeline")


def _iterations(span, args, result) -> None:
    iterations = result.diagnostics.get("n_iterations")
    if iterations is not None:
        span["attrs"]["iterations"] = int(iterations)


def _rank_bytes(structure) -> int:
    return int(structure.ranks.nbytes + structure.neighbors.nbytes)


def _bytes_written(span, args, result) -> None:
    path = next(a for a in args if isinstance(a, (str, os.PathLike)))
    span["attrs"]["bytes"] = Path(path).stat().st_size


def _per_item_bytes(span, args, result) -> None:
    per_item = result.per_item
    span["attrs"]["per_item_bytes"] = 0 if per_item is None else int(
        per_item.nbytes)


def _wrap_rank_cache(tracer: Tracer, cache_cls) -> None:
    inner = cache_cls.ranks_for

    @functools.wraps(inner)
    def ranks_for(self, name, config):
        in_memory = name in self.memory
        thread = threading.get_ident()
        computed_before = tracer.count("geometry.rank_structure", thread)
        span = tracer.open("pipeline.rank_cache")
        try:
            result = inner(self, name, config)
        finally:
            tracer.close(span)
        if in_memory:
            source = "memory"
        elif tracer.count("geometry.rank_structure", thread) > computed_before:
            source = "computed"
        else:
            source = "disk"
        span["attrs"]["source"] = source
        if source != "memory":
            span["attrs"]["bytes"] = _rank_bytes(result)
        return result

    cache_cls.ranks_for = ranks_for


def _traced_pool(tracer: Tracer):
    """A pool class whose lifetime and job waits are spans."""

    class TracedPool(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._span = tracer.open("pipeline.reduce_stage")

        def submit(self, fn, /, *args, **kwargs):
            submitted = time.perf_counter()
            stage = self._span["id"]

            def job(*job_args, **job_kwargs):
                span = tracer.open("pipeline.reduce_job", parent=stage)
                span["attrs"]["wait_s"] = span["start"] - submitted
                try:
                    return fn(*job_args, **job_kwargs)
                finally:
                    tracer.close(span)

            return super().submit(job, *args, **kwargs)

        def shutdown(self, *args, **kwargs):
            super().shutdown(*args, **kwargs)
            if self._span["end"] is None:
                tracer.close(self._span)

    return TracedPool


# ---------------------------------------------------------------------------
# Per-layer metrics from a span file


def read_spans(path: Path) -> list:
    with Path(path).open() as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_times(spans: list) -> dict:
    """Span id -> duration minus the union of same-thread child intervals."""
    children: dict = {}
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and parent["thread"] == s["thread"]:
            children.setdefault(parent["id"], []).append(
                (s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for start, end in sorted(children.get(s["id"], ())):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_metrics(spans: list) -> dict:
    """Per-layer metric name -> (value, unit) for one traced pipeline run."""
    by_id = {s["id"]: s for s in spans}
    own = self_times(spans)

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return float(sum(s["end"] - s["start"] for s in named(name)))

    metrics = {}
    for method in REDUCERS:
        calls = named(f"dimred.{method}")
        if method == "smacof":
            # local_smacof runs smacof inside; that time is local_smacof's
            calls = [s for s in calls
                     if by_id.get(s["parent"], {}).get("name")
                     != "dimred.local_smacof"]
        seconds = float(sum(s["end"] - s["start"] for s in calls))
        metrics[f"dimred.{method}.s"] = (seconds, "s")
        if method in ("smacof", "local_smacof"):
            iterations = sum(s["attrs"].get("iterations", 0) for s in calls)
            metrics[f"dimred.{method}.iterations"] = (iterations, "count")
            metrics[f"dimred.{method}.s_per_iter"] = (
                seconds / iterations if iterations else 0.0, "s/iter")

    ranks = named("geometry.rank_structure")
    cache = named("pipeline.rank_cache")
    metrics["geometry.distances.s"] = (total("geometry.distances"), "s")
    metrics["geometry.rank_structure.s"] = (total("geometry.rank_structure"),
                                            "s")
    metrics["geometry.rank_structure.calls"] = (len(ranks), "count")
    metrics["geometry.rank_bytes"] = (
        sum(s["attrs"].get("bytes", 0) for s in cache), "bytes")

    profiles = named("agreement.profile")
    metrics["agreement.profile.s"] = (total("agreement.profile"), "s")
    metrics["agreement.profile.calls"] = (len(profiles), "count")
    metrics["agreement.per_item_bytes"] = (
        sum(s["attrs"]["per_item_bytes"] for s in profiles), "bytes")

    for short in RENDERERS.values():
        metrics[f"viz.{short}.s"] = (total(f"viz.{short}"), "s")
    metrics["viz.svg_bytes"] = (
        sum(s["attrs"].get("svg_bytes", 0) for s in spans
            if s["name"].startswith("viz.")), "bytes")

    metrics["ingest.read.s"] = (total("ingest.read"), "s")
    metrics["ingest.write.s"] = (total("ingest.write"), "s")
    metrics["ingest.bytes_written"] = (
        sum(s["attrs"]["bytes"] for s in named("ingest.write")), "bytes")

    metrics["pipeline.rank_cache.s"] = (
        float(sum(own[s["id"]] for s in cache)), "s")
    metrics["pipeline.rank_cache.hits"] = (
        sum(1 for s in cache if s["attrs"]["source"] != "computed"), "count")
    metrics["pipeline.rank_cache.misses"] = (
        sum(1 for s in cache if s["attrs"]["source"] == "computed"), "count")
    metrics["pipeline.reduce_stage.s"] = (total("pipeline.reduce_stage"), "s")
    metrics["pipeline.reduce.wait_s"] = (float(
        sum(s["attrs"]["wait_s"] for s in named("pipeline.reduce_job"))), "s")
    metrics["pipeline.self.s"] = (float(
        sum(own[s["id"]] for s in named("pipeline.run_pipeline"))), "s")
    metrics["manifolds.generate.s"] = (total("manifolds.generate"), "s")
    return metrics
