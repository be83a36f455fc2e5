"""Spans around the program's public functions, for the traced benchmark run.

A traced run replaces each wrapped function at every module attribute it is
called through (``runner`` and ``pipeline`` import several functions by
name, so patching only the defining module would miss those calls) and puts
every original back in ``Tracer.restore``. Spans are kept in memory; the
per-layer numbers are derived from them after the run.

A span's self time is its duration minus the durations of its direct
children. Because spans nest strictly, the self times of all spans add up to
the durations of the top-level spans, which are the benchmark's own timed
calls; ``trace.accounted_pct`` checks that.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass

import numpy as np

from rebq import backbone, bench, pipeline, prompt, reconstruct, runner, tensor


@dataclass
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    rows: int = 0       # samples, rows or scalars the call worked on
    repeats: int = 0    # rows whose (sample id, missing mask) was seen before

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._seen: set[tuple[str, bool, bool]] = set()
        self._paused = False

    def patch(self, owner, attr: str, name: str, count=None):
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        ``count(span, args, kwargs)`` may fill the span's counters before
        the call runs.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if self._paused:
                return original(*args, **kwargs)
            span = Span(name, self._stack[-1] if self._stack else None)
            if count is not None:
                count(span, args, kwargs)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording spans or counts."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def new_repeat_scope(self):
        """Forget the rows seen so far; each experiment is its own scope."""
        self._seen.clear()

    def count_query_rows(self, span: Span, args, kwargs):
        samples = args[0]
        span.rows = len(samples)
        for s in samples:
            key = (s.id, s.has_text, s.has_visual)
            if key in self._seen:
                span.repeats += 1
            else:
                self._seen.add(key)

    def has_ancestor(self, span: Span, names: set[str]) -> bool:
        parent = span.parent
        while parent is not None:
            if self.spans[parent].name in names:
                return True
            parent = self.spans[parent].parent
        return False

    def self_seconds(self) -> dict[str, float]:
        """Self time summed per span name."""
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.seconds
        totals: dict[str, float] = {}
        for s, t in zip(self.spans, own):
            totals[s.name] = totals.get(s.name, 0.0) + t
        return totals


class NullTracer:
    """Stands in for a Tracer in untraced runs; records nothing."""

    def paused(self):
        return contextlib.nullcontext()

    def new_repeat_scope(self):
        pass


def _count_samples(position: int):
    def count(span: Span, args, kwargs):
        span.rows = len(args[position])
    return count


def _count_scalars(span: Span, args, kwargs):
    span.rows = sum(p.data.size for p in args[0].params if p.grad is not None)


def install_setup(tracer: Tracer):
    """Wrap the set-up entry points as the benchmark calls them."""
    tracer.patch(backbone, "pretrain", "backbone.pretrain")
    tracer.patch(bench, "synth_generate", "bench.synth_generate")
    tracer.patch(bench, "build_stream", "bench.build_stream")
    tracer.patch(pipeline, "build_variant", "pipeline.build_variant")


def install_measure(tracer: Tracer):
    """Wrap every function the measured calls reach, where it is called from."""
    tracer.patch(runner, "run_experiment", "runner.run_experiment")
    tracer.patch(runner, "emit_report", "runner.emit_report")
    tracer.patch(runner, "train_task", "pipeline.train_task")
    for module in (runner, pipeline):
        tracer.patch(module, "predict_batch", "pipeline.predict_batch", _count_samples(1))
    for module in (pipeline, reconstruct):
        tracer.patch(module, "generate_queries_batch", "reconstruct.query_pass",
                     tracer.count_query_rows)
        tracer.patch(module, "reconstruct_batch", "reconstruct.recon_pass",
                     _count_samples(0))
    tracer.patch(tensor, "backward", "tensor.backward")
    tracer.patch(tensor.AdamW, "step", "tensor.adamw_step", _count_scalars)
    tracer.patch(backbone.MultimodalBackbone, "forward", "backbone.forward")
    tracer.patch(backbone.MultimodalBackbone, "embed_batch", "backbone.embed")
    tracer.patch(prompt, "select_prompt", "prompt.select")


SETUP_METRICS = {"backbone.pretrain": "backbone.pretrain_s",
                 "bench.synth_generate": "bench.synth_s",
                 "bench.build_stream": "bench.build_stream_s",
                 "pipeline.build_variant": "pipeline.build_variant_s"}

PASSES = {"reconstruct.query_pass", "reconstruct.recon_pass"}


def setup_metrics(tracer: Tracer) -> dict[str, float]:
    """Seconds spent in each set-up entry point."""
    totals = {name: 0.0 for name in SETUP_METRICS}
    for s in tracer.spans:
        if s.name in totals:
            totals[s.name] += s.seconds
    return {SETUP_METRICS[name]: t for name, t in totals.items()}


def measure_metrics(tracer: Tracer, busy_s: float) -> dict[str, float]:
    """Per-layer numbers of the measured phase.

    ``*_ms`` is the mean inclusive time per call and ``*_pct`` the inclusive
    total as a share of ``busy_s``, the time spent in the benchmark's timed
    calls. Shares overlap where spans nest (an embed inside a query pass
    counts for both), except ``backbone.forward``, which counts only the
    classification forwards outside the query and reconstruction passes.
    """
    by_name: dict[str, list[Span]] = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    by_name["backbone.forward"] = [s for s in by_name.get("backbone.forward", [])
                                   if not tracer.has_ancestor(s, PASSES)]

    out: dict[str, float] = {}
    for name in ("tensor.adamw_step", "tensor.backward", "reconstruct.query_pass",
                 "reconstruct.recon_pass", "backbone.forward", "backbone.embed",
                 "prompt.select"):
        spans = by_name.get(name, [])
        total = sum(s.seconds for s in spans)
        out[f"{name}_ms"] = 1000.0 * total / len(spans) if spans else 0.0
        out[f"{name}_pct"] = 100.0 * total / busy_s

    def mean_rows(name: str) -> float:
        spans = by_name.get(name, [])
        return sum(s.rows for s in spans) / len(spans) if spans else 0.0

    out["tensor.adamw_scalars"] = mean_rows("tensor.adamw_step")
    out["reconstruct.query_rows"] = mean_rows("reconstruct.query_pass")
    out["reconstruct.recon_rows"] = mean_rows("reconstruct.recon_pass")
    queries = by_name.get("reconstruct.query_pass", [])
    rows = sum(s.rows for s in queries)
    out["reconstruct.query_repeat_share"] = (
        sum(s.repeats for s in queries) / rows if rows else 0.0)

    # a training step is the interval between successive AdamW.step returns
    # inside one train_task call
    last_end: dict[int | None, float] = {}
    intervals = []
    for s in by_name.get("tensor.adamw_step", []):
        if s.parent in last_end:
            intervals.append(1000.0 * (s.end - last_end[s.parent]))
        last_end[s.parent] = s.end
    out["pipeline.steps"] = float(len(intervals))
    out["pipeline.step_ms_p50"] = float(np.percentile(intervals, 50)) if intervals else 0.0
    out["pipeline.step_ms_p90"] = float(np.percentile(intervals, 90)) if intervals else 0.0

    predicts = by_name.get("pipeline.predict_batch", [])
    predicted = sum(s.rows for s in predicts)
    out["pipeline.predicted_samples"] = float(predicted)
    out["pipeline.predict_ms_per_sample"] = (
        1000.0 * sum(s.seconds for s in predicts) / predicted if predicted else 0.0)

    experiments = by_name.get("runner.run_experiment", [])
    n = len(experiments)
    train = sum(s.seconds for s in by_name.get("pipeline.train_task", []))
    evals = sum(s.seconds for s in predicts
                if tracer.has_ancestor(s, {"runner.run_experiment"}))
    whole = sum(s.seconds for s in experiments)
    emit = sum(s.seconds for s in by_name.get("runner.emit_report", []))
    out["runner.experiments"] = float(n)
    out["runner.train_s"] = train / n if n else 0.0
    out["runner.eval_s"] = evals / n if n else 0.0
    out["runner.other_s"] = (whole - train - evals) / n if n else 0.0
    out["runner.emit_s"] = emit / n if n else 0.0

    out["trace.accounted_pct"] = 100.0 * sum(tracer.self_seconds().values()) / busy_s
    return out
