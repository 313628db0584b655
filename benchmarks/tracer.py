"""In-memory span tracing around the calls into each mmproto module.

`Tracer.installed()` replaces the module attributes that callers look up at
call time (for example `trainer.embed`, which `trainer.train` resolves on
every step) with timing wrappers, and puts the originals back on exit. No
source under `src/` is changed: every span is recorded from here.

A span is (name, start, end, parent, tag). Spans nest on one stack because
the program is single-threaded, so a span's self time is its duration minus
the durations of its direct children. `layer_metrics` turns the spans of a
traced run into the per-layer metrics named in BENCHMARK.json.
"""
from __future__ import annotations

import contextlib
import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from mmproto import cli, data, evaluation, objective, sinkhorn, trainer


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    tag: str | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _shape_tag(args, kwargs) -> str:
    k, b = np.shape(args[0] if args else kwargs["scores"])
    return f"k{k}_b{b}"


#: (module, attribute, span name, tag function). Each attribute is the one
#: its caller resolves at call time; two entries may share a span name when
#: two callers reach the same function through different modules.
WRAP_POINTS = (
    (cli, "main", "cli.main", None),
    (cli, "generate", "data.generate", None),
    (cli, "save_corpus", "data.save_corpus", None),
    (cli, "load_corpus", "data.load_corpus", None),
    (data, "load_corpus", "data.load_corpus", None),
    (cli, "load_checkpoint", "trainer.load_checkpoint", None),
    (cli, "linear_probe", "evaluation.linear_probe", None),
    (cli, "knn_probe", "evaluation.knn_probe", None),
    (cli, "cluster_agreement", "evaluation.cluster_agreement", None),
    (trainer, "train", "trainer.train", None),
    (trainer, "save_checkpoint", "trainer.save_checkpoint", None),
    (trainer, "batches", "data.batches", None),
    (trainer, "embed", "model.embed", None),
    (trainer, "swapped_loss", "objective.swapped_loss", None),
    (trainer, "backward", "numerics.backward.train", None),
    (trainer, "renormalize_prototypes", "model.renormalize_prototypes", None),
    (trainer, "_code_usage_entropy", "trainer.code_usage_metric", None),
    (objective, "compute_batch_codes", "objective.compute_batch_codes", None),
    (objective, "compute_codes", "sinkhorn.compute_codes", _shape_tag),
    (sinkhorn, "compute_codes", "sinkhorn.compute_codes", _shape_tag),
    (evaluation, "embed", "model.embed", None),
    (evaluation, "backward", "numerics.backward.probe", None),
    (evaluation, "normalized_mutual_information",
     "evaluation.normalized_mutual_information", None),
)


class Tracer:
    """Collects spans in memory while its wrappers are installed."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self.restored = True

    def _wrap(self, fn, name: str, tag):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent,
                                    tag(args, kwargs) if tag else None)
        return traced

    @contextlib.contextmanager
    def installed(self, points=WRAP_POINTS):
        """Wrap every point for the duration of the block, then restore the
        originals and record in `restored` whether every one is back."""
        originals = []
        try:
            for module, attr, name, tag in points:
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, tag))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)
            self.restored = self.restored and all(
                getattr(module, attr) is fn for module, attr, fn in originals)


# ---- per-layer metrics -----------------------------------------------------

#: (span name, unit, report self time). Self time excludes child spans.
TIMED_LAYERS = (
    ("sinkhorn.compute_codes", "ms", False),
    ("objective.swapped_loss", "ms", True),
    ("numerics.backward.train", "ms", False),
    ("numerics.backward.probe", "ms", False),
    ("model.embed", "ms", False),
    ("model.renormalize_prototypes", "ms", False),
    ("trainer.step", "ms", False),
    ("trainer.step", "ms", True),
    ("trainer.code_usage_metric", "ms", False),
    ("trainer.save_checkpoint", "ms", False),
    ("trainer.load_checkpoint", "ms", False),
    ("data.generate", "s", False),
    ("data.save_corpus", "ms", False),
    ("data.load_corpus", "ms", False),
    ("data.batches", "ms", False),
    ("evaluation.linear_probe", "s", False),
    ("evaluation.knn_probe", "s", False),
    ("evaluation.cluster_agreement", "s", False),
    ("evaluation.normalized_mutual_information", "ms", False),
    ("cli.main", "ms", True),
)

#: which swapped-loss path asked for a code solve, by nearest ancestor span
CALLERS = (("loss", "objective.swapped_loss"),
           ("metric", "trainer.code_usage_metric"))

#: (K, B) shapes the workloads solve; any other shape counts as `other`
SHAPES = ("k16_b32", "k16_b288", "k3000_b1952")

_SCALE = {"ms": 1e3, "s": 1.0}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not len(values):
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name, unit, self_time in TIMED_LAYERS:
        stat = "self_p" if self_time else "p"
        units[f"{name}.{stat}50_{unit}"] = unit
        units[f"{name}.{stat}99_{unit}"] = unit
        units[f"{name}.calls"] = "count"
    for caller, _ in CALLERS:
        units[f"sinkhorn.compute_codes.{caller}.p50_ms"] = "ms"
        units[f"sinkhorn.compute_codes.{caller}.p99_ms"] = "ms"
        units[f"sinkhorn.compute_codes.{caller}.calls"] = "count"
    for shape in (*SHAPES, "other"):
        units[f"sinkhorn.compute_codes.calls_{shape}"] = "count"
    units["trace.spans"] = "count"
    units["trace.overhead_pct"] = "%"
    return units


def step_spans(spans: list[Span], step_ends: list[float]) -> list[Span]:
    """One `trainer.step` span per optimizer step, from the metrics-sink
    timestamps: a step runs from the previous step's sink call (or the start
    of its `trainer.train` call) to its own sink call."""
    steps = []
    ends = iter(sorted(step_ends))
    end = next(ends, None)
    for index, span in enumerate(spans):
        if span.name != "trainer.train":
            continue
        start = span.start
        while end is not None and end <= span.end:
            steps.append(Span("trainer.step", start, end, index))
            start, end = end, next(ends, None)
    return steps


def _self_seconds(spans: list[Span]) -> list[float]:
    """Duration minus the durations of direct children, per span."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.seconds
    return [span.seconds - c for span, c in zip(spans, child)]


def _step_self_seconds(spans, steps) -> list[float]:
    """A step's duration minus the direct children of its `trainer.train`
    span that start inside the step: the SGD update, LR and bookkeeping."""
    out = []
    children = {}
    for span in spans:
        if span.parent is not None and spans[span.parent].name == "trainer.train":
            children.setdefault(span.parent, []).append(span)
    for step in steps:
        covered = sum(c.seconds for c in children.get(step.parent, ())
                      if step.start <= c.start < step.end)
        out.append(step.seconds - covered)
    return out


def _caller(spans, span) -> str | None:
    parent = span.parent
    while parent is not None:
        for caller, name in CALLERS:
            if spans[parent].name == name:
                return caller
        parent = spans[parent].parent
    return None


def layer_metrics(spans: list[Span], step_ends: list[float],
                  first_measured: int, overhead_pct: float) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    Spans from index `first_measured` on belong to the traced pass and give
    every figure; a layer that pass never calls is reported from the
    set-up spans before it (its warm-up calls), and as zero if set-up never
    called it either.
    """
    groups: dict[tuple, tuple[list, list]] = {}

    def add(key, index, value):
        groups.setdefault(key, ([], []))[index >= first_measured].append(value)

    for index, (span, own) in enumerate(zip(spans, _self_seconds(spans))):
        add((span.name, False), index, span.seconds)
        add((span.name, True), index, own)
        if span.name == "sinkhorn.compute_codes":
            add(("caller", _caller(spans, span)), index, span.seconds)
            add(("shape", span.tag if span.tag in SHAPES else "other"),
                index, 1)
    steps = step_spans(spans, step_ends)
    for step, own in zip(steps, _step_self_seconds(spans, steps)):
        add(("trainer.step", False), step.parent, step.seconds)
        add(("trainer.step", True), step.parent, own)

    def values(key) -> list:
        setup, measured = groups.get(key, ([], []))
        return measured or setup

    out = {}
    for name, unit, self_time in TIMED_LAYERS:
        found = values((name, self_time))
        stat = "self_p" if self_time else "p"
        out[f"{name}.{stat}50_{unit}"] = percentile(found, 50) * _SCALE[unit]
        out[f"{name}.{stat}99_{unit}"] = percentile(found, 99) * _SCALE[unit]
        out[f"{name}.calls"] = len(found)
    for caller, _ in CALLERS:
        ms = [1e3 * s for s in values(("caller", caller))]
        out[f"sinkhorn.compute_codes.{caller}.p50_ms"] = percentile(ms, 50)
        out[f"sinkhorn.compute_codes.{caller}.p99_ms"] = percentile(ms, 99)
        out[f"sinkhorn.compute_codes.{caller}.calls"] = len(ms)
    for shape in (*SHAPES, "other"):
        out[f"sinkhorn.compute_codes.calls_{shape}"] = len(
            values(("shape", shape)))
    out["trace.spans"] = len(spans)
    out["trace.overhead_pct"] = overhead_pct
    return out
