"""Spans around the public functions of each uled_inspect module.

The tracer replaces module attributes with timing wrappers.  A module's
functions are also its globals, so calls from inside the package (pipeline ->
geometry.warp_frame -> warp_plane) go through the wrappers as well.  Spans are
kept in memory: (id, name, start, end, parent id, op id).  Nothing is written
until the caller asks for it at the end of a run.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import statistics
import threading
import time
import tracemalloc
from collections import Counter, defaultdict
from typing import NamedTuple

LAYERS = ("io", "geometry", "grid", "features", "ml", "evaluation", "pipeline", "synthgen", "rng")

# Per-draw scalar helpers; they run inside the k-Means worker threads a few
# hundred times per op, so wrapping them would time the tracer, not the work.
SKIPPED = {"rng.finalize", "rng.mix"}

# Class methods that carry a layer's bulk work.
METHODS = (("rng", "SplitMix64", "normal_batch"), ("rng", "SplitMix64", "uniform_batch"))

# Calls counted without a span (they run on worker threads).
COUNTED = {"ml._lloyd": "ml.kmeans_fit.restarts"}

# Spans whose tracemalloc peak is recorded, in MiB.
PEAK = {"geometry.warp_frame": "geometry.warp_frame.peak_mib"}

MIB = float(1 << 20)


def _warp_plane_mpx(args, kwargs, result):
    out_width, out_height = args[2:4] if len(args) >= 4 else (kwargs["out_width"], kwargs["out_height"])
    return {"geometry.warp_plane.mpx": out_width * out_height / 1e6}


# Work counts taken from a call's arguments or result.
WORK = {
    "geometry.warp_plane": _warp_plane_mpx,
    "features.extract": lambda args, kwargs, result: {"features.cells": len(result)},
}


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int


class Tracer:
    """Context manager that installs the wrappers and restores the originals."""

    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        for layer in LAYERS:
            module = getattr(self.package, layer)
            for attr, fn in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if name in COUNTED:
                    self._patch(module, attr, self._counter(COUNTED[name], fn))
                elif (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not attr.startswith("_")
                    and name not in SKIPPED
                ):
                    self._patch(module, attr, self._span(name, fn))
        for layer, cls_name, attr in METHODS:
            cls = getattr(getattr(self.package, layer), cls_name)
            self._patch(cls, attr, self._span(f"{layer}.{attr}", vars(cls)[attr]))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _counter(self, key, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.op is not None:
                with self._lock:
                    self.counts[self.op, key] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, name, fn):
        work = WORK.get(name)
        peak_key = PEAK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            span_id = next(self._ids)
            # Spans opened on another thread take the main thread's open span
            # as parent but never join its stack.
            on_main = threading.get_ident() == self._main
            parent = self._stack[-1] if self._stack else None
            if on_main:
                self._stack.append(span_id)
            if peak_key:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if peak_key:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                if on_main:
                    self._stack.pop()
                self.spans.append(Span(span_id, name, start, end, parent, op))
            with self._lock:
                if peak_key:
                    self.counts[op, peak_key] = max(self.counts[op, peak_key], peak / MIB)
                if work:
                    for key, value in work(args, kwargs, result).items():
                        self.counts[op, key] += value
            return result

        return traced


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval that child spans cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def op_profiles(spans: list[Span], counts: Counter) -> dict[int, dict[str, float]]:
    """Per op: inclusive seconds and calls per span name, self seconds per
    layer, and the work counts."""
    own = self_times(spans)
    profiles: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        p = profiles[s.op]
        p[f"{s.name}.s"] += s.end - s.start
        p[f"{s.name}.calls"] += 1
        p[f"{s.name.split('.')[0]}.self_s"] += own[s.id]
    for (op, key), value in counts.items():
        profiles[op][key] += value
    return {op: dict(p) for op, p in profiles.items()}


def median_profile(profiles: dict[int, dict[str, float]], keys) -> dict[str, float]:
    """Median over ops of each key; an op without the key counts as 0."""
    return {k: statistics.median(p.get(k, 0.0) for p in profiles.values()) for k in keys}
