"""In-memory span tracer wrapped around the library's layer functions.

Spans are recorded from the benchmark's side only: :class:`Patches`
replaces each layer function named in ``layers.json`` with a timing
wrapper for the duration of a traced run and restores the originals
afterwards, so the library itself carries no instrumentation and the
timed runs execute it unmodified.

A span is ``(id, name, start, end, parent, thread, info)``. Parents are
tracked per thread, so spans opened by the HTTP handler threads or the
in-process drain threads nest correctly. ``info`` carries a per-call
count where a layer has one (elements for kernels, 1/0 won/lost for
claims).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYERS_FILE = Path(__file__).resolve().parent / "layers.json"

#: Prefix of the benchmark's own phase spans (roots, not layers).
PHASE_PREFIX = "bench."


def load_layers() -> list[dict]:
    """The layer table: name, wrapped targets, and what each should move."""
    return json.loads(LAYERS_FILE.read_text())["layers"]


class Tracer:
    """Collects spans in memory; written out as JSONL by :meth:`dump`."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, info=None):
        """Run ``fn`` inside a span; ``info(args, result)`` sets its count."""
        stack = self._stack()
        parent = stack[-1] if stack else 0
        span_id = next(self._ids)
        stack.append(span_id)
        start = perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = perf_counter()
            stack.pop()
            count = info(args, result) if info is not None else None
            self.spans.append(
                (span_id, name, start, end, parent, threading.get_ident(), count)
            )

    @contextlib.contextmanager
    def phase(self, name: str):
        """A benchmark phase span (``bench.<name>``) around a block."""
        stack = self._stack()
        parent = stack[-1] if stack else 0
        span_id = next(self._ids)
        stack.append(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, PHASE_PREFIX + name, start, end, parent, threading.get_ident(), None)
            )

    def timed_iter(self, name: str, iterator):
        """Yield from ``iterator``, one span per produced item."""
        while True:
            stack = self._stack()
            parent = stack[-1] if stack else 0
            start = perf_counter()
            try:
                item = next(iterator)
            except StopIteration:
                return
            end = perf_counter()
            self.spans.append(
                (next(self._ids), name, start, end, parent, threading.get_ident(), None)
            )
            yield item

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "name", "start", "end", "parent", "thread", "count")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


class NullTracer:
    """Stand-in for untraced runs: phases cost nothing and record nothing."""

    @staticmethod
    def phase(name: str):
        return contextlib.nullcontext()


def _elements(args, result) -> int:
    return int(getattr(args[0], "size", 0))


def _won(args, result) -> int:
    return 1 if result else 0


#: Per-call counts recorded for layers that have one.
INFO = {"elements": _elements, "won": _won}


def _resolve(target: str):
    """``module:attr`` or ``module:Class.method`` → (owner, attr, value)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


class Patches:
    """Install timing wrappers for every layer; :meth:`restore` undoes it.

    A module-level function is replaced wherever a loaded ``repro``
    module holds a reference to it (``from x import f`` binds the
    function into the importer), a method on its defining class. Every
    module the workloads use is imported before patching, so no module
    first imported during the traced run can capture a wrapper.
    """

    def __init__(self, tracer: Tracer, layers: list[dict]) -> None:
        self._saved: list[tuple[object, str, object]] = []
        for layer in layers:
            info = INFO.get(layer.get("count", ""))
            for target in layer["targets"]:
                owner, attr, original = _resolve(target)
                wrapper = self._wrapper(tracer, layer, original, info)
                if isinstance(owner, type):
                    self._set(owner, attr, wrapper)
                else:
                    for module in list(sys.modules.values()):
                        namespace = getattr(module, "__dict__", None)
                        if not getattr(module, "__name__", "").startswith("repro"):
                            continue
                        for key, value in list(namespace.items()):
                            if value is original:
                                self._set(module, key, wrapper)

    @staticmethod
    def _wrapper(tracer: Tracer, layer: dict, original, info):
        name = layer["name"]
        if layer.get("kind") == "iter":

            @functools.wraps(original)
            def iter_wrapper(*args, **kwargs):
                return tracer.timed_iter(name, iter(original(*args, **kwargs)))

            return iter_wrapper

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return tracer.call(name, original, args, kwargs, info)

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, "__dict__")[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def layer_metrics(tracer: Tracer, layers: list[dict], wall_s: float, points: int) -> dict:
    """Per-layer seconds, calls and self seconds, plus the layer counts.

    Self time is a span's duration minus that of its direct children.
    ``unattributed_s`` is the traced wall time not covered by any layer
    span's self time (threads running in parallel can make it negative).
    """
    by_id = {span[0]: span for span in tracer.spans}
    child_time: dict[int, float] = defaultdict(float)
    children: dict[int, int] = defaultdict(int)
    for span in tracer.spans:
        if span[4]:
            child_time[span[4]] += span[3] - span[2]
            children[span[4]] += 1

    def phase_of(span) -> str:
        while span[4] and span[4] in by_id:
            span = by_id[span[4]]
        return span[1]

    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, int] = defaultdict(int)
    computes = 0
    write_probes = 0
    for span in tracer.spans:
        name = span[1]
        duration = span[3] - span[2]
        total[name] += duration
        own[name] += duration - child_time[span[0]]
        calls[name] += 1
        if span[6] is not None:
            counts[name] += span[6]
        if name == "core.plan.idle_gaps" and children[span[0]]:
            computes += 1
        if name == "campaign.store.contains" and phase_of(span) == PHASE_PREFIX + "write":
            write_probes += 1

    metrics: dict[str, tuple[float, str]] = {}
    attributed = 0.0
    for layer in layers:
        name = layer["name"]
        metrics[f"{name}.s"] = (total[name], "s")
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_s"] = (own[name], "s")
        attributed += own[name]
        if layer.get("count") == "elements":
            metrics[f"{name}.elements"] = (counts[name], "count")
    claims = calls["campaign.service.queue.try_claim"]
    lost = claims - counts["campaign.service.queue.try_claim"]
    metrics["core.plan.idle_gaps.computes"] = (computes, "count")
    metrics["campaign.store.probes_per_point"] = (write_probes / points if points else 0.0, "ratio")
    metrics["campaign.service.queue.try_claim.lost_frac"] = (lost / claims if claims else 0.0, "ratio")
    metrics["trace.wall_s"] = (wall_s, "s")
    metrics["trace.unattributed_s"] = (wall_s - attributed, "s")
    return metrics
