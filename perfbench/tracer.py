"""In-memory spans around the public functions of gbsgraphs, installed from outside.

``Tracer.install`` replaces every public function of the traced modules, in
every gbsgraphs namespace that holds a reference to it, by a wrapper that
records one span per call: name, start, end, parent span and the benchmark op
it belongs to.  A span's self time is its duration minus the time covered by
its child spans, so figures -> features -> engine calls nest.  ``uninstall``
puts the original functions back, so untraced passes run the program as is.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

TRACED_MODULES = ("graphs", "embedding", "catalog", "engine", "features",
                  "figures", "svg", "cli")

# Span names merged into one layer metric; every other span counts under its
# own name, or under "<module>.other" for the engine and features modules,
# or under "<module>" for the rest.
_MERGED = {
    "features.fv_events_analytic": "features.fv_analytic",
    "features.fv_orbits_analytic": "features.fv_analytic",
    "features.fv_events_from_samples": "features.fv_sampled",
    "features.fv_orbits_from_samples": "features.fv_sampled",
}
_NAMED = {
    "engine.write_samples", "engine.ingest_samples", "engine.build_table",
    "engine.sample", "engine.apply_loss", "engine.min_cutoff_for_mass",
    "features.match_loss", "features.relative_deviation", "svg.render",
}


def layer_of(span_name: str) -> str:
    """The layer metric prefix a span's time and calls are added to."""
    if span_name in _MERGED:
        return _MERGED[span_name]
    if span_name in _NAMED:
        return span_name
    module = span_name.split(".", 1)[0]
    if module in ("engine", "features"):
        return module + ".other"
    return module


def _file_size(path) -> int:
    try:
        return Path(path).stat().st_size
    except (OSError, TypeError):
        return 0


class Tracer:
    """Collects spans and per-layer counts for one traced pass."""

    def __init__(self):
        self.spans: list[tuple] = []      # (id, parent, op, name, start, end)
        self.layers: dict[str, dict[str, float]] = {}
        self.op_id = -1
        self._stack: list[list] = []      # [span id, child seconds]
        self._patched: list[tuple] = []
        self._built: set = set()

    # -- recording ---------------------------------------------------------

    def _layer(self, span_name: str) -> dict[str, float]:
        return self.layers.setdefault(layer_of(span_name),
                                      {"calls": 0, "self_s": 0.0})

    def add(self, span_name: str, key: str, amount: float) -> None:
        layer = self._layer(span_name)
        layer[key] = layer.get(key, 0) + amount

    def _enter(self) -> int:
        span_id = len(self.spans)
        self.spans.append(None)
        self._stack.append([span_id, 0.0])
        return span_id

    def _exit(self, span_id: int, name: str, start: float, end: float) -> None:
        _, child = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else -1
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        self.spans[span_id] = (span_id, parent, self.op_id, name, start, end)
        layer = self._layer(name)
        layer["calls"] += 1
        layer["self_s"] += duration - child

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as one CLI command."""
        span_id = self._enter()
        start = perf_counter()
        try:
            yield
        finally:
            self._exit(span_id, name, start, perf_counter())

    # -- counters taken at the layer boundary -------------------------------

    def _count(self, name: str, args, kwargs, result, failed: bool) -> None:
        if name == "engine.write_samples" and not failed:
            self.add(name, "bytes", sum(_file_size(p) for p in result))
        elif name == "engine.ingest_samples":
            path = args[0] if args else kwargs.get("path")
            self.add(name, "bytes", _file_size(path))
            self.add(name, "fail", 1 if failed else 0)
        elif name == "engine.build_table" and not failed:
            cutoff = args[1] if len(args) > 1 else kwargs.get(
                "cutoff_pairs", result.cutoff_pairs)
            key = (result.spec.code, cutoff)
            self.add(name, "entries", len(result))
            self.add(name, "repeats", 1 if key in self._built else 0)
            self._built.add(key)
        elif name == "engine.sample" and not failed:
            self.add(name, "shots", len(result))
        elif name == "svg.render" and not failed:
            self.add(name, "bytes", _file_size(result))

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._enter()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(span_id, name, start, perf_counter())
                tracer._count(name, args, kwargs, None, True)
                raise
            tracer._exit(span_id, name, start, perf_counter())
            tracer._count(name, args, kwargs, result, False)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the traced modules, everywhere.

        Each install starts a new pass for the build_table repeat count.
        """
        self._built = set()
        modules = {m: importlib.import_module(f"gbsgraphs.{m}") for m in TRACED_MODULES}
        wrappers = {}
        for short, module in modules.items():
            for attr, value in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    wrappers[id(value)] = (value, self._wrap(f"{short}.{attr}", value))
        namespaces = [sys.modules["gbsgraphs"]] + list(modules.values())
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(namespace, attr, wrappers[id(value)][1])
                    self._patched.append((namespace, attr, value))

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        """Write every span as one JSON line, in the order spans opened."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span_id, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "op": op,
                                     "name": name, "start": start, "end": end})
                         + "\n")
