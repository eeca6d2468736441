"""Span tracing of polyderive's public functions, installed from outside.

:class:`Tracer` replaces every public function of the ten modules, in every
module namespace that binds it, with a wrapper that records a span (name,
start, end, span id, parent id, operation id). Cross-module calls go through
those namespaces, so they are seen; nothing under ``src/`` changes.
Aggregates (calls and self time per function) cover every call; raw spans
are kept in memory up to ``MAX_SPANS`` and written out when the run ends.
``QuadExt`` construction and multiplication are counted without spans,
because they are too fine-grained to time one by one.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

MODULES = (
    "cli", "oracle", "reports", "regularity", "polygon",
    "derived", "vectors", "scalars", "generators", "suites",
)
MAX_SPANS = 100_000
SPAN_FIELDS = ("name", "start_ns", "end_ns", "id", "parent", "op")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.counters = {"scalars.quadext_new": 0, "scalars.quadext_mul": 0}
        self.spans: list[tuple] = []
        self.op = 0
        self._stack: list[list[int]] = []
        self._next_id = 0
        self._bindings: list[tuple] = []

    def install(self) -> None:
        """Bind the wrappers; they are built on the first call and reused."""
        if not self._bindings:
            self._bindings = self._build()
        for namespace, name, _, wrapper in self._bindings:
            setattr(namespace, name, wrapper)

    def uninstall(self) -> None:
        for namespace, name, original, _ in reversed(self._bindings):
            setattr(namespace, name, original)

    def _build(self) -> list:
        """(namespace, name, original, wrapper) for every binding to replace."""
        package = importlib.import_module("polyderive")
        modules = [importlib.import_module(f"polyderive.{name}") for name in MODULES]
        wrappers = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    wrappers[obj] = self._wrap(f"{short}.{name}", obj)
        bindings = [
            (namespace, name, obj, wrappers[obj])
            for namespace in [package, *modules]
            for name, obj in vars(namespace).items()
            if inspect.isfunction(obj) and obj in wrappers
        ]
        quadext = importlib.import_module("polyderive.scalars").QuadExt
        for attr, key in (
            ("__init__", "scalars.quadext_new"),
            ("__mul__", "scalars.quadext_mul"),
            ("__rmul__", "scalars.quadext_mul"),
        ):
            original = quadext.__dict__[attr]
            bindings.append((quadext, attr, original, self._count(key, original)))
        return bindings

    def _count(self, key: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_ns.append(0)
        stack, spans, calls, self_ns = self._stack, self.spans, self.calls, self.self_ns
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                calls[index] += 1
                self_ns[index] += duration - frame[1]
                if len(spans) < MAX_SPANS:
                    spans.append((index, start, end, span_id, parent, self.op))

        return traced

    def aggregates(self) -> dict:
        """{name: [calls, self_ns]} for every wrapped function, plus counters."""
        table = {
            name: [calls, ns] for name, calls, ns in zip(self.names, self.calls, self.self_ns)
        }
        table.update({key: [count, 0] for key, count in self.counters.items()})
        return table

    def dump(self) -> dict:
        return {
            "names": self.names,
            "aggregates": self.aggregates(),
            "spans": self.spans,
        }


def merge(total: dict, part: dict) -> None:
    """Add one aggregate table into another."""
    for name, (calls, ns) in part.items():
        entry = total.setdefault(name, [0, 0])
        entry[0] += calls
        entry[1] += ns


def write(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, separators=(",", ":"))
