"""In-memory spans around calls into the program, for traced benchmark runs.

A `Tracer` records one span per wrapped call: name, start, end, the
enclosing span, and a tag (a grid cell or request id) that child spans
inherit. `Tracer.installed` replaces functions in the program's modules
under every name a module imported them by, and puts the originals back
on exit, so an untraced measurement always runs unwrapped code.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    parent: int | None = None
    tag: str | None = None
    end: float | None = None
    child_s: float = 0.0  # total duration of direct children
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Duration minus the time direct children cover. Spans nest
        strictly on one thread, so children never overlap."""
        return self.duration - self.child_s


@dataclass(frozen=True)
class Layer:
    """One program function to time: the module defining it, its name
    there, and optional per-call hooks."""

    module: str
    attr: str
    count: Callable | None = None  # (args, kwargs, result) -> {counter: int}
    tag: Callable | None = None  # (args, kwargs) -> str | None

    @property
    def name(self) -> str:
        """Span name: defining module's last component, then the function."""
        return f"{self.module.rpartition('.')[2]}.{self.attr}"


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, tag: str | None = None):
        parent = self._stack[-1] if self._stack else None
        if tag is None and parent is not None:
            tag = self.spans[parent].tag
        sp = Span(name=name, start=self.clock(), parent=parent, tag=tag)
        self._stack.append(len(self.spans))
        self.spans.append(sp)
        try:
            yield sp
        finally:
            sp.end = self.clock()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_s += sp.duration

    def wrap(self, layer: Layer, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tag = layer.tag(args, kwargs) if layer.tag else None
            with self.span(layer.name, tag) as sp:
                result = fn(*args, **kwargs)
            if layer.count:
                sp.counts.update(layer.count(args, kwargs, result))
            return result

        return wrapper

    @contextmanager
    def installed(self, layers: list[Layer], package: str):
        """Wrap each layer's function in every loaded module of `package`
        that holds it, under the name that module uses; restore on exit."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        try:
            for layer in layers:
                original = getattr(sys.modules[layer.module], layer.attr)
                wrapped = self.wrap(layer, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapped)
            yield self
        finally:
            for module, attr, original in reversed(self._patches):
                setattr(module, attr, original)
            self._patches.clear()


def to_json(spans: list[Span]) -> list[dict]:
    return [
        {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "tag": s.tag,
         "counts": s.counts}
        for s in spans
    ]


def summarize(*span_lists: list[Span]) -> dict[str, dict]:
    """Per span name over one or more tracers' spans: calls, busy_s
    (time inside at least one span of that name, so recursion is not
    counted twice), self_s and summed counters."""
    out: dict[str, dict] = {}
    for spans in span_lists:
        for sp in spans:
            s = out.setdefault(sp.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "counts": {}})
            s["calls"] += 1
            s["self_s"] += sp.self_s
            if not _has_ancestor_named(spans, sp, sp.name):
                s["busy_s"] += sp.duration
            for k, v in sp.counts.items():
                s["counts"][k] = s["counts"].get(k, 0) + v
    return out


def _has_ancestor_named(spans: list[Span], sp: Span, name: str) -> bool:
    p = sp.parent
    while p is not None:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False
