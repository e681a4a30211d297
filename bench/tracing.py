"""Spans at dshp's module boundaries, recorded from outside the package.

Tracer.install() rebinds, in the calling process only, every function that
one dshp module imports from another (for example dshp.cli.parse_instance
and dshp.exact.complete_first_stage) to a wrapper that records a span;
uninstall() puts the originals back.  Calls inside one module are not
spans.  Spans live in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass

MODULES = (
    "dshp.cli", "dshp.model", "dshp.exact", "dshp.two_value", "dshp.approx", "dshp.reduction",
)


@dataclass
class Span:
    """One call across a module boundary; request groups the spans of one request."""

    request: int
    span_id: int
    parent: int | None
    name: str
    start_ns: int = 0
    end_ns: int = 0


def span_name(function) -> str:
    """Span name of a dshp function, e.g. model.parse_instance."""
    return f"{function.__module__.removeprefix('dshp.')}.{function.__name__}"


class Tracer:
    """Records spans; request() opens a request's root span."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._request = -1
        self._rebound: list[tuple[object, str, object]] = []

    def _call(self, name, function, args, kwargs):
        parent = self._open[-1].span_id if self._open else None
        span = Span(self._request, len(self.spans), parent, name)
        self.spans.append(span)
        self._open.append(span)
        span.start_ns = time.perf_counter_ns()
        try:
            return function(*args, **kwargs)
        finally:
            span.end_ns = time.perf_counter_ns()
            self._open.pop()

    def _wrap(self, function):
        name = span_name(function)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            return self._call(name, function, args, kwargs)

        return traced

    def request(self, request_id: int, name: str, function, *args):
        """Call function(*args) as the root span of request request_id."""
        self._request = request_id
        return self._call(name, function, args, {})

    def install(self) -> None:
        for module_name in MODULES:
            module = importlib.import_module(module_name)
            for attr, value in list(vars(module).items()):
                if (
                    inspect.isfunction(value)
                    and value.__module__ in MODULES
                    and value.__module__ != module_name
                ):
                    self._rebound.append((module, attr, value))
                    setattr(module, attr, self._wrap(value))

    def uninstall(self) -> None:
        for module, attr, value in self._rebound:
            setattr(module, attr, value)
        self._rebound.clear()


def request_profile(spans: list[Span]) -> tuple[dict[str, int], dict[str, int], list[str]]:
    """Per span name, the total and self nanoseconds of one request's spans.

    A span's self time is its duration minus the part of it its child
    spans cover.  The third value lists nesting faults: a child outside
    its parent, or self times that do not add up to the root's duration.
    """
    by_id = {span.span_id: span for span in spans}
    covered: dict[int, int] = defaultdict(int)
    faults = []
    for span in spans:
        if span.parent is None:
            continue
        parent = by_id[span.parent]
        if not parent.start_ns <= span.start_ns <= span.end_ns <= parent.end_ns:
            faults.append(f"span {span.name} lies outside its parent {parent.name}")
        covered[parent.span_id] += max(
            0, min(span.end_ns, parent.end_ns) - max(span.start_ns, parent.start_ns)
        )
    total: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    for span in spans:
        total[span.name] += span.end_ns - span.start_ns
        self_ns[span.name] += span.end_ns - span.start_ns - covered[span.span_id]
    roots = [span for span in spans if span.parent is None]
    root_ns = sum(span.end_ns - span.start_ns for span in roots)
    if len(roots) != 1 or sum(self_ns.values()) != root_ns:
        faults.append(
            f"{len(roots)} root span(s); self times sum to {sum(self_ns.values())} ns, "
            f"root lasts {root_ns} ns"
        )
    return total, self_ns, faults
