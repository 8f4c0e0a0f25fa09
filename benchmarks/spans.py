"""Span tracing around eegalign's public functions, from outside the package.

A ``Tracer`` replaces a module attribute or class method with a wrapper
that records one span per call: name, start, end, the enclosing span
and the bytes of the arrays the call returned. Spans stay in memory and
are written out once, when the run ends. Nothing in ``src/`` is edited;
``restore()`` puts every original back.

The tape walks (``tape_stats``) read the autodiff graph through the
private ``_parents`` / ``_vjp`` attributes of ``eegalign.tensor.Tensor``.
If the tape changes shape, they are the part of the benchmark to update.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import time

import numpy as np

MIB = float(1 << 20)


@dataclasses.dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index into Tracer.spans, -1 for a root span
    out_bytes: int
    aside_ns: int = 0  # benchmark work inside the span, not counted in it


def returned_bytes(value, depth: int = 0) -> int:
    """Bytes of the ndarrays a call returned, found through containers."""
    if depth > 3 or value is None:
        return 0
    data = getattr(value, "data", None)
    if isinstance(data, np.ndarray) and not isinstance(value, np.ndarray):
        return data.nbytes  # a Tensor
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (tuple, list)):
        return sum(returned_bytes(v, depth + 1) for v in value)
    if isinstance(value, dict):
        return sum(returned_bytes(v, depth + 1) for v in value.values())
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return sum(returned_bytes(getattr(value, f.name), depth + 1) for f in dataclasses.fields(value))
    return 0


def _owner_buffer(array: np.ndarray) -> np.ndarray:
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def tape_stats(root) -> tuple[int, float]:
    """(recorded op nodes, MiB they keep alive) reachable from ``root``.

    Counts every tensor with a vector-Jacobian closure, plus the arrays
    those closures capture, each underlying buffer once. Leaves such as
    parameters and input batches are not tape and are not counted.
    """
    buffers: dict[int, int] = {}

    def hold(array: np.ndarray) -> None:
        owner = _owner_buffer(array)
        buffers[id(owner)] = owner.nbytes

    nodes = 0
    seen: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        vjp = node._vjp
        if vjp is None:
            continue
        nodes += 1
        hold(node.data)
        for cell in vjp.__closure__ or ():
            try:
                content = cell.cell_contents
            except ValueError:  # an unfilled cell
                continue
            if isinstance(content, np.ndarray):
                hold(content)
        stack.extend(node._parents)
    return nodes, sum(buffers.values()) / MIB


class Tracer:
    """Records spans while ``enabled``; wrappers cost one branch when not."""

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = True
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def open_names(self) -> list[str]:
        return [self.spans[i].name for i in self._stack]

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` recording a span named ``name`` per call.

        ``before(args)`` and ``after(args, result)`` run outside the
        span's own interval, so counter walks do not inflate it.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(name, 0, 0, parent, 0)
            tracer.spans.append(span)
            tracer._stack.append(index)
            span.start_ns = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                tracer._stack.pop()
            span.out_bytes = returned_bytes(result)
            if after is not None:
                after(args, result)
            return result

        return traced

    def aside(self, fn):
        """Call ``fn`` without counting its time in the spans open around it."""
        start = time.perf_counter_ns()
        try:
            return fn()
        finally:
            elapsed = time.perf_counter_ns() - start
            for i in self._stack:
                self.spans[i].aside_ns += elapsed

    def patch(self, owner, attr: str, name: str, before=None, after=None) -> None:
        original = getattr(owner, attr)
        self._originals.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, before, after))

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ms, self ms, MiB returned per call.

        A span's duration leaves out its ``aside_ns``. Self time is the
        duration minus the part of it that its direct children cover.
        """
        def duration_ns(span: Span) -> int:
            return span.end_ns - span.start_ns - span.aside_ns

        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_ns[span.parent] += duration_ns(span)
        totals: dict[str, dict[str, float]] = {}
        for i, span in enumerate(self.spans):
            row = totals.setdefault(span.name, {"calls": 0, "ms": 0.0, "self_ms": 0.0, "out_bytes": 0})
            duration = duration_ns(span)
            row["calls"] += 1
            row["ms"] += duration / 1e6
            row["self_ms"] += (duration - child_ns[i]) / 1e6
            row["out_bytes"] += span.out_bytes
        for row in totals.values():
            row["out_mib"] = row.pop("out_bytes") / MIB / row["calls"]
        return totals

    def write(self, path) -> None:
        """One JSON object per line: id, name, start, end, parent, out_bytes, aside_ns."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **dataclasses.asdict(span)}) + "\n")
