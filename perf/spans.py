"""Wall-clock spans recorded from outside the program.

The layer pass patches timing wrappers onto functions of ``src/repro``
(:mod:`layers` says which).  Every call of a wrapped synchronous
function, and every *resume* of a wrapped generator function, is one
span: ``(id, layer, name, start, end, parent id)``.  The simulator runs
on one thread and all work nests synchronously, so the span that is
open when another starts is its parent, and the children of one span
never overlap.

Spans stay in memory (parallel arrays, ~26 B each — a pass records
several million) until the pass ends.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from typing import Any, Callable, Dict, Iterable, List, Tuple

__all__ = [
    "SpanRecorder",
    "wrap_sync",
    "wrap_generator",
    "self_times",
    "SPAN_FILE_LIMIT",
]

#: spans written to ``perf/out/<workload>.spans.jsonl``; the aggregate
#: written behind them always covers every span of the pass.
SPAN_FILE_LIMIT = 200_000

#: one span as a tuple: (id, layer, name, start_ns, end_ns, parent id or -1)
SpanTuple = Tuple[int, str, str, int, int, int]


class SpanRecorder:
    """Spans of one pass; ``on`` gates recording (set-up runs unrecorded)."""

    def __init__(self) -> None:
        self.on = False
        #: (layer, name) per name index
        self.names: List[Tuple[str, str]] = []
        self.name_of = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        #: ids of the open spans, innermost last; -1 = no open span
        self.stack: List[int] = [-1]

    def register(self, layer: str, name: str) -> int:
        """Index of ``(layer, name)``, new or already registered."""
        if (layer, name) in self.names:
            return self.names.index((layer, name))
        self.names.append((layer, name))
        return len(self.names) - 1

    def __len__(self) -> int:
        return len(self.start)

    def spans(self, limit: int | None = None) -> Iterable[SpanTuple]:
        count = len(self) if limit is None else min(limit, len(self))
        for sid in range(count):
            layer, name = self.names[self.name_of[sid]]
            yield (sid, layer, name, self.start[sid], self.end[sid],
                   self.parent[sid])

    def aggregate(self) -> Dict[Tuple[str, str], Dict[str, int]]:
        """Per (layer, name): span count, total ns and self ns.

        Same arithmetic as :func:`self_times`, folded per name so that
        millions of spans need no per-span result list.
        """
        width = len(self.names)
        count = [0] * width
        total = [0] * width
        own = [0] * width
        name_of, start, end, parent = (
            self.name_of, self.start, self.end, self.parent)
        for sid in range(len(start)):
            duration = end[sid] - start[sid]
            index = name_of[sid]
            count[index] += 1
            total[index] += duration
            own[index] += duration
            above = parent[sid]
            if above >= 0:
                own[name_of[above]] -= duration
        return {
            self.names[index]: {
                "count": count[index],
                "total_ns": total[index],
                "self_ns": own[index],
            }
            for index in range(width)
            if count[index]
        }

    def write_jsonl(self, path: str, aggregate: Dict) -> None:
        """First :data:`SPAN_FILE_LIMIT` spans, then one line with
        ``aggregate`` (what :meth:`aggregate` returned)."""
        with open(path, "w") as out:
            for sid, layer, name, start, end, parent in self.spans(
                    SPAN_FILE_LIMIT):
                out.write(
                    '{"id":%d,"layer":"%s","name":"%s","start_ns":%d,'
                    '"end_ns":%d,"parent":%d}\n'
                    % (sid, layer, name, start, end, parent)
                )
            summary = {
                "spans_recorded": len(self),
                "spans_written": min(len(self), SPAN_FILE_LIMIT),
                "aggregate": {
                    "%s/%s" % key: value
                    for key, value in sorted(aggregate.items())
                },
            }
            out.write(json.dumps(summary, sort_keys=True) + "\n")


def self_times(spans: Iterable[SpanTuple]) -> Dict[int, int]:
    """Self time per span id: duration minus what its child spans cover.

    Children of one span never overlap here (one thread, synchronous
    nesting), so the covered part is the sum of the children's durations.
    """
    own: Dict[int, int] = {}
    for sid, _layer, _name, start, end, parent in spans:
        duration = end - start
        own[sid] = own.get(sid, 0) + duration
        if parent >= 0:
            own[parent] = own.get(parent, 0) - duration
    return own


def wrap_sync(recorder: SpanRecorder, index: int,
              fn: Callable[..., Any]) -> Callable[..., Any]:
    """``fn`` timed per call."""
    clock = time.perf_counter_ns
    name_of, start, end, parent, stack = (
        recorder.name_of, recorder.start, recorder.end, recorder.parent,
        recorder.stack)

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not recorder.on:
            return fn(*args, **kwargs)
        sid = len(start)
        name_of.append(index)
        parent.append(stack[-1])
        end.append(0)
        stack.append(sid)
        start.append(clock())
        try:
            return fn(*args, **kwargs)
        finally:
            end[sid] = clock()
            stack.pop()

    return wrapper


def wrap_generator(recorder: SpanRecorder, index: int,
                   fn: Callable[..., Any]) -> Callable[..., Any]:
    """Generator function ``fn`` timed per resume.

    The wrapper is ``yield from fn(...)`` written out, with a span around
    each ``send``/``throw`` into the wrapped generator: values, thrown
    exceptions (the simulator's ``Interrupt`` included), ``close()`` and
    the return value pass through unchanged.
    """
    clock = time.perf_counter_ns
    name_of, start, end, parent, stack = (
        recorder.name_of, recorder.start, recorder.end, recorder.parent,
        recorder.stack)

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        inner = fn(*args, **kwargs)
        send, throw = inner.send, inner.throw
        value: Any = None
        thrown: BaseException | None = None
        while True:
            recording = recorder.on
            if recording:
                sid = len(start)
                name_of.append(index)
                parent.append(stack[-1])
                end.append(0)
                stack.append(sid)
                start.append(clock())
            try:
                if thrown is None:
                    item = send(value)
                else:
                    item = throw(thrown)
            except StopIteration as stop:
                return stop.value
            finally:
                if recording:
                    end[sid] = clock()
                    stack.pop()
            try:
                value = yield item
                thrown = None
            except GeneratorExit:
                inner.close()
                raise
            except BaseException as exc:  # forwarded into the wrapped generator
                thrown = exc

    return wrapper
