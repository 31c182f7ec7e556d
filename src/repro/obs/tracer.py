"""Deterministic structured tracer keyed to the simulation clock.

Every timestamp a span or event carries is the *simulated* time of the
:class:`~repro.sim.core.Simulator` the tracer is bound to, so two runs
with the same seed produce byte-identical trace files — the property the
export tests pin down.  Wall-clock time never enters a record.

Zero cost when disabled: components resolve their tracer once (at
construction) via :func:`tracer_of`, which returns the shared
:data:`NULL_TRACER` when no tracer is installed on the simulator.  The
null tracer's methods are no-ops and its spans are a single reusable
object, so the instrumentation in the hot paths costs one attribute
lookup plus one no-op call.

Records are plain dicts with two shapes:

``{"type": "event", "t": <sim s>, "cat": ..., "name": ..., "node": ...,
  "txn": ..., "trace": ..., "args": {...}}`` — a point event, recorded
when emitted.

``{"type": "span", "t0": ..., "t1": ..., "cat": ..., "name": ...,
  "node": ..., "txn": ..., "trace": ..., "sid": n, "parent": m,
  "args": {...}}`` — a closed span.

Parent/trace assignment is **fiber-local**: each simulator process (the
paper's SCONE fiber) carries its own open-span stack, so interleaved
fibers no longer steal each other's parents the way the original single
global stack allowed.  A span's ``parent`` is the innermost span still
open *in the opening fiber*; a fiber spawned while a span is open
inherits that span's ``(trace, sid)`` as its starting context, so
background processes (group-commit leaders, counter round drivers,
recovery redrives) chain under the work that spawned them.  Cross-node
edges are established explicitly: the RPC layer stamps the sender's
context into the sealed message metadata and the receiving fiber calls
:meth:`Tracer.adopt` — see ``docs/OBSERVABILITY.md`` for the wire
format.  ``trace`` is the transaction-scoped trace id (the hex global
transaction id for 2PC work) grouping one causal DAG per transaction.

Subscribers (the invariant monitor) receive every record as it is
finalized, whether or not the tracer retains records for export.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Span", "TraceLog", "Tracer", "NullTracer", "NULL_TRACER",
           "tracer_of"]

Subscriber = Callable[[Dict[str, Any]], None]


class TraceLog(deque):
    """The tracer's retained records, indexed by trace id as they arrive.

    Append-only: :meth:`append` is the one mutator that keeps
    ``by_trace`` in step.  ``by_trace[trace]`` holds that trace's
    records (``None`` keys the records of no trace) in emission order,
    so per-trace analysis (:mod:`repro.obs.critpath`, the flight
    recorder's retro-dump) reads one bucket instead of scanning the log.
    With ``ring_max`` the log is a ring: a full log drops its oldest
    record on append, and because the log and every bucket are both in
    emission order that record is also the head of its own bucket — it
    is popped there, and a bucket emptied this way is deleted.  The
    index holds references to the records, never copies.
    """

    __slots__ = ("by_trace", "evicted")

    def __init__(self, ring_max: Optional[int] = None):
        super().__init__(maxlen=ring_max)
        self.by_trace: Dict[Optional[str], deque] = {}
        #: records the ring has dropped so far.
        self.evicted = 0

    def append(self, rec: Dict[str, Any]) -> None:
        by_trace = self.by_trace
        if len(self) == self.maxlen:
            oldest = self[0]["trace"]
            bucket = by_trace[oldest]
            bucket.popleft()
            if not bucket:
                del by_trace[oldest]
            self.evicted += 1
        trace = rec["trace"]
        bucket = by_trace.get(trace)
        if bucket is None:
            bucket = by_trace[trace] = deque()
        bucket.append(rec)
        super().append(rec)


class Span:
    """One open interval of simulated time; close it (or use ``with``)."""

    __slots__ = ("tracer", "cat", "name", "node", "txn", "start", "args",
                 "sid", "parent", "trace", "_stack", "_closed")

    def __init__(self, tracer, cat, name, node, txn, start, args, sid,
                 parent, trace, stack):
        self.tracer = tracer
        self.cat = cat
        self.name = name
        self.node = node
        self.txn = txn
        self.start = start
        self.args = args
        self.sid = sid
        self.parent = parent
        self.trace = trace
        self._stack = stack
        self._closed = False

    def close(self, **extra: Any) -> None:
        """Finalize the span at the current simulated instant."""
        if self._closed:
            return
        self._closed = True
        if extra:
            self.args.update(extra)
        self.tracer._close_span(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class Tracer:
    """Records spans and point events against the simulation clock.

    ``record=False`` keeps the tracer's dispatch (subscribers still see
    every record — how the invariant monitor runs without the memory
    cost of retaining a full trace) but drops the records themselves.
    """

    enabled = True

    def __init__(self, sim, record: bool = True, trace_processes: bool = False,
                 ring_max: Optional[int] = None):
        self.sim = sim
        self.record = record
        #: emit sim-process start/finish events (chatty; off by default).
        self.trace_processes = trace_processes
        #: flight-recorder mode: retain at most ``ring_max`` records,
        #: evicting the oldest (FIFO in emission order, so eviction is
        #: exactly as deterministic as emission).  ``None`` = unbounded.
        self.ring_max = ring_max
        self.records = TraceLog(ring_max)
        self.subscribers: List[Subscriber] = []
        self._ids = itertools.count(1)
        #: open-span stack for code running outside any process.
        self._open: List[Span] = []
        #: per-process open-span stacks (fiber-local parent assignment).
        self._proc_open: Dict[Any, List[Span]] = {}
        #: per-process inherited/adopted ``(trace, parent sid)`` context,
        #: captured at spawn time or set by :meth:`adopt`.
        self._proc_ctx: Dict[Any, Tuple[Optional[str], int]] = {}
        self.spans_closed = 0
        self.events_emitted = 0

    @property
    def records_evicted(self) -> int:
        return self.records.evicted

    # -- wiring ------------------------------------------------------------
    def subscribe(self, subscriber: Subscriber) -> None:
        """Call ``subscriber(record)`` for every finalized record."""
        self.subscribers.append(subscriber)

    def _emit(self, rec: Dict[str, Any]) -> None:
        if self.record:
            self.records.append(rec)
        for subscriber in self.subscribers:
            subscriber(rec)

    # -- fiber-local context -----------------------------------------------
    def _current_stack(self) -> List[Span]:
        process = getattr(self.sim, "current_process", None)
        if process is None:
            return self._open
        stack = self._proc_open.get(process)
        if stack is None:
            stack = self._proc_open[process] = []
        return stack

    def current_context(self) -> Tuple[Optional[str], int]:
        """The ``(trace, parent sid)`` a new span here would attach to.

        Resolution order: the innermost span open in the current fiber,
        then the fiber's inherited/adopted context, then the innermost
        span on the off-process stack, else ``(None, 0)``.
        """
        process = getattr(self.sim, "current_process", None)
        if process is not None:
            stack = self._proc_open.get(process)
            if stack:
                top = stack[-1]
                return top.trace, top.sid
            context = self._proc_ctx.get(process)
            if context is not None:
                return context
        if self._open:
            top = self._open[-1]
            return top.trace, top.sid
        return None, 0

    def adopt(self, trace: Optional[str], parent: int) -> None:
        """Adopt a remote ``(trace, parent sid)`` as this fiber's context.

        Called by the RPC layer when a message carrying a trace context
        is dispatched to a handler fiber: spans the fiber (and fibers it
        spawns) opens chain under the sender's span, joining the
        transaction's cross-node DAG.
        """
        process = getattr(self.sim, "current_process", None)
        if process is not None:
            self._proc_ctx[process] = (trace, parent)

    # -- spans -------------------------------------------------------------
    def span(self, cat: str, name: str, node: Optional[str] = None,
             txn: Optional[str] = None, parent: Optional[int] = None,
             trace: Optional[str] = None, **args: Any) -> Span:
        """Open a span at the current instant; ``close()`` ends it.

        ``parent``/``trace`` override the fiber-local context — used at
        adoption points (RPC handlers, counter round drivers) to attach
        a span to an explicitly carried remote context.
        """
        if parent is None or trace is None:
            inherited_trace, inherited_parent = self.current_context()
            if parent is None:
                parent = inherited_parent
            if trace is None:
                trace = inherited_trace
        stack = self._current_stack()
        span = Span(self, cat, name, node, txn, self.sim.now, args,
                    next(self._ids), parent, trace, stack)
        stack.append(span)
        return span

    def _close_span(self, span: Span) -> None:
        # Remove by identity from the owning fiber's stack: a span may be
        # closed from a different fiber (or after its fiber finished).
        stack = span._stack
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] is span:
                del stack[index]
                break
        span._stack = None
        self.spans_closed += 1
        self._emit({
            "type": "span", "cat": span.cat, "name": span.name,
            "t0": span.start, "t1": self.sim.now, "node": span.node,
            "txn": span.txn, "trace": span.trace, "sid": span.sid,
            "parent": span.parent, "args": span.args,
        })

    # -- point events ------------------------------------------------------
    def event(self, cat: str, name: str, node: Optional[str] = None,
              txn: Optional[str] = None, trace: Optional[str] = None,
              **args: Any) -> None:
        """Emit a point event at the current instant.

        The event is stamped with the current fiber's trace id unless an
        explicit ``trace`` is given, so point events (counter advances,
        TEE transitions) land inside their transaction's DAG.
        """
        if trace is None:
            trace = self.current_context()[0]
        self.events_emitted += 1
        self._emit({
            "type": "event", "cat": cat, "name": name, "t": self.sim.now,
            "node": node, "txn": txn, "trace": trace, "args": args,
        })

    # -- sim process hooks (called from repro.sim.core) --------------------
    def process_started(self, process) -> None:
        # Process.__init__ runs in the *spawning* fiber, so the current
        # context here is the spawner's — capture it as the new fiber's
        # inherited context (background work chains under its creator).
        trace, parent = self.current_context()
        if trace is not None or parent:
            self._proc_ctx[process] = (trace, parent)
        if self.trace_processes:
            self.event("sim", "process_start", process=process.name)

    def process_finished(self, process) -> None:
        self._proc_open.pop(process, None)
        self._proc_ctx.pop(process, None)
        if self.trace_processes:
            self.event("sim", "process_end", process=process.name)


class _NullSpan:
    """Reusable do-nothing span handed out by the null tracer."""

    __slots__ = ()

    sid = 0
    parent = 0
    trace = None

    def close(self, **extra: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every operation is a no-op."""

    enabled = False
    record = False
    records: List[Dict[str, Any]] = []
    ring_max: Optional[int] = None
    records_evicted = 0

    __slots__ = ()

    def subscribe(self, subscriber: Subscriber) -> None:
        raise RuntimeError("cannot subscribe to the null tracer")

    def span(self, cat: str, name: str, node: Optional[str] = None,
             txn: Optional[str] = None, parent: Optional[int] = None,
             trace: Optional[str] = None, **args: Any) -> _NullSpan:
        return _NULL_SPAN

    def event(self, cat: str, name: str, node: Optional[str] = None,
              txn: Optional[str] = None, trace: Optional[str] = None,
              **args: Any) -> None:
        pass

    def current_context(self) -> Tuple[Optional[str], int]:
        return None, 0

    def adopt(self, trace: Optional[str], parent: int) -> None:
        pass

    def process_started(self, process) -> None:
        pass

    def process_finished(self, process) -> None:
        pass


NULL_TRACER = NullTracer()


def tracer_of(sim) -> Any:
    """The tracer installed on ``sim``, or the shared null tracer.

    Components call this once at construction and keep the result, so
    the disabled path costs nothing per operation.
    """
    return getattr(sim, "tracer", None) or NULL_TRACER
