"""Deterministic structured tracer keyed to the simulation clock.

Every timestamp a span or event carries is the *simulated* time of the
:class:`~repro.sim.core.Simulator` the tracer is bound to, so two runs
with the same seed produce byte-identical trace files — the property the
export tests pin down.  Wall-clock time never enters a record.

Near zero cost when disabled: components resolve their tracer once (at
construction) via :func:`tracer_of`, which returns the shared
:data:`NULL_TRACER` when no tracer is installed on the simulator.  The
null tracer's methods are no-ops and its spans are a single reusable
object.  A call to it still evaluates its arguments and builds its
keyword dict, so the hot paths (the batch codec, the RPC exchange, the
TEE charges) test ``tracer.enabled`` first and compute nothing that only
a record would keep: with tracing off they cost one attribute test.

Records are slotted objects read as read-only mappings (:data:`Record`),
with two shapes:

:class:`EventRecord` — ``{"type": "event", "cat": ..., "name": ...,
"t": <sim s>, "node": ..., "txn": ..., "trace": ..., "args": {...}}``, a
point event, recorded when emitted.

:class:`Span` — ``{"type": "span", "cat": ..., "name": ..., "t0": ...,
"t1": ..., "node": ..., "txn": ..., "trace": ..., "sid": n,
"parent": m, "args": {...}}``, a closed span: the handle that was
opened *is* the record once closed, so closing copies nothing.

``rec["t0"]``, ``rec.get``, ``in``, iteration, ``keys``/``items``/
``values`` and ``==`` against a dict read them exactly like the dicts
they replace, keys in the order shown; ``dict(rec)`` is that dict (what
a JSON writer serialises).  A record holds a fraction of a dict's bytes,
which is what a traced pass retains most of.

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

Subscribers (the invariant monitor, the flight recorder, the time
series, the incident log) receive the records they asked for as each is
finalized, whether or not the tracer retains records for export.  A
subscriber names its records by ``(type, cat, name)`` keys, ``None``
matching anything in its position; each record is routed once through a
table cached per key, in subscription order.  A clock hook
(:meth:`Tracer.on_clock`) runs, at its place in that order, for the
first record at or past the sim time it asked for: the time series
closes its windows this way at the cost of one float comparison per
record.
"""

from __future__ import annotations

import itertools
from collections import abc, deque
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Tuple)

__all__ = ["EventRecord", "Record", "Span", "TraceLog", "Tracer",
           "NullTracer", "NULL_TRACER", "tracer_of"]

#: a trace record as its readers see it: a span or an event read by key.
Record = Mapping[str, Any]
Subscriber = Callable[[Record], None]
#: which records a subscriber receives: ``(type, cat, name)``, where
#: ``None`` matches any value in its position.
Key = Tuple[Optional[str], Optional[str], Optional[str]]
#: ``hook(now)`` runs for the first record at or past its due time and
#: returns the next due time.
ClockHook = Callable[[float], float]


class _Clock:
    """A clock hook and the sim time it next wants to run at."""

    __slots__ = ("hook", "due")

    def __init__(self, hook: ClockHook, due: float):
        self.hook = hook
        self.due = due


def _matches(keys: Optional[Tuple[Key, ...]], record_key: Key) -> bool:
    if keys is None:
        return True
    return any(
        all(part is None or part == value
            for part, value in zip(key, record_key))
        for key in keys
    )


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

    def append(self, rec: Record) -> None:
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


class _RecordBase(abc.Mapping):
    """A read-only mapping over a record's slots.

    A subclass names its keys, in order, in ``_keys``; ``type`` is a
    class attribute.  Every other slot (a span's ``tracer`` and
    ``_stack``) and every method is not a key: ``rec["close"]`` raises
    :class:`KeyError` like any key the record does not carry.
    ``Mapping`` supplies ``keys``/``items``/``values`` and ``==``
    against a dict or another record; hashing stays by identity.
    """

    __slots__ = ()

    _keys: Tuple[str, ...] = ()
    _keyset: frozenset = frozenset()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._keyset = frozenset(cls._keys)

    def __getitem__(self, key: str) -> Any:
        if key in self._keyset:
            return getattr(self, key)
        raise KeyError(key)

    def get(self, key: str, default: Any = None) -> Any:
        if key in self._keyset:
            return getattr(self, key)
        return default

    def __contains__(self, key: object) -> bool:
        return key in self._keyset

    def __iter__(self) -> Iterator[str]:
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return "%s(%r)" % (type(self).__name__, dict(self))


class EventRecord(_RecordBase):
    """A point event, as :meth:`Tracer.event` retains and routes it."""

    __slots__ = ("cat", "name", "t", "node", "txn", "trace", "args")

    type = "event"
    _keys = ("type", "cat", "name", "t", "node", "txn", "trace", "args")

    def __init__(self, cat, name, t, node, txn, trace, args):
        self.cat = cat
        self.name = name
        self.t = t
        self.node = node
        self.txn = txn
        self.trace = trace
        self.args = args


class Span(_RecordBase):
    """One open interval of simulated time; close it (or use ``with``).

    Once closed the span is its own record: ``t1`` is set, the tracer and
    the fiber stack are released (``tracer is None`` marks it closed) and
    the tracer emits the span itself.
    """

    __slots__ = ("tracer", "cat", "name", "t0", "t1", "node", "txn",
                 "trace", "sid", "parent", "args", "_stack")

    type = "span"
    _keys = ("type", "cat", "name", "t0", "t1", "node", "txn", "trace",
             "sid", "parent", "args")

    def __init__(self, tracer, cat, name, node, txn, t0, args, sid,
                 parent, trace, stack):
        self.tracer = tracer
        self.cat = cat
        self.name = name
        self.node = node
        self.txn = txn
        self.t0 = t0
        self.t1 = None
        self.args = args
        self.sid = sid
        self.parent = parent
        self.trace = trace
        self._stack = stack

    def close(self, at: Optional[float] = None, **extra: Any) -> None:
        """Finalize the span at the current simulated instant, or at an
        earlier instant ``at`` (a sub-instant of a core hold)."""
        tracer = self.tracer
        if tracer is None:
            return
        self.tracer = None
        if extra:
            self.args.update(extra)
        tracer._close_span(self, at)

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
        #: ``(subscriber, keys)`` (``keys`` None: every record) and
        #: ``(clock, None)`` entries, in subscription order.
        self._subscriptions: List[Tuple[Any, Optional[Tuple[Key, ...]]]] = []
        #: record key -> the subscribers it reaches, in order; cleared
        #: whenever a subscription is added.
        self._routes: Dict[Key, Tuple[Subscriber, ...]] = {}
        #: the earliest due time over every clock hook.
        self._clock_due = float("inf")
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
    def subscribe(self, subscriber: Subscriber,
                  keys: Optional[Iterable[Key]] = None) -> None:
        """Call ``subscriber(record)`` for every finalized record whose
        ``(type, cat, name)`` matches one of ``keys`` (None: every
        record)."""
        self._subscriptions.append(
            (subscriber, None if keys is None else tuple(keys)))
        self._routes.clear()

    def on_clock(self, hook: ClockHook, due: float) -> None:
        """Call ``hook(now)`` before the first record finalized at or
        after sim time ``due``; it returns its next due time.

        The hook runs at its place among the subscribers, so a record's
        subscribers added before it see the record first.
        """
        self._subscriptions.append((_Clock(hook, due), None))
        self._clock_due = min(self._clock_due, due)

    def _route(self, key: Key) -> Tuple[Subscriber, ...]:
        route = self._routes[key] = tuple(
            subscriber for subscriber, keys in self._subscriptions
            if subscriber.__class__ is not _Clock and _matches(keys, key)
        )
        return route

    def _emit(self, rec: Record, key: Key) -> None:
        if self.record:
            self.records.append(rec)
        if self.sim.now >= self._clock_due:
            self._emit_with_clocks(rec, key)
            return
        route = self._routes.get(key)
        if route is None:
            route = self._route(key)
        for subscriber in route:
            subscriber(rec)

    def _emit_with_clocks(self, rec: Record, key: Key) -> None:
        """:meth:`_emit`'s dispatch when a clock hook is due: the hooks
        run in subscription order among the record's subscribers."""
        now = self.sim.now
        due = float("inf")
        for entry, keys in list(self._subscriptions):
            if entry.__class__ is _Clock:
                if now >= entry.due:
                    entry.due = entry.hook(now)
                due = min(due, entry.due)
            elif _matches(keys, key):
                entry(rec)
        self._clock_due = due

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
             trace: Optional[str] = None, at: Optional[float] = None,
             **args: Any) -> Span:
        """Open a span at the current instant (or at an earlier ``at``);
        ``close()`` ends it.

        ``parent``/``trace`` override the fiber-local context — used at
        adoption points (RPC handlers, counter round drivers) to attach
        a span to an explicitly carried remote context.  ``at`` stamps
        work recorded after the fact: a frame's AEAD share of the core
        hold it shares with the shielding and driver charges.
        """
        if parent is None or trace is None:
            inherited_trace, inherited_parent = self.current_context()
            if parent is None:
                parent = inherited_parent
            if trace is None:
                trace = inherited_trace
        stack = self._current_stack()
        span = Span(self, cat, name, node, txn,
                    self.sim.now if at is None else at, args,
                    next(self._ids), parent, trace, stack)
        stack.append(span)
        return span

    def _close_span(self, span: Span, at: Optional[float]) -> None:
        # Remove by identity from the owning fiber's stack: a span may be
        # closed from a different fiber (or after its fiber finished).
        stack = span._stack
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] is span:
                del stack[index]
                break
        span._stack = None
        span.t1 = self.sim.now if at is None else at
        self.spans_closed += 1
        self._emit(span, ("span", span.cat, span.name))

    # -- point events ------------------------------------------------------
    def event(self, cat: str, name: str, node: Optional[str] = None,
              txn: Optional[str] = None, trace: Optional[str] = None,
              at: Optional[float] = None, **args: Any) -> None:
        """Emit a point event at the current instant, or at an earlier
        instant ``at`` (a sub-instant of a core hold).

        The event is stamped with the current fiber's trace id unless an
        explicit ``trace`` is given, so point events (counter advances,
        TEE transitions) land inside their transaction's DAG.
        """
        if trace is None:
            trace = self.current_context()[0]
        self.events_emitted += 1
        self._emit(EventRecord(cat, name,
                               self.sim.now if at is None else at,
                               node, txn, trace, args),
                   ("event", cat, name))

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

    def close(self, at: Optional[float] = None, **extra: Any) -> None:
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
    records: List[Record] = []
    ring_max: Optional[int] = None
    records_evicted = 0

    __slots__ = ()

    def subscribe(self, subscriber: Subscriber,
                  keys: Optional[Iterable[Key]] = None) -> None:
        raise RuntimeError("cannot subscribe to the null tracer")

    def span(self, cat: str, name: str, node: Optional[str] = None,
             txn: Optional[str] = None, parent: Optional[int] = None,
             trace: Optional[str] = None, at: Optional[float] = None,
             **args: Any) -> _NullSpan:
        return _NULL_SPAN

    def event(self, cat: str, name: str, node: Optional[str] = None,
              txn: Optional[str] = None, trace: Optional[str] = None,
              at: Optional[float] = None, **args: Any) -> None:
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
