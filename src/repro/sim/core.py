"""Deterministic discrete-event simulation kernel.

This module is the substrate on which every Treaty component runs.  The
paper executes its protocol on real SGX hardware with SCONE fibers; we
execute the same protocol logic on a virtual clock so that TEE, network
and storage costs can be charged deterministically.

The model is intentionally close to SimPy:

* a :class:`Simulator` owns the clock, a heap of future timeouts and a
  FIFO queue of work due at the current instant,
* an :class:`Event` is a one-shot occurrence that carries a value or an
  exception,
* a :class:`Process` wraps a generator; the generator *yields* events and
  is resumed with the event's value once it triggers.

Processes double as the paper's *fibers* (userland threads, §VII-C), and
a node's :class:`~repro.sim.cpu.CpuPool` is their run queue: a fiber that
asks for a busy core waits its FIFO turn, with no syscall.  A fiber's own
wait needs no event: ``yield sim.sleep(d)`` puts the process itself on
the heap, and a fiber started with :meth:`Simulator.spawn` (no handle,
so nobody joins it) exits without a kernel entry.
"""

from __future__ import annotations

import gc
import itertools
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Deque, Generator, Iterable, List, Optional

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "AllSettled",
    "QuorumOf",
    "Simulator",
    "SimulationError",
]

# A process body is a generator that yields events and receives their values.
ProcessBody = Generator["Event", Any, Any]

#: what ``sim.sleep`` returns for a future wake-up: the sleeping process
#: is already on the heap, so its step has nothing left to wait on.
_ASLEEP = object()


class SimulationError(RuntimeError):
    """Raised when the simulation itself is misused (not a modelled fault)."""


class Event:
    """A one-shot occurrence in simulated time.

    Events start *pending*; :meth:`succeed` or :meth:`fail` triggers them,
    after which their callbacks run at the current simulation instant.
    """

    __slots__ = ("sim", "_callbacks", "_value", "_ok", "_triggered", "_defused")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._defused = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """Whether the event has already occurred."""
        return self._triggered

    @property
    def ok(self) -> bool:
        """Whether the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's payload (or exception when it failed)."""
        return self._value

    def defuse(self) -> None:
        """Mark a failed event as handled so the simulator does not crash."""
        self._defused = True

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, delivering ``value`` to waiters."""
        self._trigger(True, value)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters have ``exception`` raised."""
        if not isinstance(exception, BaseException):
            raise SimulationError("Event.fail() requires an exception instance")
        self._trigger(False, exception)
        return self

    def _trigger(self, ok: bool, value: Any) -> None:
        if self._triggered:
            raise SimulationError("event triggered twice")
        self._triggered = True
        self._ok = ok
        self._value = value
        # The event itself is the ready entry: its callbacks run when the
        # simulator reaches it.
        self.sim._ready.append(self)

    # -- waiting --------------------------------------------------------
    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` once the event triggers.

        If the event already triggered, the callback is dispatched at the
        current instant instead of being lost.
        """
        if self._callbacks is None:
            # Already dispatched: deliver asynchronously but immediately.
            self.sim._ready.append(lambda: callback(self))
        else:
            self._callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self._triggered else "pending"
        return "<%s %s at t=%.9f>" % (type(self).__name__, state, self.sim.now)


class Timeout(Event):
    """An event that triggers after a fixed simulated delay.

    A pending timeout already holds the value it will trigger with.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError("negative timeout delay: %r" % (delay,))
        # Event's slots set here, not via Event.__init__: ~2.5 % of host
        # time on ycsb-a-dist (Xeon, 2 vCPU).  A test checks that every
        # Event slot is set.
        self.sim = sim
        self._callbacks = []
        self._value = value
        self._ok = True
        self._triggered = False
        self._defused = False
        self.delay = delay
        when = sim.now + delay
        if when == sim.now:
            # Due now (zero delay, or one below the clock's resolution).
            sim._ready.append(self)
        else:
            heappush(sim._heap, (when, next(sim._seq), self))


class Process(Event):
    """A running activity driven by a generator.

    The process is itself an event: it triggers with the generator's
    return value when the generator finishes, or fails with the escaping
    exception.  Other processes may therefore ``yield`` a process to join
    it.  A *detached* process (:meth:`Simulator.spawn`) has no joiner: a
    successful finish marks it dispatched without a kernel entry.
    """

    __slots__ = ("_body", "_detached", "name")

    def __init__(self, sim: "Simulator", body: ProcessBody, name: str = "",
                 detached: bool = False):
        if not hasattr(body, "send"):
            raise SimulationError("Process body must be a generator")
        # Event's slots set here, as in Timeout: ~1.9 % of host time on
        # ycsb-a-dist (Xeon, 2 vCPU).  A test checks that every Event
        # slot is set.
        self.sim = sim
        self._callbacks = []
        self._value = None
        self._ok = True
        self._triggered = False
        self._defused = False
        self._body = body
        self._detached = detached
        self.name = name or getattr(body, "__name__", "process")
        if sim.tracer is not None:
            sim.tracer.process_started(self)
        # Kick off the body at the current instant (one ready entry).
        sim._ready.append(self._bootstrap_call)

    def _bootstrap_call(self) -> None:
        self._step(send=None)

    def _resume(self, event: Event) -> None:
        if event._ok:
            self._step(event._value)
        else:
            event._defused = True
            self._step(None, event._value)

    def _step(self, send: Any = None, throw: Optional[BaseException] = None) -> None:
        # Callback execution never nests (callbacks run one at a time from
        # Simulator.step; triggering an event only queues it), so a plain
        # save/restore of current_process is enough even when a step
        # triggers events whose callbacks run later.
        sim = self.sim
        previous = sim.current_process
        sim.current_process = self
        try:
            if throw is not None:
                target = self._body.throw(throw)
            else:
                target = self._body.send(send)
        except StopIteration as stop:
            if sim.tracer is not None:
                sim.tracer.process_finished(self)
            if self._detached:
                # Nobody can be waiting on a spawned process: dispatched
                # at once, no ready entry.
                self._triggered = True
                self._callbacks = None
                self._value = stop.value
            else:
                self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - modelled fault propagation
            if sim.tracer is not None:
                sim.tracer.process_finished(self)
            self.fail(exc)
            return
        finally:
            sim.current_process = previous
        if target is _ASLEEP:
            return  # sim.sleep already put this process on the heap
        if not isinstance(target, Event):
            self.fail(
                SimulationError(
                    "process %r yielded %r; processes must yield events"
                    % (self.name, target)
                )
            )
            return
        # add_callback inlined for the common pending target: ~2 % of
        # host time on ycsb-a-dist (Xeon, 2 vCPU).
        callbacks = target._callbacks
        if callbacks is None:
            target.add_callback(self._resume)  # already dispatched
        else:
            callbacks.append(self._resume)


class _ConditionEvent(Event):
    """Base for AnyOf / AllOf composite events."""

    __slots__ = ("events", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        self._pending = len(self.events)
        if not self.events:
            self.succeed([])
            return
        for event in self.events:
            event.add_callback(self._check)

    def _check(self, event: Event) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    def _values(self) -> List[Any]:
        return [e.value for e in self.events if e.triggered and e.ok]


class AnyOf(_ConditionEvent):
    """Triggers when the first of ``events`` triggers."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            event.defuse()
            self.fail(event.value)
            return
        self.succeed(event)


class AllOf(_ConditionEvent):
    """Triggers when all of ``events`` have triggered."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            event.defuse()
            self.fail(event.value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed(self._values())


class AllSettled(_ConditionEvent):
    """Triggers once every inner event has triggered, ok or failed.

    Unlike :class:`AllOf`, a failed inner event does not fail the
    composite: it is defused and simply recorded.  The composite's value
    is the inner event list itself — callers inspect ``event.triggered``
    / ``event.ok`` / ``event.value`` per entry.  This is the natural
    shape for fan-out RPC rounds where a crashed destination should look
    like a missing vote, not a coordinator crash.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if not event.ok:
            event.defuse()
        if self._triggered:
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed(self.events)


class QuorumOf(_ConditionEvent):
    """Triggers once ``needed`` inner events settle acceptably.

    The vote-counting shape for fan-out rounds: the composite fires as
    soon as ``needed`` inner events have settled ok *and* pass the
    ``accept`` predicate (default: any ok settle counts), or — the
    quorum-unreachable backstop — once every inner event has settled.
    Like :class:`AllSettled`, a failed inner event never fails the
    composite; it is defused and counts only toward the backstop.  The
    composite's value is the inner event list; late stragglers keep
    settling (and keep being defused) after the trigger.
    """

    __slots__ = ("needed", "accept", "_accepted")

    def __init__(
        self,
        sim: "Simulator",
        events: Iterable[Event],
        needed: int,
        accept: Optional[Callable[[Any], bool]] = None,
    ):
        self.needed = needed
        self.accept = accept
        self._accepted = 0
        super().__init__(sim, events)
        if not self._triggered and needed <= 0:
            self.succeed(self.events)

    def _check(self, event: Event) -> None:
        if not event.ok:
            event.defuse()
        if self._triggered:
            # Late stragglers only get defused; counting them would let
            # a post-quorum NetworkError settle masquerade as an accept
            # (or skew the all-settled backstop bookkeeping).
            return
        self._pending -= 1
        if event.ok and (self.accept is None or self.accept(event.value)):
            self._accepted += 1
        if self._accepted >= self.needed or self._pending == 0:
            self.succeed(self.events)


class Simulator:
    """Owns the virtual clock and runs events in timestamp order.

    Determinism: ties in time are broken by scheduling order, so two runs
    with the same seed replay an identical history.

    Two queues hold the pending work.  A heap holds the *future* timeouts
    as ``(when, seq, timeout)``, the sleeping processes as ``(when, seq,
    process)`` and the :meth:`call_later` callables as ``(when, seq,
    fn)``, ordered by time and then by a strictly increasing sequence
    number.  A FIFO ready queue holds what is due *now*: triggered events
    (whose callbacks are to run), process bootstraps, callbacks added to
    an already-dispatched event, and timeouts, sleeps and callables due
    at the current instant.  Anything scheduled for the current instant
    is scheduled after every entry already in the heap, so "heap entries
    due now, then the ready queue, then advance the clock" is exactly
    scheduling order — the order one heap keyed by ``(when, seq)`` over
    all entries would give, without paying for the heap on same-instant
    work.
    """

    def __init__(self):
        self.now: float = 0.0
        self._heap: List[Any] = []
        self._ready: Deque[Any] = deque()
        self._seq = itertools.count()
        self._running = False
        #: observability hook points (installed by repro.obs.Observability;
        #: None keeps the simulator dependency-free and the hooks at the
        #: cost of one identity check).
        self.tracer: Optional[Any] = None
        self.obs: Optional[Any] = None
        #: controlled-scheduler hook (installed by repro.mc): consulted
        #: at nondeterministic choice points — same-instant ready-entry
        #: ties here, adversary actions and crash points elsewhere —
        #: instead of leaving them to incidental scheduling order.  The
        #: protocol is duck-typed: ``tie_window`` (int; <= 1 disables
        #: tie picking) and ``pick_ready(count) -> index``.  None keeps
        #: the simulator dependency-free.
        self.chooser: Optional[Any] = None
        #: the process whose generator is currently being stepped (None
        #: between steps and for plain callbacks).  The tracer keys its
        #: per-fiber span stacks and inherited trace contexts off this.
        self.current_process: Optional["Process"] = None

    # -- construction helpers -------------------------------------------
    def event(self) -> Event:
        """Create a pending event bound to this simulator."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` simulated seconds from now."""
        return Timeout(self, delay, value)

    def sleep(self, delay: float) -> Any:
        """Suspend the running process for ``delay`` simulated seconds.

        Use it as ``yield sim.sleep(delay)`` inside a process.  The
        process itself waits on the heap, so no event is built; unlike
        :meth:`timeout`, the result is nothing to compose or share.  A
        sleep due now is a due-now :class:`Timeout` (same ready-queue
        position).  The process resumes with ``None``.
        """
        process = self.current_process
        if process is None:
            raise SimulationError("sleep() outside a process step")
        if delay < 0:
            raise SimulationError("negative sleep delay: %r" % (delay,))
        now = self.now
        when = now + delay
        if when == now:
            return Timeout(self, delay)
        heappush(self._heap, (when, next(self._seq), process))
        return _ASLEEP

    def call_later(self, delay: float, fn: Callable[[], None]) -> None:
        """Run ``fn()`` ``delay`` simulated seconds from now.

        One heap entry, ``(when, seq, fn)``, and nothing to wait on or
        cancel: the cheap form of ``timeout(delay).add_callback(...)`` when
        nobody else needs the event.  It routes exactly as :meth:`sleep`
        and :class:`Timeout` do: due now (zero delay, or one below the
        clock's resolution) it joins the ready queue, and a negative delay
        raises :class:`SimulationError`.
        """
        if delay < 0:
            raise SimulationError("negative call_later delay: %r" % (delay,))
        now = self.now
        when = now + delay
        if when == now:
            self._ready.append(fn)
        else:
            heappush(self._heap, (when, next(self._seq), fn))

    def process(self, body: ProcessBody, name: str = "") -> Process:
        """Start running ``body`` as a process at the current instant."""
        return Process(self, body, name=name)

    def spawn(self, body: ProcessBody, name: str = "") -> None:
        """Start ``body`` as a process nobody joins; returns no handle.

        Its successful finish queues no entry (there is no waiter to
        wake); a failure still crashes :meth:`run` like any process's.
        """
        Process(self, body, name, True)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when the first of ``events`` fires."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires once every one of ``events`` has fired."""
        return AllOf(self, events)

    def all_settled(self, events: Iterable[Event]) -> AllSettled:
        """Event that fires once every one of ``events`` has settled.

        Failed inner events are defused rather than propagated; the
        value is the event list for per-event inspection.
        """
        return AllSettled(self, events)

    def quorum_of(
        self,
        events: Iterable[Event],
        needed: int,
        accept: Optional[Callable[[Any], bool]] = None,
    ) -> QuorumOf:
        """Event that fires once ``needed`` of ``events`` settle with an
        acceptable value (or every event has settled, whichever first).
        """
        return QuorumOf(self, events, needed, accept)

    # -- execution --------------------------------------------------------
    def step(self) -> None:
        """Run one entry: a heap entry due now, else the oldest ready
        entry, else the next heap entry (advancing the clock to it)."""
        chooser = self.chooser
        if chooser is not None and getattr(chooser, "tie_window", 0) > 1:
            entry = self._pop_with_chooser()
        else:
            ready = self._ready
            heap = self._heap
            if ready and not (heap and heap[0][0] == self.now):
                entry = ready.popleft()
            else:
                when, _seq, entry = heappop(heap)
                self.now = when
        if entry.__class__ is Process and not entry._triggered:
            # A sleeping process wakes: a process enters the ready queue
            # only once it has triggered (to dispatch to its joiners).
            entry._step()
        elif isinstance(entry, Event):
            # A triggered event, or a timeout that is due: it triggers now
            # (an explicitly triggered timeout keeps its own outcome).
            entry._triggered = True
            callbacks = entry._callbacks
            entry._callbacks = None
            if callbacks:
                for callback in callbacks:
                    callback(entry)
            elif not entry._ok and not entry._defused:
                raise entry._value
        else:
            entry()  # a process bootstrap, a late callback or a call_later

    def _pop_with_chooser(self) -> Any:
        """Let the controlled scheduler pick among same-instant entries.

        The candidates are the first ``chooser.tie_window`` entries due at
        the next instant, in the order they would run uncontrolled: heap
        entries due then (by sequence number), then the ready queue.  The
        heap entries not chosen go back with their sequence numbers and
        the ready entries not chosen stay where they are, so the residual
        order is exactly the uncontrolled one.  Returns the entry.
        """
        window = self.chooser.tie_window
        heap, ready = self._heap, self._ready
        instant = self.now if ready else heap[0][0]
        ties = []
        while len(ties) < window and heap and heap[0][0] == instant:
            ties.append(heappop(heap))
        count = len(ties) + min(window - len(ties), len(ready))
        index = self.chooser.pick_ready(count) if count > 1 else 0
        if index < len(ties):
            when, _seq, entry = ties.pop(index)
            self.now = when
        else:
            index -= len(ties)
            entry = ready[index]
            del ready[index]
        for tie in ties:
            heappush(heap, tie)
        return entry

    def run(self, until: Optional[float] = None) -> float:
        """Run until nothing is pending or the clock passes ``until``.

        The clock stops at ``until`` only when work is still pending
        beyond it; when everything drains first it stays at the last
        entry's time.  An ``until`` earlier than the clock is an error.
        Returns the final simulation time.

        For the length of the call the cyclic collector ignores every
        object that existed before it (``gc.freeze``): a loaded cluster
        and the trace records it already retained are walked by no
        collector pass of the run, while garbage the run itself makes is
        collected as usual.  ``gc.unfreeze`` hands them back on the way
        out, also when a process raises out of the run.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        if until is not None and until < self.now:
            raise SimulationError(
                "run(until=%r) is earlier than the clock (%r)" % (until, self.now)
            )
        self._running = True
        ready, heap = self._ready, self._heap
        step = self.step
        gc.freeze()
        try:
            while ready or heap:
                if until is not None and not ready and heap[0][0] > until:
                    self.now = until
                    break
                step()
        finally:
            gc.unfreeze()
            self._running = False
        return self.now

    def run_process(self, body: ProcessBody, name: str = "") -> Any:
        """Convenience: run ``body`` to completion and return its result.

        This drives the whole simulation (other scheduled activity included)
        until the given process finishes.
        """
        proc = self.process(body, name=name)
        while not proc.triggered:
            if not self._ready and not self._heap:
                raise SimulationError(
                    "deadlock: process %r cannot finish (no pending events)"
                    % (proc.name,)
                )
            self.step()
        if not proc.ok:
            proc.defuse()
            raise proc.value
        return proc.value
