"""Userland fiber scheduler (§VII-C).

"Each thread spawns one userland thread (fiber) for each connected
client.  Our userland scheduler implements a per-core round-robin (RR)
algorithm for fibers' scheduling and a set of queues (run queue and
sleeping/waiting queue) for the fibers.  [...] Our userland scheduler
does not involve interrupts, syscalls and context/world switches when
scheduling another fiber.  [...] if no fiber is in a running state, our
scheduler sleeps; thereby invoking a syscall.  Our scheduler's sleep
function yields to another SCONE thread and increases the amount of time
before future yields are triggered."

Fibers are generators that yield *fiber operations*:

* ``Compute(seconds)`` — CPU work (charged through the node runtime),
* ``Sleep(seconds)``   — timed sleep (moves to the sleeping queue),
* ``YieldNow()``       — cooperative yield (back of the run queue),
* ``Wait(event)``      — block until a simulation event triggers.

Switching between fibers is free (no syscall, no world switch); only an
*idle* scheduler pays a syscall, with exponentially growing backoff —
both exactly as the paper describes.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Deque, Generator, List, Optional

from ..sim.core import Event
from ..tee.runtime import NodeRuntime

__all__ = ["Compute", "Sleep", "YieldNow", "Wait", "Fiber", "FiberScheduler"]

_IDLE_BACKOFF_START = 10e-6
_IDLE_BACKOFF_MAX = 1e-3


class Compute:
    """Fiber op: consume CPU for ``seconds`` (enclave-scaled)."""

    __slots__ = ("seconds",)

    def __init__(self, seconds: float):
        self.seconds = seconds


class Sleep:
    """Fiber op: sleep for ``seconds`` (goes to the sleeping queue)."""

    __slots__ = ("seconds",)

    def __init__(self, seconds: float):
        self.seconds = seconds


class YieldNow:
    """Fiber op: go to the back of the run queue."""

    __slots__ = ()


class Wait:
    """Fiber op: block until a simulation event triggers."""

    __slots__ = ("event",)

    def __init__(self, event: Event):
        self.event = event


class Fiber:
    """One userland thread (e.g. one connected client's handler)."""

    _ids = itertools.count(1)

    def __init__(self, body: Generator, name: str = ""):
        self.body = body
        self.fiber_id = next(Fiber._ids)
        self.name = name or "fiber-%d" % self.fiber_id
        self.finished = False
        self.result: Any = None
        self.send_value: Any = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.finished else "alive"
        return "<Fiber %s %s>" % (self.name, state)


class FiberScheduler:
    """A per-core round-robin scheduler for fibers.

    The scheduler itself runs as one simulation process (one enclave
    thread pinned to a core); resuming the next fiber costs nothing.
    """

    def __init__(self, runtime: NodeRuntime, name: str = "sched"):
        self.runtime = runtime
        self.name = name
        self.run_queue: Deque[Fiber] = deque()
        #: (wake_time, seq, fiber) min-heap — the sleeping queue.
        self.sleeping: List = []
        self._sleep_seq = itertools.count()
        self.waiting = 0  # fibers blocked on events
        self.alive = 0
        self.context_switches = 0
        self.idle_syscalls = 0
        self._process = None
        self._wakeup: Optional[Event] = None

    # -- fiber management -----------------------------------------------------
    def spawn(self, body: Generator, name: str = "") -> Fiber:
        """Add a fiber to the run queue (one per connected client)."""
        fiber = Fiber(body, name)
        self.alive += 1
        self.run_queue.append(fiber)
        self._kick()
        return fiber

    def start(self) -> None:
        if self._process is None or self._process.triggered:
            self._process = self.runtime.sim.process(
                self._loop(), name="fiber-sched/%s" % self.name
            )

    def _kick(self) -> None:
        self.start()
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed(None)

    # -- the scheduler loop ------------------------------------------------------
    def _wake_sleepers(self) -> None:
        now = self.runtime.sim.now
        while self.sleeping and self.sleeping[0][0] <= now:
            _when, _seq, fiber = heapq.heappop(self.sleeping)
            self.run_queue.append(fiber)

    def _next_wake_delay(self) -> Optional[float]:
        if not self.sleeping:
            return None
        return max(0.0, self.sleeping[0][0] - self.runtime.sim.now)

    def _loop(self):
        sim = self.runtime.sim
        idle_backoff = _IDLE_BACKOFF_START
        while True:
            self._wake_sleepers()
            if not self.run_queue:
                if self.alive == 0:
                    return  # every fiber finished
                # Idle: the only case that costs a syscall (§VII-C); the
                # backoff grows so an idle scheduler leaves the core to
                # other SCONE threads for longer and longer.
                self.idle_syscalls += 1
                yield from self.runtime.syscall()
                delay = self._next_wake_delay()
                if delay is None:
                    self._wakeup = sim.event()
                    backoff = sim.timeout(idle_backoff)
                    yield sim.any_of([self._wakeup, backoff])
                    self._wakeup = None
                else:
                    yield sim.sleep(min(delay, idle_backoff))
                idle_backoff = min(idle_backoff * 2, _IDLE_BACKOFF_MAX)
                continue
            idle_backoff = _IDLE_BACKOFF_START
            fiber = self.run_queue.popleft()
            self.context_switches += 1
            yield from self._run_fiber_once(fiber)

    def _run_fiber_once(self, fiber: Fiber):
        """Resume one fiber until it blocks, yields or finishes."""
        sim = self.runtime.sim
        while True:
            try:
                op = fiber.body.send(fiber.send_value)
            except StopIteration as stop:
                fiber.finished = True
                fiber.result = stop.value
                self.alive -= 1
                return
            fiber.send_value = None
            if isinstance(op, Compute):
                # The fiber occupies this scheduler's core for the work.
                yield from self.runtime.compute(op.seconds)
            elif isinstance(op, Sleep):
                heapq.heappush(
                    self.sleeping,
                    (sim.now + op.seconds, next(self._sleep_seq), fiber),
                )
                return
            elif isinstance(op, YieldNow):
                self.run_queue.append(fiber)
                return
            elif isinstance(op, Wait):
                self.waiting += 1
                op.event.add_callback(lambda event, f=fiber: self._unblock(f, event))
                return
            else:
                raise TypeError("fiber %s yielded %r" % (fiber.name, op))

    def _unblock(self, fiber: Fiber, event: Event) -> None:
        self.waiting -= 1
        fiber.send_value = event.value
        self.run_queue.append(fiber)
        self._kick()
