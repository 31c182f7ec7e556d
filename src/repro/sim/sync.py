"""Synchronization primitives for simulation processes.

These mirror the concurrency building blocks the paper's fibers use:
mutexes/lock tables (:class:`Resource`), message queues between fibers
(:class:`Store`), and broadcast wake-ups for stabilization waiters
(:class:`Gate`).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Tuple

from .core import Event, Simulator

__all__ = ["Resource", "Store", "Gate", "Semaphore"]


class Resource:
    """A counted resource with FIFO admission (capacity >= 1).

    ``request()`` returns an event that fires once a slot is granted;
    ``release()`` hands the slot to the next waiter.  The common usage
    inside a process is::

        yield resource.request()
        try:
            ...
        finally:
            resource.release()
    """

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.in_use = 0
        self._waiters: Deque[Event] = deque()

    def try_acquire(self) -> bool:
        """Take a free slot at once, with no grant event and so no kernel
        entry; ``False`` when every slot is taken.  A free slot means
        nobody waits (:meth:`release` hands a slot straight to the oldest
        waiter), so the fast path keeps FIFO admission.  The usual form::

            if not resource.try_acquire():
                yield resource.request()
        """
        if self.in_use < self.capacity:
            self.in_use += 1
            return True
        return False

    def request(self) -> Event:
        """Ask for a slot; the returned event fires when granted."""
        grant = self.sim.event()
        if self.try_acquire():
            grant.succeed(self)
        else:
            self._waiters.append(grant)
        return grant

    def release(self) -> None:
        """Return a slot, waking the oldest waiter if any."""
        if self.in_use <= 0:
            raise RuntimeError("release() without a matching request()")
        # Hand the slot over directly so in_use never dips below reality.
        if self._waiters:
            self._waiters.popleft().succeed(self)
        else:
            self.in_use -= 1


class Semaphore:
    """A counting semaphore (no FIFO guarantee needed by callers)."""

    def __init__(self, sim: Simulator, value: int = 0):
        self.sim = sim
        self._value = value
        self._waiters: Deque[Event] = deque()

    def acquire(self) -> Event:
        event = self.sim.event()
        if self._value > 0:
            self._value -= 1
            event.succeed(None)
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        while self._waiters:
            waiter = self._waiters.popleft()
            if waiter.triggered:
                continue
            waiter.succeed(None)
            return
        self._value += 1


class Store:
    """An unbounded FIFO channel between processes."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def put(self, item: Any) -> None:
        """Deposit ``item``, waking the oldest getter if one is waiting."""
        while self._getters:
            getter = self._getters.popleft()
            if getter.triggered:
                continue
            getter.succeed(item)
            return
        self._items.append(item)

    def get(self) -> Event:
        """Event that fires with the next item (FIFO)."""
        event = self.sim.event()
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def drain(self) -> List[Any]:
        """Remove and return every waiting item, oldest first."""
        items = list(self._items)
        self._items.clear()
        return items


class Gate:
    """A broadcast condition: processes wait until the gate value passes a mark.

    The stabilization protocol uses one gate per log: waiters block until
    the stable counter reaches their entry's counter value.
    """

    def __init__(self, sim: Simulator, initial: int = 0):
        self.sim = sim
        self.value = initial
        self._waiters: List[Tuple[int, Event]] = []

    def advance_to(self, value: int) -> None:
        """Raise the gate value; waiters at or below it are released."""
        if value < self.value:
            return
        self.value = value
        still_waiting = []
        for mark, event in self._waiters:
            if mark <= value:
                if not event.triggered:
                    event.succeed(value)
            else:
                still_waiting.append((mark, event))
        self._waiters = still_waiting

    def wait_for(self, mark: int) -> Event:
        """Event that fires once the gate value reaches ``mark``."""
        event = self.sim.event()
        if self.value >= mark:
            event.succeed(self.value)
        else:
            self._waiters.append((mark, event))
        return event
