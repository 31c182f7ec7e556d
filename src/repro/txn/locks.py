"""Key lock table (§V-B).

"Nodes store a table of locks for their keys that is divided across
shards, each protected with a lock, by splitting the key space.  TREATY
runs with a big number of shards to avoid locking bottlenecks.  Txs that
fail to acquire a lock within a timeframe, return with a timeout error."

The shards keep enclave threads from contending on one latch.  Fibers
here run one at a time and a table access costs no model time, so the
table is a single dict.

Locks are reader/writer with FIFO waiting and same-transaction upgrade
(R→W).  Deadlocks are resolved by the timeout, exactly as in the paper.
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict
from typing import Any, Dict, Generator, List, Optional, Set, Tuple

from ..errors import LockTimeout
from ..obs.tracer import tracer_of
from ..sim.core import Event, Simulator

__all__ = ["LOCK_TIMEOUT", "LockMode", "LockTable"]

Gen = Generator[Event, Any, Any]


#: seconds before a lock wait aborts with a timeout error (§V-B).  Also
#: the deadlock-resolution latency, so it is kept roughly one order of
#: magnitude above a contended transaction's latency.
LOCK_TIMEOUT = 0.05


class LockMode:
    SHARED = "R"
    EXCLUSIVE = "W"


class _KeyLock:
    """Lock state for a single key."""

    __slots__ = ("owners", "mode", "waiters")

    def __init__(self):
        self.owners: Set[bytes] = set()
        self.mode: Optional[str] = None
        # (txn_id, mode, key, grant_event) in FIFO order.
        self.waiters: List[Tuple[bytes, str, bytes, Event]] = []

    def compatible(self, txn_id: bytes, mode: str) -> bool:
        if not self.owners:
            return True
        if self.owners == {txn_id}:
            return True  # re-entrant / upgrade
        if mode == LockMode.SHARED and self.mode == LockMode.SHARED:
            return True
        return False

    def grant(self, txn_id: bytes, mode: str) -> None:
        self.owners.add(txn_id)
        if self.mode != LockMode.EXCLUSIVE:
            self.mode = mode
        elif mode == LockMode.EXCLUSIVE:
            self.mode = mode

    def is_free(self) -> bool:
        return not self.owners and not self.waiters


class LockTable:
    """Per-node lock manager: one lock state per held or awaited key."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._locks: Dict[bytes, _KeyLock] = {}
        self._held: Dict[bytes, Dict[bytes, str]] = defaultdict(OrderedDict)
        self.timeouts = 0
        self.acquisitions = 0
        #: optional Histogram of contended-wait seconds, installed by the
        #: owning TransactionManager (kept optional so unit tests can use
        #: a bare LockTable).
        self.wait_hist = None
        self.tracer = tracer_of(sim)
        #: node label for lock-wait spans, installed by the owning
        #: TransactionManager (None for bare unit-test tables).
        self.node_name: Optional[str] = None

    # -- internals ----------------------------------------------------------
    def _gc(self, key: bytes) -> None:
        state = self._locks.get(key)
        if state is not None and state.is_free():
            del self._locks[key]

    def _wake_waiters(self, state: _KeyLock) -> None:
        while state.waiters:
            txn_id, mode, key, event = state.waiters[0]
            if event.triggered:  # abandoned (timed out)
                state.waiters.pop(0)
                continue
            if not state.compatible(txn_id, mode):
                break
            state.waiters.pop(0)
            state.grant(txn_id, mode)
            self._held[txn_id][key] = mode
            event.succeed(mode)
            if mode == LockMode.EXCLUSIVE:
                break

    # -- public API -----------------------------------------------------------
    def holds(self, txn_id: bytes, key: bytes, mode: Optional[str] = None) -> bool:
        held_mode = self._held.get(txn_id, {}).get(key)
        if held_mode is None:
            return False
        if mode is None:
            return True
        if mode == LockMode.SHARED:
            return True  # W covers R
        return held_mode == LockMode.EXCLUSIVE

    def acquire(
        self, txn_id: bytes, key: bytes, mode: str,
        timeout: float = LOCK_TIMEOUT,
    ) -> Gen:
        """Acquire ``key`` in ``mode`` for ``txn_id``, or raise LockTimeout
        after waiting ``timeout`` seconds."""
        if self.holds(txn_id, key, mode):
            return
        state = self._locks.get(key)
        if state is None:
            state = self._locks[key] = _KeyLock()
        upgrade = (
            mode == LockMode.EXCLUSIVE
            and txn_id in state.owners
            and state.mode == LockMode.SHARED
        )
        if upgrade and state.owners == {txn_id}:
            state.mode = LockMode.EXCLUSIVE
            self._held[txn_id][key] = mode
            self.acquisitions += 1
            return
        if not upgrade and state.compatible(txn_id, mode):
            state.grant(txn_id, mode)
            self._held[txn_id][key] = mode
            self.acquisitions += 1
            return
        # Must wait (possibly for other readers to drain on an upgrade).
        wait_start = self.sim.now
        span = self.tracer.span(
            "locks", "wait", node=self.node_name, mode=mode,
        )
        grant = self.sim.event()
        state.waiters.append((txn_id, mode, key, grant))
        yield self.sim.all_settled([grant], timeout=timeout)
        span.close(granted=grant.triggered)
        if self.wait_hist is not None:
            self.wait_hist.observe(self.sim.now - wait_start)
        if not grant.triggered:
            # Timed out: withdraw the waiter entry.
            state.waiters[:] = [w for w in state.waiters if w[3] is not grant]
            grant.succeed(None)  # poison so a late wake-up is skipped
            self._gc(key)
            self.timeouts += 1
            raise LockTimeout(key)
        self.acquisitions += 1

    def release_all(self, txn_id: bytes) -> None:
        """Release every lock ``txn_id`` holds (commit or abort, §IV-A)."""
        held = self._held.pop(txn_id, None)
        if not held:
            return
        for key in held:
            state = self._locks.get(key)
            if state is None:
                continue
            state.owners.discard(txn_id)
            if not state.owners:
                state.mode = None
            self._wake_waiters(state)
            self._gc(key)

    def held_keys(self, txn_id: bytes) -> List[bytes]:
        return list(self._held.get(txn_id, ()))

    def total_locked_keys(self) -> int:
        return len(self._locks)
