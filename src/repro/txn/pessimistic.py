"""Pessimistic (two-phase-locking) transactions (§II-A, §V-B).

"Pessimistic Txs acquire locks as they go along (two-phase locking)."
Reads take shared locks, writes exclusive locks; a lock that cannot be
granted within the configured timeframe aborts the transaction with a
timeout error, which also breaks deadlocks.

Pessimistic transactions additionally expose the participant half of the
2PC protocol: :meth:`prepare` persists the transaction's writes to the
WAL as a prepare record (recoverable across crashes), after which only
:meth:`commit_prepared` or :meth:`abort_prepared` may resolve it.
"""

from __future__ import annotations

from typing import Any, Generator

from ..errors import TransactionError
from ..sim.core import Event
from .base import LocalTransaction
from .locks import LockMode
from .types import TxnStatus

__all__ = ["PessimisticTxn"]

Gen = Generator[Event, Any, Any]


class PessimisticTxn(LocalTransaction):
    """A 2PL transaction over one node's storage engine."""

    def _before_read(self, key: bytes) -> Gen:
        yield from self.manager.locks.acquire(
            self.txn_id, key, LockMode.SHARED, timeout=self.manager.lock_timeout
        )

    def _before_write(self, key: bytes) -> Gen:
        yield from self.manager.locks.acquire(
            self.txn_id, key, LockMode.EXCLUSIVE, timeout=self.manager.lock_timeout
        )

    # -- 2PC participant half (§V-A) -----------------------------------------
    def prepare(self) -> Gen:
        """Persist the prepare record; returns ``(counter, log_name)``.

        After this returns the transaction survives crashes: recovery
        re-initializes it from the WAL and resolves it with the
        coordinator (§VI).  Locks stay held until resolution.
        """
        self._check_active()
        writes = [(key, value, 0) for key, value in self.buffer.items()]
        counter, log_name = yield from self.engine.log_prepare(
            self.txn_id, writes
        )
        self.status = TxnStatus.PREPARED
        return counter, log_name

    def commit_prepared(self, defer_stabilization: bool = False) -> Gen:
        """Resolve a prepared transaction as committed, without waiting
        for the commit record's stabilization.

        §V-A: "We do not need to wait for the commit entry to be stable
        to reply to the client" — the (already stable) prepare record and
        coordinator decision guarantee deterministic re-commit after a
        crash.  Stabilization still proceeds in the background, unless
        ``defer_stabilization`` is set: then no local fiber is spawned
        and ``(counter, log_name)`` is returned so the caller can
        piggyback the target on a 2PC ACK for the coordinator's
        group-wide round.
        """
        if self.status != TxnStatus.PREPARED:
            raise TransactionError(
                "commit_prepared on %s transaction" % self.status
            )
        writes = self.buffer.items()
        self.engine.forget_prepared(self.txn_id)
        # wait_stable=False: the commit record needs no rollback
        # protection before the client reply, so this request must not
        # join the batch's shared stabilization wait either.
        counter, log_name, _ = yield from self.manager.group.submit(
            self.txn_id, writes, None, wait_stable=False
        )
        self.wal_counter = counter
        self._finalize(TxnStatus.COMMITTED)
        if defer_stabilization:
            return counter, log_name
        self.manager.pipeline.background(log_name, counter)
        return counter

    def abort_prepared(self) -> Gen:
        """Resolve a prepared transaction as aborted."""
        if self.status != TxnStatus.PREPARED:
            raise TransactionError("abort_prepared on %s transaction" % self.status)
        self.engine.forget_prepared(self.txn_id)
        yield from self.runtime.op_overhead()
        self._finalize(TxnStatus.ABORTED)
