"""Optimistic (OCC) transactions (§II-A, §V-B).

"Optimistic Txs use sequence numbers to identify conflicts at the commit
phase.  For optimistic Txs, each key has a seq. number showing its latest
version and is atomically increased during the commit phase."

Execution takes no locks.  At commit, inside the group-commit leader's
critical section, the transaction validates that (a) every key it read
still carries the version it observed, and (b) no key it writes has been
committed past the transaction's begin snapshot.  Either violation
raises :class:`~repro.errors.ConflictError` and the transaction aborts
(callers typically retry).

:class:`DistributedOccTxn` is the participant-local half of a
*distributed* OCC transaction: the coordinator executes lock-free (stateless versioned reads, writes
buffered coordinator-side) and ships each participant its read-set
versions and write-set inside the PREPARE message.  The participant
loads them into this transaction and validates inside its prepare
critical section — no-wait version pins plus sequence comparison — so a
conflict turns into a PREPARE NACK and presumed abort, never a blocked
lock queue.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, Tuple

from ..errors import ConflictError, TransactionAborted
from ..sim.core import Event
from .base import LocalTransaction
from .locks import LockMode
from .pessimistic import PessimisticTxn
from .types import TxnStatus

__all__ = ["OptimisticTxn", "DistributedOccTxn"]

Gen = Generator[Event, Any, Any]


class OptimisticTxn(LocalTransaction):
    """An OCC transaction over one node's storage engine."""

    def __init__(self, manager, txn_id: bytes):
        super().__init__(manager, txn_id)
        #: versions committed after this point conflict with our writes.
        self.snapshot_seq = manager.engine.current_seq()

    def _commit_validator(self):
        def validate() -> Gen:
            for key, observed_seq in self.reads.items():
                current = yield from self.engine.seq_of(key)
                if current != observed_seq:
                    raise ConflictError(key)
            for key in self.buffer.keys():
                if key in self.reads:
                    continue  # already validated above
                current = yield from self.engine.seq_of(key)
                if current > self.snapshot_seq:
                    raise ConflictError(key)
            return

        return validate


class DistributedOccTxn(PessimisticTxn):
    """Participant-local half of a distributed OCC transaction.

    Created by :class:`~repro.core.twopc.Participant` when a PREPARE
    arrives carrying validate/write sets.  The sets are installed with
    :meth:`load`, then :meth:`validate_and_pin` runs inside the prepare
    critical section:

    1. *Pin* every touched key with a **no-wait** lock (shared for
       reads, exclusive for writes, sorted order).  The pins freeze the
       validated versions through the validate → decision → apply
       window without ever queueing behind another transaction — a
       contended key aborts immediately (→ PREPARE NACK), so distributed
       OCC cannot deadlock and never blocks a lock queue.
    2. *Validate* each read: the key's current sequence number must
       still equal the version the coordinator observed during
       execution; any mismatch raises
       :class:`~repro.errors.ConflictError` (→ PREPARE NACK, presumed
       abort).

    After that the transaction behaves exactly like a pessimistic
    participant half: :meth:`PessimisticTxn.prepare` persists the write
    set, and commit/abort resolution releases the pins via
    ``_finalize``.  A participant that only *read* for this transaction
    prepares nothing (counter 0) and its commit is a pure release.
    """

    # Execution already happened lock-free at the coordinator; the local
    # half never reads or writes through the normal operation path.
    def _before_read(self, key: bytes) -> Gen:
        return
        yield  # pragma: no cover

    def _before_write(self, key: bytes) -> Gen:
        return
        yield  # pragma: no cover

    def load(
        self,
        reads: List[Tuple[bytes, int]],
        writes: List[Tuple[bytes, Optional[bytes]]],
    ) -> None:
        """Install the coordinator-shipped validate and write sets."""
        for key, seq in reads:
            self.reads.record(key, seq)
        for key, value in writes:
            self.buffer.record(key, value)

    def validate_and_pin(self) -> Gen:
        """No-wait version pinning + read-set validation (§II-A, §V-B).

        Raises :class:`~repro.errors.TransactionAborted` (and rolls the
        local half back) on any conflict; the caller turns that into a
        PREPARE NACK.
        """
        self._check_active()
        write_keys = set(self.buffer.keys())
        modes = {key: LockMode.SHARED for key, _ in self.reads.items()}
        for key in write_keys:
            modes[key] = LockMode.EXCLUSIVE
        try:
            for key in sorted(modes):
                # timeout=0.0: no-wait — never queue behind another txn.
                yield from self.manager.locks.acquire(
                    self.txn_id, key, modes[key], timeout=0.0
                )
            for key, observed_seq in self.reads.items():
                current = yield from self.engine.seq_of(key)
                if current != observed_seq:
                    raise ConflictError(key)
        except TransactionAborted:
            yield from self.rollback()
            raise

    def prepare(self) -> Gen:
        """Persist the write set; read-only halves prepare nothing."""
        if not len(self.buffer):
            self._check_active()
            self.status = TxnStatus.PREPARED
            # Counter 0 is filtered out of stabilization target vectors:
            # nothing was logged, there is nothing to protect.
            return 0, self.engine.wal_log_name
        result = yield from super().prepare()
        return result

    def commit_prepared(self, defer_stabilization: bool = False) -> Gen:
        """Commit; a read-only half just releases its pins."""
        if self.status == TxnStatus.PREPARED and not len(self.buffer):
            yield from self.runtime.op_overhead()
            self._finalize(TxnStatus.COMMITTED)
            if defer_stabilization:
                return 0, self.engine.wal_log_name
            return 0
        result = yield from super().commit_prepared(defer_stabilization)
        return result

    def abort_prepared(self) -> Gen:
        if self.status == TxnStatus.PREPARED and not len(self.buffer):
            yield from self.runtime.op_overhead()
            self._finalize(TxnStatus.ABORTED)
            return
        yield from super().abort_prepared()
