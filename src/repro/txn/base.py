"""Shared machinery of single-node transactions (§V-B).

Both concurrency-control flavours buffer their writes in enclave-resident
:class:`~repro.txn.types.TxnBuffer` streams, serve read-my-own-writes
from that buffer, and commit through the node's group committer.  Locks
are released as soon as the commit is applied; the *stabilization* wait
(rollback protection) happens afterwards, before the client is
acknowledged — the paper notes this window is what lets "w/ Stab"
configurations serve more concurrent clients.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..errors import TransactionAborted, TransactionError
from ..sim.core import Event
from .types import ReadSet, TxnBuffer, TxnStatus

__all__ = ["LocalTransaction", "overlay"]

Gen = Generator[Event, Any, Any]


def overlay(rows, writes, start: bytes, end: Optional[bytes], limit):
    """Committed ``rows`` of ``[start, end)`` as a transaction holding the
    buffered ``writes`` sees them (a ``None`` value hides the key)."""
    merged = dict(rows)
    for key, value in writes:
        if key >= start and (end is None or key < end):
            if value is None:
                merged.pop(key, None)
            else:
                merged[key] = value
    result = sorted(merged.items())
    if limit is not None:
        result = result[:limit]
    return result


class LocalTransaction:
    """Base class for pessimistic and optimistic single-node transactions."""

    def __init__(self, manager, txn_id: bytes):
        self.manager = manager
        self.engine = manager.engine
        self.runtime = manager.runtime
        self.txn_id = txn_id
        self.buffer = TxnBuffer(self.runtime.enclave.memory)
        self.reads = ReadSet()
        self.status = TxnStatus.ACTIVE
        self.wal_counter: Optional[int] = None

    # -- hooks for subclasses ------------------------------------------------
    def _before_read(self, key: bytes) -> Gen:
        return
        yield  # pragma: no cover

    def _before_write(self, key: bytes) -> Gen:
        return
        yield  # pragma: no cover

    # -- operations ---------------------------------------------------------------
    def _check_active(self) -> None:
        if self.status != TxnStatus.ACTIVE:
            raise TransactionError(
                "transaction %r is %s" % (self.txn_id, self.status)
            )

    def get(self, key: bytes) -> Gen:
        """TXNGET: read a key (read-my-own-writes honoured)."""
        self._check_active()
        hit, value = self.buffer.get(key)
        if hit:
            return value
        try:
            yield from self._before_read(key)
        except TransactionAborted:
            yield from self.rollback()
            raise
        value, seq = yield from self.engine.get_with_seq(key)
        self.reads.record(key, seq)
        return value

    def put(self, key: bytes, value: bytes) -> Gen:
        """TXNPUT: buffer a write."""
        if value is None:
            raise ValueError("use delete() for deletions")
        yield from self._write(key, value)

    def delete(self, key: bytes) -> Gen:
        """Buffer a deletion (tombstone at commit)."""
        yield from self._write(key, None)

    def _write(self, key: bytes, value: Optional[bytes]) -> Gen:
        self._check_active()
        try:
            yield from self._before_write(key)
        except TransactionAborted:
            yield from self.rollback()
            raise
        yield from self.runtime.compute(
            self.runtime.costs.op_base_cpu
            + (len(key) + len(value or b"")) * self.runtime.costs.copy_per_byte
        )
        self.buffer.record(key, value)

    def scan(self, start: bytes, end: Optional[bytes], limit=None) -> Gen:
        """Range scan ``[start, end)``, overlaid with this txn's writes.

        Scans run lock-free at read-committed isolation (TPC-C permits
        this for its scan-heavy transactions; point reads stay
        serializable through their normal lock/validation paths).
        """
        self._check_active()
        yield from self.runtime.op_overhead()
        rows = yield from self.engine.scan(start, end, limit=None)
        return overlay(rows, self.buffer.items(), start, end, limit)

    # -- lifecycle -------------------------------------------------------------------
    def commit(self) -> Gen:
        """TXNCOMMIT: make every buffered write durable, atomically.

        Returns the WAL counter of the commit record (0 for read-only
        transactions).  The transaction is rollback-protected (stable)
        when this returns, under profiles with stabilization enabled.
        """
        self._check_active()
        writes = self.buffer.items()
        if not writes:
            self._finalize(TxnStatus.COMMITTED)
            return 0
        counter, _log_name, stable_event = yield from self.manager.group.submit(
            self.txn_id, writes, wait_stable=True
        )
        self.wal_counter = counter
        # Release locks *before* the stabilization wait (§VIII-C).
        self._finalize(TxnStatus.COMMITTED)
        if stable_event is not None:
            # The whole group-commit batch shares this one wait, driven
            # by a single pipeline stabilization request.
            yield stable_event
        return counter

    def rollback(self) -> Gen:
        """TXNROLLBACK: discard buffered writes and release locks."""
        if self.status != TxnStatus.ACTIVE:
            return
        yield from self.runtime.op_overhead()
        self._finalize(TxnStatus.ABORTED)

    def _finalize(self, status: str) -> None:
        self.manager.locks.release_all(self.txn_id)
        self.buffer.release()
        self.status = status
