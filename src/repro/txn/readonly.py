"""Coordinator-free snapshot read-only transactions.

A client transaction opened in read-only mode never touches a
coordinator: each GET is routed to the owner node's front end, executes
against that node's storage snapshot with no locks, and the client
commits by asking every contacted node to certify its own slice of the
read-set.  Certification is local:

1. *Validate* — every key's current sequence number must still equal the
   version this transaction observed.  If node ``n`` validates at time
   ``t_n``, its reads were simultaneously current at ``t_n``; taking
   ``t* = min(t_n)`` over all contacted nodes, **every** read was
   current at ``t*`` (each node's reads are unchanged from observation
   through its own ``t_n ≥ t*``), so the transaction serializes at
   ``t*`` with no cross-node coordination.
2. *Freshness* — the observed seqs must sit under the stabilized counter
   frontier (:class:`~repro.core.stabilization.FreshnessWitness`), or
   the node could be certifying state a rollback attack later denies.  A
   fresh snapshot commits with **zero** 2PC/coordinator rounds
   (``txn.readonly.local``); a stale one joins the covering
   stabilization round already in flight for concurrent writers
   (``txn.readonly.upgraded``) — it waits, it is never wrong.

Scans stay read-committed, exactly like every other transaction flavour
in this codebase (see :meth:`LocalTransaction.scan`).
"""

from __future__ import annotations

from typing import Any, Generator

from ..errors import ConflictError, TransactionError
from ..sim.core import Event
from .base import LocalTransaction
from .types import TxnStatus

__all__ = ["ReadOnlySnapshotTxn"]

Gen = Generator[Event, Any, Any]


class ReadOnlySnapshotTxn(LocalTransaction):
    """One node's slice of a coordinator-free read-only transaction."""

    def _write(self, key, value) -> Gen:
        raise TransactionError("read-only transaction cannot write")
        yield  # pragma: no cover

    def commit(self) -> Gen:
        """Certify this node's read slice; zero coordinator rounds.

        Raises :class:`~repro.errors.ConflictError` if any read is no
        longer current (the client retries the transaction).
        """
        self._check_active()
        metrics = self.runtime.metrics
        max_seq = 0
        for key, observed_seq in self.reads.items():
            current = yield from self.engine.seq_of(key)
            if current != observed_seq:
                metrics.counter("txn.readonly.conflicts").inc()
                yield from self.rollback()
                raise ConflictError(key)
            max_seq = max(max_seq, observed_seq)
        self._finalize(TxnStatus.COMMITTED)
        witness = self.manager.pipeline.witness
        if witness.covers(max_seq):
            metrics.counter("txn.readonly.local").inc()
            return 0
        # Stale snapshot: wait out the covering stabilization round (it
        # is already in flight for the writers that produced these seqs)
        # before acking — never certify state that could be rolled back.
        metrics.counter("txn.readonly.upgraded").inc()
        yield from witness.wait_cover(max_seq)
        return 0
