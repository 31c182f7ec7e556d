"""Per-node transaction manager: the Tx KV engine of Figure 1.

Glues together the storage engine, the sharded lock table and the node's
durability pipeline (group commit + stabilization), and hands out
transaction handles (``BEGINTXN``).  The 2PC layer
(:mod:`repro.core.twopc`) drives its participant-local transactions
through this same manager.
"""

from __future__ import annotations

import itertools
from typing import Any, Generator, Optional

from ..config import ClusterConfig
from ..sim.core import Event
from ..storage.engine import LSMEngine
from ..tee.runtime import NodeRuntime
from .locks import LockTable
from .optimistic import DistributedOccTxn
from .pessimistic import PessimisticTxn
from .readonly import ReadOnlySnapshotTxn

__all__ = ["TransactionManager"]

Gen = Generator[Event, Any, Any]

LOCK_SHARDS = 256
#: seconds before a lock wait aborts with a timeout error (§V-B).  Also
#: the deadlock-resolution latency, so it is kept roughly one order of
#: magnitude above a contended transaction's latency.
LOCK_TIMEOUT = 0.05


class TransactionManager:
    """Single-node transactional KV engine (pessimistic + optimistic)."""

    def __init__(
        self,
        runtime: NodeRuntime,
        engine: LSMEngine,
        config: ClusterConfig,
        pipeline,
        name: str = "node0",
    ):
        self.runtime = runtime
        self.engine = engine
        self.config = config
        self.name = name
        self.locks = LockTable(
            runtime.sim, shards=LOCK_SHARDS, timeout=LOCK_TIMEOUT
        )
        self.locks.wait_hist = runtime.metrics.histogram("locks.wait_s")
        self.locks.node_name = runtime.name or name
        runtime.metrics.probe("locks.timeouts", lambda: self.locks.timeouts)
        runtime.metrics.probe(
            "locks.acquisitions", lambda: self.locks.acquisitions
        )
        #: the node's DurabilityPipeline: it builds (and is bound to) the
        #: group committer, so a batch's stabilization is scheduled as
        #: one request.
        self.pipeline = pipeline
        self.group = pipeline.attach_engine(engine)
        self.lock_timeout = LOCK_TIMEOUT
        self._txn_seq = itertools.count(1)
        self.begun = 0

    # -- transaction creation ---------------------------------------------------
    def _next_txn_id(self, prefix: str) -> bytes:
        return ("%s:%s:%d" % (self.name, prefix, next(self._txn_seq))).encode()

    def begin_pessimistic(self, txn_id: Optional[bytes] = None) -> PessimisticTxn:
        """BEGINTXN with two-phase locking."""
        self.begun += 1
        return PessimisticTxn(self, txn_id or self._next_txn_id("p"))

    def begin_distributed_occ(
        self, txn_id: Optional[bytes] = None
    ) -> DistributedOccTxn:
        """Participant-local half of a distributed OCC transaction."""
        self.begun += 1
        return DistributedOccTxn(self, txn_id or self._next_txn_id("do"))

    def begin_readonly(
        self, txn_id: Optional[bytes] = None
    ) -> ReadOnlySnapshotTxn:
        """One node's slice of a coordinator-free read-only transaction."""
        self.begun += 1
        return ReadOnlySnapshotTxn(self, txn_id or self._next_txn_id("ro"))
