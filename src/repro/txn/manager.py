"""Per-node transaction manager: the Tx KV engine of Figure 1.

Glues together the storage engine, the sharded lock table, the group
committer and the stabilization hook, and hands out transaction handles
(``BEGINTXN``).  The 2PC layer (:mod:`repro.core.twopc`) drives its
participant-local transactions through this same manager.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Generator, Optional

from ..config import ClusterConfig
from ..sim.core import Event
from ..storage.engine import LSMEngine
from ..tee.runtime import NodeRuntime
from .group_commit import GroupCommitter
from .locks import LockTable
from .optimistic import DistributedOccTxn, OptimisticTxn
from .pessimistic import PessimisticTxn
from .readonly import ReadOnlySnapshotTxn

__all__ = ["TransactionManager"]

Gen = Generator[Event, Any, Any]

Stabilizer = Callable[[str, int], Generator[Event, Any, None]]


class TransactionManager:
    """Single-node transactional KV engine (pessimistic + optimistic)."""

    def __init__(
        self,
        runtime: NodeRuntime,
        engine: LSMEngine,
        config: ClusterConfig,
        stabilizer: Optional[Stabilizer] = None,
        name: str = "node0",
        pipeline=None,
    ):
        self.runtime = runtime
        self.engine = engine
        self.config = config
        self.name = name
        self.locks = LockTable(
            runtime.sim, shards=config.lock_shards, timeout=config.lock_timeout
        )
        self.locks.wait_hist = runtime.metrics.histogram("locks.wait_s")
        self.locks.node_name = runtime.name or name
        runtime.metrics.probe("locks.timeouts", lambda: self.locks.timeouts)
        runtime.metrics.probe(
            "locks.acquisitions", lambda: self.locks.acquisitions
        )
        #: the node's DurabilityPipeline, when it runs one — the group
        #: committer is then built by (and bound to) the pipeline so the
        #: batch's stabilization is scheduled as one request.
        self.pipeline = pipeline
        if pipeline is not None:
            self.group = pipeline.attach_engine(engine)
            if stabilizer is None:
                stabilizer = pipeline.stabilizer
        else:
            # Standalone mode (unit tests of lower layers): no pipeline,
            # per-transaction stabilization via the injected hook.
            self.group = GroupCommitter(
                runtime,
                engine,
                max_group=config.group_commit_max,
                window=config.group_commit_window,
                window_cap=config.group_commit_window_cap,
            )
        self.lock_timeout = config.lock_timeout
        self._stabilizer = stabilizer
        self._txn_seq = itertools.count(1)
        self.begun = 0

    # -- transaction creation ---------------------------------------------------
    def _next_txn_id(self, prefix: str) -> bytes:
        return ("%s:%s:%d" % (self.name, prefix, next(self._txn_seq))).encode()

    def begin_pessimistic(self, txn_id: Optional[bytes] = None) -> PessimisticTxn:
        """BEGINTXN with two-phase locking."""
        self.begun += 1
        return PessimisticTxn(self, txn_id or self._next_txn_id("p"))

    def begin_optimistic(self, txn_id: Optional[bytes] = None) -> OptimisticTxn:
        """BEGINTXN with optimistic concurrency control."""
        self.begun += 1
        return OptimisticTxn(self, txn_id or self._next_txn_id("o"))

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

    # -- stabilization hook --------------------------------------------------------
    def stabilize(self, log_name: str, counter: int) -> Gen:
        """Wait until ``(log, counter)`` is rollback-protected.

        No-op when the profile runs without stabilization, or when no
        trusted counter service is wired (unit tests of lower layers).
        """
        if counter == 0:
            return
        if self._stabilizer is None or not self.runtime.profile.stabilization:
            return
        yield from self._stabilizer(log_name, counter)

    def set_stabilizer(self, stabilizer: Optional[Stabilizer]) -> None:
        self._stabilizer = stabilizer
