"""One node's part of a transaction: the Tx KV engine of Figure 1 (§V-B).

"Pessimistic Txs acquire locks as they go along (two-phase locking)."
"Optimistic Txs use sequence numbers to identify conflicts at the commit
phase."  Every transaction in this codebase is coordinated by
:class:`~repro.core.twopc.GlobalTxn`, so what runs on a node is its
*half*, held by that node's :class:`~repro.core.twopc.Participant`:

* a 2PL half (:class:`Half` driven by ``get`` / ``put`` / ``delete``)
  takes a shared lock per read and an exclusive lock per write as it
  goes; a lock that cannot be granted within ``LOCK_TIMEOUT`` aborts the
  transaction, which also breaks deadlocks;
* an OCC half is built from its PREPARE body (:meth:`Half.pin`): the
  coordinator executed lock-free, and the half pins and validates the
  shipped read versions inside the prepare critical section, so a
  conflict turns into a PREPARE NACK, never a blocked lock queue.

Both buffer their writes in an enclave-resident :class:`TxnBuffer`,
commit in one phase (:meth:`Half.commit`) or through 2PC
(:meth:`Half.prepare`, then :meth:`Half.commit_prepared` /
:meth:`Half.abort_prepared`), and release their locks as soon as the
commit is applied: the *stabilization* wait (rollback protection)
happens afterwards, before the client is acknowledged — the paper notes
this window is what lets "w/ Stab" configurations serve more concurrent
clients.

:class:`SnapshotReads` is the one transaction no coordinator sees: a
node's slice of a client's snapshot read-only transaction, certified
locally.  :class:`TransactionManager` is the node's store the halves run
against: engine, lock table and durability pipeline.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Generator, Iterable, List, Optional, Tuple

from ..errors import ConflictError, TransactionAborted, TransactionError
from ..memory.regions import Allocation, MemoryRegion
from ..sim.core import Event
from ..storage.engine import LSMEngine
from ..tee.runtime import NodeRuntime
from .locks import LockMode, LockTable

__all__ = [
    "Half", "SnapshotReads", "TransactionManager", "TxnBuffer", "TxnStatus",
    "overlay",
]

Gen = Generator[Event, Any, Any]


class TxnStatus:
    ACTIVE = "active"
    PREPARED = "prepared"
    COMMITTED = "committed"
    ABORTED = "aborted"


class TxnBuffer:
    """Buffered (uncommitted) writes of one transaction.

    Treaty keeps "the updates of uncommitted in-progress Txs into local
    buffers ... implemented as a stream of bytes that allocate continuous
    memory to eliminate paging" (§VII-D): writes are appended to one
    contiguous enclave allocation whose growth is accounted against EPC,
    and the key→value view needed for read-my-own-writes is kept
    alongside.
    """

    def __init__(self, enclave_region: MemoryRegion):
        self._region = enclave_region
        self._writes: "OrderedDict[bytes, Optional[bytes]]" = OrderedDict()
        self._allocation: Optional[Allocation] = None
        self.byte_size = 0

    def record(self, key: bytes, value: Optional[bytes]) -> None:
        """Buffer ``key -> value`` (None deletes); last write wins."""
        self._writes[key] = value
        self._writes.move_to_end(key)
        # A contiguous stream: an overwrite's old bytes stay until commit.
        self.byte_size += len(key) + len(value or b"")
        self._reallocate()

    def _reallocate(self) -> None:
        if self._allocation is not None:
            self._allocation.free()
        self._allocation = self._region.allocate(self.byte_size)

    def get(self, key: bytes) -> Tuple[bool, Optional[bytes]]:
        """(hit, value) — read-my-own-writes lookup."""
        if key in self._writes:
            return True, self._writes[key]
        return False, None

    def items(self) -> List[Tuple[bytes, Optional[bytes]]]:
        return list(self._writes.items())

    def keys(self) -> List[bytes]:
        return list(self._writes)

    def __len__(self) -> int:
        return len(self._writes)

    def release(self) -> None:
        """Free the enclave allocation (commit or rollback)."""
        if self._allocation is not None:
            self._allocation.free()
            self._allocation = None
        self._writes.clear()
        self.byte_size = 0


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


def _moved(engine, reads: Iterable[Tuple[bytes, int]]) -> Gen:
    """The first read key whose sequence number is no longer the version
    observed (``None`` if every read is still current)."""
    for key, observed_seq in reads:
        current = yield from engine.seq_of(key)
        if current != observed_seq:
            return key
    return None


class Half:
    """This node's part of one transaction, 2PL or OCC.

    A half built by :meth:`pin` (OCC) that only read logs nothing at
    prepare and resolves by releasing its pins; a 2PL half that only
    read still logs its (empty) prepare and commit records.
    """

    __slots__ = ("manager", "txn_id", "buffer", "reads", "status", "pinned")

    def __init__(self, manager: "TransactionManager", txn_id: bytes):
        self.manager = manager
        self.txn_id = txn_id
        self.buffer = TxnBuffer(manager.runtime.enclave.memory)
        #: key -> first observed version (2PL reads).
        self.reads: Dict[bytes, int] = {}
        self.status = TxnStatus.ACTIVE
        #: built from a PREPARE body (an OCC half).
        self.pinned = False

    def _check_active(self) -> None:
        if self.status != TxnStatus.ACTIVE:
            raise TransactionError(
                "transaction %r is %s" % (self.txn_id, self.status)
            )

    def _lock(self, key: bytes, mode: str) -> Gen:
        """Take ``key`` in ``mode``, waiting up to ``LOCK_TIMEOUT``; a
        timeout rolls the half back."""
        try:
            yield from self.manager.locks.acquire(self.txn_id, key, mode)
        except TransactionAborted:
            yield from self.rollback()
            raise

    # -- 2PL execution (TXNGET / TXNPUT) --------------------------------------
    def get(self, key: bytes) -> Gen:
        """TXNGET: read a key (read-my-own-writes honoured)."""
        self._check_active()
        hit, value = self.buffer.get(key)
        if hit:
            return value
        yield from self._lock(key, LockMode.SHARED)
        value, seq = yield from self.manager.engine.get_with_seq(key)
        # First observed version wins.
        self.reads.setdefault(key, seq)
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
        yield from self._lock(key, LockMode.EXCLUSIVE)
        runtime = self.manager.runtime
        yield from runtime.compute(
            runtime.costs.op_base_cpu
            + (len(key) + len(value or b"")) * runtime.costs.copy_per_byte
        )
        self.buffer.record(key, value)

    def scan(self, start: bytes, end: Optional[bytes], limit=None) -> Gen:
        """Range scan ``[start, end)``, overlaid with this half's writes.

        Scans run lock-free at read-committed isolation (TPC-C permits
        this for its scan-heavy transactions; point reads stay
        serializable through their normal lock/validation paths).
        """
        self._check_active()
        yield from self.manager.runtime.op_overhead()
        rows = yield from self.manager.engine.scan(start, end, limit=None)
        return overlay(rows, self.buffer.items(), start, end, limit)

    # -- OCC: the PREPARE body ---------------------------------------------------
    def pin(
        self,
        reads: List[Tuple[bytes, int]],
        writes: List[Tuple[bytes, Optional[bytes]]],
    ) -> Gen:
        """Load the coordinator-shipped validate and write sets, then pin
        and validate them (§II-A, §V-B):

        1. *Pin* every touched key with a **no-wait** lock (shared for
           reads, exclusive for writes, sorted order).  The pins freeze
           the validated versions through the validate → decision →
           apply window without ever queueing behind another transaction
           — a contended key aborts immediately (→ PREPARE NACK), so OCC
           cannot deadlock and never blocks a lock queue.
        2. *Validate* each read: the key's current sequence number must
           still equal the version the coordinator observed during
           execution.

        Raises :class:`~repro.errors.TransactionAborted` (a
        :class:`~repro.errors.ConflictError` for a moved version) and
        rolls the half back on any conflict; the caller turns that into
        a PREPARE NACK.
        """
        self.pinned = True
        for key, value in writes:
            self.buffer.record(key, value)
        self._check_active()
        modes = {key: LockMode.SHARED for key, _ in reads}
        for key in self.buffer.keys():
            modes[key] = LockMode.EXCLUSIVE
        try:
            for key in sorted(modes):
                # timeout=0.0: no-wait — never queue behind another txn.
                yield from self.manager.locks.acquire(
                    self.txn_id, key, modes[key], timeout=0.0
                )
            moved = yield from _moved(self.manager.engine, reads)
            if moved is not None:
                raise ConflictError(moved)
        except TransactionAborted:
            yield from self.rollback()
            raise

    def _reads_only(self) -> bool:
        """An OCC half with nothing to write: it logs no record."""
        return self.pinned and not len(self.buffer)

    # -- one-phase commit -----------------------------------------------------
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
        # Release locks *before* the stabilization wait (§VIII-C).
        self._finalize(TxnStatus.COMMITTED)
        if stable_event is not None:
            # The whole group-commit batch shares this one wait, driven
            # by a single pipeline stabilization request.
            yield stable_event
        return counter

    # -- 2PC participant half (§V-A) -----------------------------------------
    def prepare(self) -> Gen:
        """Persist the prepare record; returns ``(counter, log_name)``.

        After this returns the half survives crashes: recovery
        re-initializes it from the WAL and resolves it with the
        coordinator (§VI).  Locks stay held until resolution.  An OCC
        half that only read prepares nothing: counter 0 is filtered out
        of stabilization target vectors, there is nothing to protect.
        """
        self._check_active()
        if self._reads_only():
            self.status = TxnStatus.PREPARED
            return 0, self.manager.engine.wal_log_name
        writes = [(key, value, 0) for key, value in self.buffer.items()]
        counter, log_name = yield from self.manager.engine.log_prepare(
            self.txn_id, writes
        )
        self.status = TxnStatus.PREPARED
        return counter, log_name

    def _check_prepared(self, operation: str) -> None:
        if self.status != TxnStatus.PREPARED:
            raise TransactionError(
                "%s on %s transaction" % (operation, self.status)
            )

    def commit_prepared(self, defer_stabilization: bool = False) -> Gen:
        """Resolve a prepared half as committed, without waiting for the
        commit record's stabilization.

        §V-A: "We do not need to wait for the commit entry to be stable
        to reply to the client" — the (already stable) prepare record and
        coordinator decision guarantee deterministic re-commit after a
        crash.  Stabilization still proceeds in the background, unless
        ``defer_stabilization`` is set: then no local fiber is spawned
        and ``(counter, log_name)`` is returned so the caller can
        piggyback the target on a 2PC ACK for the coordinator's
        group-wide round.  An OCC half that only read just releases its
        pins.
        """
        self._check_prepared("commit_prepared")
        manager = self.manager
        if self._reads_only():
            yield from manager.runtime.op_overhead()
            self._finalize(TxnStatus.COMMITTED)
            if defer_stabilization:
                return 0, manager.engine.wal_log_name
            return 0
        writes = self.buffer.items()
        manager.engine.forget_prepared(self.txn_id)
        # wait_stable=False: the commit record needs no rollback
        # protection before the client reply, so this request must not
        # join the batch's shared stabilization wait either.
        counter, log_name, _ = yield from manager.group.submit(
            self.txn_id, writes, wait_stable=False
        )
        self._finalize(TxnStatus.COMMITTED)
        if defer_stabilization:
            return counter, log_name
        manager.pipeline.background(log_name, counter)
        return counter

    def abort_prepared(self) -> Gen:
        """Resolve a prepared half as aborted."""
        self._check_prepared("abort_prepared")
        self.manager.engine.forget_prepared(self.txn_id)
        yield from self.manager.runtime.op_overhead()
        self._finalize(TxnStatus.ABORTED)

    def rollback(self) -> Gen:
        """TXNROLLBACK: discard buffered writes and release locks."""
        if self.status != TxnStatus.ACTIVE:
            return
        yield from self.manager.runtime.op_overhead()
        self._finalize(TxnStatus.ABORTED)

    def _finalize(self, status: str) -> None:
        self.manager.locks.release_all(self.txn_id)
        self.buffer.release()
        self.status = status


class SnapshotReads:
    """One node's slice of a coordinator-free read-only transaction.

    A client transaction opened in read-only mode never touches a
    coordinator: each GET is routed to the owner node's front end,
    executes against that node's storage snapshot with no locks, and the
    client commits by asking every contacted node to certify its own
    slice of the read-set.  Certification is local:

    1. *Validate* — every key's current sequence number must still equal
       the version this transaction observed.  If node ``n`` validates at
       time ``t_n``, its reads were simultaneously current at ``t_n``;
       taking ``t* = min(t_n)`` over all contacted nodes, **every** read
       was current at ``t*`` (each node's reads are unchanged from
       observation through its own ``t_n ≥ t*``), so the transaction
       serializes at ``t*`` with no cross-node coordination.
    2. *Freshness* — the observed seqs must sit under the stabilized
       counter frontier (:class:`~repro.core.stabilization.FreshnessWitness`),
       or the node could be certifying state a rollback attack later
       denies.  A fresh snapshot commits with **zero** 2PC/coordinator
       rounds (``txn.readonly.local``); a stale one joins the covering
       stabilization round already in flight for concurrent writers
       (``txn.readonly.upgraded``) — it waits, it is never wrong.

    Scans stay read-committed, exactly like every other transaction
    flavour in this codebase (see :meth:`Half.scan`).
    """

    __slots__ = ("manager", "reads")

    def __init__(self, manager: "TransactionManager"):
        self.manager = manager
        #: key -> first observed version.
        self.reads: Dict[bytes, int] = {}

    def get(self, key: bytes) -> Gen:
        value, seq = yield from self.manager.engine.get_with_seq(key)
        self.reads.setdefault(key, seq)
        return value

    def scan(self, start: bytes, end: Optional[bytes], limit=None) -> Gen:
        yield from self.manager.runtime.op_overhead()
        rows = yield from self.manager.engine.scan(start, end, limit=limit)
        return rows

    def commit(self) -> Gen:
        """Certify this node's read slice; zero coordinator rounds.

        Raises :class:`~repro.errors.ConflictError` if any read is no
        longer current (the client retries the transaction).
        """
        metrics = self.manager.runtime.metrics
        moved = yield from _moved(self.manager.engine, self.reads.items())
        if moved is not None:
            metrics.counter("txn.readonly.conflicts").inc()
            yield from self.rollback()
            raise ConflictError(moved)
        max_seq = max(self.reads.values(), default=0)
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

    def rollback(self) -> Gen:
        yield from self.manager.runtime.op_overhead()


class TransactionManager:
    """A node's transactional store: the storage engine, the key lock
    table and the durability pipeline (group commit + stabilization)
    that every :class:`Half` of the node runs against."""

    def __init__(
        self,
        runtime: NodeRuntime,
        engine: LSMEngine,
        pipeline,
        name: str = "node0",
    ):
        self.runtime = runtime
        self.engine = engine
        self.locks = LockTable(runtime.sim)
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
