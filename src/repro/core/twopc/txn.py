"""A distributed transaction as the client sees it: execute each operation
on the shard owning its key, then commit — single-node fast path (§V-B)
or prepare / decide / apply over secure 2PC (the lifecycle in the package
docstring, Figure 2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Set, Tuple

from ...errors import NetworkError, TransactionAborted, TransactionError
from ...net.message import MsgType, TxMessage
from ...txn.base import overlay
from ...txn.pessimistic import PessimisticTxn
from ...txn.types import TxnStatus
from ..ids import GlobalTxnId
from ..trusted_counter import decode_counter_vector
from .codec import (
    ClogRecord,
    decode_scan_reply,
    decode_value_reply,
    decode_versioned_reply,
    encode_occ_prepare,
    encode_read,
    encode_scan_request,
    encode_write,
)
from .steps import (
    INSTRUCTIONS,
    KIND_NAMES,
    PREPARE_VOTE_TIMEOUT,
    Gen,
    apply_half,
    deliver,
    protect_prepare,
    replication,
    validate_occ,
)

if TYPE_CHECKING:
    from .coordinator import Coordinator

__all__ = ["GlobalTxn"]


class GlobalTxn:
    """A client-facing distributed transaction (Figure 2's lifecycle)."""

    def __init__(
        self,
        coordinator: "Coordinator",
        gid: GlobalTxnId,
        optimistic: bool = False,
    ):
        self.coordinator = coordinator
        self.runtime = coordinator.runtime
        self.gid = gid
        self._op_seq = 0
        self._local_txn: Optional[PessimisticTxn] = None
        #: numeric node ids of remote participants touched so far.
        self.remote_participants: Set[int] = set()
        self.status = TxnStatus.ACTIVE
        #: distributed OCC: execution takes no locks —
        #: reads are stateless versioned snapshots, writes buffer here
        #: at the coordinator — and PREPARE ships each participant its
        #: validate/write sets.
        self.optimistic = optimistic
        #: key -> first observed version (the validate set).
        self._occ_reads: Dict[bytes, int] = {}
        #: key -> buffered value (None = tombstone), insertion-ordered.
        self._occ_writes: Dict[bytes, Optional[bytes]] = {}
        #: per-participant PREPARE bodies, built at commit time.
        self._occ_bodies: Dict[int, bytes] = {}

    # -- helpers -----------------------------------------------------------------
    def _message(self, msg_type: int, body: bytes = b"") -> TxMessage:
        self._op_seq += 1
        return TxMessage(
            msg_type, self.gid.node_id, self.gid.local_seq, self._op_seq, body
        )

    def _local(self) -> PessimisticTxn:
        if self._local_txn is None:
            self._local_txn = self.coordinator.manager.begin_pessimistic(
                txn_id=self.gid.encode()
            )
        return self._local_txn

    def _check_active(self) -> None:
        if self.status != TxnStatus.ACTIVE:
            raise TransactionError("global txn %s is %s" % (self.gid, self.status))

    def _on_owner(
        self,
        key: bytes,
        local: Callable[[], Gen],
        request: Callable[[], TxMessage],
        decode: Callable[[bytes], Any],
        join: bool = True,
    ) -> Gen:
        """Run one operation on the shard that owns ``key`` (Figure 2, 1–2).

        The coordinator's own shard is served by ``local()``; any other
        owner by the sealed ``request()``, whose ACK body ``decode``
        turns into the same result.  A contacted owner takes part in the
        commit, unless ``join`` is false (the contact left no state
        there).

        Every failure leaves by one path — a local abort (lock timeout),
        a FAIL reply, or a participant whose NIC detached (crash: the
        transport fails the continuation instead of leaking it):
        :meth:`rollback` tells every *other* touched participant (the
        owner's half has rolled itself back, or died with its node), sets
        the status and counts the abort; the reason propagates as
        TransactionAborted.
        """
        coordinator = self.coordinator
        owner = coordinator.partitioner(key)
        try:
            if owner == coordinator.node_numeric_id:
                result = yield from local()
                return result
            if join:
                self.remote_participants.add(owner)
            try:
                reply = yield from coordinator.rpc.call(
                    coordinator.addresses[owner], request()
                )
            except NetworkError as exc:
                raise TransactionAborted(str(exc))
            if reply.msg_type != MsgType.ACK:
                raise TransactionAborted(
                    reply.body.decode() or "remote operation failed"
                )
        except TransactionAborted:
            yield from self.rollback(failed_node=owner)
            raise
        return decode(reply.body)

    # -- interactive operations (TXNGET / TXNPUT) ----------------------------------
    def get(self, key: bytes) -> Gen:
        self._check_active()
        if self.optimistic:
            value = yield from self._get_occ(key)
            return value
        value = yield from self._on_owner(
            key, lambda: self._local().get(key),
            lambda: self._message(MsgType.TXN_READ, encode_read(key)),
            decode_value_reply,
        )
        return value

    def _get_occ(self, key: bytes) -> Gen:
        """Lock-free versioned read (read-my-own-writes honoured)."""
        if key in self._occ_writes:
            return self._occ_writes[key]
        value, seq = yield from self._on_owner(
            key, lambda: self.coordinator.manager.engine.get_with_seq(key),
            lambda: self._message(MsgType.TXN_READ_OCC, encode_read(key)),
            decode_versioned_reply,
        )
        # First observed version wins: validation must prove it never
        # changed for the duration of the transaction.
        self._occ_reads.setdefault(key, seq)
        return value

    def put(self, key: bytes, value: bytes) -> Gen:
        yield from self._write(key, value)

    def delete(self, key: bytes) -> Gen:
        yield from self._write(key, None)

    def scan(self, start: bytes, end: Optional[bytes], limit=None) -> Gen:
        """Range scan within one shard (``start`` determines the owner).

        TPC-C's scans are all warehouse-local, so a scan never spans
        shards; a cross-shard range raises.
        """
        self._check_active()
        if self.optimistic:
            rows = yield from self._scan_occ(start, end, limit)
            return rows
        rows = yield from self._on_owner(
            start, lambda: self._local().scan(start, end, limit),
            lambda: self._message(
                MsgType.TXN_SCAN, encode_scan_request(start, end, limit)
            ),
            decode_scan_reply,
        )
        return rows

    def _scan_occ(self, start: bytes, end: Optional[bytes], limit) -> Gen:
        """Stateless read-committed scan, overlaid with buffered writes.

        Scans stay read-committed in every transaction flavour (see
        :meth:`LocalTransaction.scan`), so the owner does not join the
        participant set for a scan-only contact.
        """
        def local() -> Gen:
            yield from self.runtime.op_overhead()
            rows = yield from self.coordinator.manager.engine.scan(
                start, end, limit=None
            )
            return rows

        rows = yield from self._on_owner(
            start, local,
            lambda: self._message(
                MsgType.TXN_SCAN_OCC, encode_scan_request(start, end, None)
            ),
            decode_scan_reply, join=False,
        )
        return overlay(rows, self._occ_writes.items(), start, end, limit)

    def _write(self, key: bytes, value: Optional[bytes]) -> Gen:
        self._check_active()
        if self.optimistic:
            # Lock-free execution: the write buffers at the coordinator
            # and ships inside the owner's PREPARE — zero execution-phase
            # round trips for writes.
            yield from self.runtime.op_overhead()
            self._occ_writes[key] = value
            owner = self.coordinator.partitioner(key)
            if owner != self.coordinator.node_numeric_id:
                self.remote_participants.add(owner)
            return
        yield from self._on_owner(
            key,
            lambda: self._local().delete(key) if value is None
            else self._local().put(key, value),
            lambda: self._message(MsgType.TXN_WRITE, encode_write(key, value)),
            lambda _empty: None,
        )

    # -- commit / abort ---------------------------------------------------------------
    def commit(self) -> Gen:
        """TXNCOMMIT: single-node fast path or full secure 2PC."""
        self._check_active()
        if self.optimistic:
            self._stage_occ()
        if self.remote_participants:
            yield from self._commit_distributed()
            return 0
        # Single-node transaction (§V-B): no Clog, no 2PC rounds — under
        # OCC validate + group commit locally.
        counter = 0
        if self._local_txn is not None:
            if self.optimistic:
                ok = yield from validate_occ(self.runtime, self._local_txn)
                if not ok:
                    self.status = TxnStatus.ABORTED
                    self.coordinator.aborts += 1
                    raise TransactionAborted("validation conflict")
            counter = yield from self._local_txn.commit()
        self.status = TxnStatus.COMMITTED
        self.coordinator.local_commits += 1
        return counter

    def _stage_occ(self) -> None:
        """Group the OCC validate/write sets per owner: the local half is
        loaded with its share, every remote participant gets its PREPARE
        body (validation rides PREPARE)."""
        coordinator = self.coordinator
        local_id = coordinator.node_numeric_id
        reads_by: Dict[int, List[Tuple[bytes, int]]] = {}
        writes_by: Dict[int, List[Tuple[bytes, Optional[bytes]]]] = {}
        for key, seq in self._occ_reads.items():
            reads_by.setdefault(coordinator.partitioner(key), []).append(
                (key, seq)
            )
        for key, value in self._occ_writes.items():
            writes_by.setdefault(coordinator.partitioner(key), []).append(
                (key, value)
            )
        owners = set(reads_by) | set(writes_by)
        self.remote_participants.update(owners - {local_id})
        if local_id in owners:
            txn = coordinator.manager.begin_distributed_occ(
                txn_id=self.gid.encode()
            )
            txn.load(reads_by.get(local_id, []), writes_by.get(local_id, []))
            self._local_txn = txn
        self._occ_bodies = {
            node: encode_occ_prepare(
                reads_by.get(node, []), writes_by.get(node, [])
            )
            for node in self.remote_participants
        }

    def _commit_distributed(self) -> Gen:
        # Root of the transaction's cross-node span DAG: the trace id is
        # the global transaction id, and every span the commit touches —
        # locally, on participants (via the sealed RPC trace context) and
        # in the counter service — chains under this one.  Its duration
        # is the distributed commit latency the critical-path analyzer
        # decomposes.
        txn_hex = self.gid.encode().hex()
        root = self.coordinator.tracer.span(
            "twopc", "txn", node=self.coordinator.node, txn=txn_hex,
            trace=txn_hex, participants=len(self.remote_participants),
        )
        try:
            yield from self._commit_distributed_body()
        finally:
            root.close(
                outcome="commit"
                if self.status == TxnStatus.COMMITTED else "abort"
            )

    def _commit_distributed_body(self) -> Gen:
        coordinator = self.coordinator
        tracer = coordinator.tracer
        metrics = self.runtime.metrics
        txn_hex = self.gid.encode().hex()
        participants = sorted(self.remote_participants)
        record_participants = participants + (
            [coordinator.node_numeric_id] if self._local_txn is not None else []
        )
        phase_start = self.runtime.now
        span = tracer.span(
            "twopc", "prepare", node=coordinator.node, txn=txn_hex,
            participants=len(participants),
        )
        # 5: log the prepare intent to the Clog with its trusted counter.
        prepare_counter = yield from coordinator.log_clog(
            ClogRecord(ClogRecord.PREPARE, self.gid, record_participants)
        )
        # Prepare everyone (remote prepares batched; local in parallel).
        # A participant that does not answer within the vote timeout is
        # counted as a NO vote — a crashed participant must not block
        # the decision (it learns the abort when it recovers).  The
        # broadcast enqueues every destination in one instant, so each
        # destination's PREPARE coalesces with concurrent rounds.
        # Under OCC each PREPARE carries that participant's validate and
        # write sets; bodies differ per destination but the broadcast
        # still enqueues them in one instant, so the transport's doorbell
        # window coalesces per destination as before.
        events = coordinator.rpc.broadcast(
            [
                (
                    coordinator.addresses[node],
                    self._message(
                        MsgType.TXN_PREPARE, self._occ_bodies.get(node, b"")
                    ),
                )
                for node in participants
            ]
        )
        if self._local_txn is not None:
            events.append(
                self.runtime.sim.process(
                    self._prepare_local(), name="local-prepare"
                )
            )
        yield self.runtime.sim.any_of(
            [
                self.runtime.sim.all_settled(events),
                self.runtime.sim.timeout(PREPARE_VOTE_TIMEOUT),
            ]
        )
        # Harvest votes; under piggybacking a YES vote carries the
        # voter's prepare-record (log, counter) target — the local
        # prepare returns the tuple directly, remote ACK bodies carry
        # an encoded counter vector.
        vote_commit = True
        prepare_targets: List[Tuple[str, int]] = []
        for event in events:
            if not (event.triggered and event.ok):
                vote_commit = False
                continue
            value = event.value
            if value is True:
                continue
            if isinstance(value, tuple):
                prepare_targets.append(value)
                continue
            if getattr(value, "msg_type", None) == MsgType.ACK:
                if value.body:
                    prepare_targets.extend(decode_counter_vector(value.body))
                continue
            vote_commit = False
        span.close(vote="commit" if vote_commit else "abort")
        metrics.histogram("twopc.prepare_s").observe(
            self.runtime.now - phase_start
        )
        # 6-7: log + protect the decision before acting on it.  With
        # piggybacking the participants' prepare targets fold into the
        # same group-wide round: one echo broadcast rollback-protects
        # every prepare record *and* the Clog decision entry.  Aborted
        # prepares need no rollback protection (presumed abort): only a
        # commit decision carries the group.
        phase_start = self.runtime.now
        span = tracer.span(
            "twopc", "decision_log", node=coordinator.node, txn=txn_hex
        )
        voted = ClogRecord.COMMIT if vote_commit else ClogRecord.ABORT
        if not vote_commit:
            prepare_targets = []
        decision_counter = yield from coordinator.log_clog(
            ClogRecord(
                voted, self.gid, record_participants, targets=prepare_targets
            )
        )
        decision = yield from coordinator.protect(
            voted, self.gid, record_participants, prepare_targets,
            decision_counter,
        )
        span.close()
        metrics.histogram("twopc.decision_s").observe(
            self.runtime.now - phase_start
        )
        # 8: instruct the participants and apply the local half.
        # ``paper`` retries forever: the decision exists only in this
        # coordinator's Clog.  Under decision replication a quorum of
        # slots outlives this coordinator, so delivery is best-effort
        # (two rounds): a participant that misses both finishes via its
        # decision watchdog instead of wedging this fiber on a dead
        # peer.  The COMMIT ACKs and the local apply return apply-side
        # targets; nobody waits for those before the client reply.
        phase_start = self.runtime.now
        span = tracer.span(
            "twopc", KIND_NAMES[decision], node=coordinator.node, txn=txn_hex
        )
        apply_targets = yield from deliver(
            coordinator.rpc, coordinator.addresses, participants,
            lambda: self._message(INSTRUCTIONS[decision]),
            rounds=2 if replication(self.runtime) else None,
        )
        if self._local_txn is not None:
            apply_targets += yield from apply_half(
                self.runtime, self._local_txn, decision
            )
        span.close()
        if decision != ClogRecord.COMMIT:
            self.status = TxnStatus.ABORTED
            coordinator.aborts += 1
            raise TransactionAborted(
                "a participant failed to prepare" if not vote_commit else
                "commit decision superseded by a completer abort quorum"
            )
        metrics.histogram("twopc.commit_s").observe(
            self.runtime.now - phase_start
        )
        self.status = TxnStatus.COMMITTED
        coordinator.distributed_commits += 1

        # Off the critical path: record that every participant committed,
        # so recovery does not re-drive this transaction.  Under
        # piggybacking the COMPLETE entry and every apply-side target
        # share one more group-wide round.
        def log_complete() -> Gen:
            counter = yield from coordinator.log_clog(
                ClogRecord(ClogRecord.COMPLETE, self.gid, record_participants)
            )
            yield from coordinator._stabilize_entry(
                counter, apply_targets, txn_hex, "complete"
            )

        self.runtime.sim.process(log_complete(), name="clog-complete")

    def _prepare_local(self) -> Gen:
        txn = self._local()
        if self.optimistic:
            # Validation runs inside the same window as the remote
            # PREPAREs — the local half of the OCC-in-PREPARE rule.
            ok = yield from validate_occ(self.runtime, txn)
            if not ok:
                return False
        try:
            counter, log_name = yield from txn.prepare()
        except TransactionAborted:
            return False
        target = yield from protect_prepare(
            self.runtime, self.coordinator.pipeline, self.gid, log_name,
            counter,
        )
        return target or True

    def rollback(self, failed_node: Optional[int] = None) -> Gen:
        """TXNROLLBACK: abort everywhere (presumed abort, nothing logged)."""
        if self.status != TxnStatus.ACTIVE:
            return
        self.status = TxnStatus.ABORTED
        self.coordinator.aborts += 1
        yield from deliver(
            self.coordinator.rpc, self.coordinator.addresses,
            [node for node in self.remote_participants if node != failed_node],
            lambda: self._message(MsgType.TXN_ABORT),
            rounds=None,
        )
        if self._local_txn is not None:
            yield from self._local_txn.rollback()
