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
    deliver,
    replication,
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
        #: the encoded gid: names this transaction's half on every node.
        self.key = gid.encode()
        self._op_seq = 0
        #: numeric ids of the nodes holding (under OCC: owed) a half —
        #: the coordinator's own node too, once its shard is touched.
        self.participants: Set[int] = set()
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

    @property
    def remote_participants(self) -> Set[int]:
        """The participants other than the coordinator's own node."""
        return self.participants - {self.coordinator.node_numeric_id}

    def _half(self) -> PessimisticTxn:
        """The own shard's half — in the node's Participant, like any."""
        return self.coordinator.participant.half(self.key)

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

        The coordinator's own shard is served by ``local()`` — a direct
        call, no message built; any other owner by the sealed
        ``request()``, whose ACK body ``decode`` turns into the same
        result.  A contacted owner takes part in the commit, unless
        ``join`` is false (the contact left no state there).

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
        if join:
            self.participants.add(owner)
        try:
            if owner == coordinator.node_numeric_id:
                result = yield from local()
                return result
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
            key, lambda: self._half().get(key),
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
            start, lambda: self._half().scan(start, end, limit),
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
            self.participants.add(self.coordinator.partitioner(key))
            return
        yield from self._on_owner(
            key,
            lambda: self._half().delete(key) if value is None
            else self._half().put(key, value),
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
        # Single-node transaction (§V-B): no Clog, no 2PC rounds — the
        # node's participant commits the half in one phase (under OCC
        # it validates it first, from the same PREPARE body).
        coordinator = self.coordinator
        counter = 0
        if self.participants:
            try:
                counter = yield from coordinator.participant.commit_one_phase(
                    self.key,
                    self._occ_bodies.get(coordinator.node_numeric_id, b""),
                )
            except TransactionAborted:
                self.status = TxnStatus.ABORTED
                coordinator.aborts += 1
                raise
        self.status = TxnStatus.COMMITTED
        coordinator.local_commits += 1
        return counter

    def _stage_occ(self) -> None:
        """Group the OCC validate/write sets per owner: every participant
        (joined when its key was read or written; the coordinator's own
        node is one) gets its PREPARE body — validation rides PREPARE."""
        coordinator = self.coordinator
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
        self._occ_bodies = {
            node: encode_occ_prepare(
                reads_by.get(node, []), writes_by.get(node, [])
            )
            for node in self.participants
        }

    def _commit_distributed(self) -> Gen:
        # Root of the transaction's cross-node span DAG: the trace id is
        # the global transaction id, and every span the commit touches —
        # locally, on participants (via the sealed RPC trace context) and
        # in the counter service — chains under this one.  Its duration
        # is the distributed commit latency the critical-path analyzer
        # decomposes.
        txn_hex = self.key.hex()
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
        txn_hex = self.key.hex()
        own = coordinator.node_numeric_id
        remote = sorted(self.remote_participants)
        # The group as the Clog and the decision record name it: the
        # remote shards in id order, then the coordinator's own.
        participants = remote + ([own] if own in self.participants else [])
        phase_start = self.runtime.now
        span = tracer.span(
            "twopc", "prepare", node=coordinator.node, txn=txn_hex,
            participants=len(remote),
        )
        # 5: log the prepare intent to the Clog with its trusted counter.
        yield from coordinator.log_clog(
            ClogRecord(ClogRecord.PREPARE, self.gid, participants)
        )
        # Prepare everyone (remote prepares batched; the own node's
        # participant votes in parallel — same message, same handler,
        # called directly: nothing to seal, no wire to oneself).
        # A participant that does not answer within the vote timeout is
        # counted as a NO vote — a crashed participant must not block
        # the decision (it learns the abort when it recovers).  The
        # broadcast enqueues every destination in one instant, so each
        # destination's PREPARE coalesces with concurrent rounds.
        # Under OCC each PREPARE carries that participant's validate and
        # write sets; bodies differ per destination but the broadcast
        # still enqueues them in one instant, so the transport's doorbell
        # window coalesces per destination as before.
        def prepare(node: int) -> TxMessage:
            return self._message(
                MsgType.TXN_PREPARE, self._occ_bodies.get(node, b"")
            )

        events = coordinator.rpc.broadcast(
            [(coordinator.addresses[node], prepare(node)) for node in remote]
        )
        if own in participants:
            events.append(self.runtime.sim.process(
                coordinator.participant._on_prepare(
                    prepare(own), coordinator.addresses[own]
                ),
                name="local-prepare",
            ))
        yield self.runtime.sim.any_of(
            [
                self.runtime.sim.all_settled(events),
                self.runtime.sim.timeout(PREPARE_VOTE_TIMEOUT),
            ]
        )
        # Harvest votes: every vote is a reply message — an ACK is YES
        # (under piggybacking its body carries the voter's prepare-record
        # (log, counter) target), anything else, silence included, NO.
        vote_commit = True
        prepare_targets: List[Tuple[str, int]] = []
        for event in events:
            if not (
                event.triggered and event.ok
                and event.value.msg_type == MsgType.ACK
            ):
                vote_commit = False
            elif event.value.body:
                prepare_targets.extend(decode_counter_vector(event.value.body))
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
            ClogRecord(voted, self.gid, participants, targets=prepare_targets)
        )
        decision = yield from coordinator.protect(
            voted, self.gid, participants, prepare_targets, decision_counter,
        )
        span.close()
        metrics.histogram("twopc.decision_s").observe(
            self.runtime.now - phase_start
        )
        # 8: instruct the participants, then apply the own node's half.
        # ``paper`` retries forever: the decision exists only in this
        # coordinator's Clog.  Under decision replication a quorum of
        # slots outlives this coordinator, so delivery is best-effort
        # (two rounds): a participant that misses both finishes via its
        # decision watchdog instead of wedging this fiber on a dead
        # peer.  The COMMIT ACKs and the own apply return apply-side
        # targets; nobody waits for those before the client reply.  The
        # own half may be gone already — it voted NO, or a completer's
        # instruction reached this node first: nothing to apply then.
        phase_start = self.runtime.now
        span = tracer.span(
            "twopc", KIND_NAMES[decision], node=coordinator.node, txn=txn_hex
        )
        apply_targets = yield from deliver(
            coordinator.rpc, coordinator.addresses, remote,
            lambda: self._message(INSTRUCTIONS[decision]),
            rounds=2 if replication(self.runtime) else None,
        )
        if own in participants:
            apply_targets += (
                yield from coordinator.participant.apply(self.key, decision)
            ) or []
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
                ClogRecord(ClogRecord.COMPLETE, self.gid, participants)
            )
            yield from coordinator._stabilize_entry(
                counter, apply_targets, txn_hex, "complete"
            )

        self.runtime.sim.spawn(log_complete(), name="clog-complete")

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
        yield from self.coordinator.participant.drop(self.key)
