"""A distributed transaction as the client sees it: execute each operation
on the shard owning its key, then commit — single-node fast path (§V-B)
or prepare / decide / apply over secure 2PC (the lifecycle in the package
docstring, Figure 2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Set, Tuple

from ...errors import (
    NetworkError, RequestTimeout, TransactionAborted, TransactionError,
)
from ...net.message import MsgType, TxMessage
from ...net.secure_rpc import replies
from ...txn.half import Half, TxnStatus, overlay
from ..ids import GlobalTxnId
from ..trusted_counter import decode_counter_vector
from .codec import (
    ClogRecord,
    DecisionRecord,
    decode_scan_reply,
    decode_value_reply,
    decode_versioned_reply,
    encode_occ_prepare,
    encode_read,
    encode_scan_request,
    encode_write,
)
from .steps import (
    DECIDED,
    KIND_NAMES,
    PREPARE_VOTE_TIMEOUT,
    Gen,
    deliver,
    finish,
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
    def _op_id(self) -> int:
        self._op_seq += 1
        return self._op_seq

    def _message(self, msg_type: int, body: bytes = b"") -> TxMessage:
        return TxMessage(
            msg_type, self.gid.node_id, self.gid.local_seq, self._op_id(), body
        )

    @property
    def remote_participants(self) -> Set[int]:
        """The participants other than the coordinator's own node."""
        return self.participants - {self.coordinator.node_numeric_id}

    def _half(self) -> Half:
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
        a FAIL reply, a participant whose NIC detached (crash: the
        transport fails the continuation instead of leaking it), or
        silence past the request's ``PREPARE_VOTE_TIMEOUT`` deadline:
        :meth:`rollback` tells every touched participant but a failed or
        crashed owner (its half has rolled itself back, or died with its
        node), sets the status and counts the abort; the reason
        propagates as TransactionAborted.  A silent owner is told: its
        reply may be what was lost, and then it holds a half.
        """
        coordinator = self.coordinator
        owner = coordinator.partitioner(key)
        if join:
            self.participants.add(owner)
        failed: Optional[int] = owner
        try:
            if owner == coordinator.node_numeric_id:
                result = yield from local()
                return result
            try:
                reply = yield from coordinator.rpc.call(
                    coordinator.addresses[owner], request(),
                    timeout=PREPARE_VOTE_TIMEOUT,
                )
            except RequestTimeout as exc:
                failed = None
                raise TransactionAborted(str(exc))
            except NetworkError as exc:
                raise TransactionAborted(str(exc))
            if reply.msg_type != MsgType.ACK:
                raise TransactionAborted(
                    reply.body.decode() or "remote operation failed"
                )
        except TransactionAborted:
            yield from self.rollback(failed_node=failed)
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
            key, lambda: self.coordinator.participant.read_occ(key),
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
        :meth:`Half.scan`), so the owner does not join the participant
        set for a scan-only contact.
        """
        rows = yield from self._on_owner(
            start, lambda: self.coordinator.participant.scan_occ(
                start, end, None
            ),
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
        # A participant that does not answer by the vote deadline is
        # counted as a NO vote — a crashed participant must not block
        # the decision (it learns the abort when it recovers).  The
        # broadcast enqueues every destination in one instant, so each
        # destination's PREPARE coalesces with concurrent rounds.
        # Under OCC each PREPARE carries that participant's validate and
        # write sets; bodies differ per destination but the broadcast
        # still enqueues them in one instant, so the transport's doorbell
        # window coalesces per destination as before.
        sim = self.runtime.sim

        def prepare(node: int) -> TxMessage:
            return self._message(
                MsgType.TXN_PREPARE, self._occ_bodies.get(node, b"")
            )

        events = coordinator.rpc.broadcast(
            [(coordinator.addresses[node], prepare(node)) for node in remote],
            timeout=PREPARE_VOTE_TIMEOUT,
        )
        if own in participants:
            # The own vote settles like a request: with the reply, or as
            # no vote (NO) if it fails or misses the same deadline, which
            # a settled vote cancels.
            own_vote = sim.event()

            def settle(vote: Optional[TxMessage] = None) -> None:
                vote_deadline.cancel()
                if not own_vote.triggered:
                    own_vote.succeed(vote)

            def own_prepare() -> Gen:
                try:
                    settle((yield from coordinator.participant._on_prepare(
                        prepare(own), coordinator.addresses[own]
                    )))
                except Exception:  # noqa: BLE001 - a failed vote is a NO
                    settle()

            sim.spawn(own_prepare(), name="local-prepare")
            vote_deadline = sim.deadline(PREPARE_VOTE_TIMEOUT, settle)
            events.append(own_vote)
        yield sim.all_settled(events)
        # Harvest votes: every vote is a reply message — an ACK is YES
        # (under piggybacking its body carries the voter's prepare-record
        # (log, counter) target), anything else, silence included, NO.
        votes = replies(events)
        vote_commit = all(
            vote is not None and vote.msg_type == MsgType.ACK
            for vote in votes
        )
        prepare_targets: List[Tuple[str, int]] = [
            target for vote in (votes if vote_commit else []) if vote.body
            for target in decode_counter_vector(vote.body)
        ]
        span.close(vote="commit" if vote_commit else "abort")
        metrics.histogram("twopc.prepare_s").observe(
            self.runtime.now - phase_start
        )
        # 6-8: log the decision, then finish it (the ``decided`` entry).
        # With piggybacking the prepare targets ride the protecting group
        # round, which rollback-protects every prepare record *and* the
        # decision entry; an abort carries no group (presumed abort).
        # ``paper`` delivers until every shard ACKs: the decision exists
        # only in this Clog.  Under decision replication a quorum of
        # slots outlives this coordinator, so two rounds are enough: a
        # participant that misses both finishes via its watchdog.
        phase_start = self.runtime.now
        span = tracer.span(
            "twopc", "decision_log", node=coordinator.node, txn=txn_hex
        )
        voted = ClogRecord.COMMIT if vote_commit else ClogRecord.ABORT
        decision_counter = yield from coordinator.log_clog(
            ClogRecord(voted, self.gid, participants, targets=prepare_targets)
        )

        def protected(kind: int):
            nonlocal phase_start
            span.close()
            metrics.histogram("twopc.decision_s").observe(
                self.runtime.now - phase_start
            )
            phase_start = self.runtime.now
            return tracer.span(
                "twopc", KIND_NAMES[kind], node=coordinator.node, txn=txn_hex
            )

        decision = yield from finish(
            coordinator, DECIDED,
            DecisionRecord(
                voted, self.gid, participants, prepare_targets,
                coordinator.clog.log_name, decision_counter, own,
            ),
            remote, self._op_id, protected,
        )
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
