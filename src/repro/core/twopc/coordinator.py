"""The coordinator role: owns the Clog, makes a logged decision safe to
act on (stabilized under ``protocol="paper"``, replicated to a quorum of
decision slots under ``"optimized"``), re-runs the decisions its Clog
left open after a crash and tells recovering participants how a
transaction ended.  The transactions it begins are
:class:`~.txn.GlobalTxn` handles.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from ...net.message import MsgType, TxMessage
from ...net.secure_rpc import SecureRpc, replies
from ...storage.log import SecureLog
from ...tee.runtime import NodeRuntime
from ...txn.manager import TransactionManager
from ..ids import GlobalTxnId, TxnIdAllocator
from ..trusted_counter import Target
from .codec import ClogRecord, DecisionRecord
from .participant import Participant
from .steps import (
    KIND_NAMES,
    REPLAYED,
    RESOLUTION_RETRY_INTERVAL,
    DecisionLedger,
    Gen,
    finish,
    pace,
    piggyback,
    replication,
    slot_held,
)
from .txn import GlobalTxn

__all__ = ["Coordinator"]

# key -> numeric node id owning its shard
Partitioner = Callable[[bytes], int]


class Coordinator:
    """The coordinator role: drives global transactions over secure 2PC."""

    def __init__(
        self,
        runtime: NodeRuntime,
        manager: TransactionManager,
        rpc: SecureRpc,
        clog: SecureLog,
        node_numeric_id: int,
        addresses: Dict[int, str],
        partitioner: Partitioner,
        pipeline,
        ledger: DecisionLedger,
        participant: Participant,
        epoch: int = 0,
    ):
        self.runtime = runtime
        self.manager = manager
        self.rpc = rpc
        self.clog = clog
        self.node_numeric_id = node_numeric_id
        self.addresses = addresses  # numeric node id -> cluster address
        self.partitioner = partitioner
        #: every other node of the cluster, in id order.
        self.peers = sorted(
            node for node in addresses if node != node_numeric_id
        )
        #: the node's DurabilityPipeline (group-wide stabilization rounds).
        self.pipeline = pipeline
        #: this node's write-once decision slots (shared with its
        #: Participant role, which replicates decisions into them).
        self.ledger = ledger
        #: this node's Participant role: the coordinator's own shard's
        #: half lives, votes and applies there, reached by direct call.
        #: The participant finishes decisions through this role too.
        self.participant = participant
        participant.coordinator = self
        self.tracer = runtime.tracer
        self.node = runtime.name or None
        self.allocator = TxnIdAllocator(node_numeric_id, epoch)
        #: decisions recorded in the Clog:
        #: gid -> (kind, clog counter, piggybacked targets).
        self.decisions: Dict[bytes, Tuple[int, int, Tuple[Tuple[str, int], ...]]] = {}
        self.distributed_commits = 0
        self.local_commits = 0
        self.aborts = 0
        rpc.register(MsgType.TXN_RESOLVE, self._on_resolve)

    def begin(self, optimistic: bool = False) -> GlobalTxn:
        """BEGINTXN: create a global transaction handle.

        ``optimistic`` selects distributed OCC: lock-free execution with
        validation inside each participant's PREPARE critical section.
        """
        return GlobalTxn(self, self.allocator.next(), optimistic=optimistic)

    # -- Clog ---------------------------------------------------------------------
    def _replicate_decision(
        self, record: DecisionRecord, txn_hex: str, phase: str = "decision"
    ) -> Gen:
        """Make the decision durable on a quorum before the client reply.

        The DECISION_RECORD broadcast is enqueued in the same instant
        the group stabilization round's first frames go out, so the
        transport's doorbell window seals both into one frame per peer —
        the decision rides the piggybacked round instead of costing its
        own.  The quorum wait then overlaps the counter round.

        The slots are counted in one map, holder -> kind, and
        :meth:`DecisionLedger.final` decides: the coordinator's own slot
        (backed by the durable Clog entry) and each peer's as its reply
        says (:func:`~.steps.slot_held`).  After every retry interval the
        record is re-sent to each peer that has not answered — a failed
        send, or a record or reply the network lost.

        Returns True once the decision is final.  For a COMMIT record,
        False means completer abort slots made ABORT final — the caller
        must supersede with an abort, which is safe because a commit
        that cannot reach quorum was never (and will never be)
        acknowledged to the client.
        """
        sim = self.runtime.sim
        ledger = self.ledger
        stored = ledger.record(record.gid.encode(), record)
        if record.kind == ClogRecord.COMMIT and stored.kind != record.kind:
            # A completer abort proposal already occupies this node's
            # own slot (a peer's watchdog fired while we were still
            # deciding, or a local completer raced this redrive), and
            # the abort side may already be one slot from finality.
            # Give up immediately: the client was never acknowledged, so
            # the superseding abort the caller logs is safe.
            return False
        body = record.encode()

        def send(nodes):
            return nodes, self.rpc.broadcast([
                (self.addresses[node], self.participant._message(
                    MsgType.DECISION_RECORD, record.gid, body
                ))
                for node in nodes
            ], timeout=RESOLUTION_RETRY_INTERVAL)

        # The broadcast is enqueued *before* the counter round's first
        # frames, so the transport's doorbell window coalesces the
        # DECISION_RECORD and the round's COUNTER frames to each peer
        # into the same sealed frames: replicating the decision adds no
        # frames on an idle window.
        sent, events = send(self.peers)
        yield from self.pipeline.stabilize_group(
            record.targets + [(self.clog.log_name, record.counter)],
            txn=txn_hex, phase=phase,
        )
        if record.kind != ClogRecord.COMMIT:
            # Presumed abort: no quorum needed before answering the
            # client — a peer that misses the record learns the abort
            # from its own watchdog round.  The acks settle unwatched.
            return True
        kinds = {self.node_numeric_id: record.kind}
        needed = ledger.commit_quorum - 1
        acks = 0
        span = self.tracer.span(
            "twopc", "decision_wait", node=self.node, txn=txn_hex,
            needed=needed,
        )
        final = ledger.final(kinds)
        try:
            while final is None:
                round_start = self.runtime.now
                yield sim.all_settled(events)
                for node, reply in zip(sent, replies(events)):
                    held = slot_held(reply, record)
                    if held is None:
                        continue
                    kinds[node] = held.kind
                    if held.kind == record.kind:
                        acks += 1
                        self.tracer.event(
                            "twopc", "decision-quorum", node=self.node,
                            txn=txn_hex, peer=node, acks=acks,
                            needed=needed,
                        )
                final = ledger.final(kinds)
                if final is None:
                    yield from pace(sim, round_start)
                    sent, events = send([
                        node for node in self.peers if node not in kinds
                    ])
        finally:
            span.close(acks=acks, conflicts=len(kinds) - 1 - acks)
        if final != ClogRecord.COMMIT:
            return False
        self.runtime.metrics.counter("decision.replicated").inc()
        return True

    def log_clog(self, record: ClogRecord) -> Gen:
        counter = yield from self.clog.append(record.encode())
        if record.kind in (ClogRecord.COMMIT, ClogRecord.ABORT):
            self.decisions[record.gid.encode()] = (
                record.kind, counter, tuple(record.targets)
            )
            self.tracer.event(
                "twopc", "decision", node=self.node,
                txn=record.gid.encode().hex(),
                kind=KIND_NAMES[record.kind],
                log=self.clog.log_name, counter=counter,
            )
        return counter

    def _stabilize_entry(
        self, counter: int, targets, txn_hex: str, phase: str
    ) -> Gen:
        """Rollback-protect one entry of this Clog — under piggybacking
        together with ``targets``, in one group-wide round."""
        if piggyback(self.runtime):
            yield from self.pipeline.stabilize_group(
                list(targets) + [(self.clog.log_name, counter)],
                txn=txn_hex, phase=phase,
            )
        else:
            yield from self.pipeline.stabilize(self.clog.log_name, counter)

    def protect(self, record: DecisionRecord, phase: str) -> Gen:
        """Make a logged decision safe to act on (Figure 2, steps 6–7).

        ``paper``: stabilize the decision's Clog entry.  ``optimized``:
        replicate the decision record to the whole cluster, riding the
        group round that rollback-protects the entry and the piggybacked
        prepare targets, and for a COMMIT wait for a quorum of slot
        acknowledgements — any participant can then finish the
        transaction without this coordinator.  If completer abort slots
        beat the replication, the commit can never reach its quorum, so
        no client was (or ever will be) acknowledged: a superseding
        ABORT is logged.

        Returns the kind that is final — the one to deliver and apply.
        """
        if not replication(self.runtime):
            yield from self.pipeline.stabilize(
                self.clog.log_name, record.counter
            )
            return record.kind
        replicated = yield from self._replicate_decision(
            record, record.gid.encode().hex(), phase
        )
        if replicated:
            return record.kind
        kind = yield from self.supersede(record.gid, record.participants)
        return kind

    def supersede(self, gid: GlobalTxnId, participants: List[int]) -> Gen:
        """Log ABORT for ``gid``; its stabilization runs in the background
        (presumed abort: nobody waits on an abort being protected)."""
        counter = yield from self.log_clog(
            ClogRecord(ClogRecord.ABORT, gid, participants)
        )
        self.pipeline.background(self.clog.log_name, counter)
        return ClogRecord.ABORT

    def log_complete(
        self, record: DecisionRecord, targets: List[Target], phase: str
    ) -> Gen:
        """Record that every participant was told: log COMPLETE, and
        under piggybacking stabilize it with the apply-side ``targets``
        in one more group-wide round."""
        counter = yield from self.log_clog(
            ClogRecord(ClogRecord.COMPLETE, record.gid, record.participants)
        )
        yield from self._stabilize_entry(
            counter, targets, record.gid.encode().hex(), phase
        )

    # -- recovery ------------------------------------------------------------------
    def replay(self, record: ClogRecord, complete: bool) -> Gen:
        """The ``replayed`` entry: finish what the replayed Clog says of
        one of this node's transactions.

        Undecided: presumed abort.  A COMMIT is protected again: its
        entry or piggybacked targets may be unstable, and under
        ``optimized`` a completer abort quorum may have superseded it.
        Aborts log no COMPLETE, so each recovery re-broadcasts them.  The
        group is told in one round (§VI: duplicates are ignored) — not
        at all once COMPLETE is recorded, when only the own half may be
        left, back prepared because its commit record was unstable.
        """
        _kind, counter, targets = self.decisions.get(
            record.gid.encode(), (record.kind, 0, ())
        )
        yield from finish(
            self, REPLAYED,
            DecisionRecord(
                record.kind, record.gid, record.participants, list(targets),
                self.clog.log_name, counter, self.node_numeric_id,
            ),
            [] if complete else [
                node for node in record.participants
                if node != self.node_numeric_id
            ],
            self.participant.op_id,
        )

    def _on_resolve(self, message: TxMessage, src: str) -> Gen:
        """A recovering participant asks how ``gid`` was decided; answer
        once that is safe to act on.

        Presumed abort: with no logged commit decision the transaction
        cannot have been acknowledged, so ABORT is always safe.  A
        COMMIT entry may sit in the unstable Clog suffix (coordinator
        crashed between logging and stabilizing it), and nobody may
        commit on an unprotected decision.  Only the decision's own
        entry matters — waiting on later records (e.g. a COMPLETE
        mid-stabilization) would hold the asker's locks past unrelated
        work.  Piggybacked prepare targets the crashed coordinator
        collected but may never have stabilized ride the same round: a
        recovered prepare record must be rollback-protected before its
        half commits on this answer.
        """
        yield from self.runtime.op_overhead()
        gid_bytes = GlobalTxnId(message.node_id, message.txn_id).encode()
        kind, counter, targets = self.decisions.get(
            gid_bytes, (ClogRecord.ABORT, 0, ())
        )
        if kind == ClogRecord.COMMIT:
            yield from self._stabilize_entry(
                counter, targets, gid_bytes.hex(), "resolve"
            )
        return message.reply(
            MsgType.TXN_RESOLVE_REPLY, KIND_NAMES[kind].encode()
        )
