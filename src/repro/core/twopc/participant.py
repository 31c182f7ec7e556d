"""The participant role: executes coordinators' operations on this
node's shard, votes in PREPARE, applies the decision exactly once, asks
the coordinator how a recovered in-doubt half ended — and, under
``protocol="optimized"``, finishes an in-doubt transaction in a dead
coordinator's stead (the completer).
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Optional, Sequence

from ...errors import NetworkError, RequestTimeout, TransactionAborted
from ...net.message import MsgType, TxMessage
from ...net.secure_rpc import SecureRpc
from ...sim.rng import SeededRng
from ...storage.format import Reader
from ...tee.runtime import NodeRuntime
from ...txn.manager import TransactionManager
from ...txn.pessimistic import PessimisticTxn
from ...txn.types import TxnStatus
from ..ids import EPOCH_SHIFT, GlobalTxnId
from ..trusted_counter import Target, encode_counter_vector
from .codec import (
    ClogRecord,
    DecisionRecord,
    decode_occ_prepare,
    decode_scan_request,
    decode_write,
    encode_scan_reply,
    encode_value_reply,
    encode_versioned_reply,
)
from .steps import (
    ANSWERED,
    KIND_NAMES,
    PREPARE_VOTE_TIMEOUT,
    QUORUM_FINAL,
    RESOLUTION_RETRY_INTERVAL,
    DecisionLedger,
    Gen,
    finish,
    pace,
    piggyback,
    replication,
    slot_held,
)

__all__ = ["Participant"]


class Participant:
    """The participant role: holds this node's half of every distributed
    transaction — this node's own coordinator's included."""

    def __init__(
        self,
        runtime: NodeRuntime,
        manager: TransactionManager,
        rpc: SecureRpc,
        numeric_id: int,
        addresses: Dict[int, str],
        pipeline,
        ledger: DecisionLedger,
    ):
        self.runtime = runtime
        self.manager = manager
        self.rpc = rpc
        self.tracer = runtime.tracer
        self.node = runtime.name or None
        self.numeric_id = numeric_id
        self.addresses = addresses
        #: every other node of the cluster, in id order.
        self.peers = sorted(node for node in addresses if node != numeric_id)
        #: the node's DurabilityPipeline: prepare records stabilize
        #: through it (``paper``), and completers rollback-protect a
        #: replicated decision's targets through it before applying.
        self.pipeline = pipeline
        #: write-once decision slots (non-blocking commit), shared with
        #: the node's Coordinator role.
        self.ledger = ledger
        #: this node's Coordinator role, which wires itself in: the
        #: decisions this role finishes are protected through it.
        self.coordinator = None
        self._ops = itertools.count(1)
        #: deterministic jitter de-synchronizing simultaneous watchdogs.
        self._rng = SeededRng(
            runtime.config.seed, runtime.name or "participant",
            "completer-watchdog",
        )
        #: this node's halves of distributed transactions, from first
        #: touch to apply — whoever coordinates them.
        self.active: Dict[bytes, PessimisticTxn] = {}
        #: final outcomes this node applied (or was instructed to
        #: apply), keyed by encoded gid.  Answers client ``_OP_STATUS``
        #: probes after a coordinator death: an *applied* outcome is
        #: final (appliers verify quorum/decision evidence first), so
        #: reporting it to a redirected client is safe.  Bounded FIFO.
        self.applied: Dict[bytes, int] = {}
        self.commits_served = 0
        #: completer takeovers this incarnation performed.
        self.takeovers = 0
        rpc.register(MsgType.TXN_READ, self._on_read)
        rpc.register(MsgType.TXN_WRITE, self._on_write)
        rpc.register(MsgType.TXN_SCAN, self._on_scan)
        rpc.register(MsgType.TXN_READ_OCC, self._on_read_occ)
        rpc.register(MsgType.TXN_SCAN_OCC, self._on_scan_occ)
        rpc.register(MsgType.TXN_PREPARE, self._on_prepare)
        rpc.register(MsgType.TXN_COMMIT, self._on_commit)
        rpc.register(MsgType.TXN_ABORT, self._on_abort)
        rpc.register(MsgType.TXN_FENCE, self._on_fence)
        rpc.register(MsgType.DECISION_RECORD, self._on_decision_record)
        rpc.register(MsgType.DECISION_QUERY, self._on_decision_query)

    # -- helpers ------------------------------------------------------------
    def _watched(self, key: bytes) -> bool:
        """Whether the half ``key`` gets this node's watchdogs (orphan
        fuse, decision watchdog): under replication, unless this node
        coordinates it — the two then share one fate, and recovery
        resolves the half."""
        return (
            replication(self.runtime)
            and GlobalTxnId.decode(key).node_id != self.numeric_id
        )

    def _open(self, key: bytes, txn: PessimisticTxn) -> None:
        """Take in a new ACTIVE half; arm its fuse if it is watched."""
        self.active[key] = txn
        if self._watched(key):
            self.runtime.sim.spawn(
                self._orphan_fuse(key),
                name="orphan-fuse@%s" % (self.node or "?"),
            )

    def half(self, key: bytes) -> PessimisticTxn:
        """This node's 2PL half of ``key``, begun on first touch."""
        txn = self.active.get(key)
        if txn is None:
            txn = self.manager.begin_pessimistic(txn_id=key)
            self._open(key, txn)
        return txn

    def drop(self, key: bytes) -> Gen:
        """Forget a half that never voted YES, rolling it back if it is
        still ACTIVE.  Silent (presumed abort): no outcome is recorded
        and no apply event emitted — that is :meth:`apply`."""
        txn = self.active.pop(key, None)
        if txn is not None:
            yield from txn.rollback()

    def op_id(self) -> int:
        """A cluster-unique operation id for a message this node sends
        about a transaction it may not coordinate (completer, recovery,
        fence).

        The replay guard dedups on ``(node, txn, op)`` where node/txn
        name the *coordinator's* transaction, but these ids are minted
        by the *asking* node.  Two recovered participants at the same
        boot epoch asking about the same transaction would otherwise
        mint identical triples, and the coordinator would drop the
        second genuine query as a replay (leaving that participant's
        prepared half, and its locks, parked forever).  Folding the
        asker's id and boot epoch into the op makes the triple unique.
        """
        return (
            (1 << 60)
            | (self.numeric_id << 50)
            | (self.runtime.epoch << 40)
            | next(self._ops)
        )

    def _message(
        self, msg_type: int, gid: GlobalTxnId, body: bytes = b""
    ) -> TxMessage:
        """A completer- or recovery-driven message about ``gid``, under
        a fresh cluster-unique operation id."""
        return TxMessage(
            msg_type, gid.node_id, gid.local_seq, self.op_id(), body
        )

    def _fence(self, key: bytes, coordinator: int, epoch: int) -> Gen:
        """Abort an ACTIVE half whose coordinator forgot it for good."""
        yield from self.drop(key)
        self.tracer.event(
            "twopc", "fence_abort", node=self.node, txn=key.hex(),
            coord=coordinator, epoch=epoch,
        )

    #: cap on remembered final outcomes (old entries evicted FIFO).
    APPLIED_CAP = 4096

    def _record_outcome(self, gid_bytes: bytes, kind: int) -> None:
        """Remember a final outcome for client ``_OP_STATUS`` probes."""
        # 1 = committed, 2 = aborted (the client status codes).
        self.applied[gid_bytes] = 1 if kind == ClogRecord.COMMIT else 2
        while len(self.applied) > self.APPLIED_CAP:
            self.applied.pop(next(iter(self.applied)))

    # -- handlers (ExecuteTxnReqHandler in Figure 2) -----------------------------
    def _execute(
        self,
        message: TxMessage,
        operation: Callable[[PessimisticTxn], Gen],
        encode: Callable[[Any], bytes],
    ) -> Gen:
        """Run one execution-phase operation on the coordinator's half
        here (created on first contact) and ACK its encoded result.  An
        operation that aborts has rolled its half back: the half is
        dropped and the reason travels back in a FAIL.  So does a request
        for a transaction whose outcome this node already applied — one
        held back past its deadline must not open a half nobody ends."""
        key = GlobalTxnId(message.node_id, message.txn_id).encode()
        if key in self.applied:
            return message.reply(MsgType.FAIL, b"transaction already ended")
        try:
            result = yield from operation(self.half(key))
        except TransactionAborted as aborted:
            self.active.pop(key, None)
            return message.reply(MsgType.FAIL, str(aborted).encode())
        return message.reply(MsgType.ACK, encode(result))

    def _on_read(self, message: TxMessage, src: str) -> Gen:
        key = Reader(message.body).blob()
        return self._execute(
            message, lambda txn: txn.get(key), encode_value_reply
        )

    def _on_scan(self, message: TxMessage, src: str) -> Gen:
        start, end, limit = decode_scan_request(message.body)
        return self._execute(
            message, lambda txn: txn.scan(start, end, limit), encode_scan_reply
        )

    def _on_read_occ(self, message: TxMessage, src: str) -> Gen:
        """Stateless versioned read (distributed-OCC execution phase).

        No participant-local transaction, no lock, no ``active`` entry:
        the reply carries the key's current sequence number and the
        coordinator validates it later inside PREPARE.
        """
        key = Reader(message.body).blob()
        value, seq = yield from self.manager.engine.get_with_seq(key)
        return message.reply(MsgType.ACK, encode_versioned_reply(value, seq))

    def _on_scan_occ(self, message: TxMessage, src: str) -> Gen:
        """Stateless read-committed range scan (distributed OCC)."""
        start, end, limit = decode_scan_request(message.body)
        yield from self.runtime.op_overhead()
        rows = yield from self.manager.engine.scan(start, end, limit=limit)
        return message.reply(MsgType.ACK, encode_scan_reply(rows))

    def _on_write(self, message: TxMessage, src: str) -> Gen:
        key, value = decode_write(message.body)
        return self._execute(
            message,
            lambda txn: txn.delete(key) if value is None else txn.put(key, value),
            lambda _none: b"",
        )

    def _on_prepare(self, message: TxMessage, src: str) -> Gen:
        """Vote on this node's half: ACK is YES and waits for (or
        carries the target of) the prepare record's rollback protection;
        any other reply is NO (a half that failed to prepare is gone).
        Every vote is cast here — remote coordinators reach it over the
        sealed wire, this node's own calls it directly."""
        gid = GlobalTxnId(message.node_id, message.txn_id)
        key = gid.encode()
        if message.body:
            # Distributed OCC: the PREPARE carries this participant's
            # read-set versions and write-set.  The local half is
            # created here — execution was lock-free at the coordinator
            # — and validation runs inside this prepare critical
            # section, riding the piggybacked round below.
            txn = yield from self._validate_occ(key, message.body)
            if txn is None:
                return message.reply(MsgType.FAIL, b"validation conflict")
        else:
            txn = self.active.get(key)
            if txn is None or txn.status != TxnStatus.ACTIVE:
                return message.reply(MsgType.FAIL, b"no active local txn")
        try:
            counter, log_name = yield from txn.prepare()
        except TransactionAborted as aborted:
            self.active.pop(key, None)
            return message.reply(MsgType.FAIL, str(aborted).encode())
        if self._watched(key):
            # A prepared half is now in doubt: if the decision never
            # arrives (dead coordinator), this node assumes the
            # completer role after the decision timeout.
            self.runtime.sim.spawn(
                self._decision_watchdog(key),
                name="decision-watch@%s" % (self.node or "?"),
            )
        # §V-A: "Participants delay replying back to the coordinator
        # until the prepare entry in the log is stabilized."  With
        # piggybacking the duty moves to the coordinator: the record's
        # target rides the vote into one group-wide round covering every
        # prepare record and the decision entry — still stable before
        # anyone acts on the decision, just via a shared round.
        body = b""
        if piggyback(self.runtime):
            body = encode_counter_vector([(log_name, counter)])
        else:
            yield from self.pipeline.stabilize(log_name, counter)
        self.tracer.event(
            "twopc", "prepare_target" if body else "prepare_ack",
            node=self.node, txn=key.hex(), log=log_name, counter=counter,
            coord=gid.node_id,
        )
        return message.reply(MsgType.ACK, body)

    def _validate_occ(self, key: bytes, body: bytes) -> Gen:
        """Create, validate + pin the OCC half from its PREPARE body,
        inside the prepare critical section.

        Returns the pinned-and-validated transaction, or ``None`` when
        validation conflicts (the caller NACKs; presumed abort cleans
        up — the conflicting half has already rolled itself back).
        """
        if key in self.active:
            # Duplicate PREPARE (retry after a partial round): the half
            # already exists, pins and all; just hand it back.
            txn = self.active[key]
            return txn if txn.status == TxnStatus.ACTIVE else None
        reads, writes = decode_occ_prepare(body)
        txn = self.manager.begin_distributed_occ(txn_id=key)
        txn.load(reads, writes)
        self._open(key, txn)
        span = self.tracer.span(
            "twopc", "validate", node=self.node, txn=key.hex(),
            reads=len(txn.reads), writes=len(txn.buffer),
        )
        try:
            yield from txn.validate_and_pin()
        except TransactionAborted:
            span.close(outcome="conflict")
            self.runtime.metrics.counter("occ.conflicts").inc()
            self.active.pop(key, None)
            return None
        span.close(outcome="ok")
        self.runtime.metrics.counter("occ.validated").inc()
        return txn

    def commit_one_phase(self, key: bytes, occ_body: bytes = b"") -> Gen:
        """§V-B: commit a transaction whose only participant is this
        node — no Clog, no vote, no 2PC round.  Under OCC the half is
        first built and validated from the node's own PREPARE body; a
        conflict raises TransactionAborted.  Returns the commit
        record's WAL counter."""
        if occ_body and (yield from self._validate_occ(key, occ_body)) is None:
            raise TransactionAborted("validation conflict")
        counter = yield from self.active.pop(key).commit()
        return counter

    def apply(self, gid_bytes: bytes, kind: int) -> Gen:
        """Apply a final outcome to this node's half — exactly once.

        The coordinator (an instruction, or a direct call on its own
        node), a duplicate instruction, a completer and recovery's
        resolution may all race here; whoever pops the ``active`` entry
        applies, everyone else is told the half was gone (``None``) —
        applied already, or it voted NO and rolled itself back.  The
        caller has protected the decision; the monitor checks that at
        the ``commit_apply`` event emitted here.  Nobody waits for the
        *commit* record's stabilization (§V-A): under ``paper`` it runs
        in a background fiber, under piggybacking its target is returned
        instead, to join a group-wide round (empty otherwise).
        """
        self._record_outcome(gid_bytes, kind)
        txn = self.active.pop(gid_bytes, None)
        if txn is None:
            # Nothing to finish (e.g. duplicate instruction after the
            # coordinator recovered): "this message is ignored" (§VI).
            return None
        targets: List[Target] = []
        if kind == ClogRecord.COMMIT:
            if piggyback(self.runtime):
                counter, log_name = yield from txn.commit_prepared(
                    defer_stabilization=True
                )
                targets.append((log_name, counter))
            else:
                yield from txn.commit_prepared()
            self.commits_served += 1
        elif txn.status == TxnStatus.PREPARED:
            yield from txn.abort_prepared()
        else:
            yield from txn.rollback()
        self.tracer.event(
            "twopc",
            "commit_apply" if kind == ClogRecord.COMMIT else "abort_apply",
            node=self.node, txn=gid_bytes.hex(),
        )
        return targets

    def _instructed(self, kind: int, message: TxMessage) -> Gen:
        """TXN_COMMIT / TXN_ABORT: apply; the ACK carries the targets."""
        gid = GlobalTxnId(message.node_id, message.txn_id)
        if replication(self.runtime):
            # A direct instruction is decision evidence too: the sender
            # (coordinator, its recovery, or a completer) already made
            # the decision durable before driving it.  The slot makes
            # this node's answer to later DECISION_QUERYs authoritative.
            self.ledger.record(
                gid.encode(),
                DecisionRecord(kind, gid, [], [], "", 0, message.node_id),
            )
        targets = yield from self.apply(gid.encode(), kind)
        return message.reply(
            MsgType.ACK, encode_counter_vector(targets) if targets else b""
        )

    def _on_commit(self, message: TxMessage, src: str) -> Gen:
        return self._instructed(ClogRecord.COMMIT, message)

    def _on_abort(self, message: TxMessage, src: str) -> Gen:
        return self._instructed(ClogRecord.ABORT, message)

    def _on_fence(self, message: TxMessage, src: str) -> Gen:
        """A recovered coordinator fences its pre-crash boot epoch.

        Local halves of that coordinator's transactions that never
        reached PREPARE died with its volatile state: no log anywhere
        records them, so nobody will ever resolve them and their locks
        would be held forever.  The fence (``txn_id`` carries the new
        boot epoch, which also occupies the high bits of every txn id)
        aborts exactly those orphans.  PREPARED halves survive — they
        are resolved through the coordinator's Clog replay.
        """
        yield from self.runtime.op_overhead()
        epoch = message.txn_id
        orphans = [
            key for key, txn in self.active.items()
            if txn.status == TxnStatus.ACTIVE
            and GlobalTxnId.decode(key).node_id == message.node_id
            and GlobalTxnId.decode(key).local_seq >> EPOCH_SHIFT < epoch
        ]
        for key in orphans:
            yield from self._fence(key, message.node_id, epoch)
        return message.reply(MsgType.ACK)

    # -- non-blocking completion (decision replication) ----------------------
    def _on_decision_record(self, message: TxMessage, src: str) -> Gen:
        """Store a replicated decision into this node's write-once slot.

        ACK means "my slot now holds (or already held) a decision of
        this kind"; a FAIL reply carries the conflicting record the slot
        holds instead, so the sender learns why its write was rejected.
        """
        yield from self.runtime.op_overhead()
        record = DecisionRecord.decode(message.body)
        gid_bytes = record.gid.encode()
        stored = self.ledger.record(gid_bytes, record)
        if stored is record:
            self.runtime.metrics.counter("decision.replicated").inc()
            self.tracer.event(
                "twopc", "decision_replicated", node=self.node,
                txn=gid_bytes.hex(),
                kind=KIND_NAMES[record.kind], coord=record.coordinator,
            )
        if stored.kind != record.kind:
            return message.reply(MsgType.FAIL, stored.encode())
        return message.reply(MsgType.ACK)

    def _on_decision_query(self, message: TxMessage, src: str) -> Gen:
        """Answer a timed-out peer: the decision slot we hold, if any."""
        yield from self.runtime.op_overhead()
        gid_bytes = GlobalTxnId(message.node_id, message.txn_id).encode()
        record = self.ledger.get(gid_bytes)
        return message.reply(
            MsgType.ACK, record.encode() if record is not None else b""
        )

    # -- completer watchdogs -------------------------------------------------
    def _decision_watchdog(self, gid_bytes: bytes) -> Gen:
        """Armed per prepared half: take over if no decision arrives."""
        config = self.runtime.config
        yield self.runtime.sim.sleep(
            config.decision_timeout_s
            + self._rng.uniform(0.0, RESOLUTION_RETRY_INTERVAL)
        )
        txn = self.active.get(gid_bytes)
        if txn is None or txn.status != TxnStatus.PREPARED:
            return  # decided (or aborted locally) in time
        yield from self.complete(gid_bytes)

    def _orphan_fuse(self, gid_bytes: bytes) -> Gen:
        """Release ACTIVE halves of a coordinator that died mid-execution
        and is never restarted (so its recovery epoch fence never comes).

        Presumed abort makes this safe: an ACTIVE half never voted YES,
        so the group's decision — if one exists at all — can only be
        abort.  A coordinator that answers the probe, or stays silent
        past its deadline (the probe or answer may be lost), re-arms the
        fuse instead: aborting a live coordinator's half here would let
        a later operation silently recreate a partial one.
        """
        gid = GlobalTxnId.decode(gid_bytes)
        sim = self.runtime.sim
        fuse = PREPARE_VOTE_TIMEOUT + self.runtime.config.decision_timeout_s
        while True:
            yield sim.sleep(
                fuse + self._rng.uniform(0.0, RESOLUTION_RETRY_INTERVAL)
            )
            txn = self.active.get(gid_bytes)
            if txn is None or txn.status != TxnStatus.ACTIVE:
                return
            try:
                yield from self.rpc.call(
                    self.addresses[gid.node_id],
                    self._message(MsgType.TXN_RESOLVE, gid),
                    timeout=RESOLUTION_RETRY_INTERVAL,
                )
            except RequestTimeout:
                continue  # silence: the probe or its answer was lost
            except NetworkError:
                break  # coordinator crashed: fence the orphan
        txn = self.active.get(gid_bytes)
        if txn is None or txn.status != TxnStatus.ACTIVE:
            return
        yield from self._fence(gid_bytes, gid.node_id, 0)

    # -- a recovered half of another node's transaction ---------------------
    def resolve(self, gid_bytes: bytes) -> Gen:
        """Ask the coordinator how a half that recovered prepared ended,
        then finish it (the ``answered`` entry).

        The coordinator may be down, or the question or its answer lost.
        Without decision replication its answer is the only safe way to
        decide, so ask until it comes; with replication a quorum of peers
        holds the decision, so once the decision timeout elapses take
        over as the completer instead of blocking on a dead coordinator.
        """
        sim = self.runtime.sim
        gid = GlobalTxnId.decode(gid_bytes)
        deadline = sim.now + self.runtime.config.decision_timeout_s
        while True:
            round_start = sim.now
            (reply,) = yield from self._ask(
                MsgType.TXN_RESOLVE, gid, [gid.node_id]
            )
            if reply is not None:
                break
            if replication(self.runtime) and sim.now >= deadline:
                yield from self.complete(gid_bytes)
                return
            yield from pace(sim, round_start)
        kind = (
            ClogRecord.COMMIT if reply.body == b"commit"
            else ClogRecord.ABORT
        )
        yield from finish(
            self.coordinator, ANSWERED,
            DecisionRecord(kind, gid, [], [], "", 0, gid.node_id),
            [], self.op_id,
        )

    # -- the completer state machine -----------------------------------------
    def complete(self, gid_bytes: bytes) -> Gen:
        """Assume the completer role for an in-doubt prepared half.

        Tally the cluster's decision slots each round: once COMMIT holds
        a majority of slots the decision is final and this node finishes
        it (rollback-protects the whole group, drives the rest of the
        group, applies its own half); once enough conflicting slots make
        commit unreachable, abort is final (presumed abort: a commit that
        never reached its quorum was never acknowledged to any client).  With
        neither final, spread the best record we saw — or propose abort —
        into every reachable empty slot and retally after a jittered
        backoff.  Races between completers (and a recovering
        coordinator's redrive) resolve idempotently: slots are
        write-once, instructions carry asker-folded operation ids, and
        the ``active``-entry pop applies each outcome exactly once.
        """
        if gid_bytes not in self.active:
            return
        sim = self.runtime.sim
        ledger = self.ledger
        gid = GlobalTxnId.decode(gid_bytes)
        self.takeovers += 1
        self.runtime.metrics.counter("completer.takeover").inc()
        self.tracer.event(
            "twopc", "completer_takeover", node=self.node,
            txn=gid_bytes.hex(), coord=gid.node_id,
        )
        span = self.tracer.span(
            "twopc", "complete", node=self.node, txn=gid_bytes.hex(),
        )
        outcome = "pending"
        try:
            while gid_bytes in self.active:
                kinds, commit_record = yield from self._decision_round(
                    gid_bytes, gid
                )
                final = ledger.final(kinds)
                if final is None:
                    proposal = commit_record
                    if proposal is None:
                        proposal = DecisionRecord(
                            ClogRecord.ABORT, gid, [], [], "", 0,
                            self.numeric_id,
                        )
                    stored = ledger.record(gid_bytes, proposal)
                    kinds[self.numeric_id] = stored.kind
                    empty = [
                        node for node, kind in kinds.items()
                        if kind is None and node != self.numeric_id
                    ]
                    held = yield from self._spread(gid, stored, empty)
                    for node, slot in held.items():
                        # A FAIL may carry a COMMIT that beat the spread.
                        kinds[node] = slot.kind
                        if slot.kind == ClogRecord.COMMIT:
                            commit_record = commit_record or slot
                    final = ledger.final(kinds)
                if final is not None:
                    # The ``quorum-final`` entry: protect a COMMIT with
                    # the group round the coordinator would have run,
                    # tell the group the record names (one round: every
                    # prepared peer runs its own watchdog anyway), then
                    # apply here.
                    outcome = KIND_NAMES[final]
                    record = commit_record
                    if final != ClogRecord.COMMIT:
                        held = ledger.get(gid_bytes)
                        record = DecisionRecord(
                            final, gid, held.participants if held else [],
                            [], "", 0, self.numeric_id,
                        )
                    yield from finish(
                        self.coordinator, QUORUM_FINAL, record,
                        [node for node in record.participants
                         if node != self.numeric_id],
                        self.op_id,
                    )
                    return
                yield sim.sleep(
                    RESOLUTION_RETRY_INTERVAL
                    + self._rng.uniform(0.0, RESOLUTION_RETRY_INTERVAL)
                )
        finally:
            span.close(outcome=outcome)

    def _ask(
        self, msg_type: int, gid: GlobalTxnId, nodes: List[int],
        body: bytes = b"",
    ) -> Gen:
        """One bounded round of ``msg_type`` about ``gid``: the replies
        in ``nodes`` order, ``None`` for a peer that stayed silent."""
        return self.rpc.gather(
            [
                (self.addresses[node], self._message(msg_type, gid, body))
                for node in nodes
            ],
            timeout=RESOLUTION_RETRY_INTERVAL,
        )

    def _decision_round(self, gid_bytes: bytes, gid: GlobalTxnId) -> Gen:
        """One tally round: read every reachable peer's decision slot.

        Returns ``(kinds, commit_record)`` where ``kinds`` maps node id
        -> slot kind (``None`` = reachable but empty; unreachable peers
        are absent) and ``commit_record`` is a full COMMIT record if any
        slot supplied one.
        """
        replies = yield from self._ask(
            MsgType.DECISION_QUERY, gid, self.peers
        )
        kinds: Dict[int, Optional[int]] = {}
        commit_record: Optional[DecisionRecord] = None
        own = self.ledger.get(gid_bytes)
        if own is not None:
            kinds[self.numeric_id] = own.kind
            if own.kind == ClogRecord.COMMIT:
                commit_record = own
        for node, reply in zip(self.peers, replies):
            if reply is None or reply.msg_type != MsgType.ACK:
                continue
            if not reply.body:
                kinds[node] = None
                continue
            record = DecisionRecord.decode(reply.body)
            kinds[node] = record.kind
            if record.kind == ClogRecord.COMMIT and (
                commit_record is None or not commit_record.targets
            ):
                commit_record = record
        return kinds, commit_record

    def learn_decisions(self, keys: Sequence[bytes]) -> Gen:
        """Warm a recovering node's ledger in one bounded, vectored round.

        A recovered half whose coordinator stays unreachable falls back
        to :meth:`complete`, which opens with a :meth:`_decision_round`.
        This front-loads those rounds: one DECISION_QUERY per (peer,
        in-doubt transaction), enqueued in one instant so the doorbell
        window seals them into one frame per peer; every answered record
        lands in the write-once ledger.
        """
        asked = [(key, node) for key in keys for node in self.peers]
        replies = yield from self.rpc.gather(
            [
                (
                    self.addresses[node],
                    self._message(
                        MsgType.DECISION_QUERY, GlobalTxnId.decode(key)
                    ),
                )
                for key, node in asked
            ],
            timeout=RESOLUTION_RETRY_INTERVAL,
        )
        for (key, _node), reply in zip(asked, replies):
            if reply is not None and reply.body:
                self.ledger.record(key, DecisionRecord.decode(reply.body))

    def _spread(
        self, gid: GlobalTxnId, record: DecisionRecord, nodes: List[int]
    ) -> Gen:
        """Write ``record`` into peers' empty slots, in one bounded round;
        returns node -> the record its slot holds, for each peer that
        answered (:func:`~.steps.slot_held`)."""
        replies = yield from self._ask(
            MsgType.DECISION_RECORD, gid, nodes, record.encode()
        )
        held = {}
        for node, reply in zip(nodes, replies):
            slot = slot_held(reply, record)
            if slot is not None:
                held[node] = slot
        return held
