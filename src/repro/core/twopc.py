"""Treaty's secure two-phase commit protocol (§V, Figure 2).

A client-selected *coordinator* drives each distributed transaction:

1. interactive execution — ``TXNGET``/``TXNPUT`` requests are routed to
   the participant owning the key's shard (or served locally), each as a
   sealed :class:`~repro.net.message.TxMessage` carrying the unique
   ``(node, txn, op)`` triple so it can never be double-executed;
2. prepare — the coordinator logs the transaction to its Clog, then all
   participants persist prepare records and *delay their ACK until the
   prepare entry is stabilized* (rollback-protected);
3. decision — the coordinator logs the commit/abort decision to the Clog
   and stabilizes it before instructing participants;
4. commit — participants apply through group commit; nobody waits for
   the *commit* record's stabilization ("even if the system crashes,
   this Tx can be committed in the exact same order").

Transactions touching only the coordinator's shard take the single-node
fast path (§V-B) — no Clog, no 2PC rounds.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Generator, List, Optional, Set, Tuple

from ..errors import (
    NetworkError,
    TransactionAborted,
    TransactionError,
)
from ..net.message import MsgType, TxMessage
from ..net.secure_rpc import SecureRpc
from ..sim.core import Event
from ..sim.rng import SeededRng
from ..storage.format import Reader, Writer
from ..storage.log import SecureLog
from ..tee.runtime import NodeRuntime
from ..txn.manager import TransactionManager
from ..txn.pessimistic import PessimisticTxn
from ..txn.types import TxnStatus
from .ids import EPOCH_SHIFT, GlobalTxnId, TxnIdAllocator
from .rollback import DecisionLedger
from .trusted_counter import (
    Target,
    decode_counter_vector,
    encode_counter_vector,
)

__all__ = [
    "ClogRecord",
    "DecisionRecord",
    "Participant",
    "Coordinator",
    "GlobalTxn",
    "piggyback",
    "protect_prepare",
    "pace",
    "deliver",
    "apply_half",
]

Gen = Generator[Event, Any, Any]

#: a participant that has not voted within this window counts as NO.
PREPARE_VOTE_TIMEOUT = 2.0
#: decision (commit/abort) instructions are retried at this interval
#: until every participant acknowledges.
RESOLUTION_RETRY_INTERVAL = 0.5

# key -> numeric node id owning its shard
Partitioner = Callable[[bytes], int]


def _encode_read(key: bytes) -> bytes:
    return Writer().blob(key).getvalue()


def _encode_write(key: bytes, value: Optional[bytes]) -> bytes:
    return (
        Writer().blob(key).u32(1 if value is None else 0).blob(value or b"").getvalue()
    )


def _decode_write(body: bytes) -> Tuple[bytes, Optional[bytes]]:
    reader = Reader(body)
    key = reader.blob()
    tombstone = reader.u32()
    value = reader.blob()
    return key, None if tombstone else value


def _encode_value_reply(found: bool, value: Optional[bytes]) -> bytes:
    return Writer().u32(1 if found else 0).blob(value or b"").getvalue()


def encode_scan_request(start: bytes, end: Optional[bytes], limit: Optional[int]) -> bytes:
    return (
        Writer()
        .blob(start)
        .u32(1 if end is not None else 0)
        .blob(end or b"")
        .u32(0xFFFFFFFF if limit is None else limit)
        .getvalue()
    )


def decode_scan_request(body: bytes):
    reader = Reader(body)
    start = reader.blob()
    has_end = reader.u32()
    end = reader.blob()
    limit = reader.u32()
    return start, (end if has_end else None), (None if limit == 0xFFFFFFFF else limit)


def encode_scan_reply(rows) -> bytes:
    writer = Writer().u32(len(rows))
    for key, value in rows:
        writer.blob(key).blob(value)
    return writer.getvalue()


def decode_scan_reply(body: bytes):
    reader = Reader(body)
    count = reader.u32()
    rows = []
    for _ in range(count):
        key = reader.blob()
        value = reader.blob()
        rows.append((key, value))
    return rows


def _decode_value_reply(body: bytes) -> Optional[bytes]:
    reader = Reader(body)
    found = reader.u32()
    value = reader.blob()
    return value if found else None


# -- distributed OCC codecs ---------------------------------------------------

def _encode_versioned_reply(
    found: bool, value: Optional[bytes], seq: int
) -> bytes:
    return (
        Writer().u32(1 if found else 0).blob(value or b"").u64(seq).getvalue()
    )


def _decode_versioned_reply(body: bytes) -> Tuple[Optional[bytes], int]:
    reader = Reader(body)
    found = reader.u32()
    value = reader.blob()
    seq = reader.u64()
    return (value if found else None), seq


def encode_occ_prepare(
    reads: List[Tuple[bytes, int]],
    writes: List[Tuple[bytes, Optional[bytes]]],
) -> bytes:
    """PREPARE body: the participant's read-set versions + write-set."""
    writer = Writer().u32(len(reads))
    for key, seq in reads:
        writer.blob(key).u64(seq)
    writer.u32(len(writes))
    for key, value in writes:
        writer.blob(key).u32(1 if value is None else 0).blob(value or b"")
    return writer.getvalue()


def decode_occ_prepare(body: bytes):
    reader = Reader(body)
    reads = [(reader.blob(), reader.u64()) for _ in range(reader.u32())]
    writes = []
    for _ in range(reader.u32()):
        key = reader.blob()
        tombstone = reader.u32()
        value = reader.blob()
        writes.append((key, None if tombstone else value))
    return reads, writes


def validate_occ(runtime: NodeRuntime, txn) -> Gen:
    """Validate + pin one node's distributed-OCC half, inside its
    prepare critical section; False on conflict (the half has rolled
    itself back)."""
    span = runtime.tracer.span(
        "twopc", "validate", node=runtime.name or None,
        txn=txn.txn_id.hex(), reads=len(txn.reads), writes=len(txn.buffer),
    )
    try:
        yield from txn.validate_and_pin()
    except TransactionAborted:
        span.close(outcome="conflict")
        runtime.metrics.counter("occ.conflicts").inc()
        return False
    span.close(outcome="ok")
    runtime.metrics.counter("occ.validated").inc()
    return True


class ClogRecord:
    """One coordinator-log entry: the 2PC protocol state (§V-A)."""

    PREPARE = 1
    COMMIT = 2
    ABORT = 3
    #: all participants acknowledged the commit: recovery need not
    #: re-drive this transaction.
    COMPLETE = 4

    def __init__(
        self,
        kind: int,
        gid: GlobalTxnId,
        participants: List[int],
        targets: Optional[List[Tuple[str, int]]] = None,
    ):
        self.kind = kind
        self.gid = gid
        self.participants = participants
        #: piggybacked stabilization targets: for COMMIT records, the
        #: participants' prepare-record (log, counter) pairs folded into
        #: the coordinator's group-wide round.  Persisted so recovery
        #: can re-stabilize targets the crashed coordinator collected
        #: but never saw acknowledged.
        self.targets: List[Tuple[str, int]] = list(targets or [])

    def encode(self) -> bytes:
        writer = Writer().u32(self.kind).blob(self.gid.encode())
        writer.u32(len(self.participants))
        for node in self.participants:
            writer.u64(node)
        writer.u32(len(self.targets))
        for log_name, counter in self.targets:
            writer.blob(log_name.encode()).u64(counter)
        return writer.getvalue()

    @classmethod
    def decode(cls, data: bytes) -> "ClogRecord":
        reader = Reader(data)
        kind = reader.u32()
        gid = GlobalTxnId.decode(reader.blob())
        count = reader.u32()
        participants = [reader.u64() for _ in range(count)]
        target_count = reader.u32()
        targets = [
            (reader.blob().decode(), reader.u64())
            for _ in range(target_count)
        ]
        return cls(kind, gid, participants, targets)


class DecisionRecord:
    """The replicated commit/abort decision (non-blocking commit).

    Body of ``DECISION_RECORD`` broadcasts and ``DECISION_QUERY``
    replies.  Unlike a :class:`ClogRecord` it also names the
    coordinator and the decision entry's own ``(log, counter)`` target,
    so any completer can rollback-protect the whole group — every
    prepare record plus the decision entry — before acting on it, even
    with the coordinator dead.
    """

    def __init__(
        self,
        kind: int,
        gid: GlobalTxnId,
        participants: List[int],
        targets: Optional[List[Tuple[str, int]]],
        log_name: str,
        counter: int,
        coordinator: int,
    ):
        self.kind = kind
        self.gid = gid
        self.participants = list(participants)
        #: the group's prepare-record (log, counter) pairs, copied from
        #: the Clog decision entry.
        self.targets: List[Tuple[str, int]] = list(targets or [])
        #: the coordinator Clog holding the decision entry, plus the
        #: entry's counter (0 for synthetic slots written on a plain
        #: COMMIT/ABORT instruction, whose stability the instruction's
        #: sender already guaranteed).
        self.log_name = log_name
        self.counter = counter
        self.coordinator = coordinator

    def encode(self) -> bytes:
        writer = (
            Writer()
            .u32(self.kind)
            .blob(self.gid.encode())
            .u64(self.coordinator)
            .blob(self.log_name.encode())
            .u64(self.counter)
        )
        writer.u32(len(self.participants))
        for node in self.participants:
            writer.u64(node)
        writer.u32(len(self.targets))
        for log_name, counter in self.targets:
            writer.blob(log_name.encode()).u64(counter)
        return writer.getvalue()

    @classmethod
    def decode(cls, data: bytes) -> "DecisionRecord":
        reader = Reader(data)
        kind = reader.u32()
        gid = GlobalTxnId.decode(reader.blob())
        coordinator = reader.u64()
        log_name = reader.blob().decode()
        counter = reader.u64()
        participants = [reader.u64() for _ in range(reader.u32())]
        targets = [
            (reader.blob().decode(), reader.u64())
            for _ in range(reader.u32())
        ]
        return cls(
            kind, gid, participants, targets, log_name, counter, coordinator
        )


# -- the decision steps -------------------------------------------------------
# After the vote there is one sequence (§V-A, Figure 2 steps 5–8): log the
# decision, protect it, deliver it, apply it, record completion.  Whoever
# holds the decision runs it — the coordinator, a completer that took over,
# recovery re-running it from the Clog — so each step is written once:
# SecureRpc.gather, Coordinator.protect, and deliver and apply_half below
# (docs/PROTOCOL.md lists which driver composes which).

_KIND_NAMES = {ClogRecord.COMMIT: "commit", ClogRecord.ABORT: "abort"}
_INSTRUCTIONS = {
    ClogRecord.COMMIT: MsgType.TXN_COMMIT,
    ClogRecord.ABORT: MsgType.TXN_ABORT,
}


def piggyback(runtime: NodeRuntime) -> bool:
    """Whether counter targets ride the 2PC ACKs into the coordinator's
    group-wide rounds instead of being stabilized where they are logged
    (``protocol="optimized"``; only meaningful under stabilization)."""
    return runtime.profile.stabilization and runtime.config.optimized


def protect_prepare(
    runtime: NodeRuntime, pipeline, gid: GlobalTxnId, log_name: str,
    counter: int,
) -> Gen:
    """Rollback-protect a YES vote's prepare record before it counts.

    §V-A: "Participants delay replying back to the coordinator until
    the prepare entry in the log is stabilized."  With piggybacking the
    duty moves to the coordinator: the record's target is returned, to
    ride the vote into one group-wide round that covers every prepare
    record and the decision entry — the prepare is still stable before
    anyone acts on the decision, just via a shared round.  Otherwise
    returns ``None`` once the record is stable.
    """
    fields = dict(
        node=runtime.name or None, txn=gid.encode().hex(), log=log_name,
        counter=counter, coord=gid.node_id,
    )
    if piggyback(runtime):
        runtime.tracer.event("twopc", "prepare_target", **fields)
        return (log_name, counter)
    yield from pipeline.stabilize(log_name, counter)
    runtime.tracer.event("twopc", "prepare_ack", **fields)
    return None


def pace(sim, round_start: float) -> Gen:
    """Wait out what is left of a retry interval.

    A crashed destination fails its requests at once, so a retry loop
    without this would spin at a single simulated instant.
    """
    remainder = RESOLUTION_RETRY_INTERVAL - (sim.now - round_start)
    if remainder > 0.0:
        yield sim.timeout(remainder)


def deliver(
    rpc: SecureRpc,
    addresses: Dict[int, str],
    nodes,
    message: Callable[[], TxMessage],
    rounds: Optional[int] = 1,
) -> Gen:
    """Send ``message()`` to each of ``nodes``; re-send to the silent ones.

    The fan-out for instructions that are already durable (TXN_COMMIT /
    TXN_ABORT of a protected decision, the recovery fence), so retrying
    is always safe: a node that already acted ACKs and ignores the
    duplicate, and ``message`` mints a fresh operation id per send so
    the at-most-once filter does not eat the retry.  ``rounds`` bounds
    the attempts; ``None`` retries until every node has answered.

    Returns the apply-side ``(log, counter)`` targets the ACKs carried
    (piggybacked commit records; empty for every other instruction).
    """
    sim = rpc.runtime.sim
    pending = sorted(nodes)
    targets: List[Target] = []
    while True:
        round_start = sim.now
        replies = yield from rpc.gather(
            [(addresses[node], message()) for node in pending],
            timeout=RESOLUTION_RETRY_INTERVAL,
        )
        for reply in replies:
            if (
                reply is not None
                and reply.msg_type == MsgType.ACK
                and reply.body
            ):
                targets.extend(decode_counter_vector(reply.body))
        pending = [
            node for node, reply in zip(pending, replies) if reply is None
        ]
        if not pending or rounds == 1:
            return targets
        if rounds is not None:
            rounds -= 1
        yield from pace(sim, round_start)


def apply_half(runtime: NodeRuntime, txn: PessimisticTxn, kind: int) -> Gen:
    """Commit or abort one node's half of a decided transaction.

    The caller owns exactly-once (it took ``txn`` out of wherever the
    half lived) and has made sure the decision is protected; the
    monitor checks the latter at the ``commit_apply`` event emitted
    here.  Nobody waits for the *commit* record's stabilization (§V-A):
    under ``paper`` it proceeds in a local background fiber, under
    piggybacking its target is returned instead, to join a group-wide
    round.  Returns those targets (empty otherwise).
    """
    targets: List[Target] = []
    if kind == ClogRecord.COMMIT:
        if piggyback(runtime):
            counter, log_name = yield from txn.commit_prepared_async(
                defer_stabilization=True
            )
            targets.append((log_name, counter))
        else:
            yield from txn.commit_prepared_async()
    elif txn.status == TxnStatus.PREPARED:
        yield from txn.abort_prepared()
    else:
        yield from txn.rollback()
    runtime.tracer.event(
        "twopc",
        "commit_apply" if kind == ClogRecord.COMMIT else "abort_apply",
        node=runtime.name or None, txn=txn.txn_id.hex(),
    )
    return targets


class Participant:
    """The participant role: executes remote operations for coordinators."""

    def __init__(
        self,
        runtime: NodeRuntime,
        manager: TransactionManager,
        rpc: SecureRpc,
        numeric_id: int,
        addresses: Dict[int, str],
        pipeline,
        ledger: DecisionLedger,
        op_ids: Callable[[], int],
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
        #: mints cluster-unique operation ids for completer- and
        #: recovery-driven messages (asker-folded, see
        #: ``TreatyNode._resolution_op_id``), so two racing completers
        #: never collide in a peer's replay guard.
        self.op_ids = op_ids
        #: deterministic jitter de-synchronizing simultaneous watchdogs.
        self._rng = SeededRng(
            runtime.config.seed, runtime.name or "participant",
            "completer-watchdog",
        )
        #: participant-local halves of distributed transactions.
        self.active: Dict[bytes, PessimisticTxn] = {}
        #: final outcomes this node applied (or was instructed to
        #: apply), keyed by encoded gid.  Answers client ``_OP_STATUS``
        #: probes after a coordinator death: an *applied* outcome is
        #: final (appliers verify quorum/decision evidence first), so
        #: reporting it to a redirected client is safe.  Bounded FIFO.
        self.applied: Dict[bytes, int] = {}
        self.prepares_served = 0
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

    @property
    def replication(self) -> bool:
        """Whether the non-blocking completion protocol is active."""
        return self.runtime.config.optimized

    # -- helpers ------------------------------------------------------------
    def _txn_for(self, message: TxMessage) -> PessimisticTxn:
        gid = GlobalTxnId(message.node_id, message.txn_id)
        key = gid.encode()
        txn = self.active.get(key)
        if txn is None:
            txn = self.manager.begin_pessimistic(txn_id=key)
            self.active[key] = txn
            if self.replication:
                self.runtime.sim.process(
                    self._orphan_fuse(key),
                    name="orphan-fuse@%s" % (self.node or "?"),
                )
        return txn

    @staticmethod
    def _ack(message: TxMessage, body: bytes = b"") -> TxMessage:
        return TxMessage(
            MsgType.ACK, message.node_id, message.txn_id, message.op_id, body
        )

    @staticmethod
    def _fail(message: TxMessage, reason: bytes = b"") -> TxMessage:
        return TxMessage(
            MsgType.FAIL, message.node_id, message.txn_id, message.op_id, reason
        )

    def _drop(self, message: TxMessage) -> None:
        self.active.pop(GlobalTxnId(message.node_id, message.txn_id).encode(), None)

    #: cap on remembered final outcomes (old entries evicted FIFO).
    APPLIED_CAP = 4096

    def _record_outcome(self, gid_bytes: bytes, kind: int) -> None:
        """Remember a final outcome for client ``_OP_STATUS`` probes."""
        # 1 = committed, 2 = aborted (the client status codes).
        self.applied[gid_bytes] = 1 if kind == ClogRecord.COMMIT else 2
        while len(self.applied) > self.APPLIED_CAP:
            self.applied.pop(next(iter(self.applied)))

    # -- handlers (ExecuteTxnReqHandler in Figure 2) -----------------------------
    def _on_read(self, message: TxMessage, src: str) -> Gen:
        txn = self._txn_for(message)
        reader = Reader(message.body)
        key = reader.blob()
        try:
            value = yield from txn.get(key)
        except TransactionAborted as aborted:
            self._drop(message)
            return self._fail(message, str(aborted).encode())
        return self._ack(message, _encode_value_reply(value is not None, value))

    def _on_scan(self, message: TxMessage, src: str) -> Gen:
        txn = self._txn_for(message)
        start, end, limit = decode_scan_request(message.body)
        try:
            rows = yield from txn.scan(start, end, limit)
        except TransactionAborted as aborted:
            self._drop(message)
            return self._fail(message, str(aborted).encode())
        return self._ack(message, encode_scan_reply(rows))

    def _on_read_occ(self, message: TxMessage, src: str) -> Gen:
        """Stateless versioned read (distributed-OCC execution phase).

        No participant-local transaction, no lock, no ``active`` entry:
        the reply carries the key's current sequence number and the
        coordinator validates it later inside PREPARE.
        """
        reader = Reader(message.body)
        key = reader.blob()
        value, seq = yield from self.manager.engine.get_with_seq(key)
        return self._ack(
            message, _encode_versioned_reply(value is not None, value, seq)
        )

    def _on_scan_occ(self, message: TxMessage, src: str) -> Gen:
        """Stateless read-committed range scan (distributed OCC)."""
        start, end, limit = decode_scan_request(message.body)
        yield from self.runtime.op_overhead()
        rows = yield from self.manager.engine.scan(start, end, limit=limit)
        return self._ack(message, encode_scan_reply(rows))

    def _on_write(self, message: TxMessage, src: str) -> Gen:
        txn = self._txn_for(message)
        key, value = _decode_write(message.body)
        try:
            if value is None:
                yield from txn.delete(key)
            else:
                yield from txn.put(key, value)
        except TransactionAborted as aborted:
            self._drop(message)
            return self._fail(message, str(aborted).encode())
        return self._ack(message)

    def _on_prepare(self, message: TxMessage, src: str) -> Gen:
        """Prepare the local transaction; the ACK waits for (or carries
        the target of) the prepare record's rollback protection."""
        gid = GlobalTxnId(message.node_id, message.txn_id)
        if message.body:
            # Distributed OCC: the PREPARE carries this participant's
            # read-set versions and write-set.  The local half is
            # created here — execution was lock-free at the coordinator
            # — and validation runs inside this prepare critical
            # section, riding the piggybacked round below.
            txn = yield from self._validate_occ(gid, message)
            if txn is None:
                return self._fail(message, b"validation conflict")
        else:
            txn = self.active.get(gid.encode())
            if txn is None or txn.status != TxnStatus.ACTIVE:
                return self._fail(message, b"no active local txn")
        try:
            counter, log_name = yield from txn.prepare()
        except TransactionAborted as aborted:
            self._drop(message)
            return self._fail(message, str(aborted).encode())
        self.prepares_served += 1
        if self.replication:
            # A prepared half is now in doubt: if the decision never
            # arrives (dead coordinator), this node assumes the
            # completer role after the decision timeout.
            self.runtime.sim.process(
                self._decision_watchdog(gid.encode()),
                name="decision-watch@%s" % (self.node or "?"),
            )
        target = yield from protect_prepare(
            self.runtime, self.pipeline, gid, log_name, counter
        )
        return self._ack(
            message, encode_counter_vector([target]) if target else b""
        )

    def _validate_occ(self, gid: GlobalTxnId, message: TxMessage) -> Gen:
        """Create + validate the OCC local half inside PREPARE.

        Returns the pinned-and-validated transaction, or ``None`` when
        validation conflicts (the caller NACKs; presumed abort cleans
        up — the conflicting half has already rolled itself back).
        """
        key = gid.encode()
        if key in self.active:
            # Duplicate PREPARE (retry after a partial round): the half
            # already exists, pins and all; just hand it back.
            txn = self.active[key]
            return txn if txn.status == TxnStatus.ACTIVE else None
        reads, writes = decode_occ_prepare(message.body)
        txn = self.manager.begin_distributed_occ(txn_id=key)
        txn.load(reads, writes)
        self.active[key] = txn
        if self.replication:
            self.runtime.sim.process(
                self._orphan_fuse(key),
                name="orphan-fuse@%s" % (self.node or "?"),
            )
        if (yield from validate_occ(self.runtime, txn)):
            return txn
        self.active.pop(key, None)
        return None

    def apply(self, gid_bytes: bytes, kind: int) -> Gen:
        """Apply a final outcome to this node's half — exactly once.

        The coordinator's instruction, a duplicate of it, a completer
        and recovery's resolution may all race here; whoever pops the
        ``active`` entry applies, everyone else is told the half was
        gone (``None``).  Otherwise returns the half's apply-side
        targets (see :func:`apply_half`).
        """
        self._record_outcome(gid_bytes, kind)
        txn = self.active.pop(gid_bytes, None)
        if txn is None:
            # Already applied (e.g. duplicate instruction after the
            # coordinator recovered): "this message is ignored" (§VI).
            return None
        targets = yield from apply_half(self.runtime, txn, kind)
        if kind == ClogRecord.COMMIT:
            self.commits_served += 1
        return targets

    def _instructed(self, kind: int, message: TxMessage) -> Gen:
        """TXN_COMMIT / TXN_ABORT: apply; the ACK carries the targets."""
        gid = GlobalTxnId(message.node_id, message.txn_id)
        if self.replication:
            # A direct instruction is decision evidence too: the sender
            # (coordinator, its recovery, or a completer) already made
            # the decision durable before driving it.  The slot makes
            # this node's answer to later DECISION_QUERYs authoritative.
            self.ledger.record(
                gid.encode(),
                DecisionRecord(kind, gid, [], [], "", 0, message.node_id),
            )
        targets = yield from self.apply(gid.encode(), kind)
        return self._ack(
            message, encode_counter_vector(targets) if targets else b""
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
            txn = self.active.pop(key)
            yield from txn.rollback()
            self.tracer.event(
                "twopc", "fence_abort", node=self.node, txn=key.hex(),
                coord=message.node_id, epoch=epoch,
            )
        return self._ack(message)

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
            self.ledger.replicated += 1
            self.runtime.metrics.counter("decision.replicated").inc()
            self.tracer.event(
                "twopc", "decision_replicated", node=self.node,
                txn=gid_bytes.hex(),
                kind=_KIND_NAMES[record.kind], coord=record.coordinator,
            )
        if stored.kind != record.kind:
            return self._fail(message, stored.encode())
        return self._ack(message)

    def _on_decision_query(self, message: TxMessage, src: str) -> Gen:
        """Answer a timed-out peer: the decision slot we hold, if any."""
        yield from self.runtime.op_overhead()
        gid_bytes = GlobalTxnId(message.node_id, message.txn_id).encode()
        record = self.ledger.get(gid_bytes)
        return self._ack(
            message, record.encode() if record is not None else b""
        )

    # -- completer watchdogs -------------------------------------------------
    def _decision_watchdog(self, gid_bytes: bytes) -> Gen:
        """Armed per prepared half: take over if no decision arrives."""
        config = self.runtime.config
        yield self.runtime.sim.timeout(
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
        abort.  A *reachable* coordinator re-arms the fuse instead: the
        transaction may simply be slow, and aborting its half here would
        let a later operation silently recreate a partial one.
        """
        gid = GlobalTxnId.decode(gid_bytes)
        sim = self.runtime.sim
        fuse = PREPARE_VOTE_TIMEOUT + self.runtime.config.decision_timeout_s
        while True:
            yield sim.timeout(
                fuse + self._rng.uniform(0.0, RESOLUTION_RETRY_INTERVAL)
            )
            txn = self.active.get(gid_bytes)
            if txn is None or txn.status != TxnStatus.ACTIVE:
                return
            try:
                yield from self.rpc.call(
                    self.addresses[gid.node_id],
                    TxMessage(
                        MsgType.TXN_RESOLVE, gid.node_id, gid.local_seq,
                        self.op_ids(),
                    ),
                )
            except NetworkError:
                break  # coordinator unreachable: fence the orphan
        txn = self.active.get(gid_bytes)
        if txn is None or txn.status != TxnStatus.ACTIVE:
            return
        self.active.pop(gid_bytes, None)
        yield from txn.rollback()
        self.tracer.event(
            "twopc", "fence_abort", node=self.node, txn=gid_bytes.hex(),
            coord=gid.node_id, epoch=0,
        )

    # -- the completer state machine -----------------------------------------
    def complete(self, gid_bytes: bytes) -> Gen:
        """Assume the completer role for an in-doubt prepared half.

        Tally the cluster's decision slots each round: once COMMIT holds
        a majority of slots the decision is final and this node applies
        it (rollback-protecting the whole group first) and drives the
        rest of the group; once enough conflicting slots make commit
        unreachable, abort is final (presumed abort: a commit that never
        reached its quorum was never acknowledged to any client).  With
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
                final = self._final(kinds)
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
                    accepted = yield from self._spread(gid, stored, empty)
                    for node in accepted:
                        kinds[node] = stored.kind
                    final = self._final(kinds)
                if final is not None:
                    outcome = _KIND_NAMES[final]
                    yield from self._finish(
                        gid_bytes, final,
                        commit_record if final == ClogRecord.COMMIT
                        else ledger.get(gid_bytes),
                    )
                    return
                yield sim.timeout(
                    RESOLUTION_RETRY_INTERVAL
                    + self._rng.uniform(0.0, RESOLUTION_RETRY_INTERVAL)
                )
        finally:
            span.close(outcome=outcome)

    def _final(self, kinds: Dict[int, Optional[int]]) -> Optional[int]:
        """The kind whose quorum the tallied slots reach, if either."""
        held = list(kinds.values())
        if held.count(ClogRecord.COMMIT) >= self.ledger.commit_quorum:
            return ClogRecord.COMMIT
        if held.count(ClogRecord.ABORT) >= self.ledger.abort_quorum:
            return ClogRecord.ABORT
        return None

    def _decision_round(self, gid_bytes: bytes, gid: GlobalTxnId) -> Gen:
        """One tally round: read every reachable peer's decision slot.

        Returns ``(kinds, commit_record)`` where ``kinds`` maps node id
        -> slot kind (``None`` = reachable but empty; unreachable peers
        are absent) and ``commit_record`` is a full COMMIT record if any
        slot supplied one.
        """
        replies = yield from self.rpc.gather(
            [
                (
                    self.addresses[node],
                    TxMessage(
                        MsgType.DECISION_QUERY, gid.node_id, gid.local_seq,
                        self.op_ids(),
                    ),
                )
                for node in self.peers
            ],
            timeout=RESOLUTION_RETRY_INTERVAL,
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

    def _spread(
        self, gid: GlobalTxnId, record: "DecisionRecord", nodes: List[int]
    ) -> Gen:
        """Write ``record`` into peers' empty slots; returns acceptors."""
        body = record.encode()
        replies = yield from self.rpc.gather(
            [
                (
                    self.addresses[node],
                    TxMessage(
                        MsgType.DECISION_RECORD, gid.node_id, gid.local_seq,
                        self.op_ids(), body,
                    ),
                )
                for node in nodes
            ],
            timeout=RESOLUTION_RETRY_INTERVAL,
        )
        return [
            node for node, reply in zip(nodes, replies)
            if reply is not None and reply.msg_type == MsgType.ACK
        ]

    def instruct(self, kind: int, gid: GlobalTxnId, participants) -> Gen:
        """Deliver a final decision to the group's other members, once.

        One round only — this is the completer's and recovery's
        delivery: unreachable peers complete via their own watchdogs or
        resolve against the coordinator when they recover, and duplicate
        instructions are absorbed by the receivers' exactly-once
        :meth:`apply`.  Returns the piggybacked apply-side targets.
        """
        return deliver(
            self.rpc, self.addresses,
            [node for node in participants if node != self.numeric_id],
            lambda: TxMessage(
                _INSTRUCTIONS[kind], gid.node_id, gid.local_seq,
                self.op_ids(),
            ),
        )

    def _finish(
        self, gid_bytes: bytes, kind: int, record: Optional["DecisionRecord"]
    ) -> Gen:
        """Finish a quorum-final decision in the coordinator's stead:
        protect, apply here, deliver to the peers the record names (best
        effort — every prepared peer runs its own watchdog anyway)."""
        txn_hex = gid_bytes.hex()
        if kind == ClogRecord.COMMIT and record is not None:
            # I1: the group's prepare records and the decision entry must
            # be rollback-protected before anyone applies the commit —
            # the same group round the coordinator would have run.
            yield from self.pipeline.stabilize_group(
                record.targets + [(record.log_name, record.counter)],
                txn=txn_hex, phase="complete",
            )
        targets = (yield from self.apply(gid_bytes, kind)) or []
        if record is not None:
            targets += yield from self.instruct(
                kind, record.gid, record.participants
            )
        yield from self.pipeline.stabilize_group(
            targets, txn=txn_hex, phase="complete"
        )


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
        self.epoch = epoch
        #: per-incarnation decision-replication operation ids: distinct
        #: base from transaction ops and resolution ops, epoch-stamped so
        #: a recovered coordinator's re-replication never collides with
        #: its pre-crash broadcasts in a peer's replay guard.
        self._decision_ops = itertools.count(1)
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

    def begin(self, optimistic: bool = False) -> "GlobalTxn":
        """BEGINTXN: create a global transaction handle.

        ``optimistic`` selects distributed OCC: lock-free execution with
        validation inside each participant's PREPARE critical section.
        """
        return GlobalTxn(self, self.allocator.next(), optimistic=optimistic)

    # -- Clog ---------------------------------------------------------------------
    @property
    def replication(self) -> bool:
        """Whether decisions are replicated before the client reply."""
        return self.runtime.config.optimized

    def _decision_op_id(self) -> int:
        return (
            (1 << 59)
            | (self.epoch << 40)
            | next(self._decision_ops)
        )

    def _replicate_decision(
        self, record: "DecisionRecord", txn_hex: str, phase: str = "decision"
    ) -> Gen:
        """Make the decision durable on a quorum before the client reply.

        The DECISION_RECORD broadcast is enqueued in the same instant
        the group stabilization round's first frames go out, so the
        transport's doorbell window seals both into one frame per peer —
        the decision rides the piggybacked round instead of costing its
        own.  The quorum-acknowledgement wait then overlaps the counter
        round.  The coordinator's own slot counts as one ack (it is
        backed by the durable Clog entry).

        Returns True once the decision is final.  For a COMMIT record,
        False means conflicting completer slots made the commit quorum
        unreachable — the caller must supersede with an abort, which is
        safe because a commit that cannot reach quorum was never (and
        will never be) acknowledged to the client.
        """
        sim = self.runtime.sim
        ledger = self.ledger
        gid_bytes = record.gid.encode()
        stored = ledger.record(gid_bytes, record)
        if record.kind == ClogRecord.COMMIT and stored.kind != record.kind:
            # A completer abort proposal already occupies this node's
            # own slot (a peer's watchdog fired while we were still
            # deciding, or a local completer raced this redrive).  The
            # quorum arithmetic below counts our own slot as one commit
            # ack, which would be a lie here — and the abort side may
            # already be one slot from finality.  Give up immediately:
            # the client was never acknowledged, so the superseding
            # abort the caller logs is safe.
            return False
        body = record.encode()

        def send(nodes):
            sends = self.rpc.broadcast([
                (
                    self.addresses[node],
                    TxMessage(
                        MsgType.DECISION_RECORD, record.gid.node_id,
                        record.gid.local_seq, self._decision_op_id(), body,
                    ),
                )
                for node in nodes
            ])
            for event in sends:
                # A send to a down peer fails fast — possibly before the
                # quorum loop attaches its first settle barrier (the
                # stabilization round runs in between under piggyback).
                # Defuse so the uncovered failure never surfaces at the
                # simulator; the loop reads event.ok itself.
                event.defuse()
            return dict(zip(nodes, sends))

        events = yield from self.pipeline.decision_round(
            record.targets + [(self.clog.log_name, record.counter)],
            lambda: send(self.peers), txn=txn_hex, phase=phase,
        )
        if record.kind != ClogRecord.COMMIT:
            # Presumed abort: no quorum needed before answering the
            # client — a peer that misses the record learns the abort
            # from its own watchdog round.  Drain the acks off-path.
            def drain() -> Gen:
                yield sim.all_settled(list(events.values()))

            sim.process(drain(), name="decision-drain@%s" % (self.node or "?"))
            return True
        needed = ledger.commit_quorum - 1
        acks = 0
        conflicts = 0
        span = self.tracer.span(
            "twopc", "decision_wait", node=self.node, txn=txn_hex,
            needed=needed,
        )
        try:
            while acks < needed:
                round_start = self.runtime.now
                yield sim.any_of([
                    sim.all_settled(list(events.values())),
                    sim.timeout(RESOLUTION_RETRY_INTERVAL),
                ])
                retry = []
                for node, event in list(events.items()):
                    if not event.triggered:
                        continue
                    del events[node]
                    reply = event.value if event.ok else None
                    if (
                        reply is not None
                        and reply.msg_type == MsgType.ACK
                    ):
                        acks += 1
                        self.tracer.event(
                            "twopc", "decision-quorum", node=self.node,
                            txn=txn_hex, peer=node, acks=acks,
                            needed=needed,
                        )
                        continue
                    if (
                        reply is not None
                        and reply.msg_type == MsgType.FAIL
                        and reply.body
                    ):
                        # Write-once conflict: a completer already
                        # proposed abort into that peer's slot.
                        conflicts += 1
                        continue
                    retry.append(node)
                if acks >= needed:
                    break
                undecided = len(self.peers) - acks - conflicts
                if 1 + acks + undecided < ledger.commit_quorum:
                    return False
                if retry:
                    yield from pace(sim, round_start)
                    events.update(send(retry))
                elif not events:
                    # Everyone settled, quorum still short and commit
                    # still "reachable" — impossible by arithmetic, but
                    # never spin on it.
                    return False
        finally:
            span.close(acks=acks, conflicts=conflicts)
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
                kind=_KIND_NAMES[record.kind],
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

    def protect(
        self,
        kind: int,
        gid: GlobalTxnId,
        participants: List[int],
        targets: List[Target],
        counter: int,
        phase: str = "decision",
    ) -> Gen:
        """Make a logged decision safe to act on (Figure 2, steps 6–7).

        ``paper``: stabilize the decision's Clog entry (``counter``).
        ``optimized``: replicate the decision record to the whole
        cluster, riding the group round that rollback-protects the
        entry and the piggybacked prepare ``targets``, and for a COMMIT
        wait for a quorum of slot acknowledgements — any participant can
        then finish the transaction without this coordinator.  If
        completer abort slots beat the replication, the commit can never
        reach its quorum, so no client was (or ever will be)
        acknowledged: a superseding ABORT is logged.

        Returns the kind that is final — the one to deliver and apply.
        """
        if not self.replication:
            yield from self.pipeline.stabilize(self.clog.log_name, counter)
            return kind
        replicated = yield from self._replicate_decision(
            DecisionRecord(
                kind, gid, participants, targets, self.clog.log_name,
                counter, self.node_numeric_id,
            ),
            gid.encode().hex(), phase,
        )
        if replicated:
            return kind
        superseded = yield from self.log_clog(
            ClogRecord(ClogRecord.ABORT, gid, participants)
        )
        self.pipeline.background(self.clog.log_name, superseded)
        return ClogRecord.ABORT

    # -- recovery support ------------------------------------------------------------
    def resolve(self, gid_bytes: bytes) -> Gen:
        """How ``gid`` was decided, once that is safe to act on.

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
        kind, counter, targets = self.decisions.get(
            gid_bytes, (ClogRecord.ABORT, 0, ())
        )
        if kind == ClogRecord.COMMIT:
            yield from self._stabilize_entry(
                counter, targets, gid_bytes.hex(), "resolve"
            )
        return kind

    def _on_resolve(self, message: TxMessage, src: str) -> Gen:
        """A recovering participant asks how ``gid`` was decided."""
        yield from self.runtime.op_overhead()
        kind = yield from self.resolve(
            GlobalTxnId(message.node_id, message.txn_id).encode()
        )
        return TxMessage(
            MsgType.TXN_RESOLVE_REPLY,
            message.node_id,
            message.txn_id,
            message.op_id,
            _KIND_NAMES[kind].encode(),
        )


class GlobalTxn:
    """A client-facing distributed transaction (Figure 2's lifecycle)."""

    def __init__(
        self,
        coordinator: Coordinator,
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
    def _next_op(self) -> int:
        self._op_seq += 1
        return self._op_seq

    def _message(self, msg_type: int, body: bytes = b"") -> TxMessage:
        return TxMessage(
            msg_type,
            self.gid.node_id,
            self.gid.local_seq,
            self._next_op(),
            body,
        )

    def _local(self) -> PessimisticTxn:
        if self._local_txn is None:
            self._local_txn = self.coordinator.manager.begin_pessimistic(
                txn_id=self.gid.encode()
            )
        return self._local_txn

    def _address_of(self, node: int) -> str:
        return self.coordinator.addresses[node]

    def _check_active(self) -> None:
        if self.status != TxnStatus.ACTIVE:
            raise TransactionError("global txn %s is %s" % (self.gid, self.status))

    def _remote_call(self, node: int, message: TxMessage) -> Gen:
        self.remote_participants.add(node)
        try:
            reply = yield from self.coordinator.rpc.call(
                self._address_of(node), message
            )
        except NetworkError as exc:
            # The participant's NIC detached (crash) — the transport
            # fails the continuation instead of leaking it.  Surface a
            # synthetic FAIL so every call site takes its abort path.
            reply = TxMessage(
                MsgType.FAIL, message.node_id, message.txn_id, message.op_id,
                str(exc).encode(),
            )
        return reply

    # -- interactive operations (TXNGET / TXNPUT) ----------------------------------
    def get(self, key: bytes) -> Gen:
        self._check_active()
        if self.optimistic:
            value = yield from self._get_occ(key)
            return value
        owner = self.coordinator.partitioner(key)
        if owner == self.coordinator.node_numeric_id:
            try:
                value = yield from self._local().get(key)
            except TransactionAborted:
                yield from self._abort_remotes()
                self.status = TxnStatus.ABORTED
                raise
            return value
        reply = yield from self._remote_call(
            owner, self._message(MsgType.TXN_READ, _encode_read(key))
        )
        if reply.msg_type != MsgType.ACK:
            yield from self.rollback(failed_node=owner)
            raise TransactionAborted(reply.body.decode() or "remote read failed")
        return _decode_value_reply(reply.body)

    def _get_occ(self, key: bytes) -> Gen:
        """Lock-free versioned read (read-my-own-writes honoured)."""
        if key in self._occ_writes:
            return self._occ_writes[key]
        owner = self.coordinator.partitioner(key)
        if owner == self.coordinator.node_numeric_id:
            value, seq = yield from self.coordinator.manager.engine.get_with_seq(
                key
            )
        else:
            reply = yield from self._remote_call(
                owner,
                self._message(MsgType.TXN_READ_OCC, _encode_read(key)),
            )
            if reply.msg_type != MsgType.ACK:
                yield from self.rollback(failed_node=owner)
                raise TransactionAborted(
                    reply.body.decode() or "remote read failed"
                )
            value, seq = _decode_versioned_reply(reply.body)
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
        owner = self.coordinator.partitioner(start)
        if owner == self.coordinator.node_numeric_id:
            try:
                rows = yield from self._local().scan(start, end, limit)
            except TransactionAborted:
                yield from self._abort_remotes()
                self.status = TxnStatus.ABORTED
                raise
            return rows
        reply = yield from self._remote_call(
            owner,
            self._message(MsgType.TXN_SCAN, encode_scan_request(start, end, limit)),
        )
        if reply.msg_type != MsgType.ACK:
            yield from self.rollback(failed_node=owner)
            raise TransactionAborted(reply.body.decode() or "remote scan failed")
        return decode_scan_reply(reply.body)

    def _scan_occ(self, start: bytes, end: Optional[bytes], limit) -> Gen:
        """Stateless read-committed scan, overlaid with buffered writes.

        Scans stay read-committed in every transaction flavour (see
        :meth:`LocalTransaction.scan`), so the owner does not join the
        participant set for a scan-only contact.
        """
        owner = self.coordinator.partitioner(start)
        if owner == self.coordinator.node_numeric_id:
            yield from self.runtime.op_overhead()
            rows = yield from self.coordinator.manager.engine.scan(
                start, end, limit=None
            )
        else:
            message = self._message(
                MsgType.TXN_SCAN_OCC, encode_scan_request(start, end, None)
            )
            try:
                reply = yield from self.coordinator.rpc.call(
                    self._address_of(owner), message
                )
            except NetworkError as exc:
                yield from self.rollback(failed_node=owner)
                raise TransactionAborted("remote scan failed: %s" % exc)
            if reply.msg_type != MsgType.ACK:
                yield from self.rollback(failed_node=owner)
                raise TransactionAborted(
                    reply.body.decode() or "remote scan failed"
                )
            rows = decode_scan_reply(reply.body)
        merged = dict(rows)
        for key, value in self._occ_writes.items():
            if key >= start and (end is None or key < end):
                if value is None:
                    merged.pop(key, None)
                else:
                    merged[key] = value
        result = sorted(merged.items())
        if limit is not None:
            result = result[:limit]
        return result

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
        owner = self.coordinator.partitioner(key)
        if owner == self.coordinator.node_numeric_id:
            try:
                if value is None:
                    yield from self._local().delete(key)
                else:
                    yield from self._local().put(key, value)
            except TransactionAborted:
                yield from self._abort_remotes()
                self.status = TxnStatus.ABORTED
                raise
            return
        reply = yield from self._remote_call(
            owner, self._message(MsgType.TXN_WRITE, _encode_write(key, value))
        )
        if reply.msg_type != MsgType.ACK:
            yield from self.rollback(failed_node=owner)
            raise TransactionAborted(reply.body.decode() or "remote write failed")

    # -- batched multi-put (coordinators may defer transmissions, §V-A) -------------
    def put_many(self, pairs: List[Tuple[bytes, bytes]]) -> Gen:
        """Enqueue writes to all owners before yielding (Figure 2, 1–2).

        Because every remote write is enqueued before the first yield,
        writes sharing an owner coalesce into the same transport batch.
        """
        self._check_active()
        if self.optimistic:
            for key, value in pairs:
                yield from self._write(key, value)
            return
        events = []
        owners = []
        for key, value in pairs:
            owner = self.coordinator.partitioner(key)
            if owner == self.coordinator.node_numeric_id:
                try:
                    yield from self._local().put(key, value)
                except TransactionAborted:
                    yield from self._abort_remotes()
                    self.status = TxnStatus.ABORTED
                    raise
            else:
                self.remote_participants.add(owner)
                owners.append(owner)
                events.append(
                    self.coordinator.rpc.enqueue(
                        self._address_of(owner),
                        self._message(MsgType.TXN_WRITE, _encode_write(key, value)),
                    )
                )
        yield self.runtime.sim.all_settled(events)
        for owner, event in zip(owners, events):
            if not event.ok:
                # The owner crashed mid-write: abort everyone reachable.
                yield from self.rollback(failed_node=owner)
                raise TransactionAborted("remote write failed: %s" % event.value)
            reply = event.value
            if reply.msg_type != MsgType.ACK:
                yield from self.rollback()
                raise TransactionAborted(reply.body.decode() or "remote write failed")

    # -- commit / abort ---------------------------------------------------------------
    def commit(self) -> Gen:
        """TXNCOMMIT: single-node fast path or full secure 2PC."""
        self._check_active()
        if self.optimistic:
            counter = yield from self._commit_occ()
            return counter
        if not self.remote_participants:
            # Single-node transaction (§V-B): no 2PC needed.
            counter = 0
            if self._local_txn is not None:
                counter = yield from self._local_txn.commit()
            self.status = TxnStatus.COMMITTED
            self.coordinator.local_commits += 1
            return counter
        yield from self._commit_distributed()
        return 0

    def _commit_occ(self) -> Gen:
        """Commit a distributed OCC transaction.

        Groups the validate/write sets per owner, builds each
        participant's PREPARE body, and runs either the single-node fast
        path (validate + group commit locally, no 2PC) or the normal
        distributed commit with validation riding PREPARE.
        """
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
        if not self.remote_participants:
            counter = yield from self._commit_occ_local()
            return counter
        self._occ_bodies = {
            node: encode_occ_prepare(
                reads_by.get(node, []), writes_by.get(node, [])
            )
            for node in self.remote_participants
        }
        yield from self._commit_distributed()
        return 0

    def _commit_occ_local(self) -> Gen:
        """Single-node OCC fast path (§V-B): no Clog, no 2PC rounds."""
        coordinator = self.coordinator
        if self._local_txn is None:
            self.status = TxnStatus.COMMITTED
            coordinator.local_commits += 1
            return 0
        ok = yield from validate_occ(self.runtime, self._local_txn)
        if not ok:
            self.status = TxnStatus.ABORTED
            coordinator.aborts += 1
            raise TransactionAborted("validation conflict")
        counter = yield from self._local_txn.commit()
        self.status = TxnStatus.COMMITTED
        coordinator.local_commits += 1
        return counter

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
                    self._address_of(node),
                    self._message(
                        MsgType.TXN_PREPARE,
                        self._occ_bodies.get(node)
                        or (encode_occ_prepare([], []) if self.optimistic
                            else b""),
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
            "twopc", _KIND_NAMES[decision], node=coordinator.node, txn=txn_hex
        )
        apply_targets = yield from deliver(
            coordinator.rpc, coordinator.addresses, participants,
            lambda: self._message(_INSTRUCTIONS[decision]),
            rounds=2 if coordinator.replication else None,
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
        yield from self._abort_remotes(skip=failed_node)
        if self._local_txn is not None:
            yield from self._local_txn.rollback()

    def _abort_remotes(self, skip: Optional[int] = None) -> Gen:
        yield from deliver(
            self.coordinator.rpc, self.coordinator.addresses,
            [node for node in self.remote_participants if node != skip],
            lambda: self._message(MsgType.TXN_ABORT),
            rounds=None,
        )
