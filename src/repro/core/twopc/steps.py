"""The post-vote sequence of a 2PC decision, written once.

After the vote there is one sequence (§V-A, Figure 2 steps 6–8):
protect the logged decision; deliver it and apply this node's half side
by side (nothing after the protect waits on the remote ACKs); run one
apply-side counter round.  Whoever holds the decision runs it through
:func:`finish` — the coordinator, a completer that took over, recovery
re-running it from the Clog, a recovered half its coordinator answered —
and each of them is an :class:`Entry` of it: which protect, how many
delivery rounds and whether COMPLETE is logged are data the sequence
reads (docs/PROTOCOL.md §1.2 has the table).  The steps themselves are
SecureRpc.gather, Coordinator.protect, :func:`deliver` below and
Participant.apply.  The vote and the apply are Participant methods: every
half lives in its node's Participant, the coordinator's own included.

The decision slots of non-blocking commit live here too, for every role
that writes or counts them: :class:`DecisionLedger` with the one quorum
rule, :meth:`DecisionLedger.final`, and :func:`slot_held`, the one rule
for reading the reply to a slot write.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, NamedTuple, Optional, Tuple

from ...net.message import MsgType, TxMessage
from ...net.secure_rpc import SecureRpc
from ...sim.core import Event
from ...tee.runtime import NodeRuntime
from ..trusted_counter import Target, decode_counter_vector, majority
from .codec import ClogRecord, DecisionRecord

__all__ = [
    "PREPARE_VOTE_TIMEOUT", "RESOLUTION_RETRY_INTERVAL",
    "DecisionLedger", "slot_held",
    "piggyback", "replication", "pace", "deliver",
    "Entry", "DECIDED", "QUORUM_FINAL", "REPLAYED", "ANSWERED", "finish",
]

Gen = Generator[Event, Any, Any]

#: a participant that has not voted within this window counts as NO.
PREPARE_VOTE_TIMEOUT = 2.0
#: decision (commit/abort) instructions are retried at this interval
#: until every participant acknowledges.
RESOLUTION_RETRY_INTERVAL = 0.5

KIND_NAMES = {ClogRecord.COMMIT: "commit", ClogRecord.ABORT: "abort"}
INSTRUCTIONS = {
    ClogRecord.COMMIT: MsgType.TXN_COMMIT,
    ClogRecord.ABORT: MsgType.TXN_ABORT,
}


class DecisionLedger:
    """Write-once per-transaction decision slots (``protocol="optimized"``).

    The non-blocking commit extension replicates the coordinator's
    commit/abort decision across the cluster before the client is
    acknowledged; this ledger is one node's slot store.  Slots live in
    the enclave's protected memory — the same trust model as the counter
    replicas' echo memory: a value held by a quorum of live enclaves is
    rollback-protected, and the coordinator's own slot is additionally
    durable through its Clog entry.

    Slots are *write-once*: the first record for a transaction wins and
    every later write of a conflicting kind is rejected (the caller
    learns the stored record instead).  Because slots never change, the
    quorum rule :meth:`final` is monotone — once a kind reaches its
    quorum it stays there, and every evaluator converges on the same
    outcome:

    * **commit is final** once ``commit_quorum`` (a majority) of slots
      hold a COMMIT record — only then may the client be acknowledged;
    * **abort is final** once ``abort_quorum`` slots hold ABORT: that
      many conflicting slots make the commit quorum unreachable, and
      presumed abort makes aborting safe for any transaction that was
      never acknowledged.

    The two thresholds overlap (``commit_quorum + abort_quorum = n + 1``),
    so at most one outcome can ever become final.
    """

    def __init__(self, num_nodes: int):
        self.num_nodes = num_nodes
        #: gid bytes -> decision record.
        self.slots: Dict[bytes, DecisionRecord] = {}

    def install_metrics(self, metrics) -> None:
        """Expose live slot occupancy (``decision.slots``) as a probe.

        Slots are enclave memory that persists for the deployment's
        lifetime, so the gauge doubles as a leak watch: it should track
        committed-transaction count, never run ahead of it.
        """
        metrics.probe("decision.slots", lambda: len(self.slots))

    @property
    def commit_quorum(self) -> int:
        """Majority of all nodes (the coordinator's slot counts)."""
        return majority(self.num_nodes)

    @property
    def abort_quorum(self) -> int:
        """Enough conflicting slots to make commit unreachable."""
        return self.num_nodes - self.commit_quorum + 1

    def record(self, gid_bytes: bytes, record: DecisionRecord) -> DecisionRecord:
        """Write-once store; returns the record the slot holds now."""
        return self.slots.setdefault(gid_bytes, record)

    def get(self, gid_bytes: bytes) -> Optional[DecisionRecord]:
        return self.slots.get(gid_bytes)

    def final(self, kinds: Dict[int, Optional[int]]) -> Optional[int]:
        """The kind whose quorum the counted slots reach: COMMIT, ABORT
        or None.  ``kinds`` maps slot holder -> the kind its slot holds
        (``None``: empty); a holder not in it has not answered."""
        held = list(kinds.values())
        if held.count(ClogRecord.COMMIT) >= self.commit_quorum:
            return ClogRecord.COMMIT
        if held.count(ClogRecord.ABORT) >= self.abort_quorum:
            return ClogRecord.ABORT
        return None


def slot_held(
    reply: Optional[TxMessage], sent: DecisionRecord
) -> Optional[DecisionRecord]:
    """What a peer's slot holds, read from its reply to a
    DECISION_RECORD carrying ``sent``.

    ACK: ``sent`` (the slot holds its kind, written now or before).
    FAIL carrying a record: that record, which won the write-once slot
    first.  Anything else — no reply, a failed send, a FAIL without a
    record — ``None``: the peer has not answered.
    """
    if reply is None:
        return None
    if reply.msg_type == MsgType.ACK:
        return sent
    if reply.msg_type == MsgType.FAIL and reply.body:
        return DecisionRecord.decode(reply.body)
    return None


def piggyback(runtime: NodeRuntime) -> bool:
    """Whether counter targets ride the 2PC ACKs into the coordinator's
    group-wide rounds instead of being stabilized where they are logged
    (``protocol="optimized"``; only meaningful under stabilization)."""
    return runtime.profile.stabilization and runtime.config.optimized


def replication(runtime: NodeRuntime) -> bool:
    """Whether the non-blocking completion protocol is active: decisions
    are replicated to a quorum of slots before the client reply, and
    in-doubt halves finish without their coordinator
    (``protocol="optimized"``)."""
    return runtime.config.optimized


def pace(sim, round_start: float) -> Gen:
    """Wait out what is left of a retry interval.

    A crashed destination fails its requests at once, so a retry loop
    without this would spin at a single simulated instant.
    """
    remainder = RESOLUTION_RETRY_INTERVAL - (sim.now - round_start)
    if remainder > 0.0:
        yield sim.sleep(remainder)


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


# -- the post-vote sequence and its entries ------------------------------------

def _by_coordinator(coordinator, record: DecisionRecord, phase: str) -> Gen:
    """Coordinator.protect: stabilize the decision entry (``paper``) or
    replicate the decision to a quorum of slots (``optimized``)."""
    return coordinator.protect(record, phase)


def _by_group_round(coordinator, record: DecisionRecord, phase: str) -> Gen:
    """A completer's protect: the group round the coordinator would have
    run, over the record's prepare targets and decision entry (I1)."""
    yield from coordinator.pipeline.stabilize_group(
        record.targets + [(record.log_name, record.counter)],
        txn=record.gid.encode().hex(), phase=phase,
    )
    return record.kind


def _by_aborting(coordinator, record: DecisionRecord, phase: str) -> Gen:
    """An undecided Clog record: log ABORT (presumed abort).  No COMMIT
    slot can exist anywhere: the coordinator replicates a decision only
    after logging it, and the Clog replays its whole chain."""
    return coordinator.supersede(record.gid, record.participants)


class Entry(NamedTuple):
    """Where a driver enters :func:`finish`: what sets it apart, as data."""

    #: the kind the driver starts from -> the step that makes it safe to
    #: act on and returns the final kind; a kind with no step is final
    #: and protected already.
    protect: Dict[int, Callable[..., Gen]]
    #: delivery rounds ``(paper, optimized)``; None: until all answered.
    rounds: Tuple[Optional[int], Optional[int]]
    #: ``phase`` labels of the protect round and of the tail round.
    phase: str
    tail: str
    #: log COMPLETE with the tail and run it in the background: a client
    #: is waiting on this driver.
    logs_complete: bool = False


#: ``decided``: the coordinator, once it logged the decision.
DECIDED = Entry(
    {ClogRecord.COMMIT: _by_coordinator, ClogRecord.ABORT: _by_coordinator},
    (None, 2), "decision", "complete", logs_complete=True,
)
#: ``quorum-final``: a completer whose slot tally reached a quorum.
QUORUM_FINAL = Entry(
    {ClogRecord.COMMIT: _by_group_round}, (1, 1), "complete", "complete",
)
#: ``replayed``: recovery, from what the Clog says of one of the node's
#: own transactions.
REPLAYED = Entry(
    {ClogRecord.PREPARE: _by_aborting, ClogRecord.COMMIT: _by_coordinator},
    (1, 1), "redrive", "redrive-apply",
)
#: ``answered``: a recovered half its coordinator answered (after
#: protecting the decision).
ANSWERED = Entry({}, (1, 1), "resolve", "resolve-apply")


def finish(
    coordinator,
    entry: Entry,
    record: DecisionRecord,
    nodes: List[int],
    ops: Callable[[], int],
    on_protected: Optional[Callable[[int], Any]] = None,
) -> Gen:
    """Protect ``record``'s decision, deliver it to ``nodes`` while this
    node's half is applied, then run one round for the apply-side targets.

    ``coordinator`` is this node's Coordinator role (its Participant,
    pipeline and wire come with it); ``ops`` mints the operation id of
    each instruction sent.  ``on_protected(kind)`` is the coordinator's
    phase bookkeeping: called once the decision is safe to act on, it
    returns the span to close once this node's half is applied.  The
    own half's apply starts, as a process joined after delivery, in the
    instant the delivery round does, and only if this node holds the
    half or the record names this node.  The targets are delivery's,
    then the own half's.  Returns the final kind.
    """
    runtime = coordinator.runtime
    participant = coordinator.participant
    gid = record.gid
    key = gid.encode()
    kind = record.kind
    protect = entry.protect.get(kind)
    if protect is not None:
        kind = yield from protect(coordinator, record, entry.phase)
    span = on_protected(kind) if on_protected is not None else None
    own = None
    if (
        coordinator.node_numeric_id in record.participants
        or key in participant.active
    ):
        own = runtime.sim.process(participant.apply(key, kind), "own-apply")
        # It may fail before delivery returns and anyone waits on it: it
        # is joined below whatever delivery does, so its failure is
        # raised there, once, and never by Simulator.run.
        own.defuse()
    try:
        targets = yield from deliver(
            coordinator.rpc, coordinator.addresses, nodes,
            lambda: TxMessage(
                INSTRUCTIONS[kind], gid.node_id, gid.local_seq, ops()
            ),
            rounds=entry.rounds[replication(runtime)],
        )
    except Exception:
        # (Not GeneratorExit: a fiber abandoned at the end of a run has
        # nothing left to join.)
        if own is not None:
            yield own
        raise
    if own is not None:
        targets += (yield own) or []
    if span is not None:
        span.close()
    if not entry.logs_complete:
        yield from coordinator.pipeline.stabilize_group(
            targets, txn=key.hex(), phase=entry.tail
        )
    elif kind == ClogRecord.COMMIT:
        # Off the critical path: record that every participant was told,
        # so recovery does not re-drive this transaction.
        runtime.sim.spawn(
            coordinator.log_complete(record, targets, entry.tail),
            name="clog-complete",
        )
    return kind
