"""The steps of a 2PC decision, each written once.

After the vote there is one sequence (§V-A, Figure 2 steps 5–8): log the
decision, protect it, deliver it, apply it, record completion.  Whoever
holds the decision runs it — the coordinator, a completer that took over,
recovery re-running it from the Clog — so each step is written once:
SecureRpc.gather, Coordinator.protect, and :func:`deliver` and
:func:`apply_half` below (docs/PROTOCOL.md lists which driver composes
which).  The vote's two shared steps (:func:`protect_prepare`,
:func:`validate_occ`) serve remote and coordinator-local halves alike.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional

from ...errors import TransactionAborted
from ...net.message import MsgType, TxMessage
from ...net.secure_rpc import SecureRpc
from ...sim.core import Event
from ...tee.runtime import NodeRuntime
from ...txn.pessimistic import PessimisticTxn
from ...txn.types import TxnStatus
from ..ids import GlobalTxnId
from ..trusted_counter import Target, decode_counter_vector
from .codec import ClogRecord

__all__ = [
    "PREPARE_VOTE_TIMEOUT", "RESOLUTION_RETRY_INTERVAL",
    "piggyback", "replication", "protect_prepare", "validate_occ",
    "pace", "deliver", "apply_half",
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
