"""The steps of a 2PC decision, each written once.

After the vote there is one sequence (§V-A, Figure 2 steps 5–8): log the
decision, protect it, deliver it, apply it, record completion.  Whoever
holds the decision runs it — the coordinator, a completer that took over,
recovery re-running it from the Clog — so each step is written once:
SecureRpc.gather, Coordinator.protect, :func:`deliver` below and
Participant.apply (docs/PROTOCOL.md lists which driver composes which).
The vote and the apply are Participant methods, not steps here: every
half lives in its node's Participant, the coordinator's own included.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional

from ...net.message import MsgType, TxMessage
from ...net.secure_rpc import SecureRpc
from ...sim.core import Event
from ...tee.runtime import NodeRuntime
from ..trusted_counter import Target, decode_counter_vector
from .codec import ClogRecord

__all__ = [
    "PREPARE_VOTE_TIMEOUT", "RESOLUTION_RETRY_INTERVAL",
    "piggyback", "replication", "pace", "deliver",
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
