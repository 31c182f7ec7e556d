"""Treaty's secure two-phase commit protocol (§V, Figure 2).

A client-selected *coordinator* drives each distributed transaction:

1. interactive execution — ``TXNGET``/``TXNPUT`` requests are routed to
   the participant owning the key's shard, each as a sealed
   :class:`~repro.net.message.TxMessage` carrying the unique
   ``(node, txn, op)`` triple so it can never be double-executed (the
   coordinator's own shard is its node's participant too, reached by a
   direct call instead of the wire);
2. prepare — the coordinator logs the transaction to its Clog, then all
   participants persist prepare records and *delay their ACK until the
   prepare entry is stabilized* (rollback-protected);
3. decision — the coordinator logs the commit/abort decision to the Clog
   and stabilizes it before instructing participants;
4. commit — participants apply through group commit; nobody waits for
   the *commit* record's stabilization ("even if the system crashes,
   this Tx can be committed in the exact same order").

Transactions touching only the coordinator's shard take the single-node
fast path (§V-B) — no Clog, no 2PC rounds: the node's participant
commits the half in one phase.

One module per seam: :mod:`.codec` (message bodies, Clog and decision
records), :mod:`.steps` (the steps of a decision several roles run,
and the decision slots they write and count),
:mod:`.participant`, :mod:`.coordinator` and :mod:`.txn`
(:class:`GlobalTxn`, the lifecycle above).
"""

from .codec import (
    ClogRecord,
    DecisionRecord,
    decode_occ_prepare,
    decode_scan_reply,
    decode_scan_request,
    encode_occ_prepare,
    encode_scan_reply,
    encode_scan_request,
    fold_clog,
)
from .coordinator import Coordinator, Partitioner
from .participant import Participant
from .steps import (
    PREPARE_VOTE_TIMEOUT,
    RESOLUTION_RETRY_INTERVAL,
    DecisionLedger,
    Gen,
    deliver,
    pace,
    piggyback,
    replication,
)
from .txn import GlobalTxn

__all__ = [
    "ClogRecord",
    "DecisionRecord",
    "DecisionLedger",
    "fold_clog",
    "Participant",
    "Coordinator",
    "GlobalTxn",
    "piggyback",
    "replication",
    "pace",
    "deliver",
]
