"""Single-node transaction layer: key locks, transaction halves, group commit."""

from .group_commit import GroupCommitter
from .half import Half, SnapshotReads, TransactionManager, TxnBuffer, TxnStatus
from .locks import LockMode, LockTable

__all__ = [
    "GroupCommitter",
    "Half",
    "LockMode",
    "LockTable",
    "SnapshotReads",
    "TransactionManager",
    "TxnBuffer",
    "TxnStatus",
]
