"""Single-node transaction layer: locks, 2PL/OCC transactions, group commit."""

from .base import LocalTransaction
from .group_commit import GroupCommitter
from .locks import LockMode, LockTable
from .manager import TransactionManager
from .pessimistic import PessimisticTxn
from .types import ReadSet, TxnBuffer, TxnStatus

__all__ = [
    "GroupCommitter",
    "LocalTransaction",
    "LockMode",
    "LockTable",
    "PessimisticTxn",
    "ReadSet",
    "TransactionManager",
    "TxnBuffer",
    "TxnStatus",
]
