"""WAL record formats: committed batches and prepared transactions.

"WAL stores the MemTable updates and the prepared Txs" (§V-A).  Two
record kinds exist:

* ``COMMIT`` — a durably committed write batch (applied to the MemTable
  on replay);
* ``PREPARE`` — a distributed transaction's buffered writes persisted at
  the participant's prepare phase; on recovery these re-initialize the
  prepared-transaction table and are resolved with the coordinator (§VI).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..errors import CorruptLogError
from .format import Reader, Writer

__all__ = ["WalRecord", "WriteOp"]

#: One write: (key, value-or-None-for-delete, sequence number).
WriteOp = Tuple[bytes, Optional[bytes], int]

_TOMBSTONE_FLAG = 1


@dataclass
class WalRecord:
    """One write-ahead-log record."""

    KIND_COMMIT = 1
    KIND_PREPARE = 2

    kind: int
    txn_id: bytes  # global transaction id (coordinator node + local id)
    writes: List[WriteOp]

    @classmethod
    def commit(cls, txn_id: bytes, writes: List[WriteOp]) -> "WalRecord":
        return cls(cls.KIND_COMMIT, txn_id, writes)

    @classmethod
    def prepare(cls, txn_id: bytes, writes: List[WriteOp]) -> "WalRecord":
        return cls(cls.KIND_PREPARE, txn_id, writes)

    def encode(self) -> bytes:
        writer = Writer().u32(self.kind).blob(self.txn_id).u32(len(self.writes))
        for key, value, seq in self.writes:
            flags = _TOMBSTONE_FLAG if value is None else 0
            writer.u32(flags).blob(key).blob(value or b"").u64(seq)
        return writer.getvalue()

    @classmethod
    def decode(cls, data: bytes) -> "WalRecord":
        reader = Reader(data)
        kind = reader.u32()
        if kind not in (cls.KIND_COMMIT, cls.KIND_PREPARE):
            raise CorruptLogError("unknown WAL record kind %d" % kind)
        txn_id = reader.blob()
        count = reader.u32()
        writes: List[WriteOp] = []
        for _ in range(count):
            flags = reader.u32()
            key = reader.blob()
            value = reader.blob()
            seq = reader.u64()
            writes.append((key, None if flags & _TOMBSTONE_FLAG else value, seq))
        return cls(kind, txn_id, writes)
