"""Transaction handles, buffers and status tracking.

Treaty keeps "the updates of uncommitted in-progress Txs into local
buffers ... implemented as a stream of bytes that allocate continuous
memory to eliminate paging" (§VII-D).  :class:`TxnBuffer` models that:
writes are appended to one contiguous enclave allocation whose growth is
accounted against EPC, and the key→value view needed for read-my-own-
writes is maintained alongside.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from ..memory.regions import Allocation, MemoryRegion

__all__ = ["TxnStatus", "TxnBuffer", "ReadSet"]


class TxnStatus:
    ACTIVE = "active"
    PREPARED = "prepared"
    COMMITTED = "committed"
    ABORTED = "aborted"


class TxnBuffer:
    """Buffered (uncommitted) writes of one transaction."""

    def __init__(self, enclave_region: MemoryRegion):
        self._region = enclave_region
        self._writes: "OrderedDict[bytes, Optional[bytes]]" = OrderedDict()
        self._allocation: Optional[Allocation] = None
        self.byte_size = 0

    def record(self, key: bytes, value: Optional[bytes]) -> None:
        """Buffer ``key -> value`` (None deletes); last write wins."""
        self._writes[key] = value
        self._writes.move_to_end(key)
        # A contiguous stream: an overwrite's old bytes stay until commit.
        self.byte_size += len(key) + len(value or b"")
        self._reallocate()

    def _reallocate(self) -> None:
        if self._allocation is not None:
            self._allocation.free()
        self._allocation = self._region.allocate(self.byte_size)

    def get(self, key: bytes) -> Tuple[bool, Optional[bytes]]:
        """(hit, value) — read-my-own-writes lookup."""
        if key in self._writes:
            return True, self._writes[key]
        return False, None

    def items(self) -> List[Tuple[bytes, Optional[bytes]]]:
        return list(self._writes.items())

    def keys(self) -> List[bytes]:
        return list(self._writes)

    def __len__(self) -> int:
        return len(self._writes)

    def release(self) -> None:
        """Free the enclave allocation (commit or rollback)."""
        if self._allocation is not None:
            self._allocation.free()
            self._allocation = None
        self._writes.clear()
        self.byte_size = 0


class ReadSet:
    """Keys read by a transaction with the version observed (for OCC)."""

    def __init__(self):
        self._reads: Dict[bytes, int] = {}

    def record(self, key: bytes, seq: int) -> None:
        # Keep the first observed version: validation must prove it never
        # changed for the duration of the transaction.
        self._reads.setdefault(key, seq)

    def items(self) -> List[Tuple[bytes, int]]:
        return list(self._reads.items())

    def __contains__(self, key: bytes) -> bool:
        return key in self._reads

    def __len__(self) -> int:
        return len(self._reads)
