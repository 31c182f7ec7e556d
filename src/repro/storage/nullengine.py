"""In-memory, storage-less engine for protocol-isolation experiments.

Figure 4 evaluates "TREATY's 2PC protocol designed over eRPC ... without
any underlying storage to isolate the protocol's overheads".  This
engine implements the slice of the :class:`~repro.storage.engine.LSMEngine`
interface the transaction layer uses, keeps everything in enclave
memory, and charges no storage costs — network and crypto costs remain.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from ..sim.core import Event
from ..tee.runtime import NodeRuntime

__all__ = ["NullStorageEngine"]

Gen = Generator[Event, Any, Any]


class NullLog:
    """Counter-stamped log stub (Clog stand-in for protocol-only runs)."""

    def __init__(self, runtime: NodeRuntime, log_name: str):
        self.runtime = runtime
        self.log_name = log_name
        self.filename = log_name
        self.next_counter = 1

    @property
    def last_counter(self) -> int:
        return self.next_counter - 1

    def append(self, payload: bytes) -> Gen:
        yield from self.runtime.op_overhead()
        counter = self.next_counter
        self.next_counter += 1
        return counter

    def append_many(self, payloads) -> Gen:
        counters = []
        for payload in payloads:
            counters.append((yield from self.append(payload)))
        return counters

    def replay(self, up_to_counter=None) -> Gen:
        yield from self.runtime.op_overhead()
        return []

    def on_disk_max_counter(self) -> int:
        return self.last_counter


class NullStorageEngine:
    """A KV map with WAL/MANIFEST stubs (no persistence, no I/O cost)."""

    def __init__(self, runtime: NodeRuntime, name: str = "node0"):
        self.runtime = runtime
        self.name = name
        self._data: Dict[bytes, Tuple[Optional[bytes], int]] = {}
        self._seq = 0
        self._counter = 0
        self.prepared_txns: Dict[bytes, List] = {}

    # -- sequence numbers ----------------------------------------------------
    def next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def current_seq(self) -> int:
        return self._seq

    # -- logging stubs ----------------------------------------------------------
    @property
    def wal_log_name(self) -> str:
        return "%s/null-wal" % self.name

    @property
    def manifest_log_name(self) -> str:
        return "%s/null-manifest" % self.name

    def _next_counter(self) -> int:
        self._counter += 1
        return self._counter

    def log_commit(self, txn_id: bytes, writes) -> Gen:
        yield from self.runtime.op_overhead()
        self.prepared_txns.pop(txn_id, None)
        return self._next_counter()

    def log_commits(self, records) -> Gen:
        yield from self.runtime.op_overhead()
        counters = []
        for txn_id, _writes in records:
            self.prepared_txns.pop(txn_id, None)
            counters.append(self._next_counter())
        return counters

    def log_prepare(self, txn_id: bytes, writes) -> Gen:
        yield from self.runtime.op_overhead()
        self.prepared_txns[txn_id] = list(writes)
        return self._next_counter(), self.wal_log_name

    def forget_prepared(self, txn_id: bytes) -> None:
        self.prepared_txns.pop(txn_id, None)

    # -- data access -------------------------------------------------------------
    def apply_writes(self, writes) -> Gen:
        yield from self.runtime.op_overhead()
        for key, value, seq in writes:
            self._data[key] = (value, seq)

    def get_with_seq(self, key: bytes) -> Gen:
        yield from self.runtime.op_overhead()
        value, seq = self._data.get(key, (None, 0))
        return (value, seq)

    def seq_of(self, key: bytes) -> Gen:
        _value, seq = yield from self.get_with_seq(key)
        return seq

    def scan(self, start: bytes, end: Optional[bytes], limit=None) -> Gen:
        yield from self.runtime.op_overhead()
        rows = [
            (key, value)
            for key, (value, _seq) in sorted(self._data.items())
            if key >= start and (end is None or key < end) and value is not None
        ]
        if limit is not None:
            rows = rows[:limit]
        return rows
