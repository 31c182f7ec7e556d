"""MemTable: a sorted key index with the enclave/host value split.

Treaty adapts SPEICHER's MemTable "by separating the keys from the
values.  We keep keys along with their version number inside the enclave,
while we place the encrypted values in the untrusted host.  To access
values and prove their authenticity we similarly keep a pointer to the
value as well as its secure hash value along with the key" (§V-B).

This module implements exactly that: a key index whose entries (keys,
sequence numbers, value pointers, value hashes) are charged against
enclave memory, and a host-memory value arena holding sealed blobs that
the adversary can tamper with — tampering is detected on read.  The
enclave costs are the model's constants; the index itself is a dict for
point operations plus a key list kept sorted for the two readers of key
order, a flush and a range scan.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from hashlib import sha256
from typing import Any, Dict, Generator, List, Optional

from ..crypto.keys import KeyRing
from ..errors import IntegrityError
from ..sim.core import Event
from ..sim.rng import SeededRng
from ..tee.runtime import NodeRuntime

__all__ = ["MemTable", "TOMBSTONE"]

Gen = Generator[Event, Any, Any]

#: Sentinel for deletions ("no value, key removed").
TOMBSTONE = object()

#: Modelled per-entry enclave overhead: node pointers, seq, hash, vptr.
_NODE_OVERHEAD = 64


class _MemEntry:
    """Enclave-resident record: seq + pointer + hash of the host value."""

    __slots__ = ("seq", "value_id", "value_hash", "is_tombstone", "value_len")

    def __init__(self, seq, value_id, value_hash, is_tombstone, value_len):
        self.seq = seq
        self.value_id = value_id
        self.value_hash = value_hash
        self.is_tombstone = is_tombstone
        self.value_len = value_len


class MemTable:
    """The active in-memory level of the LSM tree."""

    def __init__(
        self,
        runtime: NodeRuntime,
        keyring: KeyRing,
        name: str = "memtable",
        rng: Optional[SeededRng] = None,  # unused; perf/layers.py passes it
    ):
        self.runtime = runtime
        self.name = name
        self._aead = keyring.storage_aead(runtime.name, "memtable")
        self._entries: Dict[bytes, _MemEntry] = {}
        #: the keys of ``_entries`` in sorted order
        self._keys: List[bytes] = []
        #: sealed value blobs living in *untrusted* host memory; exposed
        #: so attack tests can tamper with them.
        self.host_values: Dict[int, bytes] = {}
        self._next_value_id = 0
        self._allocations = []
        self.approximate_bytes = 0

    @property
    def encrypted(self) -> bool:
        return self.runtime.encryption

    def __len__(self) -> int:
        return len(self._entries)

    # -- write path -----------------------------------------------------------
    def put(self, key: bytes, value: Optional[bytes], seq: int) -> Gen:
        """Insert ``key -> value`` at sequence ``seq`` (None = tombstone).

        The seal, its hash and the insert are one core hold: the value
        is sealed and hashed before it, the entry lands after it.
        """
        runtime = self.runtime
        is_tombstone = value is None
        plain = b"" if is_tombstone else value
        if self.encrypted:
            stored = self._aead.seal(runtime.iv(seq), plain, aad=key)
            value_hash = sha256(stored).digest()
            yield from runtime.compute(
                runtime.aead_seconds(len(plain)),
                runtime.hash_seconds(len(plain)),
                runtime.costs.memtable_insert_cpu,
            )
        else:
            stored, value_hash = plain, b""
            yield from runtime.compute(runtime.costs.memtable_insert_cpu)
        value_id = self._next_value_id
        self._next_value_id += 1
        self.host_values[value_id] = stored
        entry = _MemEntry(seq, value_id, value_hash, is_tombstone, len(plain))
        # Enclave accounting: key + node overhead; host gets the value.
        self._allocations.append(
            self.runtime.enclave.memory.allocate(len(key) + _NODE_OVERHEAD)
        )
        self._allocations.append(self.runtime.host_memory.allocate(len(stored)))
        if self.runtime.in_enclave:
            yield from self.runtime.touch_enclave(len(key) + _NODE_OVERHEAD)
        if key not in self._entries:
            insort(self._keys, key)
        self._entries[key] = entry
        self.approximate_bytes += len(key) + len(stored) + _NODE_OVERHEAD

    # -- read path --------------------------------------------------------------
    def _load_value(self, key: bytes, entry: _MemEntry,
                    overhead: float = 0.0) -> Gen:
        """The plaintext of ``entry``.  ``overhead``, the hash check and
        the open are one core hold; a value modified in host memory
        raises after ``overhead`` and the hash alone."""
        runtime = self.runtime
        stored = self.host_values[entry.value_id]
        if not self.encrypted:
            yield from runtime.compute(overhead)
            return stored
        hashed = runtime.hash_seconds(len(stored))
        if sha256(stored).digest() != entry.value_hash:
            yield from runtime.compute(overhead, hashed)
            raise IntegrityError(
                "MemTable value for %r modified in host memory" % key
            )
        yield from runtime.compute(
            overhead, hashed, runtime.aead_seconds(len(stored))
        )
        return self._aead.open(stored, aad=key)

    def get(self, key: bytes, overhead: float = 0.0) -> Gen:
        """Look up a key.

        Returns ``None`` when the key is absent from this MemTable,
        ``(TOMBSTONE, seq)`` for a deletion marker, or ``(value, seq)``.
        The key is looked up before the read is charged: ``overhead``
        (a point read's op overhead) opens the value's one core hold, and
        a miss or a tombstone pays it alone.
        """
        if self.runtime.in_enclave:
            yield from self.runtime.touch_enclave(len(key) + _NODE_OVERHEAD)
        entry = self._entries.get(key)
        if entry is None or entry.is_tombstone:
            yield from self.runtime.compute(overhead)
            return None if entry is None else (TOMBSTONE, entry.seq)
        plain = yield from self._load_value(key, entry, overhead)
        return (plain, entry.seq)

    def seq_of(self, key: bytes) -> Optional[int]:
        """Latest sequence number for ``key`` (no value access)."""
        entry = self._entries.get(key)
        return None if entry is None else entry.seq

    # -- flush support -----------------------------------------------------------
    def _walk(self, index: int, end: Optional[bytes]) -> Gen:
        """Decrypted entries in key order from ``self._keys[index]`` up
        to ``end`` (exclusive).

        A value's open yields, and a put may land meanwhile: the walk
        goes on from the first key after the one it read, so a key
        inserted behind it is skipped and one inserted ahead is read.
        """
        keys = self._keys
        result = []
        while index < len(keys):
            key = keys[index]
            if end is not None and key >= end:
                break
            entry = self._entries[key]
            if entry.is_tombstone:
                result.append((key, TOMBSTONE, entry.seq))
            else:
                plain = yield from self._load_value(key, entry)
                result.append((key, plain, entry.seq))
            index = bisect_right(keys, key)
        return result

    def entries(self) -> Gen:
        """All live entries, sorted, decrypted — for flushing to an SSTable.

        Returns ``[(key, value_or_TOMBSTONE, seq), ...]``.
        """
        return (yield from self._walk(0, None))

    def range_scan(self, start: bytes, end: Optional[bytes]) -> Gen:
        """Entries in ``[start, end)`` as ``[(key, value|TOMBSTONE, seq)]``."""
        return (yield from self._walk(bisect_left(self._keys, start), end))

    def clear(self) -> None:
        """Drop all state (after a successful flush); frees both regions."""
        for allocation in self._allocations:
            allocation.free()
        self._allocations.clear()
        self.host_values.clear()
        self._entries = {}
        self._keys = []
        self.approximate_bytes = 0
