"""Canonical digests of cluster protocol state.

The explorer's visited-state cache needs to recognise that two choice
traces led the world to the *same* protocol state, so one of the two
subtrees can be skipped.  "Same" is defined by this module: a canonical
per-node summary of everything the protocol can branch on —

* durable bytes (WAL / Clog / SSTables, via a per-file CRC),
* lock tables,
* in-doubt participant transactions and coordinator decisions,
* stable-counter gate values and replica confirmed views,
* the LSM memtable shape and prepared-txn set,
* plus the multiset of frames still in flight on the fabric.

Fields that never influence protocol behaviour (wall-clock-ish metrics,
trace buffers, byte counters) are deliberately excluded; including them
would make every state unique and the cache useless.

Disk files are append-mostly (:class:`repro.storage.disk.Disk` extends
a per-file ``bytearray`` in place), so the CRC is computed
incrementally: a cache keyed by ``(node, filename)`` holds the buffer
(the object, not its ``id()`` — a freed buffer's address is recycled by
the next run's disk), consumed length and running CRC, and only the
suffix appended since the previous digest is hashed.  A rewritten file
(new buffer object or truncation) falls back to a full pass.

Digests are combined with Python's ``hash`` on nested tuples, which is
stable within one process — all the cache ever needs.  For stable
digests *across* processes (CI reruns), run with ``PYTHONHASHSEED=0``;
bytes/str hashing is the only randomized component.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, Tuple

__all__ = ["DiskCrcCache", "cluster_digest", "node_digest"]


class DiskCrcCache:
    """Incremental per-file CRC32 over a node's append-mostly disk."""

    def __init__(self):
        # (node_name, filename) -> (buffer, bytes consumed, crc)
        self._entries: Dict[Tuple[str, str], Tuple[Any, int, int]] = {}

    def file_crc(self, node_name: str, filename: str, data) -> int:
        key = (node_name, filename)
        entry = self._entries.get(key)
        length = len(data)
        if entry is not None:
            buffer, consumed, crc = entry
            if buffer is data and length >= consumed:
                if length > consumed:
                    crc = zlib.crc32(memoryview(data)[consumed:], crc)
                    self._entries[key] = (data, length, crc)
                return crc
        crc = zlib.crc32(bytes(data))
        self._entries[key] = (data, length, crc)
        return crc


def node_digest(node, crc_cache: DiskCrcCache) -> Tuple[Any, ...]:
    """Canonical summary of one node's protocol state."""
    disk_part = tuple(
        (filename, len(data), crc_cache.file_crc(node.name, filename, data))
        for filename, data in sorted(node.disk._files.items())
    )
    if not node.is_up:
        return ("down", node.boot_count, disk_part)

    locks = node.manager.locks
    locks_part = tuple(
        (txn_id, tuple(held.items()))
        for txn_id, held in sorted(locks._held.items())
    )
    active_part = tuple(
        (gid, txn.status)
        for gid, txn in sorted(node.participant.active.items())
    )
    decisions_part = tuple(sorted(node.coordinator.decisions.items()))
    gates_part = tuple(
        (log_name, gate.value)
        for log_name, gate in sorted(node.counter_client._gates.items())
    )
    replica_part = tuple(sorted(node.replica.confirmed.items()))
    clog_part = getattr(node.clog, "next_counter", None)
    engine = node.engine
    prepared_part = tuple(sorted(getattr(engine, "prepared_txns", ())))
    memtable = getattr(engine, "memtable", None)
    memtable_part = (
        (len(memtable), memtable.approximate_bytes)
        if memtable is not None else None
    )
    return (
        "up",
        node.boot_count,
        disk_part,
        locks_part,
        active_part,
        decisions_part,
        gates_part,
        replica_part,
        clog_part,
        prepared_part,
        memtable_part,
    )


def cluster_digest(cluster, in_flight: Dict[Tuple, int],
                   crc_cache: DiskCrcCache) -> int:
    """One hashable digest for the whole cluster + frames in flight."""
    nodes_part = tuple(
        node_digest(node, crc_cache) for node in cluster.nodes
    )
    flight_part = tuple(sorted(in_flight.items()))
    return hash((nodes_part, flight_part))
