"""What secure 2PC puts on the wire and in the Clog: the execution-phase
message bodies, the OCC ``PREPARE`` body, and the two records that carry
a decision.  Pure encoding — nothing here knows the roles, so the client
access layer shares these codecs with them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ...storage.format import Reader, Writer
from ..ids import GlobalTxnId

__all__ = [
    "ClogRecord", "DecisionRecord", "fold_clog",
    "encode_read", "encode_write", "decode_write",
    "encode_value_reply", "decode_value_reply",
    "encode_versioned_reply", "decode_versioned_reply",
    "encode_scan_request", "decode_scan_request",
    "encode_scan_reply", "decode_scan_reply",
    "encode_occ_prepare", "decode_occ_prepare",
]


def encode_read(key: bytes) -> bytes:
    return Writer().blob(key).getvalue()


def _put_write(writer: Writer, key: bytes, value: Optional[bytes]) -> Writer:
    """One write: key, tombstone flag, value (``None`` deletes the key)."""
    return writer.blob(key).u32(1 if value is None else 0).blob(value or b"")


def _take_write(reader: Reader) -> Tuple[bytes, Optional[bytes]]:
    key = reader.blob()
    tombstone = reader.u32()
    value = reader.blob()
    return key, None if tombstone else value


def encode_write(key: bytes, value: Optional[bytes]) -> bytes:
    return _put_write(Writer(), key, value).getvalue()


def decode_write(body: bytes) -> Tuple[bytes, Optional[bytes]]:
    return _take_write(Reader(body))


def encode_value_reply(value: Optional[bytes]) -> bytes:
    return Writer().u32(0 if value is None else 1).blob(value or b"").getvalue()


def decode_value_reply(body: bytes) -> Optional[bytes]:
    reader = Reader(body)
    found = reader.u32()
    value = reader.blob()
    return value if found else None


def encode_scan_request(start: bytes, end: Optional[bytes], limit: Optional[int]) -> bytes:
    return (
        Writer()
        .blob(start)
        .u32(1 if end is not None else 0)
        .blob(end or b"")
        .u32(0xFFFFFFFF if limit is None else limit)
        .getvalue()
    )


def decode_scan_request(body: bytes):
    reader = Reader(body)
    start = reader.blob()
    has_end = reader.u32()
    end = reader.blob()
    limit = reader.u32()
    return start, (end if has_end else None), (None if limit == 0xFFFFFFFF else limit)


def encode_scan_reply(rows) -> bytes:
    writer = Writer().u32(len(rows))
    for key, value in rows:
        writer.blob(key).blob(value)
    return writer.getvalue()


def decode_scan_reply(body: bytes):
    reader = Reader(body)
    count = reader.u32()
    rows = []
    for _ in range(count):
        key = reader.blob()
        value = reader.blob()
        rows.append((key, value))
    return rows


# -- distributed OCC codecs ---------------------------------------------------

def encode_versioned_reply(value: Optional[bytes], seq: int) -> bytes:
    return (
        Writer().u32(0 if value is None else 1).blob(value or b"").u64(seq)
        .getvalue()
    )


def decode_versioned_reply(body: bytes) -> Tuple[Optional[bytes], int]:
    reader = Reader(body)
    found = reader.u32()
    value = reader.blob()
    seq = reader.u64()
    return (value if found else None), seq


def encode_occ_prepare(
    reads: List[Tuple[bytes, int]],
    writes: List[Tuple[bytes, Optional[bytes]]],
) -> bytes:
    """PREPARE body: the participant's read-set versions + write-set."""
    writer = Writer().u32(len(reads))
    for key, seq in reads:
        writer.blob(key).u64(seq)
    writer.u32(len(writes))
    for key, value in writes:
        _put_write(writer, key, value)
    return writer.getvalue()


def decode_occ_prepare(body: bytes):
    reader = Reader(body)
    reads = [(reader.blob(), reader.u64()) for _ in range(reader.u32())]
    writes = [_take_write(reader) for _ in range(reader.u32())]
    return reads, writes


# -- decision records ---------------------------------------------------------

def _put_group(writer: Writer, participants, targets) -> Writer:
    """The tail both records share: who takes part, and the prepare
    records' ``(log, counter)`` targets."""
    writer.u32(len(participants))
    for node in participants:
        writer.u64(node)
    writer.u32(len(targets))
    for log_name, counter in targets:
        writer.blob(log_name.encode()).u64(counter)
    return writer


def _take_group(reader: Reader):
    participants = [reader.u64() for _ in range(reader.u32())]
    targets = [
        (reader.blob().decode(), reader.u64()) for _ in range(reader.u32())
    ]
    return participants, targets


class ClogRecord:
    """One coordinator-log entry: the 2PC protocol state (§V-A)."""

    PREPARE = 1
    COMMIT = 2
    ABORT = 3
    #: all participants acknowledged the commit: recovery need not
    #: re-drive this transaction.
    COMPLETE = 4

    def __init__(
        self,
        kind: int,
        gid: GlobalTxnId,
        participants: List[int],
        targets: Optional[List[Tuple[str, int]]] = None,
    ):
        self.kind = kind
        self.gid = gid
        self.participants = participants
        #: piggybacked stabilization targets: for COMMIT records, the
        #: participants' prepare-record (log, counter) pairs folded into
        #: the coordinator's group-wide round.  Persisted so recovery
        #: can re-stabilize targets the crashed coordinator collected
        #: but never saw acknowledged.
        self.targets: List[Tuple[str, int]] = list(targets or [])

    def encode(self) -> bytes:
        writer = Writer().u32(self.kind).blob(self.gid.encode())
        return _put_group(writer, self.participants, self.targets).getvalue()

    @classmethod
    def decode(cls, data: bytes) -> "ClogRecord":
        reader = Reader(data)
        kind = reader.u32()
        gid = GlobalTxnId.decode(reader.blob())
        return cls(kind, gid, *_take_group(reader))


def fold_clog(entries) -> Tuple[dict, set, dict]:
    """Fold replayed ``(counter, payload)`` Clog entries into the 2PC
    state they leave behind: per gid (bytes, in log order) the last
    PREPARE / COMMIT / ABORT record, the gids whose COMMIT was recorded
    COMPLETE, and every decision as ``(kind, counter, targets)``.

    The later entry wins: an ABORT can supersede an earlier COMMIT whose
    decision quorum proved unreachable (only the abort was ever
    observable).
    """
    records: Dict[bytes, ClogRecord] = {}
    completed = set()
    decisions: Dict[bytes, Tuple[int, int, tuple]] = {}
    for counter, payload in entries:
        record = ClogRecord.decode(payload)
        key = record.gid.encode()
        if record.kind == ClogRecord.COMPLETE:
            completed.add(key)
            continue
        records[key] = record
        if record.kind != ClogRecord.PREPARE:
            decisions[key] = (record.kind, counter, tuple(record.targets))
    return records, completed, decisions


class DecisionRecord:
    """The replicated commit/abort decision (non-blocking commit).

    Body of ``DECISION_RECORD`` broadcasts and ``DECISION_QUERY``
    replies.  Unlike a :class:`ClogRecord` it also names the
    coordinator and the decision entry's own ``(log, counter)`` target,
    so any completer can rollback-protect the whole group — every
    prepare record plus the decision entry — before acting on it, even
    with the coordinator dead.
    """

    def __init__(
        self,
        kind: int,
        gid: GlobalTxnId,
        participants: List[int],
        targets: Optional[List[Tuple[str, int]]],
        log_name: str,
        counter: int,
        coordinator: int,
    ):
        self.kind = kind
        self.gid = gid
        self.participants = list(participants)
        #: the group's prepare-record (log, counter) pairs, copied from
        #: the Clog decision entry.
        self.targets: List[Tuple[str, int]] = list(targets or [])
        #: the coordinator Clog holding the decision entry, plus the
        #: entry's counter (0 for synthetic slots written on a plain
        #: COMMIT/ABORT instruction, whose stability the instruction's
        #: sender already guaranteed).
        self.log_name = log_name
        self.counter = counter
        self.coordinator = coordinator

    def encode(self) -> bytes:
        writer = (
            Writer()
            .u32(self.kind)
            .blob(self.gid.encode())
            .u64(self.coordinator)
            .blob(self.log_name.encode())
            .u64(self.counter)
        )
        return _put_group(writer, self.participants, self.targets).getvalue()

    @classmethod
    def decode(cls, data: bytes) -> "DecisionRecord":
        reader = Reader(data)
        kind = reader.u32()
        gid = GlobalTxnId.decode(reader.blob())
        coordinator = reader.u64()
        log_name = reader.blob().decode()
        counter = reader.u64()
        participants, targets = _take_group(reader)
        return cls(
            kind, gid, participants, targets, log_name, counter, coordinator
        )
