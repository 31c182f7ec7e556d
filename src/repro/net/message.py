"""Treaty's secure message format (§VII-A).

Wire layout: ``IV (12 B) || padding (4 B) || metadata (80 B) || data || MAC (16 B)``.
Metadata and data are encrypted; IV and MAC are in the clear — flipping
either simply fails the integrity check.  The metadata carries the
coordinator node id, the transaction id (monotonically incremented at the
coordinator) and a per-request operation id; the ``(node, txn, op)``
triple uniquely identifies an operation cluster-wide and is how receivers
enforce at-most-once execution against duplicated/replayed packets.
"""

from __future__ import annotations

import struct
from array import array
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..crypto.aead import IV_BYTES, MAC_BYTES, Aead
from ..errors import IntegrityError, ReplayError

__all__ = [
    "MsgType",
    "TxMessage",
    "ReplayGuard",
    "METADATA_BYTES",
    "PAD_BYTES",
    "wire_size",
    "pack_parts",
    "unpack_parts",
    "peek_context",
    "seal_batch",
    "unseal_batch",
    "batch_wire_size",
]

PAD_BYTES = 4  # §VII-A: 4 B payload for memory alignment
# The pad sits between the IV and the ciphertext, outside the MAC'd
# region as in the paper: it carries no information.
_PAD = b"\x00" * PAD_BYTES
METADATA_BYTES = 80  # §VII-A: 80 B Tx metadata

# The 80 B head, packed and unpacked in one call: node id (8) + txn id
# (8) + op id (8) + msg type (4) + body length (4), then the trace
# context, then reserved zero padding.  The trace context rides the
# formerly reserved bytes, so the wire size is unchanged: 16 B trace id
# (the transaction's GlobalTxnId encoding; all-zero = no context) +
# parent span id (8 B) + origin node id (8 B).  Sealed with the rest of
# the metadata, so the causal chain a receiver adopts is covered by the
# frame's MAC.
_HEAD = struct.Struct("<QQQiI16sQQ16x")
_TRACE_OFFSET = 32  # where the trace context starts in the head
_CONTEXT = struct.Struct("<16sQ")  # its trace id + parent span id
_NO_TRACE = b"\x00" * 16


class MsgType:
    """Request/response kinds carried by Treaty messages."""

    TXN_READ = 1
    TXN_WRITE = 2
    TXN_PREPARE = 3
    TXN_COMMIT = 4
    TXN_ABORT = 5
    ACK = 6
    FAIL = 7
    COUNTER_UPDATE = 8
    COUNTER_ECHO = 9
    COUNTER_CONFIRM = 10
    CLIENT_REQUEST = 11
    CLIENT_REPLY = 12
    RECOVERY_QUERY = 13
    RECOVERY_REPLY = 14
    TXN_RESOLVE = 15
    TXN_RESOLVE_REPLY = 16
    TXN_SCAN = 17
    #: a recovered coordinator announces its new boot epoch; peers abort
    #: its pre-epoch transactions that never reached PREPARE.
    TXN_FENCE = 18
    #: non-blocking commit: the coordinator replicates its commit/abort
    #: decision record to the participant group before answering the
    #: client; a quorum of ACKs makes the decision durable.
    DECISION_RECORD = 19
    #: non-blocking commit: a timed-out participant asks its peers what
    #: decision (if any) they hold for an in-doubt transaction.
    DECISION_QUERY = 20
    #: distributed OCC: stateless versioned read — returns (found,
    #: value, seq) without creating a participant-local transaction or
    #: taking any lock.
    TXN_READ_OCC = 21
    #: distributed OCC: stateless read-committed range scan.
    TXN_SCAN_OCC = 22

    #: type number → constant name (message labels and span names).
    #: The comprehension's outer iterable is evaluated in the class body.
    NAMES = {
        value: name for name, value in list(locals().items())
        if name.isupper()
    }


class TxMessage:
    """One transaction-protocol message before sealing.

    Treat it as immutable.  Equality and hash cover the identity triple,
    the type and the body; the trace context (32 B of the metadata's
    reserved region) is excluded, so replay/identity semantics do not
    depend on it.
    """

    __slots__ = ("msg_type", "node_id", "txn_id", "op_id", "body",
                 "trace", "trace_parent", "trace_origin")

    def __init__(
        self,
        msg_type: int,
        node_id: int,  # coordinator node's id (8 B)
        txn_id: int,  # coordinator-local monotonic transaction id (8 B)
        op_id: int,  # unique per request within the transaction (8 B)
        body: bytes = b"",
        trace: Optional[str] = None,
        trace_parent: int = 0,
        trace_origin: int = 0,
    ):
        self.msg_type = msg_type
        self.node_id = node_id
        self.txn_id = txn_id
        self.op_id = op_id
        self.body = body
        self.trace = trace
        self.trace_parent = trace_parent
        self.trace_origin = trace_origin

    def _identity(self) -> Tuple[int, int, int, int, bytes]:
        return (self.msg_type, self.node_id, self.txn_id, self.op_id,
                self.body)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not TxMessage:
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self) -> int:
        return hash(self._identity())

    # -- identity --------------------------------------------------------
    @property
    def operation_key(self) -> Tuple[int, int, int]:
        """The unique (node, txn, op) triple used for at-most-once checks."""
        return (self.node_id, self.txn_id, self.op_id)

    def reply(self, msg_type: int, body: bytes = b"") -> "TxMessage":
        """The answer to this request: it echoes the request's triple,
        which is how the caller's continuation finds it."""
        return TxMessage(msg_type, self.node_id, self.txn_id, self.op_id, body)

    def with_trace(self, trace: str, parent: int, origin: int) -> "TxMessage":
        """This message carrying a trace context (same identity)."""
        return TxMessage(self.msg_type, self.node_id, self.txn_id, self.op_id,
                         self.body, trace, parent, origin)

    # -- encoding ---------------------------------------------------------
    def encode(self) -> bytes:
        """Serialize metadata + body (the to-be-encrypted plaintext)."""
        raw_trace = bytes.fromhex(self.trace) if self.trace else _NO_TRACE
        if len(raw_trace) != 16:
            raise IntegrityError("trace id must encode to 16 bytes")
        body = self.body
        return _HEAD.pack(
            self.node_id, self.txn_id, self.op_id, self.msg_type, len(body),
            raw_trace, self.trace_parent, self.trace_origin,
        ) + body

    @classmethod
    def decode(cls, plaintext: bytes) -> "TxMessage":
        if len(plaintext) < METADATA_BYTES:
            raise IntegrityError("message shorter than its metadata")
        (node_id, txn_id, op_id, msg_type, body_len,
         raw_trace, trace_parent, trace_origin) = _HEAD.unpack_from(plaintext)
        body = plaintext[METADATA_BYTES:]
        if len(body) != body_len:
            raise IntegrityError("message body length mismatch")
        trace = raw_trace.hex() if raw_trace != _NO_TRACE else None
        return cls(msg_type, node_id, txn_id, op_id, body,
                   trace, trace_parent, trace_origin)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = MsgType.NAMES.get(self.msg_type, str(self.msg_type))
        return "<TxMessage %s node=%d txn=%d op=%d body=%dB>" % (
            name,
            self.node_id,
            self.txn_id,
            self.op_id,
            len(self.body),
        )


def wire_size(body_len: int, encrypted: bool) -> int:
    """Bytes on the wire for a message with an ``body_len``-byte body."""
    plain = METADATA_BYTES + body_len
    if encrypted:
        return IV_BYTES + PAD_BYTES + plain + MAC_BYTES
    return plain


# -- batch framing (transport coalescing, §VII-A's eRPC substrate) ---------
#
# A coalesced batch concatenates length-prefixed sub-messages and — when
# encryption is on — seals the whole concatenation under ONE IV and ONE
# MAC: ``IV (12 B) || padding (4 B) || AEAD(u32 len || part, ...) || MAC``.
# The batch AAD binds the sender and a per-sender batch sequence number so
# a replayed batch frame is rejected as a unit.

_PART_LEN = struct.Struct("<I")


def pack_parts(parts: Sequence[bytes]) -> bytes:
    """Length-prefix and concatenate sub-message payloads."""
    chunks = []
    for part in parts:
        chunks.append(_PART_LEN.pack(len(part)))
        chunks.append(part)
    return b"".join(chunks)


def unpack_parts(blob: bytes) -> List[bytes]:
    """Split a :func:`pack_parts` concatenation back into payloads."""
    parts: List[bytes] = []
    offset = 0
    total = len(blob)
    while offset < total:
        if offset + _PART_LEN.size > total:
            raise IntegrityError("batch part header truncated")
        (length,) = _PART_LEN.unpack_from(blob, offset)
        offset += _PART_LEN.size
        if offset + length > total:
            raise IntegrityError("batch part body truncated")
        parts.append(blob[offset : offset + length])
        offset += length
    return parts


def peek_context(encoded: bytes) -> Tuple[Optional[str], int]:
    """Read ``(trace, parent sid)`` out of an encoded (plaintext) message.

    ``(None, 0)`` when the message carries no context.  The batch codec
    files a whole frame's AEAD pass under its first context-carrying
    sub-message without paying a full decode.
    """
    if len(encoded) < _TRACE_OFFSET + _CONTEXT.size:
        return None, 0
    raw, parent = _CONTEXT.unpack_from(encoded, _TRACE_OFFSET)
    return (raw.hex(), parent) if raw != _NO_TRACE else (None, 0)


def seal_batch(
    aead: Aead, iv: bytes, parts: Sequence[bytes], aad: bytes
) -> bytes:
    """One AEAD pass over a whole batch (single IV, single MAC)."""
    return iv + _PAD + aead.encrypt(iv, pack_parts(parts), aad)


def unseal_batch(aead: Aead, wire: bytes, aad: bytes) -> List[bytes]:
    """Verify/decrypt a sealed batch and split it into payloads."""
    if len(wire) < IV_BYTES + PAD_BYTES + MAC_BYTES:
        raise IntegrityError("sealed batch too short")
    return unpack_parts(
        aead.decrypt(wire[:IV_BYTES], wire[IV_BYTES + PAD_BYTES :], aad)
    )


def batch_wire_size(part_lens: Sequence[int], encrypted: bool) -> int:
    """Bytes on the wire for a batch of already-encoded payloads."""
    packed = sum(part_lens) + _PART_LEN.size * len(part_lens)
    if encrypted:
        return IV_BYTES + PAD_BYTES + packed + MAC_BYTES
    return packed


#: batch replay window, in batch sequence numbers per (sender, boot
#: epoch).  A window gives an unbounded set's verdict unless a genuine
#: frame arrives W or more batches behind its sender's newest.  A
#: sender's frames reorder only across its own flushers and cores: at
#: most 3 batches behind on the four benchmark workloads (seed 11), so
#: 4096 leaves three orders of magnitude.  A power of two, so a slot is
#: ``seq & (W - 1)``; 32 KiB per window.
REPLAY_WINDOW = 4096

#: a batch id is ``epoch << 40 | seq`` (``SecureRpc.encode_batch``).
_SEQ_BITS = 40
_SEQ_MASK = (1 << _SEQ_BITS) - 1
_SLOT_MASK = REPLAY_WINDOW - 1
#: a fresh slot's value: no seq below 2**40 equals it, so it reads "not
#: seen" (0 would read as seq 0 seen).
_EMPTY_SLOT = (1 << 64) - 1
_EMPTY_WINDOW = array("Q", [_EMPTY_SLOT]) * REPLAY_WINDOW


class _BatchWindow:
    """The sliding anti-replay window of one (sender, epoch) — RFC 4303
    §3.4.3, as a ring of the last W seqs (RFC 6479 without the bitmap):
    slot ``seq & (W - 1)`` holding ``seq`` means seen, any other value
    means not, so advancing ``high`` clears nothing."""

    __slots__ = ("high", "slots")

    def __init__(self):
        self.high = 0
        self.slots = array("Q", _EMPTY_WINDOW)


class ReplayGuard:
    """At-most-once filter over ``(node, txn, op)`` operation ids, and
    over ``(sender, batch id)`` frame ids.

    The paper: "This unique tuple of the node's, Tx and operation ids
    ensures that an operation/Tx is not executed more than once."  Op
    ids stay in an exact, unbounded set: a window there could let a
    re-sent operation execute twice.  Frame ids go through one
    :data:`REPLAY_WINDOW`-wide window per sender epoch; a frame older
    than its window is rejected and counted in ``too_old``.
    """

    def __init__(self):
        #: ``node << 128 | txn << 64 | op``: all three are ``Q`` on the
        #: wire, so the packing is injective.
        self._seen: Set[int] = set()
        #: ``sender << 24 | epoch`` -> its window (an epoch is 24 bits).
        self._windows: Dict[int, _BatchWindow] = {}
        self.rejected = 0
        #: batches rejected only for falling behind their window.
        self.too_old = 0

    def check(self, message: TxMessage) -> None:
        """Record the message; raise :class:`ReplayError` if seen before."""
        key = (message.node_id << 128) | (message.txn_id << 64) | message.op_id
        if key in self._seen:
            self.rejected += 1
            raise ReplayError(
                "duplicate operation %r (replayed or double-executed)"
                % (message.operation_key,)
            )
        self._seen.add(key)

    def check_batch(self, src: int, batch_id: int) -> None:
        """Record a frame's batch id; raise :class:`ReplayError` if its
        window saw it, or if it is W or more behind the window's newest."""
        key = (src << 24) | (batch_id >> _SEQ_BITS)
        window = self._windows.get(key)
        if window is None:
            window = self._windows[key] = _BatchWindow()
        seq = batch_id & _SEQ_MASK
        slot = seq & _SLOT_MASK
        slots = window.slots
        if seq > window.high:
            window.high = seq
        elif seq <= window.high - REPLAY_WINDOW:
            self.rejected += 1
            self.too_old += 1
            raise ReplayError(
                "batch %d from %d is older than its replay window"
                % (batch_id, src)
            )
        elif slots[slot] == seq:
            self.rejected += 1
            raise ReplayError(
                "duplicate batch %d from %d (replayed)" % (batch_id, src)
            )
        slots[slot] = seq

    def __len__(self) -> int:
        """Operation ids recorded (frame windows are fixed-size)."""
        return len(self._seen)
