"""Tests for Treaty's secure message format and the replay guard."""

import struct

import pytest

from repro.crypto import Aead
from repro.errors import IntegrityError, ReplayError
from repro.net import MsgType, ReplayGuard, TxMessage, wire_size
from repro.net.message import METADATA_BYTES, PAD_BYTES
from repro.crypto.aead import IV_BYTES, MAC_BYTES

KEY = bytes(range(32))
IV = b"\x07" * IV_BYTES


def sample_message(body=b"key=value"):
    return TxMessage(MsgType.TXN_WRITE, node_id=3, txn_id=42, op_id=7, body=body)


class TestEncoding:
    def test_plain_roundtrip(self):
        message = sample_message()
        assert TxMessage.decode(message.encode()) == message

    def test_metadata_is_80_bytes(self):
        assert len(sample_message(b"").encode()) == METADATA_BYTES

    def test_empty_body(self):
        message = sample_message(b"")
        assert TxMessage.decode(message.encode()).body == b""

    def test_truncated_plaintext_rejected(self):
        with pytest.raises(IntegrityError):
            TxMessage.decode(b"\x00" * 10)

    def test_body_length_mismatch_rejected(self):
        encoded = sample_message(b"abc").encode()
        with pytest.raises(IntegrityError):
            TxMessage.decode(encoded + b"extra")


class TestSealing:
    def test_sealed_roundtrip(self):
        aead = Aead(KEY)
        message = sample_message()
        wire = message.seal(aead, IV)
        assert TxMessage.unseal(aead, wire) == message

    def test_wire_layout_matches_paper(self):
        aead = Aead(KEY)
        body = b"x" * 100
        wire = sample_message(body).seal(aead, IV)
        # IV(12) + pad(4) + metadata(80) + data(100) + MAC(16)
        assert len(wire) == IV_BYTES + PAD_BYTES + METADATA_BYTES + 100 + MAC_BYTES
        assert len(wire) == wire_size(100, encrypted=True)

    def test_plaintext_wire_size(self):
        assert wire_size(100, encrypted=False) == METADATA_BYTES + 100

    def test_metadata_not_visible_on_wire(self):
        aead = Aead(KEY)
        wire = sample_message(b"secret-body").seal(aead, IV)
        assert b"secret-body" not in wire

    @pytest.mark.parametrize("offset", [0, 11, 13, 20, 95, -1])
    def test_any_tamper_detected(self, offset):
        aead = Aead(KEY)
        wire = bytearray(sample_message().seal(aead, IV))
        if offset in (13,):  # inside the 4 B alignment pad: NOT authenticated
            pytest.skip("alignment pad carries no information")
        wire[offset] ^= 0x01
        with pytest.raises(IntegrityError):
            TxMessage.unseal(aead, bytes(wire))

    def test_pad_is_outside_authenticated_region(self):
        aead = Aead(KEY)
        wire = bytearray(sample_message().seal(aead, IV))
        wire[IV_BYTES] ^= 0xFF  # flip pad byte
        assert TxMessage.unseal(aead, bytes(wire)) == sample_message()

    def test_short_wire_rejected(self):
        with pytest.raises(IntegrityError):
            TxMessage.unseal(Aead(KEY), b"short")

    def test_operation_key_identifies_triple(self):
        assert sample_message().operation_key == (3, 42, 7)

    def test_reply_echoes_the_request_triple(self):
        request = sample_message()
        reply = request.reply(MsgType.ACK, b"result")
        assert reply.operation_key == request.operation_key
        assert (reply.msg_type, reply.body) == (MsgType.ACK, b"result")
        assert request.reply(MsgType.FAIL).body == b""
        assert TxMessage.decode(reply.encode()) == reply


TRACE = "0123456789abcdef" * 2


def fields(message):
    return (message.msg_type, message.node_id, message.txn_id, message.op_id,
            message.body, message.trace, message.trace_parent,
            message.trace_origin)


class TestTxMessageContract:
    def test_equality_and_hash_ignore_the_trace(self):
        plain = sample_message()
        traced = plain.with_trace(TRACE, 5, 9)
        assert plain == traced and hash(plain) == hash(traced)
        assert len({plain, traced}) == 1
        for other in (sample_message(b"other"),
                      TxMessage(MsgType.TXN_READ, 3, 42, 7, b"key=value"),
                      TxMessage(MsgType.TXN_WRITE, 3, 42, 8, b"key=value")):
            assert other != plain
        assert plain != fields(plain)

    def test_with_trace_keeps_the_identity(self):
        plain = sample_message()
        traced = plain.with_trace(TRACE, 5, 9)
        assert fields(traced) == fields(plain)[:5] + (TRACE, 5, 9)
        assert traced.operation_key == plain.operation_key
        assert fields(plain)[5:] == (None, 0, 0)

    @pytest.mark.parametrize("trace", [None, TRACE])
    def test_decode_encode_round_trips_every_field(self, trace):
        message = sample_message()
        if trace is not None:
            message = message.with_trace(trace, 2**64 - 1, 12)
        assert fields(TxMessage.decode(message.encode())) == fields(message)

    @pytest.mark.parametrize("trace", [None, TRACE])
    def test_head_layout(self, trace):
        """Node, txn, op, type, body length; trace id, parent, origin;
        16 reserved zero bytes; the body."""
        message = TxMessage(MsgType.TXN_PREPARE, 1, 2, 3, b"xyz",
                            trace, 4 if trace else 0, 5 if trace else 0)
        raw_trace = bytes.fromhex(trace) if trace else bytes(16)
        assert message.encode() == (
            struct.pack("<QQQiI", 1, 2, 3, MsgType.TXN_PREPARE, 3)
            + struct.pack("<16sQQ", raw_trace, message.trace_parent,
                          message.trace_origin)
            + bytes(16) + b"xyz"
        )

    def test_bad_trace_id_rejected(self):
        with pytest.raises(IntegrityError):
            sample_message().with_trace("abcd", 1, 1).encode()


class TestReplayGuard:
    def test_batch_keys_share_the_guard_with_messages(self):
        guard = ReplayGuard()
        guard.check_key((3, -1, 42))
        guard.check(sample_message())  # (3, 42, 7): a different triple
        with pytest.raises(ReplayError):
            guard.check_key((3, -1, 42))
        with pytest.raises(ReplayError):
            guard.check_key(sample_message().operation_key)
        assert (len(guard), guard.rejected) == (2, 2)

    def test_first_seen_passes(self):
        guard = ReplayGuard()
        guard.check(sample_message())
        assert len(guard) == 1

    def test_duplicate_rejected(self):
        guard = ReplayGuard()
        guard.check(sample_message())
        with pytest.raises(ReplayError):
            guard.check(sample_message())
        assert guard.rejected == 1

    def test_distinct_ops_pass(self):
        guard = ReplayGuard()
        for op in range(10):
            guard.check(
                TxMessage(MsgType.TXN_WRITE, node_id=1, txn_id=1, op_id=op)
            )
        assert len(guard) == 10

    def test_same_op_different_txn_passes(self):
        guard = ReplayGuard()
        guard.check(TxMessage(MsgType.TXN_READ, 1, 1, 1))
        guard.check(TxMessage(MsgType.TXN_READ, 1, 2, 1))
        guard.check(TxMessage(MsgType.TXN_READ, 2, 1, 1))
        assert len(guard) == 3
