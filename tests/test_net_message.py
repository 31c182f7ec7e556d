"""Tests for Treaty's secure message format and the replay guard."""

import struct
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bench import MetricsCollector
from repro.config import TREATY_ENC
from repro.core import TreatyCluster
from repro.crypto import Aead
from repro.errors import IntegrityError, ReplayError
from repro.net import MsgType, ReplayGuard, TxMessage, wire_size
from repro.net.message import (
    METADATA_BYTES,
    PAD_BYTES,
    REPLAY_WINDOW,
    batch_wire_size,
    seal_batch,
    unseal_batch,
)
from repro.crypto.aead import IV_BYTES, MAC_BYTES
from repro.workloads import YcsbConfig, bulk_load, run_ycsb

KEY = bytes(range(32))
IV = b"\x07" * IV_BYTES
AAD = b"batch-aad"


def sample_message(body=b"key=value"):
    return TxMessage(MsgType.TXN_WRITE, node_id=3, txn_id=42, op_id=7, body=body)


def seal(message, aead):
    """A one-message batch frame, the unit production seals."""
    return seal_batch(aead, IV, [message.encode()], AAD)


def unseal(aead, wire):
    (part,) = unseal_batch(aead, wire, AAD)
    return TxMessage.decode(part)


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
        wire = seal(message, aead)
        assert unseal(aead, wire) == message

    def test_wire_layout_matches_paper(self):
        aead = Aead(KEY)
        body = b"x" * 100
        wire = seal(sample_message(body), aead)
        # IV(12) + pad(4) + part length(4) + metadata(80) + data(100) + MAC(16)
        assert len(wire) == (
            IV_BYTES + PAD_BYTES + 4 + METADATA_BYTES + 100 + MAC_BYTES)
        assert len(wire) == wire_size(100, encrypted=True) + 4
        assert len(wire) == batch_wire_size([METADATA_BYTES + 100], True)

    def test_plaintext_wire_size(self):
        assert wire_size(100, encrypted=False) == METADATA_BYTES + 100

    def test_metadata_not_visible_on_wire(self):
        aead = Aead(KEY)
        wire = seal(sample_message(b"secret-body"), aead)
        assert b"secret-body" not in wire

    @pytest.mark.parametrize("offset", [0, 11, 13, 20, 95, -1])
    def test_any_tamper_detected(self, offset):
        aead = Aead(KEY)
        wire = bytearray(seal(sample_message(), aead))
        if offset in (13,):  # inside the 4 B alignment pad: NOT authenticated
            pytest.skip("alignment pad carries no information")
        wire[offset] ^= 0x01
        with pytest.raises(IntegrityError):
            unseal(aead, bytes(wire))

    def test_pad_is_outside_authenticated_region(self):
        aead = Aead(KEY)
        wire = bytearray(seal(sample_message(), aead))
        wire[IV_BYTES] ^= 0xFF  # flip pad byte
        assert unseal(aead, bytes(wire)) == sample_message()

    def test_short_wire_rejected(self):
        with pytest.raises(IntegrityError):
            unseal(Aead(KEY), b"short")

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


W = REPLAY_WINDOW

_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: a step from the running max: mostly anywhere in the window, often a
#: near neighbour so duplicates are common.
_steps = st.lists(
    st.one_of(st.integers(-(W - 1), 8), st.integers(-4, 4)), max_size=300
)


def batch_verdict(guard, src, batch_id):
    """``True`` when the guard accepts the frame id, ``False`` on replay."""
    try:
        guard.check_batch(src, batch_id)
    except ReplayError:
        return False
    return True


class TestReplayGuard:
    def test_batches_and_operations_are_checked_apart(self):
        guard = ReplayGuard()
        guard.check_batch(3, 42)
        guard.check(sample_message())  # (3, 42, 7): the same numbers
        guard.check(TxMessage(MsgType.TXN_WRITE, 3, 0, 42))
        with pytest.raises(ReplayError):
            guard.check_batch(3, 42)
        with pytest.raises(ReplayError, match=r"\(3, 42, 7\)"):
            guard.check(sample_message())
        assert (len(guard), guard.rejected, guard.too_old) == (2, 2, 0)

    @_SETTINGS
    @given(steps=_steps, epoch=st.integers(0, 3))
    def test_window_agrees_with_a_set_within_w(self, steps, epoch):
        guard, seen, high = ReplayGuard(), set(), 0
        for step in steps:
            seq = max(0, high + step)  # within W - 1 of the running max
            high = max(high, seq)
            assert batch_verdict(guard, 9, epoch << 40 | seq) == (
                seq not in seen)
            seen.add(seq)
        assert guard.too_old == 0
        assert guard.rejected == len(steps) - len(seen)

    @_SETTINGS
    @given(high=st.integers(W, 1 << 39), behind=st.integers(W, 1 << 39))
    def test_an_id_w_or_more_behind_is_too_old(self, high, behind):
        guard = ReplayGuard()
        guard.check_batch(1, high)
        assert not batch_verdict(guard, 1, max(0, high - behind))
        assert (guard.rejected, guard.too_old) == (1, 1)
        assert batch_verdict(guard, 1, high - W + 1)  # the window's oldest

    def test_epochs_have_windows_of_their_own(self):
        guard, epoch1, epoch2 = ReplayGuard(), 1 << 40, 2 << 40
        for seq in range(1, 10):
            if seq != 7:  # seq 7 is late
                guard.check_batch(5, epoch1 | seq)
        for seq in range(1, 3 * W):
            guard.check_batch(5, epoch2 | seq)
        assert batch_verdict(guard, 5, epoch1 | 7)
        assert not batch_verdict(guard, 5, epoch1 | 7)
        assert (guard.rejected, guard.too_old) == (1, 0)

    def test_footprint_is_fixed_per_window(self):
        def footprint(guard):
            return sorted((key, len(window.slots), sys.getsizeof(window.slots))
                          for key, window in guard._windows.items())

        short, long = ReplayGuard(), ReplayGuard()
        for seq in range(1, W + 1):
            short.check_batch(2, 1 << 40 | seq)
        for seq in range(1, 20 * W + 1):
            long.check_batch(2, 1 << 40 | seq)
        assert footprint(long) == footprint(short)
        assert len(footprint(long)) == 1

    def test_a_ycsb_a_pass_has_no_frame_too_old(self):
        cluster = TreatyCluster(profile=TREATY_ENC).start()
        config = YcsbConfig.variant("a", num_keys=200, value_size=100)
        cluster.run(bulk_load(cluster, config), name="load")
        run_ycsb(cluster, config, MetricsCollector(), num_clients=6,
                 duration=0.2, warmup=0.05)
        guards = [rpc.replay_guard
                  for node in cluster.nodes
                  for rpc in (node.cluster_rpc, node.front_rpc)]
        guards += [machine.rpc.replay_guard
                   for machine in cluster.client_machines]
        assert all(guard._windows for guard in guards)
        assert [guard.too_old for guard in guards] == [0] * len(guards)
        assert [guard.rejected for guard in guards] == [0] * len(guards)

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
