"""Tests for the eRPC port, socket stacks and the secure RPC channel."""

import pytest

from repro.config import ClusterConfig, DS_ROCKSDB, TREATY_NO_ENC
from repro.errors import IntegrityError
from repro.net import (
    MsgType,
    NetworkAdversary,
    SocketStack,
    TxMessage,
    flip_payload_byte,
)
from repro.sim import Simulator
from repro.tee import NodeRuntime

from tests.conftest import NetHarness, join_all


def echo_handler(payload, src):
    if False:  # make this a generator without extra cost
        yield None
    return payload, len(payload) if isinstance(payload, bytes) else 8


class TestErpc:
    def test_request_response_roundtrip(self, harness):
        server = harness.endpoints[1]
        server.register_handler(1, echo_handler)

        def body():
            reply = yield harness.endpoints[0].enqueue_request(
                "node1", 1, b"ping", 4
            )
            return reply.payload

        assert harness.run(body()) == b"ping"

    def test_continuation_event_batching(self, harness):
        """A coordinator can enqueue N requests before yielding (Fig. 2)."""
        server = harness.endpoints[1]
        server.register_handler(1, echo_handler)
        client = harness.endpoints[0]

        def body():
            events = [
                client.enqueue_request("node1", 1, b"m%d" % i, 2) for i in range(5)
            ]
            replies = yield from join_all(harness.sim, events)
            return sorted(r.payload for r in replies)

        assert harness.run(body()) == [b"m0", b"m1", b"m2", b"m3", b"m4"]

    def test_handlers_run_concurrently(self):
        """Two slow handlers overlap instead of serializing."""
        harness = NetHarness(num_nodes=3)

        def slow_handler(payload, src):
            yield harness.sim.timeout(1.0)
            return payload, 4

        harness.endpoints[1].register_handler(1, slow_handler)
        harness.endpoints[2].register_handler(1, slow_handler)
        client = harness.endpoints[0]

        def body():
            events = [
                client.enqueue_request("node1", 1, b"a", 1),
                client.enqueue_request("node2", 1, b"b", 1),
            ]
            yield from join_all(harness.sim, events)
            return harness.sim.now

        assert harness.run(body()) < 1.5  # not 2.0: they overlapped

    def test_unknown_request_type_ignored(self, harness):
        client = harness.endpoints[0]

        def body():
            event = client.enqueue_request("node1", 99, b"x", 1)
            yield harness.sim.all_settled([event], timeout=1.0)
            return harness.sim.now, event.triggered

        assert harness.run(body()) == (1.0, False)  # no reply, no error

    def test_scone_erpc_is_slower_than_native(self):
        def elapsed(profile):
            harness = NetHarness(profile=profile)
            harness.endpoints[1].register_handler(1, echo_handler)

            def body():
                for _ in range(10):
                    yield harness.endpoints[0].enqueue_request(
                        "node1", 1, b"x" * 1000, 1000
                    )
                return harness.sim.now

            return harness.run(body())

        assert elapsed(TREATY_NO_ENC) > elapsed(DS_ROCKSDB) * 1.5


class TestSockets:
    def make_pair(self, profile=DS_ROCKSDB):
        harness = NetHarness(profile=profile)
        tcp_a = SocketStack(harness.runtimes[0], harness.fabric, harness.nics[0], "tcp")
        return harness, tcp_a

    def test_tcp_send_delivers(self):
        harness, tcp = self.make_pair()

        def body():
            ok = yield from tcp.send("node1", 4096, payload=b"bulk")
            frame = yield harness.nics[1].receive()
            return ok, frame.payload

        assert harness.run(body()) == (True, b"bulk")

    def test_udp_above_mtu_dropped(self):
        harness = NetHarness()
        udp = SocketStack(harness.runtimes[0], harness.fabric, harness.nics[0], "udp")

        def body():
            ok = yield from udp.send("node1", 2048)
            return ok

        assert harness.run(body()) is False
        assert udp.dropped_messages == 1

    def test_udp_below_mtu_delivers(self):
        harness = NetHarness()
        udp = SocketStack(harness.runtimes[0], harness.fabric, harness.nics[0], "udp")

        def body():
            ok = yield from udp.send("node1", 1000, payload=b"dgram")
            frame = yield harness.nics[1].receive()
            return ok, frame.payload

        assert harness.run(body()) == (True, b"dgram")

    def test_scone_socket_slower_than_native(self):
        def one_send(profile):
            harness = NetHarness(profile=profile)
            tcp = SocketStack(
                harness.runtimes[0], harness.fabric, harness.nics[0], "tcp"
            )

            def body():
                yield from tcp.send("node1", 4096)
                return harness.sim.now

            return harness.run(body())

        assert one_send(TREATY_NO_ENC) > one_send(DS_ROCKSDB) * 2

    def test_invalid_protocol_rejected(self):
        harness = NetHarness()
        with pytest.raises(ValueError):
            SocketStack(harness.runtimes[0], harness.fabric, harness.nics[0], "sctp")


class TestSecureRpc:
    def install_echo(self, harness, node=1):
        def handler(message, src):
            if False:
                yield None
            return TxMessage(
                MsgType.ACK, message.node_id, message.txn_id, message.op_id,
                b"echo:" + message.body,
            )

        harness.secure[node].register(MsgType.TXN_WRITE, handler)

    def request(self, txn_id=1, op_id=1, body=b"put k v"):
        return TxMessage(MsgType.TXN_WRITE, 0, txn_id, op_id, body)

    def test_roundtrip_encrypted(self, secure_harness):
        self.install_echo(secure_harness)

        def body():
            reply = yield from secure_harness.secure[0].call(
                "node1", self.request()
            )
            return reply

        reply = secure_harness.run(body())
        assert reply.msg_type == MsgType.ACK
        assert reply.body == b"echo:put k v"
        assert secure_harness.secure[0].messages_sealed >= 1

    def test_roundtrip_plaintext_profile(self, harness):
        self.install_echo(harness)

        def body():
            reply = yield from harness.secure[0].call("node1", self.request())
            return reply.body

        assert harness.run(body()) == b"echo:put k v"
        assert harness.secure[0].messages_sealed == 0

    def test_tampered_request_detected(self, secure_harness):
        self.install_echo(secure_harness)
        adversary = NetworkAdversary()

        def corrupt(frame):
            data = bytearray(frame.payload)
            data[20] ^= 0xFF  # inside the encrypted metadata
            frame.payload = bytes(data)
            return frame

        adversary.tamper_matching(lambda f: f.meta.get("is_request", False), corrupt)
        secure_harness.fabric.adversary = adversary

        def body():
            yield from secure_harness.secure[0].call("node1", self.request())

        with pytest.raises(IntegrityError):
            secure_harness.run(body())

    def test_failed_open_counts_as_an_aead_pass(self, secure_harness):
        self.install_echo(secure_harness)
        adversary = NetworkAdversary()
        adversary.tamper_matching(
            lambda f: f.meta.get("is_request", False), flip_payload_byte
        )
        secure_harness.fabric.adversary = adversary
        receiver = secure_harness.secure[1]
        assert (receiver.seal_ops, receiver.auth_failures) == (0, 0)

        def body():
            yield from secure_harness.secure[0].call("node1", self.request())

        with pytest.raises(IntegrityError):
            secure_harness.run(body())
        assert adversary.tampered == 1
        assert (receiver.seal_ops, receiver.auth_failures) == (1, 1)

    def test_duplicated_request_executes_once(self, secure_harness):
        executions = []

        def handler(message, src):
            if False:
                yield None
            executions.append(message.op_id)
            return TxMessage(
                MsgType.ACK, message.node_id, message.txn_id, message.op_id
            )

        secure_harness.secure[1].register(MsgType.TXN_WRITE, handler)
        adversary = NetworkAdversary()
        adversary.duplicate_matching(lambda f: f.meta.get("is_request", False))
        secure_harness.fabric.adversary = adversary

        def body():
            reply = yield from secure_harness.secure[0].call(
                "node1", self.request(op_id=5)
            )
            # Let the duplicate arrive and be rejected.
            yield secure_harness.sim.timeout(0.01)
            return reply

        reply = secure_harness.run(body())
        assert reply.msg_type == MsgType.ACK
        assert executions == [5]
        assert secure_harness.secure[1].replay_guard.rejected == 1

    def test_distinct_ivs_used(self, secure_harness):
        codec = secure_harness.endpoints[0].batch_codec

        first, second = (
            codec.encode_batch([self.request(op_id=op_id).encode()])[0]
            for op_id in (1, 2)
        )
        assert first[:12] != second[:12]

    def test_encryption_adds_latency(self):
        def elapsed(harness):
            self.install_echo(harness)

            def body():
                yield from harness.secure[0].call(
                    "node1", self.request(body=b"v" * 4000)
                )
                return harness.sim.now

            return harness.run(body())

        from repro.config import TREATY_ENC

        plain = elapsed(NetHarness(profile=TREATY_NO_ENC))
        encrypted = elapsed(NetHarness(profile=TREATY_ENC))
        assert encrypted > plain


class TestGather:
    """``SecureRpc.gather``: the fan-out round every 2PC driver shares."""

    #: node -> seconds its handler sleeps before replying.
    DELAYS = {1: 0.0, 2: 0.02, 3: 0.3}

    def harness(self):
        harness = NetHarness(num_nodes=4)
        for node, delay in self.DELAYS.items():
            def handler(message, src, node=node, delay=delay):
                yield harness.sim.timeout(delay)
                return TxMessage(
                    MsgType.ACK, message.node_id, message.txn_id,
                    message.op_id, b"from-%d" % node,
                )

            harness.secure[node].register(MsgType.TXN_WRITE, handler)
        return harness

    def gather(self, harness, nodes, timeout):
        def body():
            replies = yield from harness.secure[0].gather(
                [
                    ("node%d" % node,
                     TxMessage(MsgType.TXN_WRITE, 0, 1, op, b"x"))
                    for op, node in enumerate(nodes, start=1)
                ],
                timeout=timeout,
            )
            return replies, harness.sim.now

        return harness.run(body())

    def test_replies_come_back_in_input_order(self):
        # node2 answers after node1, but was asked first.
        replies, _ = self.gather(self.harness(), [2, 1], timeout=None)
        assert [reply.body for reply in replies] == [b"from-2", b"from-1"]

    def test_no_timeout_waits_for_the_slowest(self):
        replies, now = self.gather(self.harness(), [1, 3], timeout=None)
        assert [reply.body for reply in replies] == [b"from-1", b"from-3"]
        assert now >= self.DELAYS[3]

    def test_detached_destination_is_none_without_waiting(self):
        harness = self.harness()
        harness.fabric.detach("node3")
        replies, now = self.gather(harness, [3, 1], timeout=5.0)
        assert replies[0] is None
        assert replies[1].body == b"from-1"
        assert now < 0.01  # the dead peer cost no timeout

    def test_silent_destination_is_none_at_the_timeout_not_before(self):
        replies, now = self.gather(self.harness(), [1, 3], timeout=0.05)
        assert replies[0].body == b"from-1"
        assert replies[1] is None
        assert now == pytest.approx(0.05)

    def test_dropped_request_is_none_at_its_deadline(self):
        """The adversary drops node1's request frame: its request fails
        at the deadline and leaves ``_pending``, instead of holding the
        round until the run ends."""
        harness = self.harness()
        adversary = NetworkAdversary()
        adversary.drop_matching(
            lambda frame: frame.dst == "node1" and frame.meta.get("is_request")
        )
        harness.fabric.adversary = adversary
        replies, now = self.gather(harness, [1, 2], timeout=0.05)
        assert replies[0] is None
        assert replies[1].body == b"from-2"
        assert now == pytest.approx(0.05)
        assert adversary.dropped == 1
        assert harness.endpoints[0]._pending == {}

    def test_straggler_failing_after_the_timeout_is_defused(self):
        """A round stops waiting before node3 answers (the decision
        round of a presumed abort leaves its acks unwatched), then node3's
        NIC detaches: its request fails with nobody waiting on it.
        ``broadcast`` defuses its events — an undefused failure would
        crash the simulator."""
        harness = self.harness()

        def body():
            events = harness.secure[0].broadcast([
                ("node%d" % node, TxMessage(MsgType.TXN_WRITE, 0, 1, node, b"x"))
                for node in (1, 3)
            ])
            yield harness.sim.sleep(0.05)
            return events, harness.sim.now

        events, now = harness.run(body())
        assert events[0].ok and not events[1].triggered
        harness.fabric.detach("node3")
        harness.sim.run(until=now + 1.0)
        assert events[1].triggered and not events[1].ok
        assert harness.endpoints[0]._pending == {}

    def test_empty_round_yields_nothing(self):
        harness = self.harness()
        replies, now = self.gather(harness, [], timeout=1.0)
        assert replies == [] and now == 0.0
