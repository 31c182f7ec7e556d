"""Transport batching: coalescing, batch sealing, adversary atomicity.

Covers the eRPC doorbell-batching layer (per-destination TX queues, one
frame per coalesced batch), the one-AEAD-pass batch sealing in
SecureRpc, the fail-fast handling of crashed destinations, and the
pinned perf win: strictly fewer delivered frames AND fewer AEAD seal
operations per committed distributed transaction with batching on,
with identical commit/abort outcomes and a green invariant monitor.
"""

import pytest

from repro.config import ClusterConfig, TREATY_ENC, TREATY_FULL
from repro.core import TreatyCluster
from repro.crypto import KeyRing
from repro.errors import (
    IntegrityError,
    NetworkError,
    TransactionAborted,
)
from repro.net import MsgType, NetworkAdversary, TxMessage
from repro.net.erpc import BATCH_OCCUPANCY_BUCKETS
from repro.net.message import (
    batch_wire_size,
    pack_parts,
    seal_batch,
    unpack_parts,
    unseal_batch,
)

from tests.conftest import NetHarness, ROOT_KEY


def echo_handler(payload, src):
    if False:  # generator without extra cost
        yield None
    return payload, len(payload) if isinstance(payload, bytes) else 8


def tx_message(op_id, body=b"put k v"):
    return TxMessage(MsgType.TXN_WRITE, 0, 1, op_id, body)


def install_secure_echo(harness, node=1, executions=None):
    def handler(message, src):
        if False:
            yield None
        if executions is not None:
            executions.append(message.op_id)
        return TxMessage(
            MsgType.ACK, message.node_id, message.txn_id, message.op_id,
            b"echo:" + message.body,
        )

    harness.secure[node].register(MsgType.TXN_WRITE, handler)


# -- wire format ---------------------------------------------------------------


class TestBatchFraming:
    def test_pack_unpack_roundtrip(self):
        parts = [b"", b"a", b"hello" * 100]
        assert unpack_parts(pack_parts(parts)) == parts

    def test_unpack_truncated_raises(self):
        blob = pack_parts([b"abc", b"defg"])
        with pytest.raises(IntegrityError):
            unpack_parts(blob[:-1])
        with pytest.raises(IntegrityError):
            unpack_parts(blob[:2])

    def test_seal_unseal_roundtrip(self):
        aead = KeyRing(ROOT_KEY).network_aead()
        parts = [b"one", b"two", b"three"]
        wire = seal_batch(aead, b"\x01" * 12, parts, b"aad")
        assert unseal_batch(aead, wire, b"aad") == parts
        assert len(wire) == batch_wire_size([len(p) for p in parts], True)

    def test_tampered_or_misbound_batch_rejected(self):
        aead = KeyRing(ROOT_KEY).network_aead()
        wire = seal_batch(aead, b"\x02" * 12, [b"payload"], b"aad")
        tampered = bytearray(wire)
        tampered[20] ^= 0xFF  # inside the ciphertext
        with pytest.raises(IntegrityError):
            unseal_batch(aead, bytes(tampered), b"aad")
        with pytest.raises(IntegrityError):
            unseal_batch(aead, wire, b"other-sender")

    def test_batch_wire_size_plaintext(self):
        assert batch_wire_size([3, 5], False) == 3 + 5 + 8


# -- TX coalescing -------------------------------------------------------------


class TestCoalescing:
    def test_same_instant_requests_coalesce_into_one_frame(self, harness):
        harness.endpoints[1].register_handler(1, echo_handler)
        client = harness.endpoints[0]

        def body():
            events = [
                client.enqueue_request("node1", 1, b"m%d" % i, 2)
                for i in range(5)
            ]
            replies = yield harness.sim.all_of(events)
            return sorted(r.payload for r in replies)

        assert harness.run(body()) == [b"m0", b"m1", b"m2", b"m3", b"m4"]
        # One coalesced request frame + one coalesced reply frame.
        assert harness.fabric.delivered_frames == 2
        assert client.batches_sent == 1
        assert harness.endpoints[1].batches_sent == 1

    def test_batch_max_one_sends_one_frame_per_message(self):
        harness = NetHarness(config=ClusterConfig(net_tx_batch_max=1))
        harness.endpoints[1].register_handler(1, echo_handler)
        client = harness.endpoints[0]

        def body():
            events = [
                client.enqueue_request("node1", 1, b"m%d" % i, 2)
                for i in range(5)
            ]
            yield harness.sim.all_of(events)

        harness.run(body())
        assert harness.fabric.delivered_frames == 10
        assert client.batches_sent + harness.endpoints[1].batches_sent == 10

    def test_occupancy_histogram_and_frames_saved(self, harness):
        harness.endpoints[1].register_handler(1, echo_handler)
        client = harness.endpoints[0]

        def body():
            events = [
                client.enqueue_request("node1", 1, b"m%d" % i, 2)
                for i in range(5)
            ]
            yield harness.sim.all_of(events)

        harness.run(body())
        hist = client.runtime.metrics.histogram(
            "net.batch_occupancy", BATCH_OCCUPANCY_BUCKETS
        )
        assert hist.total == 1 and hist.max == 5
        # Five standalone frames collapsed into one: four saved.
        assert client.runtime.metrics.counter("net.frames_saved").value == 4

    def test_batch_max_splits_oversized_bursts(self):
        config = ClusterConfig(net_tx_batch_max=4)
        harness = NetHarness(config=config)
        harness.endpoints[1].register_handler(1, echo_handler)
        client = harness.endpoints[0]

        def body():
            events = [
                client.enqueue_request("node1", 1, b"m%d" % i, 2)
                for i in range(10)
            ]
            yield harness.sim.all_of(events)

        harness.run(body())
        # 10 requests at batch_max=4 -> at least 3 request frames.
        assert client.batches_sent >= 3


# -- batch sealing -------------------------------------------------------------


class TestBatchSealing:
    def test_one_aead_pass_per_batch_each_direction(self):
        harness = NetHarness(profile=TREATY_ENC)
        install_secure_echo(harness)

        def body():
            events = harness.secure[0].broadcast(
                [("node1", tx_message(op_id=i)) for i in range(1, 6)]
            )
            replies = yield harness.sim.all_of(events)
            return [r.value.msg_type for r in events] and [
                reply.msg_type for reply in replies
            ]

        replies = harness.run(body())
        assert replies == [MsgType.ACK] * 5
        # Five messages protected, but only one seal + one open per side.
        assert harness.secure[0].messages_sealed == 5
        assert harness.secure[0].seal_ops == 2
        assert harness.secure[1].seal_ops == 2

    def test_plaintext_profile_batches_without_sealing(self, harness):
        install_secure_echo(harness)

        def body():
            events = harness.secure[0].broadcast(
                [("node1", tx_message(op_id=i)) for i in range(1, 4)]
            )
            yield harness.sim.all_of(events)

        harness.run(body())
        assert harness.secure[0].seal_ops == 0
        assert harness.secure[0].messages_sealed == 0
        assert harness.endpoints[0].batches_sent == 1


# -- adversary x batching ------------------------------------------------------


class TestAdversaryBatchAtomicity:
    def test_duplicated_batch_rejected_atomically(self):
        harness = NetHarness(profile=TREATY_ENC)
        executions = []
        install_secure_echo(harness, executions=executions)
        adversary = NetworkAdversary()
        adversary.duplicate_matching(
            lambda f: f.meta.get("is_request", False)
        )
        harness.fabric.adversary = adversary

        def body():
            events = harness.secure[0].broadcast(
                [("node1", tx_message(op_id=i)) for i in range(1, 6)]
            )
            yield harness.sim.all_of(events)
            yield harness.sim.timeout(0.01)  # let the duplicate arrive

        harness.run(body())
        # Every sub-message executed exactly once; the duplicated frame
        # was rejected as ONE unit by the batch-level replay guard.
        assert sorted(executions) == [1, 2, 3, 4, 5]
        assert harness.secure[1].replay_guard.rejected == 1

    def test_dropped_batch_loses_every_sub_message_together(self):
        harness = NetHarness(profile=TREATY_ENC)
        install_secure_echo(harness)
        adversary = NetworkAdversary()
        adversary.drop_matching(lambda f: f.meta.get("is_request", False))
        harness.fabric.adversary = adversary

        def body():
            events = harness.secure[0].broadcast(
                [("node1", tx_message(op_id=i)) for i in range(1, 6)]
            )
            yield harness.sim.timeout(1.0)
            return [event.triggered for event in events]

        # All-or-nothing: the whole batch vanished, so no sub-message
        # completed (and none completed spuriously).
        assert harness.run(body()) == [False] * 5

    def test_delayed_batch_delays_all_sub_messages_equally(self, harness):
        harness.endpoints[1].register_handler(1, echo_handler)
        client = harness.endpoints[0]
        adversary = NetworkAdversary()
        adversary.delay_matching(
            lambda f: f.meta.get("is_request", False), delay=0.5
        )
        harness.fabric.adversary = adversary
        times = []

        def body():
            events = [
                client.enqueue_request("node1", 1, b"m%d" % i, 2)
                for i in range(5)
            ]
            for event in events:
                event.add_callback(
                    lambda ev: times.append(harness.sim.now)
                )
            yield harness.sim.all_of(events)
            return harness.sim.now

        finished = harness.run(body())
        assert finished >= 0.5
        # The whole batch was delayed as a unit: every continuation
        # fired at the same instant.
        assert len(times) == 5 and len(set(times)) == 1

    def test_tampered_response_batch_fails_waiting_continuations(self):
        harness = NetHarness(profile=TREATY_ENC)
        install_secure_echo(harness)
        adversary = NetworkAdversary()

        def corrupt(frame):
            data = bytearray(frame.payload)
            data[20] ^= 0xFF
            frame.payload = bytes(data)
            return frame

        adversary.tamper_matching(
            lambda f: not f.meta.get("is_request", True), corrupt
        )
        harness.fabric.adversary = adversary

        def body():
            try:
                yield from harness.secure[0].call("node1", tx_message(1))
            except IntegrityError:
                return "rejected"
            return "accepted"

        assert harness.run(body()) == "rejected"
        assert harness.secure[0].auth_failures >= 1


# -- crash handling ------------------------------------------------------------


class TestCrashFailFast:
    def test_pending_continuations_fail_on_destination_detach(self, harness):
        client = harness.endpoints[0]

        def slow_handler(payload, src):
            yield harness.sim.timeout(10.0)
            return payload, 4

        harness.endpoints[1].register_handler(1, slow_handler)

        def body():
            event = client.enqueue_request("node1", 1, b"x", 1)
            yield harness.sim.timeout(0.001)  # request in flight
            harness.fabric.detach("node1")
            try:
                yield event
            except NetworkError:
                return "failed-fast"
            return "replied"

        assert harness.run(body()) == "failed-fast"
        assert client._pending == {}  # no leaked continuation

    def test_send_to_detached_destination_fails_fast(self, harness):
        harness.fabric.detach("node1")

        def body():
            event = harness.endpoints[0].enqueue_request("node1", 1, b"x", 1)
            try:
                yield event
            except NetworkError:
                return "failed"
            return "sent"

        assert harness.run(body()) == "failed"
        assert harness.endpoints[0]._pending == {}

    def test_tx_bytes_probe_survives_nic_detach(self, harness):
        harness.endpoints[1].register_handler(1, echo_handler)

        def body():
            yield harness.endpoints[0].enqueue_request("node1", 1, b"x" * 100, 100)

        harness.run(body())
        before = harness.fabric.metrics.snapshot()["net.tx_bytes"]
        assert before > 0
        harness.fabric.detach("node1")
        after = harness.fabric.metrics.snapshot()["net.tx_bytes"]
        assert after == before  # history kept despite the detached NIC


# -- the pinned perf win -------------------------------------------------------


NUM_TXNS = 12


def shard_key(cluster, shard, tag):
    i = 0
    while True:
        key = b"%s-%04d" % (tag, i)
        if cluster.partitioner(key) == shard:
            return key
        i += 1


def fixed_distributed_run(**overrides):
    """A fixed set of concurrent distributed txns; returns the accounting.

    The workload is identical (deterministic keys, same txn mix) for
    both ``net_tx_batch_max`` values, so commit/abort outcomes must
    match exactly and the frame/seal deltas isolate the coalescing.
    """
    config = ClusterConfig(**overrides)
    cluster = TreatyCluster(profile=TREATY_FULL, config=config).start()
    frames_before = cluster.fabric.delivered_frames
    seals_before = sum(
        node.runtime.metrics.counter("net.seal_ops").value
        for node in cluster.nodes
    )
    outcomes = {}

    def one_txn(i):
        txn = cluster.nodes[i % 3].coordinator.begin()
        try:
            for shard in range(3):
                key = shard_key(cluster, shard, b"nb%02d" % i)
                yield from txn.put(key, b"v%02d" % i)
            yield from txn.commit()
            outcomes[i] = "commit"
        except TransactionAborted:
            outcomes[i] = "abort"

    def body():
        procs = [
            cluster.sim.process(one_txn(i), name="nb-txn-%d" % i)
            for i in range(NUM_TXNS)
        ]
        yield cluster.sim.all_of(procs)
        yield cluster.sim.timeout(0.2)  # COMPLETE + background rounds land

    cluster.run(body())
    monitor = cluster.obs.monitor
    monitor.check_quiescent(now=cluster.sim.now)
    frames = cluster.fabric.delivered_frames - frames_before
    seals = (
        sum(
            node.runtime.metrics.counter("net.seal_ops").value
            for node in cluster.nodes
        )
        - seals_before
    )
    committed = sum(1 for v in outcomes.values() if v == "commit")
    return {
        "outcomes": outcomes,
        "frames": frames,
        "seals": seals,
        "committed": committed,
        "monitor_green": monitor.summary()["green"],
    }


class TestPinnedReduction:
    def test_batching_reduces_frames_and_seals_same_outcomes(self):
        off = fixed_distributed_run(net_tx_batch_max=1)
        on = fixed_distributed_run()
        # Identical semantics first: same per-txn outcomes, all
        # committed, invariant monitor green in both runs.
        assert on["outcomes"] == off["outcomes"]
        assert on["committed"] == NUM_TXNS
        assert on["monitor_green"] and off["monitor_green"]
        # The pinned win: strictly fewer delivered frames AND strictly
        # fewer AEAD passes per committed distributed transaction.
        assert on["frames"] < off["frames"]
        assert on["seals"] < off["seals"]


# -- bench runners (structure spot checks) ------------------------------------


class TestBenchRunners:
    def test_scaleout_sweep_small(self):
        from repro.bench.harness import scaleout_sweep

        results = scaleout_sweep(nodes=(3, 5), num_clients=4, duration=0.03)
        assert [n for n, _ in results] == [3, 5]
        for _, stats in results:
            assert stats["monitor"]["green"]
            assert stats["committed"] > 0
            assert stats["frames_per_txn"] > 0
            assert stats["counter_rounds_per_txn"] >= 0

    def test_netbatch_compare_small(self):
        from repro.bench.harness import netbatch_compare

        # 16 clients: with fewer, mean occupancy stays near 1.05 and the
        # reduction is smaller than the two runs' commit-count jitter.
        results = netbatch_compare(num_clients=16, duration=0.05)
        for label in ("off", "on"):
            assert results[label]["monitor"]["green"]
            assert results[label]["committed"] > 0
        assert results["off"]["batch_occupancy"]["max"] == 1
        assert results["on"]["batch_occupancy"]["max"] > 1
        assert results["reduction"]["frames_per_txn"] > 0
        assert results["reduction"]["seals_per_txn"] > 0

    def test_ycsb_locality_keeps_transactions_single_shard(self):
        from repro.sim.rng import SeededRng
        from repro.workloads.ycsb import (
            YcsbConfig,
            YcsbWorkload,
            shard_key_indices,
        )

        def partitioner(key):
            return key[-1] % 3

        config = YcsbConfig(num_keys=300, locality=0.9)
        shards = shard_key_indices(config, partitioner, 3)
        assert sorted(i for shard in shards for i in shard) == list(range(300))
        workload = YcsbWorkload(
            config, SeededRng(7, "loc"), shard_keys=shards, home_shard=1
        )
        single_shard = 0
        total = 200
        for _ in range(total):
            ops = workload.next_transaction()
            owners = {partitioner(key) for _, key, _ in ops}
            if owners == {1}:
                single_shard += 1
        # ~90% of transactions stay on the home shard.
        assert single_shard >= total * 0.8
