"""Tests for the ROTE-style trusted counter service."""

import pytest

from repro.config import ClusterConfig, TREATY_FULL
from repro.core import TreatyCluster

from tests.conftest import join_all


@pytest.fixture(scope="module")
def cluster():
    return TreatyCluster(profile=TREATY_FULL).start()


def test_stabilize_advances_stable_value(cluster):
    node = cluster.nodes[0]

    def body():
        yield from node.counter_client.stabilize("test-log-a", 5)
        return node.counter_client.stable_value("test-log-a")

    assert cluster.run(body()) == 5


def test_stabilization_takes_rote_latency(cluster):
    node = cluster.nodes[0]
    start = cluster.sim.now

    def body():
        yield from node.counter_client.stabilize("test-log-b", 1)

    cluster.run(body())
    elapsed = cluster.sim.now - start
    # Two echo-broadcast rounds at ~1 ms replica processing each.
    assert 0.5e-3 < elapsed < 6e-3


def test_batched_stabilization_shares_rounds(cluster):
    node = cluster.nodes[0]
    before = node.counter_client.rounds_executed

    def waiter(value):
        yield from node.counter_client.stabilize("test-log-c", value)

    def body():
        events = [
            cluster.sim.process(waiter(v), name="w%d" % v) for v in range(1, 21)
        ]
        yield from join_all(cluster.sim, events)

    cluster.run(body())
    rounds = node.counter_client.rounds_executed - before
    assert rounds < 10  # 20 requests coalesced into far fewer rounds


def test_already_stable_returns_immediately(cluster):
    node = cluster.nodes[0]

    def body():
        yield from node.counter_client.stabilize("test-log-d", 3)
        start = cluster.sim.now
        yield from node.counter_client.stabilize("test-log-d", 2)
        return cluster.sim.now - start

    assert cluster.run(body()) == 0.0


def test_replicas_store_confirmed_values(cluster):
    node = cluster.nodes[0]

    def body():
        yield from node.counter_client.stabilize("test-log-e", 7)

    cluster.run(body())
    confirmed = [
        peer.replica.confirmed.get("test-log-e", 0) for peer in cluster.nodes
    ]
    # Quorum (2 of 3) must have confirmed; the writer certainly has.
    assert sum(1 for value in confirmed if value >= 7) >= 2


def test_replica_state_sealed_to_disk(cluster):
    node = cluster.nodes[0]

    def body():
        yield from node.counter_client.stabilize("test-log-f", 2)

    cluster.run(body())
    assert node.disk.exists("node0/counter.sealed")
    # Sealed: the log name must not appear in plaintext.
    assert b"test-log-f" not in node.disk.read("node0/counter.sealed")


def test_read_stable_returns_group_max(cluster):
    writer = cluster.nodes[1]
    reader = cluster.nodes[2]

    def body():
        yield from writer.counter_client.stabilize("test-log-g", 9)
        values = yield from reader.counter_client.read_stable_many(["test-log-g"])
        return values["test-log-g"]

    assert cluster.run(body()) == 9


def test_unknown_log_reads_zero(cluster):
    def body():
        values = yield from cluster.nodes[0].counter_client.read_stable_many(
            ["never-used"]
        )
        return values["never-used"]

    assert cluster.run(body()) == 0


def test_monotonicity_across_writers(cluster):
    node = cluster.nodes[0]

    def body():
        yield from node.counter_client.stabilize("test-log-h", 4)
        yield from node.counter_client.stabilize("test-log-h", 10)
        values = yield from cluster.nodes[1].counter_client.read_stable_many(
            ["test-log-h"]
        )
        return values["test-log-h"]

    assert cluster.run(body()) == 10
