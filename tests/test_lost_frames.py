"""Lost frames cost liveness only up to a deadline (§III's network
adversary drops traffic at will).

Every cluster request carries its deadline: an execution-phase request
whose request or reply frame is lost aborts its transaction at
``PREPARE_VOTE_TIMEOUT`` and tells the owner, a participant's orphan
fuse probes its coordinator again after a lost probe, and YCSB-A
clients over a lossy cluster fabric all finish.
"""

import pytest

from repro.config import ClusterConfig, TREATY_FULL
from repro.core import TreatyCluster
from repro.core.twopc import PREPARE_VOTE_TIMEOUT, RESOLUTION_RETRY_INTERVAL
from repro.errors import TransactionAborted
from repro.mc import quiescence, read_owner
from repro.net import NetworkAdversary
from repro.net.message import MsgType
from repro.sim.rng import SeededRng
from repro.workloads.ycsb import YcsbConfig, YcsbWorkload, bulk_load
from tests.conftest import carries


def _cluster(backend="counter-sync", **overrides):
    return TreatyCluster(
        profile=TREATY_FULL,
        config=ClusterConfig(
            seed=3, tracing=True, monitor=True, rollback_backend=backend,
            **overrides,
        ),
    ).start()


def _key_on(cluster, node, tag):
    index = 0
    while cluster.partitioner(b"%s-%03d" % (tag, index)) != node:
        index += 1
    return b"%s-%03d" % (tag, index)


class _Overdue:
    """Samples the node endpoints' ``_pending`` tables.  Every request a
    node sends carries a deadline, the longest being
    ``PREPARE_VOTE_TIMEOUT``: a request seen pending longer than that
    is held past its deadline."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.first_seen = {}
        self.found = []

    def sample(self):
        now = self.cluster.sim.now
        for node in self.cluster.nodes:
            for endpoint in (node.cluster_endpoint, node.front_endpoint):
                for req_id in endpoint._pending:
                    seen = self.first_seen.setdefault(
                        (endpoint.nic.address, req_id), now
                    )
                    if now - seen > PREPARE_VOTE_TIMEOUT:
                        self.found.append((endpoint.nic.address, req_id))


@pytest.mark.parametrize("lost", ["request", "reply"])
@pytest.mark.parametrize("backend", ["counter-sync", "counter-async", "lcm"])
def test_lost_write_aborts_at_the_deadline(backend, lost):
    """The adversary drops the first frame carrying a TXN_WRITE request
    (``request``), or the first one carrying its reply (``reply``).  The
    write's request fails at its ``PREPARE_VOTE_TIMEOUT`` deadline, so
    the transaction raises TransactionAborted instead of waiting
    forever; the owner is told TXN_ABORT too — after a lost reply it
    holds a half and its lock — so a second transaction on the same
    keys commits."""
    cluster = _cluster(backend)
    sim = cluster.sim
    coordinator = cluster.nodes[0].coordinator
    hit = []

    def first_write(frame):
        if hit or frame.meta.get("is_request") != (lost == "request"):
            return False
        if not carries(frame, MsgType.TXN_WRITE):
            return False
        hit.append(frame)
        return True

    adversary = NetworkAdversary()
    adversary.drop_matching(first_write)
    cluster.fabric.adversary = adversary
    keys = [_key_on(cluster, node, b"lost") for node in range(3)]
    outcome = {}

    def attempt(value):
        txn = coordinator.begin()
        for key in keys:
            yield from txn.put(key, value)
        yield from txn.commit()

    def body():
        start = sim.now
        try:
            yield from attempt(b"first")
        except TransactionAborted:
            outcome["aborted_after"] = sim.now - start
        yield from attempt(b"second")
        outcome["second"] = "committed"

    sim.process(body(), name="lost-write-client")
    sim.run(until=sim.now + 10.0)

    assert adversary.dropped == 1
    assert outcome.get("aborted_after", 1e9) < PREPARE_VOTE_TIMEOUT + 1.0
    assert outcome.get("second") == "committed"
    for key in keys:
        assert read_owner(cluster, key) == b"second"
    assert coordinator.rpc.endpoint._pending == {}
    assert not quiescence(cluster)


def test_late_write_after_the_abort_opens_no_half():
    """The adversary holds the first frame carrying a TXN_WRITE request
    back past the request's ``PREPARE_VOTE_TIMEOUT`` deadline instead of
    dropping it.  The coordinator aborts and tells the owner TXN_ABORT
    first; when the write arrives at last, the owner answers FAIL rather
    than open a half (and take a lock) that nobody would ever end."""
    cluster = _cluster()
    sim = cluster.sim
    coordinator = cluster.nodes[0].coordinator
    key = _key_on(cluster, 1, b"late")
    owner = cluster.nodes[1]
    delay = PREPARE_VOTE_TIMEOUT + 1.0
    hit = []

    def first_write(frame):
        if hit or not frame.meta.get("is_request"):
            return False
        if not carries(frame, MsgType.TXN_WRITE):
            return False
        hit.append(frame)
        return True

    adversary = NetworkAdversary()
    adversary.delay_matching(first_write, delay)
    cluster.fabric.adversary = adversary
    outcome = {}

    def attempt(value):
        txn = coordinator.begin()
        yield from txn.put(key, value)
        yield from txn.commit()

    def body():
        try:
            yield from attempt(b"first")
        except TransactionAborted:
            outcome["first"] = "aborted"
        # Past the held-back write's arrival at the owner.
        yield sim.sleep(delay)
        yield from attempt(b"second")
        outcome["second"] = "committed"

    sim.process(body(), name="late-write-client")
    sim.run(until=sim.now + 3 * delay)

    assert adversary.delayed == 1
    assert outcome == {"first": "aborted", "second": "committed"}
    assert coordinator.rpc.endpoint._pending == {}
    assert owner.participant.active == {}
    assert not quiescence(cluster)


def test_orphan_fuse_probes_again_after_a_lost_probe():
    """A participant's ACTIVE half outlives its fuse while the live
    coordinator sits on the transaction.  The first TXN_RESOLVE probe is
    dropped: the probe's request fails at its
    ``RESOLUTION_RETRY_INTERVAL`` deadline and the fuse re-arms, so a
    second probe follows one fuse period later — and the half, whose
    coordinator is alive, is not fenced."""
    cluster = _cluster(decision_timeout_s=1.5)
    sim = cluster.sim
    fuse = PREPARE_VOTE_TIMEOUT + 1.5
    probes = []

    def probe(frame):
        if frame.meta.get("is_request") and carries(frame, MsgType.TXN_RESOLVE):
            probes.append(sim.now)
            return len(probes) == 1
        return False

    adversary = NetworkAdversary()
    adversary.drop_matching(probe)
    cluster.fabric.adversary = adversary
    key = _key_on(cluster, 1, b"fuse")
    done = []

    def body():
        txn = cluster.nodes[0].coordinator.begin()
        yield from txn.put(key, b"slow")
        yield sim.sleep(2 * fuse + 3 * RESOLUTION_RETRY_INTERVAL)
        assert txn.key in cluster.nodes[1].participant.active
        yield from txn.commit()
        done.append(True)

    sim.process(body(), name="slow-client")
    sim.run(until=sim.now + 2 * fuse + 6.0)

    assert done == [True]
    assert len(probes) >= 2
    gap = probes[1] - probes[0]
    assert fuse + RESOLUTION_RETRY_INTERVAL <= gap
    assert gap <= fuse + 2 * RESOLUTION_RETRY_INTERVAL + 0.01
    assert adversary.dropped == 1
    assert not quiescence(cluster)


def test_ycsb_a_clients_finish_over_a_lossy_cluster_fabric():
    """The lossy-link leg: 3-node TREATY_FULL YCSB-A clients while the
    adversary drops each cluster-fabric frame (node to node) with
    probability 0.01, from ``SeededRng(38, "lossy-link")``; client↔front
    frames pass untouched (the client's own wait is unbounded).

    Every client loop finishes its transactions (each retried like
    ``run_ycsb`` does), the strict monitor is green and quiescent, and
    at no sampled instant does a node's endpoint hold a ``_pending``
    entry past its deadline."""
    cluster = _cluster()
    sim = cluster.sim
    workload_config = YcsbConfig.variant("a", num_keys=200, value_size=100)
    cluster.run(bulk_load(cluster, workload_config))
    nodes = {node.cluster_address for node in cluster.nodes}
    lossy = SeededRng(38, "lossy-link")

    def cluster_frame_lost(frame):
        return (
            frame.src in nodes and frame.dst in nodes
            and lossy.random() < 0.01
        )

    adversary = NetworkAdversary()
    adversary.drop_matching(cluster_frame_lost)
    cluster.fabric.adversary = adversary
    machines = [cluster.client_machine() for _ in range(2)]
    clients, txns_each = 6, 5
    finished = []
    overdue = _Overdue(cluster)

    def client(index):
        session = cluster.session(
            machines[index % len(machines)], coordinator=index % 3
        )
        workload = YcsbWorkload(
            workload_config, SeededRng(3, "lossy-client", str(index))
        )
        for _ in range(txns_each):
            ops = workload.next_transaction()
            for _attempt in range(4):
                txn = session.begin()
                try:
                    for kind, key, value in ops:
                        if kind == "read":
                            yield from txn.get(key)
                        else:
                            yield from txn.put(key, value)
                    yield from txn.commit()
                    break
                except TransactionAborted:
                    continue
        finished.append(index)

    def sample():
        overdue.sample()
        sim.call_later(0.01, sample)

    for index in range(clients):
        sim.spawn(client(index), name="lossy-client-%d" % index)
    sample()
    horizon = sim.now + 120.0
    while len(finished) < clients and sim.now < horizon:
        sim.run(until=min(horizon, sim.now + 1.0))
    assert sorted(finished) == list(range(clients))
    assert adversary.dropped > 0
    # Past every watchdog and fuse, so stragglers settle.
    sim.run(until=sim.now + 10.0)
    assert overdue.found == []
    assert not quiescence(cluster)
