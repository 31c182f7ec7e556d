"""Multi-failure scenarios: two crashes, coordinator+participant loss."""

import pytest

from repro.config import TREATY_FULL
from repro.core import TreatyCluster
from repro.errors import TransactionAborted
from repro.net import NetworkAdversary
from repro.net.message import MsgType
from tests.conftest import carries


def local_key(cluster, node_index, tag=b"df"):
    i = 0
    while True:
        key = b"%s-%04d" % (tag, i)
        if cluster.partitioner(key) == node_index:
            return key
        i += 1


class TestTwoNodeCrash:
    def test_two_nodes_crash_and_recover_consistently(self):
        cluster = TreatyCluster(profile=TREATY_FULL).start()
        keys = {i: local_key(cluster, i) for i in range(3)}

        def write():
            txn = cluster.nodes[0].coordinator.begin()
            for key in keys.values():
                yield from txn.put(key, b"before")
            yield from txn.commit()

        cluster.run(write())
        cluster.sim.run(until=cluster.sim.now + 0.1)
        cluster.crash_node(1)
        cluster.crash_node(2)
        # Sequential recovery: the first recovering node needs its quorum
        # peer back, so bring node1 up first, then node2.
        cluster.run(cluster.recover_node(1))
        cluster.run(cluster.recover_node(2))
        cluster.sim.run(until=cluster.sim.now + 1.0)

        def check():
            txn = cluster.nodes[0].coordinator.begin()
            values = []
            for key in keys.values():
                values.append((yield from txn.get(key)))
            yield from txn.commit()
            return values

        assert cluster.run(check()) == [b"before"] * 3

    def test_coordinator_and_participant_crash_mid_commit(self):
        """Decision logged; both the coordinator and one participant die
        before the commit instruction lands; both recover; the
        transaction must still commit everywhere."""
        cluster = TreatyCluster(profile=TREATY_FULL).start()
        adversary = NetworkAdversary()
        adversary.drop_matching(
            lambda f: f.meta.get("is_request")
            and carries(f, MsgType.TXN_COMMIT)  # all TXN_COMMITs
        )
        cluster.fabric.adversary = adversary
        keys = {i: local_key(cluster, i, tag=b"cm") for i in range(3)}

        def doomed():
            txn = cluster.nodes[0].coordinator.begin()
            for key in keys.values():
                yield from txn.put(key, b"decided")
            yield from txn.commit()

        cluster.sim.process(doomed())
        cluster.sim.run(until=cluster.sim.now + 1.0)
        cluster.fabric.adversary = None
        cluster.crash_node(0)
        cluster.crash_node(1)
        cluster.run(cluster.recover_node(0))
        cluster.run(cluster.recover_node(1))
        cluster.sim.run(until=cluster.sim.now + 3.0)

        def check():
            txn = cluster.nodes[2].coordinator.begin()
            values = []
            for key in keys.values():
                values.append((yield from txn.get(key)))
            yield from txn.commit()
            return values

        assert cluster.run(check()) == [b"decided"] * 3

    def test_repeated_crash_recover_cycles(self):
        cluster = TreatyCluster(profile=TREATY_FULL).start()
        key = local_key(cluster, 1, tag=b"rc")
        for cycle in range(3):
            def write(value):
                txn = cluster.nodes[0].coordinator.begin()
                yield from txn.put(key, value)
                yield from txn.commit()

            cluster.run(write(b"cycle-%d" % cycle))
            cluster.sim.run(until=cluster.sim.now + 0.1)
            cluster.crash_node(1)
            cluster.run(cluster.recover_node(1))

        def read():
            txn = cluster.nodes[0].coordinator.begin()
            value = yield from txn.get(key)
            yield from txn.commit()
            return value

        assert cluster.run(read()) == b"cycle-2"
