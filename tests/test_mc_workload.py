"""The shared end-state audit (:mod:`repro.mc.workload`) reports each
violation it is built to find, by its kind, and nothing on a clean run.

Every fault sweep — the model checker, the crash sweep and the
coordinator-death sweep — ends with this audit, and a fault-free world
never exercises its failure paths; each test here plants one fault in
the end state of a committed two-transaction workload.
"""

import pytest

from repro.config import ClusterConfig, TREATY_FULL
from repro.core import TreatyCluster
from repro.core.ids import GlobalTxnId
from repro.mc import audit, drive, spread_txns
from repro.txn.locks import LockMode


@pytest.fixture
def world():
    cluster = TreatyCluster(
        profile=TREATY_FULL,
        config=ClusterConfig(seed=5, tracing=True, monitor=True),
    ).start()
    txns = spread_txns(cluster, 2, b"aud")
    outcomes = ["pending"] * len(txns)
    drive(cluster, txns, outcomes, give_up=2.5)
    cluster.sim.run(until=cluster.sim.now + 2.0)
    assert outcomes == ["committed", "committed"]
    return cluster, txns, outcomes


def _only(violations, prefix):
    assert len(violations) == 1 and violations[0].startswith(prefix), (
        violations
    )


def test_clean_run_reports_nothing(world):
    cluster, txns, outcomes = world
    assert audit(cluster, txns, outcomes, dropped=False) == []


def test_committed_txn_missing_a_write_is_a_durability_violation(world):
    cluster, _txns, outcomes = world
    # The third transaction was never driven: none of its writes exist.
    txns = spread_txns(cluster, 3, b"aud")
    _only(audit(cluster, txns, outcomes + ["committed"], dropped=False),
          "durability: txn 2 committed")


def test_write_on_one_shard_only_is_an_atomicity_violation(world):
    cluster, _txns, outcomes = world
    txns = spread_txns(cluster, 3, b"aud")
    key, value = txns[2][1][0]

    def one_shard():
        txn = cluster.nodes[0].coordinator.begin()
        yield from txn.put(key, value)
        yield from txn.commit()

    cluster.run(one_shard())
    cluster.sim.run(until=cluster.sim.now + 1.0)
    _only(audit(cluster, txns, outcomes + ["aborted"], dropped=False),
          "atomicity: txn 2 (aborted) applied on some shards only")


def test_held_lock_is_reported_unless_a_frame_was_dropped(world):
    cluster, txns, outcomes = world
    cluster.run(cluster.nodes[1].manager.locks.acquire(
        b"planted-lock", b"planted-key", LockMode.EXCLUSIVE,
    ))
    _only(audit(cluster, txns, outcomes, dropped=False),
          "liveness: node1 lock table not quiescent: ['%s']"
          % b"planted-lock".hex())
    # A dropped frame may legitimately wedge the protocol: no liveness.
    assert audit(cluster, txns, outcomes, dropped=True) == []


def test_in_doubt_half_is_reported(world):
    cluster, txns, outcomes = world
    gid = GlobalTxnId(1, 999).encode()
    cluster.nodes[1].participant.half(gid)
    _only(audit(cluster, txns, outcomes, dropped=False),
          "liveness: node1 has in-doubt participant txns: ['%s']" % gid.hex())


def test_down_node_is_excused_only_when_dead_for_good(world):
    cluster, txns, outcomes = world
    cluster.crash_node(2)
    assert audit(cluster, txns, outcomes, dropped=False, dead={2}) == []
    violations = audit(cluster, txns, outcomes, dropped=False)
    assert violations[0] == "liveness: node2 still down at end of run"
    assert [v.split(":")[0] for v in violations[1:]] == ["durability"] * 2
