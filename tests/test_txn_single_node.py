"""Tests for single-node pessimistic and optimistic transactions."""

import pytest

from repro.config import ClusterConfig, TREATY_ENC
from repro.core import TreatyCluster
from repro.errors import LockTimeout, TransactionAborted, TransactionError
from repro.txn import TxnStatus

from tests.conftest import TxnHarness


@pytest.fixture
def harness():
    return TxnHarness().boot()


class TestPessimisticBasics:
    def test_commit_makes_writes_visible(self, harness):
        harness.txn_put([(b"k1", b"v1"), (b"k2", b"v2")])
        assert harness.get(b"k1") == b"v1"
        assert harness.get(b"k2") == b"v2"

    def test_rollback_discards_writes(self, harness):
        def body():
            txn = harness.begin()
            yield from txn.put(b"k", b"v")
            yield from txn.rollback()
            return txn.status

        assert harness.run(body()) == TxnStatus.ABORTED
        assert harness.get(b"k") is None

    def test_read_my_own_writes(self, harness):
        def body():
            txn = harness.begin()
            yield from txn.put(b"k", b"mine")
            value = yield from txn.get(b"k")
            yield from txn.rollback()
            return value

        assert harness.run(body()) == b"mine"

    def test_read_my_own_delete(self, harness):
        harness.txn_put([(b"k", b"v")])

        def body():
            txn = harness.begin()
            yield from txn.delete(b"k")
            value = yield from txn.get(b"k")
            yield from txn.rollback()
            return value

        assert harness.run(body()) is None

    def test_delete_commits_tombstone(self, harness):
        harness.txn_put([(b"k", b"v")])
        harness.txn_put([(b"k", None)])
        assert harness.get(b"k") is None

    def test_read_only_txn_commits_without_wal(self, harness):
        harness.txn_put([(b"k", b"v")])

        def body():
            txn = harness.begin()
            value = yield from txn.get(b"k")
            counter = yield from txn.commit()
            return value, counter

        assert harness.run(body()) == (b"v", 0)

    def test_operations_after_commit_rejected(self, harness):
        def body():
            txn = harness.begin()
            yield from txn.put(b"k", b"v")
            yield from txn.commit()
            yield from txn.put(b"k2", b"v2")

        with pytest.raises(TransactionError):
            harness.run(body())

    def test_locks_released_after_commit(self, harness):
        harness.txn_put([(b"k", b"v1")])
        harness.txn_put([(b"k", b"v2")])  # would block if locks leaked
        assert harness.get(b"k") == b"v2"
        assert harness.manager.locks.total_locked_keys() == 0

    def test_ww_conflict_blocks_until_release(self, harness):
        sim = harness.sim
        order = []

        def writer(tag, delay, hold):
            yield sim.timeout(delay)
            txn = harness.begin()
            yield from txn.put(b"hot", tag)
            order.append((tag, "locked", round(sim.now, 3)))
            yield sim.timeout(hold)
            yield from txn.commit()
            order.append((tag, "done", round(sim.now, 3)))

        sim.process(writer(b"first", 0.0, 0.02))
        sim.process(writer(b"second", 0.001, 0.0))
        sim.run()
        assert order[0][0] == b"first"
        # Second writer only locked after the first committed.
        locked_second = [e for e in order if e[0] == b"second" and e[1] == "locked"]
        done_first = [e for e in order if e[0] == b"first" and e[1] == "done"]
        assert locked_second[0][2] >= done_first[0][2]
        assert harness.get(b"hot") == b"second"

    def test_lock_timeout_aborts_txn(self, harness):
        sim = harness.sim
        outcome = {}

        def holder():
            txn = harness.begin()
            yield from txn.put(b"hot", b"held")
            yield sim.timeout(2.0)  # hold well past the other's timeout
            yield from txn.commit()

        def contender():
            yield sim.timeout(0.01)
            txn = harness.begin()
            try:
                yield from txn.put(b"hot", b"nope")
            except LockTimeout:
                outcome["aborted"] = txn.status

        sim.process(holder())
        sim.process(contender())
        sim.run()
        assert outcome["aborted"] == TxnStatus.ABORTED

    def test_atomicity_multiple_keys(self, harness):
        """All writes of a transaction become visible together."""
        harness.txn_put([(b"a", b"1"), (b"b", b"1")])
        sim = harness.sim

        def transfer():
            txn = harness.begin()
            yield from txn.put(b"a", b"0")
            yield sim.timeout(0.05)
            yield from txn.put(b"b", b"2")
            yield from txn.commit()

        observations = []

        def observer():
            for _ in range(8):
                yield sim.timeout(0.02)
                txn = harness.begin()
                try:
                    a = yield from txn.get(b"a")
                    b = yield from txn.get(b"b")
                    observations.append((a, b))
                    yield from txn.commit()
                except LockTimeout:
                    pass

        sim.process(transfer())
        sim.process(observer())
        sim.run()
        assert all(obs in [(b"1", b"1"), (b"0", b"2")] for obs in observations)


class TestPrepared:
    def test_prepare_then_commit(self, harness):
        def body():
            txn = harness.begin(txn_id=b"g1")
            yield from txn.put(b"pk", b"pv")
            counter, log = yield from txn.prepare()
            assert txn.status == TxnStatus.PREPARED
            yield from txn.commit_prepared()
            return counter

        assert harness.run(body()) >= 1
        assert harness.get(b"pk") == b"pv"
        assert harness.engine.prepared_txns == {}

    def test_prepare_then_abort(self, harness):
        def body():
            txn = harness.begin(txn_id=b"g2")
            yield from txn.put(b"pk", b"pv")
            yield from txn.prepare()
            yield from txn.abort_prepared()

        harness.run(body())
        assert harness.get(b"pk") is None
        assert harness.engine.prepared_txns == {}
        assert harness.manager.locks.total_locked_keys() == 0

    def test_prepared_holds_locks(self, harness):
        sim = harness.sim

        def preparer():
            txn = harness.begin(txn_id=b"g3")
            yield from txn.put(b"pk", b"pv")
            yield from txn.prepare()
            yield sim.timeout(1.0)
            yield from txn.commit_prepared()

        blocked = {}

        def contender():
            yield sim.timeout(0.05)
            txn = harness.begin()
            try:
                yield from txn.put(b"pk", b"other")
            except LockTimeout:
                blocked["yes"] = True

        sim.process(preparer())
        sim.process(contender())
        sim.run()
        assert blocked.get("yes")
        assert harness.get(b"pk") == b"pv"

    def test_commit_prepared_requires_prepare(self, harness):
        def body():
            txn = harness.begin()
            yield from txn.put(b"k", b"v")
            yield from txn.commit_prepared()

        with pytest.raises(TransactionError):
            harness.run(body())


class TestReadOnlyHalves:
    """The one way a 2PL half and an OCC half differ: a half that only
    read logs an empty prepare record under 2PL, nothing under OCC."""

    def test_2pl_read_only_half_logs_its_prepare(self, harness):
        harness.txn_put([(b"k", b"v")])
        wal = harness.engine.wal

        def body():
            txn = harness.begin(b"g-2pl")
            yield from txn.get(b"k")
            before = wal.last_counter
            counter, _log = yield from txn.prepare()
            return before, counter

        before, counter = harness.run(body())
        assert counter > 0
        assert wal.last_counter == counter > before
        assert harness.engine.prepared_txns[b"g-2pl"] == []

    @pytest.mark.parametrize("resolve", ["commit_prepared", "abort_prepared"])
    def test_occ_read_only_half_logs_nothing(self, harness, resolve):
        harness.txn_put([(b"k", b"v")])
        wal = harness.engine.wal
        locks = harness.manager.locks

        def body():
            seq = yield from harness.engine.seq_of(b"k")
            txn = harness.begin(b"g-occ")
            yield from txn.pin([(b"k", seq)], [])
            before = wal.last_counter
            counter, _log = yield from txn.prepare()
            pinned = locks.held_keys(b"g-occ")
            yield from getattr(txn, resolve)()
            return before, counter, pinned

        before, counter, pinned = harness.run(body())
        assert counter == 0
        assert pinned == [b"k"]
        assert wal.last_counter == before
        assert b"g-occ" not in harness.engine.prepared_txns
        assert locks.total_locked_keys() == 0


@pytest.fixture
def occ_cluster():
    """One node: optimistic transactions commit in one phase through the
    node's Participant, validated from their own PREPARE body."""
    return TreatyCluster(profile=TREATY_ENC, num_nodes=1).start()


def occ_get(cluster, key):
    value, _seq = cluster.run(cluster.nodes[0].engine.get_with_seq(key))
    return value


def occ_put(cluster, key, value):
    def body():
        txn = cluster.nodes[0].coordinator.begin(optimistic=True)
        yield from txn.put(key, value)
        yield from txn.commit()

    cluster.run(body())


class TestOptimistic:
    def test_basic_commit(self, occ_cluster):
        occ_put(occ_cluster, b"k", b"v")
        assert occ_get(occ_cluster, b"k") == b"v"

    def test_no_locks_taken(self, occ_cluster):
        node = occ_cluster.nodes[0]

        def body():
            txn = node.coordinator.begin(optimistic=True)
            yield from txn.put(b"k", b"v")
            yield from txn.get(b"other")
            assert node.manager.locks.total_locked_keys() == 0
            yield from txn.commit()

        occ_cluster.run(body())
        assert occ_get(occ_cluster, b"k") == b"v"

    def test_read_write_conflict_detected(self, occ_cluster):
        occ_put(occ_cluster, b"x", b"0")
        coordinator = occ_cluster.nodes[0].coordinator

        def body():
            reader = coordinator.begin(optimistic=True)
            value = yield from reader.get(b"x")
            # Concurrent writer commits between read and commit.
            writer = coordinator.begin(optimistic=True)
            yield from writer.put(b"x", b"1")
            yield from writer.commit()
            yield from reader.put(b"y", value + b"-derived")
            yield from reader.commit()

        with pytest.raises(TransactionAborted):
            occ_cluster.run(body())
        assert occ_get(occ_cluster, b"y") is None

    def test_write_write_conflict_detected(self, occ_cluster):
        """Two *blind* writers of one key are no conflict: OCC validates
        reads only, and blind writes serialize in commit order, so both
        commit and the later one wins."""
        coordinator = occ_cluster.nodes[0].coordinator

        def body():
            first = coordinator.begin(optimistic=True)
            second = coordinator.begin(optimistic=True)
            yield from first.put(b"w", b"1")
            yield from second.put(b"w", b"2")
            yield from first.commit()
            yield from second.commit()
            return first.status, second.status

        assert occ_cluster.run(body()) == (
            TxnStatus.COMMITTED, TxnStatus.COMMITTED
        )
        assert occ_get(occ_cluster, b"w") == b"2"

    def test_disjoint_txns_both_commit(self, occ_cluster):
        coordinator = occ_cluster.nodes[0].coordinator

        def body():
            first = coordinator.begin(optimistic=True)
            second = coordinator.begin(optimistic=True)
            yield from first.put(b"a", b"1")
            yield from second.put(b"b", b"2")
            yield from first.commit()
            yield from second.commit()

        occ_cluster.run(body())
        assert occ_get(occ_cluster, b"a") == b"1"
        assert occ_get(occ_cluster, b"b") == b"2"

    def test_conflict_aborts_and_retry_succeeds(self, occ_cluster):
        occ_put(occ_cluster, b"cnt", b"0")
        coordinator = occ_cluster.nodes[0].coordinator

        def body():
            txn = coordinator.begin(optimistic=True)
            value = yield from txn.get(b"cnt")
            interferer = coordinator.begin(optimistic=True)
            yield from interferer.put(b"cnt", b"9")
            yield from interferer.commit()
            yield from txn.put(b"cnt", value + b"+1")
            try:
                yield from txn.commit()
                return "committed"
            except TransactionAborted:
                retry = coordinator.begin(optimistic=True)
                value = yield from retry.get(b"cnt")
                yield from retry.put(b"cnt", value + b"+1")
                yield from retry.commit()
                return "retried"

        assert occ_cluster.run(body()) == "retried"
        assert occ_get(occ_cluster, b"cnt") == b"9+1"

    def test_repeated_read_unchanged_ok(self, occ_cluster):
        occ_put(occ_cluster, b"k", b"v")
        coordinator = occ_cluster.nodes[0].coordinator

        def body():
            txn = coordinator.begin(optimistic=True)
            for _ in range(3):
                yield from txn.get(b"k")
            yield from txn.put(b"out", b"done")
            yield from txn.commit()

        occ_cluster.run(body())
        assert occ_get(occ_cluster, b"out") == b"done"


class TestGroupCommit:
    def test_group_forms_under_concurrency(self):
        harness = TxnHarness().boot()
        sim = harness.sim

        def writer(i):
            txn = harness.begin()
            yield from txn.put(b"key-%d" % i, b"v%d" % i)
            yield from txn.commit()

        for i in range(12):
            sim.process(writer(i))
        sim.run()
        assert harness.manager.group.committed == 12
        assert harness.manager.group.groups_formed < 12  # batching happened
        for i in range(12):
            assert harness.get(b"key-%d" % i) == b"v%d" % i

    def test_group_commit_survives_crash(self):
        harness = TxnHarness().boot()
        sim = harness.sim

        def writer(i):
            txn = harness.begin()
            yield from txn.put(b"key-%d" % i, b"v%d" % i)
            yield from txn.commit()

        for i in range(8):
            sim.process(writer(i))
        sim.run()
        recovered = harness.reopen()
        for i in range(8):
            assert recovered.get(b"key-%d" % i) == b"v%d" % i


class TestGroupCommitConflicts:
    def test_leader_conflict_in_multi_request_batch(self, occ_cluster):
        """A conflicting OCC commit beside four concurrent followers: the
        followers commit, the conflict is raised, ``dep`` stays
        unwritten."""
        occ_put(occ_cluster, b"hot-occ", b"0")
        coordinator = occ_cluster.nodes[0].coordinator
        sim = occ_cluster.sim
        outcomes = []

        def conflicted():
            txn = coordinator.begin(optimistic=True)
            value = yield from txn.get(b"hot-occ")
            # Another txn invalidates the read before we commit.
            writer = coordinator.begin(optimistic=True)
            yield from writer.put(b"hot-occ", b"9")
            yield from writer.commit()
            yield from txn.put(b"dep", value + b"x")
            try:
                yield from txn.commit()
                outcomes.append("committed")
            except TransactionAborted:
                outcomes.append("conflict")

        def follower(i):
            txn = coordinator.begin(optimistic=True)
            yield from txn.put(b"other-%d" % i, b"v")
            yield from txn.commit()
            outcomes.append("follower-%d" % i)

        sim.process(conflicted())
        for i in range(4):
            sim.process(follower(i))
        sim.run()
        assert "conflict" in outcomes
        assert sum(1 for o in outcomes if o.startswith("follower")) == 4
        assert occ_get(occ_cluster, b"dep") is None
        for i in range(4):
            assert occ_get(occ_cluster, b"other-%d" % i) == b"v"
