"""Tests for the secure 2PC protocol: atomicity, isolation, aborts."""

import pytest

from repro.config import ClusterConfig, DS_ROCKSDB, TREATY_ENC, TREATY_FULL
from repro.core import GlobalTxnId, TreatyCluster
from repro.core.trusted_counter import decode_counter_vector
from repro.core.twopc import ClogRecord
from repro.errors import TransactionAborted
from repro.net import MsgType, NetworkAdversary, TxMessage
from repro.txn.types import TxnStatus


def keys_per_node(cluster, count=2, tag=b"k"):
    """Pick keys that partition onto each node (deterministic)."""
    result = {i: [] for i in range(len(cluster.nodes))}
    i = 0
    while any(len(v) < count for v in result.values()):
        key = b"%s-%06d" % (tag, i)
        owner = cluster.partitioner(key)
        if len(result[owner]) < count:
            result[owner].append(key)
        i += 1
    return result


def events_named(cluster, name, gid=None):
    """The trace's point events called ``name`` (about txn ``gid``)."""
    return [
        rec for rec in cluster.obs.records()
        if rec["type"] == "event" and rec["name"] == name
        and (gid is None or rec.get("txn") == gid.hex())
    ]


@pytest.fixture(scope="module")
def full_cluster():
    return TreatyCluster(profile=TREATY_FULL).start()


class TestDistributedCommit:
    def test_cross_shard_commit_visible_everywhere(self, full_cluster):
        cluster = full_cluster
        spread = keys_per_node(cluster, tag=b"a")
        coordinator = cluster.nodes[0].coordinator

        def body():
            txn = coordinator.begin()
            for node_keys in spread.values():
                yield from txn.put(node_keys[0], b"committed")
            yield from txn.commit()
            # Read back through a fresh transaction.
            check = coordinator.begin()
            values = []
            for node_keys in spread.values():
                values.append((yield from check.get(node_keys[0])))
            yield from check.commit()
            return values

        assert cluster.run(body()) == [b"committed"] * 3
        assert coordinator.distributed_commits >= 1

    def test_single_node_fast_path_skips_clog(self, full_cluster):
        cluster = full_cluster
        coordinator = cluster.nodes[1].coordinator
        local_key = keys_per_node(cluster, tag=b"b")[1][0]
        clog_before = cluster.nodes[1].clog.last_counter
        part = cluster.nodes[1].participant
        txn = coordinator.begin()

        def body():
            yield from txn.put(local_key, b"local")
            assert txn.key in part.active
            yield from txn.commit()

        cluster.run(body())
        assert cluster.nodes[1].clog.last_counter == clog_before
        assert coordinator.local_commits >= 1
        # The half lived in the node's Participant and left in one phase.
        assert txn.key not in part.active

    def test_distributed_commit_writes_clog_records(self, full_cluster):
        cluster = full_cluster
        spread = keys_per_node(cluster, tag=b"c")
        coordinator = cluster.nodes[2].coordinator
        clog_before = cluster.nodes[2].clog.last_counter

        def body():
            txn = coordinator.begin()
            for node_keys in spread.values():
                yield from txn.put(node_keys[1], b"v")
            yield from txn.commit()
            yield cluster.sim.timeout(0.05)  # let COMPLETE land

        cluster.run(body())
        # PREPARE + COMMIT + COMPLETE
        assert cluster.nodes[2].clog.last_counter >= clog_before + 3

    def test_own_half_lives_in_the_nodes_participant(self, full_cluster):
        """The coordinator's own shard is a participant like any other:
        its half sits in ``participant.active`` from first touch to
        apply, and the apply is recorded like every other node's."""
        cluster = full_cluster
        spread = keys_per_node(cluster, tag=b"own")
        part = cluster.nodes[0].participant
        txn = cluster.nodes[0].coordinator.begin()

        def body():
            yield from txn.put(spread[0][0], b"v")
            assert txn.key in part.active
            yield from txn.put(spread[1][0], b"v")
            yield from txn.commit()

        cluster.run(body())
        assert txn.participants == {0, 1}
        assert txn.key not in part.active
        assert part.applied[txn.key] == 1

    def test_remote_read_returns_committed_value(self, full_cluster):
        cluster = full_cluster
        spread = keys_per_node(cluster, tag=b"d")
        # Write via node0, read via node1's coordinator.
        key_on_2 = spread[2][0]

        def body():
            writer = cluster.nodes[0].coordinator.begin()
            yield from writer.put(key_on_2, b"xyz")
            yield from writer.commit()
            reader = cluster.nodes[1].coordinator.begin()
            value = yield from reader.get(key_on_2)
            yield from reader.commit()
            return value

        assert cluster.run(body()) == b"xyz"

    def test_read_your_writes_across_shards(self, full_cluster):
        cluster = full_cluster
        spread = keys_per_node(cluster, tag=b"e")
        key_remote = spread[1][1] if cluster.partitioner(spread[1][1]) != 0 else spread[2][1]

        def body():
            txn = cluster.nodes[0].coordinator.begin()
            yield from txn.put(key_remote, b"uncommitted")
            value = yield from txn.get(key_remote)
            yield from txn.rollback()
            return value

        assert cluster.run(body()) == b"uncommitted"


class TestAbort:
    def test_rollback_discards_everywhere(self, full_cluster):
        cluster = full_cluster
        spread = keys_per_node(cluster, tag=b"f")

        def body():
            txn = cluster.nodes[0].coordinator.begin()
            for node_keys in spread.values():
                yield from txn.put(node_keys[0] + b"-rb", b"junk")
            yield from txn.rollback()
            check = cluster.nodes[0].coordinator.begin()
            values = []
            for node_keys in spread.values():
                values.append((yield from check.get(node_keys[0] + b"-rb")))
            yield from check.commit()
            return values

        assert cluster.run(body()) == [None, None, None]

    def test_remote_lock_conflict_aborts_global_txn(self, full_cluster):
        cluster = full_cluster
        spread = keys_per_node(cluster, tag=b"g")
        hot_key = spread[1][0]
        sim = cluster.sim
        results = {}

        def holder():
            txn = cluster.nodes[0].coordinator.begin()
            yield from txn.put(hot_key, b"holder")
            yield sim.timeout(1.5)  # hold across the other's lock timeout
            yield from txn.commit()
            results["holder"] = "committed"

        def contender():
            yield sim.timeout(0.05)
            txn = cluster.nodes[2].coordinator.begin()
            try:
                yield from txn.put(hot_key, b"contender")
                yield from txn.commit()
                results["contender"] = "committed"
            except TransactionAborted:
                results["contender"] = "aborted"

        sim.process(holder())
        sim.process(contender())
        sim.run()
        assert results == {"holder": "committed", "contender": "aborted"}

        def check():
            txn = cluster.nodes[0].coordinator.begin()
            value = yield from txn.get(hot_key)
            yield from txn.commit()
            return value

        assert cluster.run(check()) == b"holder"

    def test_failed_txn_releases_participant_locks(self, full_cluster):
        cluster = full_cluster
        for node in cluster.nodes:
            assert node.manager.locks.total_locked_keys() == 0


class TestConcurrency:
    def test_concurrent_disjoint_distributed_txns(self):
        cluster = TreatyCluster(profile=TREATY_ENC).start()
        sim = cluster.sim
        committed = []

        def worker(i):
            coordinator = cluster.nodes[i % 3].coordinator
            txn = coordinator.begin()
            for j in range(3):
                yield from txn.put(b"w%d-%d" % (i, j), b"val-%d" % i)
            yield from txn.commit()
            committed.append(i)

        for i in range(15):
            sim.process(worker(i))
        sim.run()
        assert sorted(committed) == list(range(15))

        def check():
            txn = cluster.nodes[0].coordinator.begin()
            values = []
            for i in range(15):
                values.append((yield from txn.get(b"w%d-0" % i)))
            yield from txn.commit()
            return values

        assert cluster.run(check()) == [b"val-%d" % i for i in range(15)]

    def test_atomic_cross_shard_transfer_invariant(self):
        """Concurrent transfers preserve the total across shards."""
        cluster = TreatyCluster(profile=TREATY_ENC).start()
        sim = cluster.sim
        accounts = [b"acct-%04d" % i for i in range(8)]

        def setup():
            txn = cluster.nodes[0].coordinator.begin()
            for account in accounts:
                yield from txn.put(account, b"100")
            yield from txn.commit()

        cluster.run(setup())

        def transfer(i):
            src = accounts[i % len(accounts)]
            dst = accounts[(i + 3) % len(accounts)]
            coordinator = cluster.nodes[i % 3].coordinator
            txn = coordinator.begin()
            try:
                src_balance = yield from txn.get(src)
                dst_balance = yield from txn.get(dst)
                yield from txn.put(src, b"%d" % (int(src_balance) - 10))
                yield from txn.put(dst, b"%d" % (int(dst_balance) + 10))
                yield from txn.commit()
            except TransactionAborted:
                pass

        for i in range(12):
            sim.process(transfer(i))
        sim.run()

        def audit():
            txn = cluster.nodes[0].coordinator.begin()
            total = 0
            for account in accounts:
                balance = yield from txn.get(account)
                total += int(balance)
            yield from txn.commit()
            return total

        assert cluster.run(audit()) == 100 * len(accounts)


class TestSecurity:
    def test_tampered_2pc_message_detected(self):
        cluster = TreatyCluster(profile=TREATY_ENC).start()
        adversary = NetworkAdversary()

        def corrupt(frame):
            data = bytearray(frame.payload)
            data[len(data) // 2] ^= 0xFF
            frame.payload = bytes(data)
            return frame

        adversary.tamper_matching(
            lambda f: f.kind == "erpc"
            and f.meta.get("is_request")
            and f.dst.startswith("node")
            and not f.dst.endswith(".front")
            and f.src.startswith("node"),
            corrupt,
        )
        cluster.fabric.adversary = adversary
        spread = keys_per_node(cluster, tag=b"h")
        remote_key = spread[1][0]

        from repro.errors import IntegrityError

        def body():
            txn = cluster.nodes[0].coordinator.begin()
            yield from txn.put(remote_key, b"v")

        with pytest.raises(IntegrityError):
            cluster.run(body())
        assert adversary.tampered >= 1

    def test_duplicated_prepare_not_double_executed(self):
        cluster = TreatyCluster(profile=TREATY_ENC).start()
        adversary = NetworkAdversary()
        adversary.duplicate_matching(
            lambda f: f.kind == "erpc" and f.meta.get("is_request")
            and f.meta.get("req_type") == 3  # TXN_PREPARE
        )
        cluster.fabric.adversary = adversary
        spread = keys_per_node(cluster, tag=b"i")

        def body():
            txn = cluster.nodes[0].coordinator.begin()
            yield from txn.put(spread[1][0], b"once")
            yield from txn.put(spread[2][0], b"once")
            yield from txn.commit()
            yield cluster.sim.timeout(0.1)
            check = cluster.nodes[0].coordinator.begin()
            value = yield from check.get(spread[1][0])
            yield from check.commit()
            return value

        assert cluster.run(body()) == b"once"
        total_rejected = sum(
            node.cluster_rpc.replay_guard.rejected for node in cluster.nodes
        )
        assert total_rejected >= 1

    def test_plaintext_leaks_only_without_encryption(self):
        """With encryption, key material never crosses the wire in clear."""
        observed = {"cipher": [], "plain": []}

        def run(profile, bucket):
            cluster = TreatyCluster(profile=profile).start()
            adversary = NetworkAdversary()

            def spy(frame):
                if isinstance(frame.payload, (bytes, bytearray)):
                    observed[bucket].append(bytes(frame.payload))
                return [(frame, 0.0)]

            adversary.add_rule(spy)
            cluster.fabric.adversary = adversary
            spread = keys_per_node(cluster, tag=b"jj")
            remote = spread[1][0]

            def body():
                txn = cluster.nodes[0].coordinator.begin()
                yield from txn.put(remote, b"SECRETVALUE")
                yield from txn.commit()

            cluster.run(body())

        run(TREATY_ENC, "cipher")
        run(DS_ROCKSDB, "plain")
        assert not any(b"SECRETVALUE" in frame for frame in observed["cipher"])
        assert any(b"SECRETVALUE" in frame for frame in observed["plain"])


class TestApplyStep:
    """``Participant.apply``: every driver's one way to finish a half."""

    def test_exactly_once_under_duplicate_commit_and_racing_completer(self):
        """The coordinator's TXN_COMMIT, a retry of it (fresh op id) and
        a completer/recovery calling :meth:`apply` all reach a prepared
        half in the same instant: one of them applies, the others are
        told the half was gone."""
        # No monitor: the half is planted, no coordinator ever logged
        # this transaction's decision.
        cluster = TreatyCluster(
            profile=TREATY_FULL,
            config=ClusterConfig(tracing=True, monitor=False),
        ).start()
        sim = cluster.sim
        node = cluster.nodes[1]
        part = node.participant
        gid = GlobalTxnId(0, 4242)
        key = keys_per_node(cluster, count=1, tag=b"apply")[1][0]

        def plant():
            txn = node.manager.begin_pessimistic(txn_id=gid.encode())
            yield from txn.put(key, b"once")
            yield from txn.prepare()
            part.active[gid.encode()] = txn

        cluster.run(plant())
        before = part.commits_served

        def instruct(op_id):
            reply = yield from cluster.nodes[0].cluster_rpc.call(
                node.cluster_address,
                TxMessage(MsgType.TXN_COMMIT, gid.node_id, gid.local_seq,
                          op_id),
            )
            assert reply.msg_type == MsgType.ACK
            # The winner's ACK carries its commit record's target.
            return decode_counter_vector(reply.body) if reply.body else None

        racers = [
            sim.process(instruct(1), name="commit"),
            sim.process(instruct(2), name="commit-retry"),
            sim.process(
                part.apply(gid.encode(), ClogRecord.COMMIT), name="completer"
            ),
        ]
        sim.run(until=sim.now + 0.5)
        outcomes = [racer.value for racer in racers]
        winners = [outcome for outcome in outcomes if outcome is not None]
        assert len(winners) == 1, outcomes
        assert len(winners[0]) == 1  # one (log, counter) target
        assert part.commits_served == before + 1
        applies = events_named(cluster, "commit_apply", gid.encode())
        assert [rec["node"] for rec in applies] == [node.name]
        assert gid.encode() not in part.active
        assert cluster.run(node.engine.get_with_seq(key))[0] == b"once"


    def test_completer_instruction_beats_the_coordinators_own_apply(self):
        """A completer's TXN_COMMIT reaches the coordinator's node after
        ``protect`` and before the coordinator applies its own half: the
        instruction applies it, the coordinator's own apply finds the
        half gone, and the commit finishes as usual."""
        cluster = TreatyCluster(
            profile=TREATY_FULL, config=ClusterConfig(tracing=True),
            partitioner=_digit_partitioner,
        ).start()
        sim = cluster.sim
        node = cluster.nodes[0]
        coordinator = node.coordinator
        txn = coordinator.begin()
        protect = coordinator.protect
        racers = []

        def protect_then_race(*args, **kwargs):
            kind = yield from protect(*args, **kwargs)
            # One hop to node0, against the round trip (plus node2's
            # apply) the coordinator's delivery round takes.
            racers.append(sim.process(
                cluster.nodes[1].participant.instruct(kind, txn.gid, [0]),
                name="completer-instruct",
            ))
            return kind

        coordinator.protect = protect_then_race
        clog_before = node.clog.last_counter

        def body():
            yield from txn.put(b"0/own", b"once")
            yield from txn.put(b"2/remote", b"once")
            yield from txn.commit()
            yield sim.timeout(0.05)  # let COMPLETE land

        cluster.run(body())
        assert txn.status == TxnStatus.COMMITTED
        applies = events_named(cluster, "commit_apply", txn.key)
        assert sorted(rec["node"] for rec in applies) == ["node0", "node2"]
        # The instruction got there first (its ACK carried the commit
        # record's target); the own apply found no half.
        assert len(racers[0].value) == 1
        assert node.participant.commits_served == 1
        assert txn.key not in node.participant.active
        # PREPARE + COMMIT + COMPLETE: the completion round still ran.
        assert node.clog.last_counter == clog_before + 3
        assert cluster.run(node.engine.get_with_seq(b"0/own"))[0] == b"once"


class TestOwnHalfIsAnOrdinaryHalf:
    def test_no_watchdogs_for_a_half_this_node_coordinates(self):
        """Orphan fuse and decision watchdog guard a half against its
        coordinator's death; the coordinator's own half dies with it
        (recovery resolves it), so it arms neither."""
        cluster = TreatyCluster(
            profile=TREATY_FULL,
            config=ClusterConfig(tracing=True, protocol="optimized"),
            partitioner=_digit_partitioner,
        ).start()
        cluster.obs.tracer.trace_processes = True

        def body():
            txn = cluster.nodes[0].coordinator.begin()
            yield from txn.put(b"0/own", b"v")
            yield from txn.put(b"1/remote", b"v")
            yield from txn.commit()

        cluster.run(body())
        started = [
            rec["args"]["process"]
            for rec in events_named(cluster, "process_start")
        ]
        watchdogs = sorted(
            name for name in started
            if name.startswith(("orphan-fuse@", "decision-watch@"))
        )
        assert watchdogs == ["decision-watch@node1", "orphan-fuse@node1"]

    def test_occ_no_vote_leaves_no_abort_apply(self):
        """Distributed OCC, reads on the own shard and on shard 1 both
        overwritten before commit, a write on shard 2: shards 0 and 1
        vote NO (their halves roll themselves back inside PREPARE),
        shard 2 prepares.  Only the half that had prepared has anything
        to abort — the own NO vote is treated like the remote one."""
        cluster = TreatyCluster(
            profile=TREATY_FULL, config=ClusterConfig(tracing=True),
            partitioner=_digit_partitioner,
        ).start()
        coordinator = cluster.nodes[0].coordinator
        txn = coordinator.begin(optimistic=True)
        gid = txn.gid.encode()

        def body():
            yield from txn.get(b"0/read")
            yield from txn.get(b"1/read")
            yield from txn.put(b"2/write", b"v")
            writer = cluster.nodes[1].coordinator.begin()
            yield from writer.put(b"0/read", b"newer")
            yield from writer.put(b"1/read", b"newer")
            yield from writer.commit()
            with pytest.raises(TransactionAborted):
                yield from txn.commit()
            yield cluster.sim.timeout(0.05)

        cluster.run(body())
        assert txn.status == TxnStatus.ABORTED
        assert coordinator.aborts == 1
        for node in cluster.nodes:
            assert gid not in node.participant.active
        aborts = events_named(cluster, "abort_apply", gid)
        assert [rec["node"] for rec in aborts] == ["node2"]


# -- the one routing step: every execution-phase failure leaves one way -------


def _digit_partitioner(key):
    """``<digit>/...`` keys live on shard <digit> (scans need ranges)."""
    return int(key[:1]) % 3


_OPS = {
    "get": lambda txn, key: txn.get(key),
    "put": lambda txn, key: txn.put(key, b"v"),
    "delete": lambda txn, key: txn.delete(key),
    "scan": lambda txn, key: txn.scan(key, key + b"\xff"),
}

# (operation, how its owner fails, optimistic) — wherever the arm exists:
# scans take no locks, and OCC execution takes none anywhere (its writes
# do not even contact the owner), so only a dead owner fails those.
_EXECUTION_FAILURES = (
    [(op, "local lock conflict", False) for op in ("get", "put", "delete")]
    + [(op, "remote FAIL", False) for op in ("get", "put", "delete")]
    + [(op, "remote NIC down", False) for op in _OPS]
    + [(op, "remote NIC down", True) for op in ("get", "scan")]
)


class TestExecutionFailure:
    @pytest.mark.parametrize("op,failure,optimistic", _EXECUTION_FAILURES)
    def test_one_abort_path(self, op, failure, optimistic):
        """Coordinator 0 has touched shard 2, then ``op`` fails on its
        owner (shard 0 = local, shard 1 = remote): the transaction is
        ABORTED and counted once, shard 2 is told TXN_ABORT and the
        failed owner is not."""
        cluster = TreatyCluster(
            profile=TREATY_ENC, partitioner=_digit_partitioner
        ).start()
        coordinator = cluster.nodes[0].coordinator
        victim = 0 if failure == "local lock conflict" else 1
        key = b"%d/hot" % victim
        txn = coordinator.begin(optimistic=optimistic)
        gid = txn.gid.encode()

        def body():
            if failure != "remote NIC down":
                holder = cluster.nodes[2].coordinator.begin()
                yield from holder.put(key, b"held")
            yield from txn.put(b"2/touched", b"x")
            if failure == "remote NIC down":
                cluster.crash_node(victim)
            with pytest.raises(TransactionAborted):
                yield from _OPS[op](txn, key)

        cluster.run(body())
        assert txn.status == TxnStatus.ABORTED
        assert coordinator.aborts == 1
        applied = [node.participant.applied.get(gid) for node in cluster.nodes]
        assert applied[2] == 2  # shard 2 was instructed to abort ...
        assert applied[victim] is None  # ... the failed owner was not
        for node in cluster.nodes:
            assert gid not in node.participant.active
        # A scan-only OCC contact leaves no state on its owner: it never
        # joined the participant set, so nothing would be owed to it.
        assert txn.remote_participants == (
            {2} if optimistic and op == "scan" or victim == 0 else {1, 2}
        )


def test_occ_scan_on_a_remote_owner_is_stateless_and_overlaid():
    """An OCC scan of a range shard 1 owns, from coordinator 0: shard 1
    answers without joining the transaction, and the rows come back
    overlaid with the transaction's buffered writes."""
    cluster = TreatyCluster(
        profile=TREATY_ENC, partitioner=_digit_partitioner
    ).start()
    coordinator = cluster.nodes[0].coordinator
    owner = cluster.nodes[1].participant

    def load():
        txn = coordinator.begin()
        for key in (b"1/a", b"1/b", b"1/c"):
            yield from txn.put(key, b"old")
        yield from txn.commit()

    cluster.run(load())
    txn = coordinator.begin(optimistic=True)

    def body():
        plain = yield from txn.scan(b"1/", b"1/\xff")
        assert txn.participants == set()
        assert txn.key not in owner.active
        yield from txn.delete(b"1/a")
        yield from txn.put(b"1/b", b"new")
        yield from txn.put(b"1/d", b"new")
        overlaid = yield from txn.scan(b"1/", b"1/\xff", limit=3)
        yield from txn.commit()
        return plain, overlaid

    plain, overlaid = cluster.run(body())
    assert plain == [(b"1/a", b"old"), (b"1/b", b"old"), (b"1/c", b"old")]
    assert overlaid == [(b"1/b", b"new"), (b"1/c", b"old"), (b"1/d", b"new")]


class TestFence:
    """An ACTIVE half whose coordinator crashed before PREPARE is known
    to no log: a fence must abort it and free its locks."""

    def _orphan(self):
        """Coordinator 0 writes on shard 1, then crashes before commit."""
        cluster = TreatyCluster(
            profile=TREATY_ENC, config=ClusterConfig(tracing=True),
            partitioner=_digit_partitioner,
        ).start()
        txn = cluster.nodes[0].coordinator.begin()

        def body():
            yield from txn.put(b"1/orphan", b"v")

        cluster.run(body())
        assert cluster.nodes[1].manager.locks.total_locked_keys() == 1
        cluster.crash_node(0)
        return cluster, txn

    def _assert_fenced(self, cluster, txn, epoch):
        fences = events_named(cluster, "fence_abort", txn.key)
        assert [
            (rec["node"], rec["args"]["coord"], rec["args"]["epoch"])
            for rec in fences
        ] == [("node1", 0, epoch)]
        assert txn.key not in cluster.nodes[1].participant.active
        assert cluster.nodes[1].manager.locks.total_locked_keys() == 0

    def _idle(self, cluster, seconds):
        def body():
            yield cluster.sim.timeout(seconds)

        cluster.run(body())

    def test_restarted_coordinator_fences_its_old_epoch(self):
        cluster, txn = self._orphan()
        cluster.run(cluster.recover_node(0))
        self._idle(cluster, 0.5)
        # The recovered incarnation is boot 2: halves of boot 1 go.
        self._assert_fenced(cluster, txn, epoch=2)

    def test_orphan_fuse_fences_a_coordinator_that_never_returns(self):
        cluster, txn = self._orphan()
        self._idle(cluster, 1.0)
        assert txn.key in cluster.nodes[1].participant.active
        # The fuse burns out, finds the coordinator unreachable and
        # fences the half itself (epoch 0: no recovery told it to).
        self._idle(cluster, 10.0)
        self._assert_fenced(cluster, txn, epoch=0)


def test_package_keeps_the_module_surface():
    """``core/twopc.py`` became a package; every public name the module
    defined is still importable from ``repro.core.twopc`` — except the
    three steps that folded into ``Participant`` once every half lived
    there (``protect_prepare``, ``validate_occ``, ``apply_half``)."""
    import repro.core.twopc as twopc

    module_all = [
        "ClogRecord", "DecisionRecord", "Participant", "Coordinator",
        "GlobalTxn", "piggyback", "pace", "deliver",
    ]
    module_public = module_all + [
        "encode_scan_request", "decode_scan_request",
        "encode_scan_reply", "decode_scan_reply", "encode_occ_prepare",
        "decode_occ_prepare", "PREPARE_VOTE_TIMEOUT",
        "RESOLUTION_RETRY_INTERVAL", "Partitioner", "Gen",
    ]
    assert set(module_all) <= set(twopc.__all__)
    for name in twopc.__all__ + module_public:
        assert hasattr(twopc, name), name
    for folded in ("protect_prepare", "validate_occ", "apply_half"):
        assert not hasattr(twopc, folded), folded
