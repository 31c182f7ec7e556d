"""Tests for crash recovery, rollback protection and attack detection."""

import pytest

from repro.config import (
    DS_ROCKSDB,
    PROTOCOLS,
    TREATY_ENC,
    TREATY_FULL,
    ClusterConfig,
)
from repro.core import (
    TreatyCluster,
    crash_and_recover,
    rollback_attack,
    snapshot_node_disk,
    tamper_attack,
)
from repro.core.recovery import find_log_file
from repro.errors import FreshnessError, IntegrityError, TransactionAborted
from repro.mc.workload import keys_on
from repro.net import NetworkAdversary


def commit_local(cluster, node_index, pairs):
    def body():
        txn = cluster.nodes[node_index].coordinator.begin()
        for key, value in pairs:
            yield from txn.put(key, value)
        yield from txn.commit()

    cluster.run(body())


def read_local(cluster, node_index, key):
    def body():
        txn = cluster.nodes[node_index].coordinator.begin()
        value = yield from txn.get(key)
        yield from txn.commit()
        return value

    return cluster.run(body())


class TestCrashRecovery:
    def test_committed_data_survives_crash(self):
        cluster = TreatyCluster(profile=TREATY_FULL).start()
        keys = keys_on(cluster, 1, 4, b"rk")
        commit_local(cluster, 1, [(k, b"v-" + k) for k in keys])
        cluster.run(crash_and_recover(cluster, 1))
        for key in keys:
            assert read_local(cluster, 1, key) == b"v-" + key

    def test_recovered_node_serves_new_transactions(self):
        cluster = TreatyCluster(profile=TREATY_FULL).start()
        keys = keys_on(cluster, 2, 4, b"nw")
        cluster.run(crash_and_recover(cluster, 2))
        commit_local(cluster, 2, [(keys[0], b"after-recovery")])
        assert read_local(cluster, 2, keys[0]) == b"after-recovery"

    def test_distributed_commit_survives_participant_crash(self):
        cluster = TreatyCluster(profile=TREATY_FULL).start()
        spread = {i: keys_on(cluster, i, 1, b"dc")[0] for i in range(3)}

        def body():
            txn = cluster.nodes[0].coordinator.begin()
            for key in spread.values():
                yield from txn.put(key, b"distributed")
            yield from txn.commit()

        cluster.run(body())
        cluster.run(crash_and_recover(cluster, 1))
        for i, key in spread.items():
            assert read_local(cluster, 0, key) == b"distributed"

    def test_client_request_reaching_a_recovering_node_is_served(self):
        """The front NIC is attached early in recovery, the front end only
        at its end: a client request arriving in between waits in the
        NIC and is served once recovery finishes."""
        cluster = TreatyCluster(profile=TREATY_FULL).start()
        sim, node = cluster.sim, cluster.nodes[0]
        session = cluster.session(cluster.client_machine(), coordinator=0)
        key = keys_on(cluster, 0, 1, b"rw")[0]
        cluster.crash_node(0)
        boots, stale_frontend = node.boot_count, node.frontend
        recovery = sim.process(cluster.recover_node(0))
        arrived_before_front_end = []

        def write():
            txn = session.begin()
            yield from txn.put(key, b"sent-during-recovery")
            yield from txn.commit()

        def client():
            while node.boot_count == boots:  # fresh NICs not attached yet
                yield sim.timeout(1e-5)
            nic = node.front_endpoint.nic
            writer = sim.process(write())
            while nic.rx_frames == 0:
                yield sim.timeout(1e-6)
            arrived_before_front_end.append(node.frontend is stale_frontend)
            yield writer

        done = sim.process(client())
        sim.run(until=sim.now + 2.0)
        assert arrived_before_front_end == [True]
        assert recovery.triggered and done.triggered and done.ok
        assert read_local(cluster, 0, key) == b"sent-during-recovery"

    def test_double_crash_recovery(self):
        cluster = TreatyCluster(profile=TREATY_FULL).start()
        keys = keys_on(cluster, 0, 4, b"dd")
        commit_local(cluster, 0, [(keys[0], b"1")])
        cluster.run(crash_and_recover(cluster, 0))
        commit_local(cluster, 0, [(keys[1], b"2")])
        cluster.run(crash_and_recover(cluster, 0))
        assert read_local(cluster, 0, keys[0]) == b"1"
        assert read_local(cluster, 0, keys[1]) == b"2"

    def test_native_profile_recovery_works(self):
        cluster = TreatyCluster(profile=DS_ROCKSDB).start()
        keys = keys_on(cluster, 1, 4, b"nv")
        commit_local(cluster, 1, [(keys[0], b"plain")])
        cluster.run(crash_and_recover(cluster, 1))
        assert read_local(cluster, 1, keys[0]) == b"plain"


class TestAtomicityAcrossCrashes:
    def _blocked_commit_cluster(self, drop_predicate):
        """Run a distributed commit whose messages are partially dropped."""
        cluster = TreatyCluster(profile=TREATY_FULL).start()
        adversary = NetworkAdversary()
        adversary.drop_matching(drop_predicate)
        cluster.fabric.adversary = adversary
        return cluster, adversary

    def test_coordinator_crash_before_decision_aborts(self):
        """Participants prepared, decision never logged: presumed abort."""
        cluster, adversary = self._blocked_commit_cluster(
            lambda f: f.kind == "erpc"
            and not f.meta.get("is_request")
            and f.meta.get("req_type") == 3  # drop TXN_PREPARE ACKs
        )
        spread = {i: keys_on(cluster, i, 1, b"cc")[0] for i in range(3)}

        def doomed():
            txn = cluster.nodes[0].coordinator.begin()
            for key in spread.values():
                yield from txn.put(key, b"never")
            yield from txn.commit()  # blocks forever: prepare ACKs dropped

        cluster.sim.process(doomed())
        cluster.sim.run(until=cluster.sim.now + 1.0)
        # Participants hold prepared transactions now; coordinator crashes.
        cluster.fabric.adversary = None
        cluster.crash_node(0)
        cluster.run(cluster.recover_node(0))
        cluster.sim.run(until=cluster.sim.now + 1.0)

        # Nothing may be committed anywhere; locks must be free again.
        for i, key in spread.items():
            if i == 0:
                continue
            assert read_local(cluster, i, key) is None
        assert read_local(cluster, 0, spread[0]) is None

    def test_participant_crash_after_prepare_commits_on_recovery(self):
        """Decision=commit logged; participant crashed before TXN_COMMIT."""
        cluster, adversary = self._blocked_commit_cluster(
            lambda f: f.kind == "erpc"
            and f.meta.get("is_request")
            and f.meta.get("req_type") == 4  # drop TXN_COMMIT to node1
            and f.dst == "node1"
        )
        spread = {i: keys_on(cluster, i, 1, b"pc")[0] for i in range(3)}

        def commit_fiber():
            txn = cluster.nodes[0].coordinator.begin()
            for key in spread.values():
                yield from txn.put(key, b"decided")
            yield from txn.commit()  # blocks: node1's commit ACK missing

        cluster.sim.process(commit_fiber())
        cluster.sim.run(until=cluster.sim.now + 1.0)
        # node1 is prepared but never saw the commit; it crashes.
        cluster.fabric.adversary = None
        cluster.crash_node(1)
        cluster.run(cluster.recover_node(1))
        cluster.sim.run(until=cluster.sim.now + 1.0)
        # Recovery resolved with the coordinator: the write must be there.
        assert read_local(cluster, 1, spread[1]) == b"decided"
        assert read_local(cluster, 0, spread[0]) == b"decided"


class TestOwnHalfOfACompletedCommit:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_committed_exactly_once_on_recovery(self, protocol):
        """The coordinator logs COMPLETE and crashes before its own
        half's commit record is stable: the Clog says COMMIT + COMPLETE,
        the WAL replay brings the half back prepared.  Recovery commits
        it exactly once, without a completer takeover, I1-I5 green.

        ``optimized`` crashes at the tail's group round (phase
        ``complete``), which carries the own commit record's target;
        ``paper`` crashes once the COMPLETE entry is on disk, while the
        commit record's background stabilization is still in flight."""
        cluster = TreatyCluster(
            profile=TREATY_FULL,
            config=ClusterConfig(tracing=True, protocol=protocol),
            partitioner=lambda key: int(key[:1]) % 3,
        ).start()
        node = cluster.nodes[0]
        clog = node.clog.log_name
        clog_appends = []

        def crash_after_complete(rec):
            if not node.is_up or rec.get("node") != node.name:
                return
            if protocol == "optimized":
                hit = (
                    rec["type"] == "event"
                    and (rec["cat"], rec["name"]) == ("stabilize", "group_begin")
                    and rec["args"]["phase"] == "complete"
                )
            else:
                # PREPARE, COMMIT, COMPLETE: the third Clog append.
                hit = (
                    rec["type"] == "span"
                    and (rec["cat"], rec["name"]) == ("storage", "log_append")
                    and rec["args"]["log"] == clog
                )
                if hit:
                    clog_appends.append(rec)
                    hit = len(clog_appends) == 3
            if hit:
                cluster.crash_node(0)

        cluster.obs.tracer.subscribe(crash_after_complete)
        txn = node.coordinator.begin()

        def body():
            yield from txn.put(b"0/own", b"once")
            yield from txn.put(b"1/remote", b"once")
            yield from txn.commit()

        cluster.run(body())
        cluster.sim.run(until=cluster.sim.now + 0.5)
        assert not node.is_up
        crashed_at = len(list(cluster.obs.records()))
        cluster.run(cluster.recover_node(0))
        cluster.sim.run(until=cluster.sim.now + 5.0)

        after = list(cluster.obs.records())[crashed_at:]
        done = [rec for rec in after if rec.get("name") == "recover_done"]
        assert done[0]["args"]["prepared"] == [txn.key.hex()]
        applies = [
            (rec["node"], rec["name"]) for rec in after
            if rec["type"] == "event" and rec.get("txn") == txn.key.hex()
            and rec["name"] in ("commit_apply", "abort_apply")
        ]
        assert applies == [("node0", "commit_apply")]
        assert node.participant.commits_served == 1
        assert node.participant.takeovers == 0
        assert txn.key not in node.participant.active
        monitor = cluster.obs.monitor
        monitor.check_quiescent(now=cluster.sim.now)
        assert monitor.green, monitor.violations
        assert read_local(cluster, 0, b"0/own") == b"once"
        assert read_local(cluster, 1, b"1/remote") == b"once"


class TestCrashWithTheOwnApplyInFlight:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_own_half_and_delivery_in_flight(self, protocol):
        """The own half's apply runs beside the delivery round: the
        coordinator crashes once a participant has received its
        TXN_COMMIT, while the own half's group-commit WAL append is still
        on the disk.  The append lands, but its commit record is never
        stabilized, so the WAL brings the half back prepared.  Recovery
        commits it exactly once, the remote halves commit from the
        delivery that was in flight, no completer takes over, I1-I5
        green."""
        cluster = TreatyCluster(
            profile=TREATY_FULL,
            config=ClusterConfig(tracing=True, protocol=protocol),
            partitioner=lambda key: int(key[:1]) % 3,
        ).start()
        node = cluster.nodes[0]
        txn = node.coordinator.begin()
        gid = txn.key.hex()
        seen = {"protected": False, "crashed_at": None}

        def crash_once_delivered(rec):
            if gid not in (rec.get("trace"), rec.get("txn")):
                return
            what = (rec["node"], rec["cat"], rec["name"])
            if what == ("node0", "twopc", "decision_log"):
                seen["protected"] = True  # the span closes at protect
            elif (seen["protected"] and node.is_up
                  and what[1:] == ("crypto", "open_batch")
                  and what[0] != "node0"):
                seen["crashed_at"] = cluster.sim.now
                cluster.crash_node(0)

        cluster.obs.tracer.subscribe(crash_once_delivered)

        def body():
            for shard in (b"0", b"1", b"2"):
                yield from txn.put(shard + b"/key", b"once")
            yield from txn.commit()

        cluster.sim.process(body())
        cluster.sim.run(until=cluster.sim.now + 0.5)
        crashed_at = seen["crashed_at"]
        assert crashed_at is not None and not node.is_up
        before = list(cluster.obs.records())
        # Both were in flight at the crash: the own half's WAL append
        # had started and not ended, and no own apply had happened.
        wal = node.engine.wal.log_name
        own_appends = [
            rec for rec in before
            if rec.get("name") == "log_append" and rec["node"] == "node0"
            and rec["args"]["log"] == wal and rec.get("trace") == gid
            and rec["t0"] < crashed_at < rec["t1"]
        ]
        assert len(own_appends) == 1
        assert not any(
            rec["node"] == "node0" and rec.get("name") == "commit_apply"
            and rec.get("txn") == gid and rec["t"] < crashed_at
            for rec in before
        )
        cluster.run(cluster.recover_node(0))
        cluster.sim.run(until=cluster.sim.now + 5.0)

        after = list(cluster.obs.records())[len(before):]
        done = [rec for rec in after if rec.get("name") == "recover_done"]
        assert done[0]["args"]["prepared"] == [gid]
        recovered = [
            rec["node"] for rec in after
            if rec.get("name") in ("commit_apply", "abort_apply")
            and rec.get("txn") == gid and rec["t"] >= done[0]["t"]
        ]
        assert recovered == ["node0"]
        remote = sorted(
            rec["node"] for rec in cluster.obs.records()
            if rec.get("name") == "commit_apply" and rec.get("txn") == gid
            and rec["node"] != "node0"
        )
        assert remote == ["node1", "node2"]
        assert node.participant.commits_served == 1
        assert [n.participant.takeovers for n in cluster.nodes] == [0, 0, 0]
        assert txn.key not in node.participant.active
        monitor = cluster.obs.monitor
        monitor.check_quiescent(now=cluster.sim.now)
        assert monitor.green, monitor.violations
        for index, shard in enumerate((b"0", b"1", b"2")):
            assert read_local(cluster, index, shard + b"/key") == b"once"


class TestRollbackProtection:
    def test_rollback_attack_detected(self):
        cluster = TreatyCluster(profile=TREATY_FULL).start()
        keys = keys_on(cluster, 1, 4, b"ra")
        commit_local(cluster, 1, [(keys[0], b"old")])
        stale = snapshot_node_disk(cluster, 1)
        commit_local(cluster, 1, [(keys[1], b"new")])
        # Let background stabilization finish before the attack.
        cluster.sim.run(until=cluster.sim.now + 0.1)
        with pytest.raises(FreshnessError):
            cluster.run(rollback_attack(cluster, 1, stale))

    def test_rollback_to_empty_disk_detected(self):
        cluster = TreatyCluster(profile=TREATY_FULL).start()
        node = cluster.nodes[2]
        keys = keys_on(cluster, 2, 4, b"re")
        empty = snapshot_node_disk(cluster, 2)
        commit_local(cluster, 2, [(keys[0], b"data")])
        cluster.sim.run(until=cluster.sim.now + 0.1)
        with pytest.raises(FreshnessError):
            cluster.run(rollback_attack(cluster, 2, empty))

    def test_unstable_suffix_discarded_not_flagged(self):
        """A genuine crash loses un-acknowledged entries: that is not an
        attack and recovery must succeed."""
        cluster = TreatyCluster(profile=TREATY_FULL).start()
        keys = keys_on(cluster, 1, 4, b"us")
        commit_local(cluster, 1, [(keys[0], b"acked")])
        cluster.sim.run(until=cluster.sim.now + 0.1)
        cluster.run(crash_and_recover(cluster, 1))
        assert read_local(cluster, 1, keys[0]) == b"acked"

    def test_rollback_not_detected_without_stabilization(self):
        """The ablation: w/o the stabilization protocol the attack wins."""
        cluster = TreatyCluster(profile=TREATY_ENC).start()
        keys = keys_on(cluster, 1, 4, b"rn")
        commit_local(cluster, 1, [(keys[0], b"old")])
        stale = snapshot_node_disk(cluster, 1)
        commit_local(cluster, 1, [(keys[1], b"new")])
        cluster.run(rollback_attack(cluster, 1, stale))  # silently succeeds
        assert read_local(cluster, 1, keys[1]) is None  # data silently lost


class TestTamperDetection:
    @pytest.mark.parametrize("log_kind", ["wal", "manifest"])
    def test_tampered_log_detected(self, log_kind):
        cluster = TreatyCluster(profile=TREATY_ENC).start()
        keys = keys_on(cluster, 1, 4, b"tl")
        commit_local(cluster, 1, [(keys[0], b"v")])
        filename = find_log_file(cluster.nodes[1], log_kind)
        with pytest.raises(IntegrityError):
            cluster.run(tamper_attack(cluster, 1, filename, offset=30))

    def test_tampered_clog_detected(self):
        cluster = TreatyCluster(profile=TREATY_ENC).start()
        spread = {i: keys_on(cluster, i, 1, b"tc")[0] for i in range(3)}

        def body():
            txn = cluster.nodes[0].coordinator.begin()
            for key in spread.values():
                yield from txn.put(key, b"v")
            yield from txn.commit()
            yield cluster.sim.timeout(0.05)

        cluster.run(body())
        filename = find_log_file(cluster.nodes[0], "clog")
        with pytest.raises(IntegrityError):
            cluster.run(tamper_attack(cluster, 0, filename, offset=20))

    def test_native_baseline_cannot_detect_tampering(self):
        cluster = TreatyCluster(profile=DS_ROCKSDB).start()
        keys = keys_on(cluster, 1, 4, b"tn")
        commit_local(cluster, 1, [(keys[0], b"v")])
        filename = find_log_file(cluster.nodes[1], "manifest")
        # Flip a byte inside the recorded WAL filename: the baseline
        # recovers "successfully" while silently losing the WAL's data.
        cluster.run(tamper_attack(cluster, 1, filename, offset=25, xor_mask=0x01))
        assert read_local(cluster, 1, keys[0]) is None  # silent data loss
