"""The unified durability pipeline: vectored counter rounds,
stabilization-aware group commit, and the I5 liveness monitor."""

import pytest

from repro.config import ClusterConfig, TREATY_FULL
from repro.core import (
    TreatyCluster,
    crash_and_recover,
    rollback_attack,
    snapshot_node_disk,
)
from repro.core.trusted_counter import decode_counter_vector, shard_of
from repro.errors import FreshnessError
from repro.mc.workload import keys_on
from repro.net import MsgType, SecureRpc
from repro.obs import InvariantMonitor, MonitorViolation, Tracer
from repro.sim import Simulator
from repro.txn.group_commit import GROUP_COMMIT_WINDOW_CAP

from tests.conftest import join_all


def make_cluster(**overrides):
    config = ClusterConfig(**overrides)
    return TreatyCluster(profile=TREATY_FULL, config=config).start()


# -- vectored counter rounds ---------------------------------------------------


class TestVectoredRounds:
    def test_concurrent_logs_share_one_round(self):
        """WAL- and Clog-style targets on different logs coalesce into a
        single echo-broadcast execution."""
        cluster = make_cluster()
        client = cluster.nodes[0].counter_client
        before = client.rounds_executed

        def waiter(log, value):
            yield from client.stabilize(log, value)

        def body():
            events = [
                cluster.sim.process(waiter("vec-log-a", 5), name="wa"),
                cluster.sim.process(waiter("vec-log-b", 3), name="wb"),
            ]
            yield from join_all(cluster.sim, events)

        cluster.run(body())
        assert client.rounds_executed - before == 1
        assert client.stable_value("vec-log-a") == 5
        assert client.stable_value("vec-log-b") == 3

    def test_sequential_logs_run_one_round_per_log(self):
        """The per-log round is a one-element vector through the same
        driver: logs that do not overlap in time cannot share a round."""
        cluster = make_cluster()
        client = cluster.nodes[0].counter_client
        before = client.rounds_executed

        def body():
            yield from client.stabilize("seq-log-a", 5)
            yield from client.stabilize("seq-log-b", 3)

        cluster.run(body())
        assert client.rounds_executed - before == 2

    def test_stabilize_many_is_one_request(self):
        cluster = make_cluster()
        client = cluster.nodes[0].counter_client
        before = client.rounds_executed

        def body():
            yield from client.stabilize_many(
                [("many-log-a", 4), ("many-log-b", 9), ("many-log-c", 1)]
            )

        cluster.run(body())
        assert client.rounds_executed - before == 1
        for log, value in (("many-log-a", 4), ("many-log-b", 9),
                           ("many-log-c", 1)):
            assert client.stable_value(log) == value

    def test_rounds_per_txn_amortized_at_least_2x(self):
        """Acceptance: under a concurrent workload the vectored pipeline
        executes at most half the counter rounds per committed
        transaction that one round per log costs.  A per-log driver
        measured 6.0969 rounds/txn on this exact run (same seed, 227
        commits); 3.05 is half of that.  Measured now: 1.5595."""
        from repro.bench.harness import durability_smoke

        metrics = durability_smoke()
        durability = metrics.extra_info["obs"]["durability"]
        assert metrics.committed > 50
        assert durability["rounds_per_committed_txn"] <= 3.05


# -- vectored recovery reads ---------------------------------------------------


class TestVectoredRecovery:
    def test_recovery_reads_every_shard_in_two_fanouts(self, monkeypatch):
        """Every replica holds every log, so one quorum read covers all
        counter shards: the MANIFEST's, then every live WAL's and
        Clog's, whichever shards they hash to."""
        cluster = make_cluster(counter_shards=4)
        keys = keys_on(cluster, 1, 4, b"fo")

        def commit():
            txn = cluster.nodes[1].coordinator.begin()
            for key in keys:
                yield from txn.put(key, b"v-" + key)
            yield from txn.commit()

        cluster.run(commit())
        fanouts = []
        gather = SecureRpc.gather

        def counted_gather(rpc, pairs, *args, **kwargs):
            if pairs and pairs[0][1].msg_type == MsgType.RECOVERY_QUERY:
                fanouts.append([name for name, _ in
                                decode_counter_vector(pairs[0][1].body)])
            return gather(rpc, pairs, *args, **kwargs)

        monkeypatch.setattr(SecureRpc, "gather", counted_gather)
        cluster.run(crash_and_recover(cluster, 1))
        manifest, live_logs = fanouts
        assert manifest == ["node1/MANIFEST"]
        assert len({shard_of(name, 4) for name in live_logs}) >= 2
        assert any("/wal-" in name for name in live_logs)
        assert any("/clog-" in name for name in live_logs)

    def test_committed_data_survives_crash_with_vectored_reads(self):
        cluster = make_cluster()
        keys = keys_on(cluster, 1, 4, b"dp")

        def commit():
            txn = cluster.nodes[1].coordinator.begin()
            for key in keys:
                yield from txn.put(key, b"v-" + key)
            yield from txn.commit()

        cluster.run(commit())
        cluster.run(crash_and_recover(cluster, 1))

        def read(key):
            txn = cluster.nodes[1].coordinator.begin()
            value = yield from txn.get(key)
            yield from txn.commit()
            return value

        for key in keys:
            assert cluster.run(read(key)) == b"v-" + key

    def test_rollback_attack_still_detected(self):
        cluster = make_cluster()
        keys = keys_on(cluster, 1, 4, b"ra")

        def commit(key, value):
            txn = cluster.nodes[1].coordinator.begin()
            yield from txn.put(key, value)
            yield from txn.commit()

        cluster.run(commit(keys[0], b"old"))
        stale = snapshot_node_disk(cluster, 1)
        cluster.run(commit(keys[1], b"new"))
        with pytest.raises(FreshnessError):
            cluster.run(rollback_attack(cluster, 1, stale))


# -- stabilization-aware group commit ------------------------------------------


class TestGroupCommitWindow:
    def _staggered_submits(self, cluster, count=6, gap=2e-5):
        node = cluster.nodes[0]
        group = node.manager.group

        def submitter(i):
            yield cluster.sim.timeout(i * gap)
            yield from group.submit(
                b"gcw-%02d" % i, [(b"gcw-key-%02d" % i, b"v")]
            )

        def body():
            events = [
                cluster.sim.process(submitter(i), name="s%d" % i)
                for i in range(count)
            ]
            yield from join_all(cluster.sim, events)

        cluster.run(body())
        return group

    def test_fixed_window_collects_staggered_burst_into_one_group(self):
        cluster = make_cluster(group_commit_window=2e-4)
        group = self._staggered_submits(cluster)
        assert group.groups_formed == 1
        assert group.committed == 6

    def test_zero_window_forms_more_groups(self):
        cluster = make_cluster(group_commit_window=0.0)
        group = self._staggered_submits(cluster)
        assert group.groups_formed >= 2
        assert group.committed == 6

    def test_adaptive_window_tracks_arrival_gap(self):
        cluster = make_cluster()  # group_commit_window=None -> adaptive
        group = cluster.nodes[0].manager.group
        assert group.window is None
        # No arrival history: an idle node drains immediately.
        assert group.window_delay() == 0.0
        group._gap_ewma = 5e-5
        assert group.window_delay() == pytest.approx(2e-4)
        # The wait is bounded by the cap...
        group._gap_ewma = 1.0
        assert group.window_delay() == GROUP_COMMIT_WINDOW_CAP
        # ...and skipped entirely once the queue is already full.
        group._queue = [None] * group.max_group
        assert group.window_delay() == 0.0

    def test_batch_shares_one_stabilization_event(self):
        cluster = make_cluster(group_commit_window=2e-4)
        node = cluster.nodes[0]
        group = node.manager.group
        client = node.counter_client
        before = client.rounds_executed
        results = []

        def submitter(i):
            result = yield from group.submit(
                b"shr-%02d" % i, [(b"shr-key-%02d" % i, b"v")],
                wait_stable=True,
            )
            results.append(result)

        def body():
            events = [
                cluster.sim.process(submitter(i), name="s%d" % i)
                for i in range(4)
            ]
            yield from join_all(cluster.sim, events)
            # Everyone shares the batch's stabilization event; waiting on
            # it yields once the one counter round completes.
            yield results[0][2]

        cluster.run(body())
        assert group.groups_formed == 1
        events = {id(stable_event) for _, _, stable_event in results}
        assert len(events) == 1  # one shared event for the whole batch
        counters = [counter for counter, _, _ in results]
        assert client.stable_value(results[0][1]) >= max(counters)
        assert client.rounds_executed - before == 1

    def test_bursty_arrivals_move_the_adaptive_window(self):
        """Closed-loop YCSB clients exercise the feedback loop: the
        arrival-gap EWMA moves off its idle default and the observed
        stabilization wait sets a floor under the window."""
        from repro.bench import MetricsCollector
        from repro.workloads import YcsbConfig, bulk_load, run_ycsb

        cluster = make_cluster()  # group_commit_window=None -> adaptive
        ycsb = YcsbConfig(num_keys=300, value_size=64, ops_per_txn=4)
        cluster.run(bulk_load(cluster, ycsb), name="load")
        metrics = MetricsCollector("closed-loop")
        run_ycsb(cluster, ycsb, metrics, num_clients=8, duration=0.3,
                 warmup=0.05)
        assert metrics.committed > 0
        groups = [node.manager.group for node in cluster.nodes]
        moved = [g for g in groups if g._gap_ewma is not None]
        assert moved, "no group-commit leader saw an arrival gap"
        fed = [g for g in groups if g._stab_ewma is not None]
        assert fed, "no observed stabilize wait fed the window EWMA"
        cap = GROUP_COMMIT_WINDOW_CAP
        for group in fed:
            delay = group.window_delay()
            assert delay > 0.0
            assert delay >= min(cap, group._stab_ewma * 0.1) - 1e-12
            assert delay <= cap


# -- I5: bounded liveness ------------------------------------------------------


class TestLivenessMonitor:
    def _monitored_tracer(self, timeout=1.0, strict=True):
        sim = Simulator()
        tracer = Tracer(sim)
        monitor = InvariantMonitor(
            strict=strict, liveness_timeout=timeout
        ).attach(tracer)
        return sim, tracer, monitor

    def test_stuck_prepare_trips_i5(self):
        sim, tracer, monitor = self._monitored_tracer()
        tracer.event("twopc", "prepare_ack", node="node1", txn="aa",
                     log="node1/wal", counter=1)
        sim.now = 2.0
        with pytest.raises(MonitorViolation, match="I5"):
            tracer.event("net", "tick")  # any later event advances the clock
        assert "aa" not in monitor.awaiting_decision

    def test_decision_within_bound_is_green(self):
        sim, tracer, monitor = self._monitored_tracer()
        tracer.event("twopc", "prepare_ack", node="node1", txn="bb",
                     log="node1/wal", counter=1)
        sim.now = 0.5
        tracer.event("twopc", "decision", node="node0", txn="bb",
                     kind="commit", log="node0/clog", counter=1)
        sim.now = 5.0
        tracer.event("net", "tick")
        assert monitor.green

    def test_crash_clears_pending_obligations(self):
        sim, tracer, monitor = self._monitored_tracer()
        tracer.event("twopc", "prepare_ack", node="node1", txn="cc",
                     log="node1/wal", counter=1)
        tracer.event("node", "crash", node="node0")
        sim.now = 5.0
        tracer.event("net", "tick")
        assert monitor.green

    def test_bystander_crash_does_not_mask_stuck_txn(self):
        """I5 blind spot regression: obligations are per-coordinator —
        an unrelated node's crash must not excuse a stuck transaction
        whose coordinator is healthy."""
        sim, tracer, monitor = self._monitored_tracer()
        tracer.event("twopc", "prepare_ack", node="node1", txn="ee",
                     log="node1/wal", counter=1, coord=0)
        tracer.event("node", "crash", node="node2", node_id=2)
        assert "ee" in monitor.awaiting_decision
        sim.now = 5.0
        with pytest.raises(MonitorViolation, match="I5"):
            tracer.event("net", "tick")

    def test_coordinator_crash_excuses_only_its_txns(self):
        sim, tracer, monitor = self._monitored_tracer()
        tracer.event("twopc", "prepare_ack", node="node1", txn="f0",
                     log="node1/wal", counter=1, coord=0)
        tracer.event("twopc", "prepare_target", node="node2", txn="f1",
                     log="node2/wal", counter=1, coord=1)
        tracer.event("node", "crash", node="node0", node_id=0)
        # node0's transaction is excused; node1's still owes a decision.
        assert "f0" not in monitor.awaiting_decision
        assert "f1" in monitor.awaiting_decision
        sim.now = 5.0
        with pytest.raises(MonitorViolation, match="I5.*f1"):
            tracer.event("net", "tick")

    def test_check_quiescent_sweeps_the_tail(self):
        sim, tracer, monitor = self._monitored_tracer(strict=False)
        sim.now = 3.0
        tracer.event("twopc", "prepare_ack", node="node1", txn="dd",
                     log="node1/wal", counter=1)
        monitor.check_quiescent(now=10.0)
        assert any(v.startswith("I5") for v in monitor.violations)

    def test_full_run_under_liveness_monitor_is_green(self):
        cluster = make_cluster(monitor=True, monitor_liveness_timeout_s=1.0)
        keys = [keys_on(cluster, i, 1, b"lv")[0] for i in range(3)]

        def body():
            txn = cluster.session(cluster.client_machine()).begin()
            for key in keys:
                yield from txn.put(key, b"live")
            yield from txn.commit()

        cluster.run(body())
        cluster.sim.run(until=cluster.sim.now + 2.0)
        monitor = cluster.obs.monitor
        monitor.check_quiescent(now=cluster.sim.now)
        assert monitor.green
        assert monitor.liveness_timeout == 1.0
        assert not monitor.awaiting_decision
