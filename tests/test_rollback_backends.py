"""Tests for the pluggable rollback-protection backends.

Covers the coverage-promise machinery (`repro.core.rollback`): shard
routing determinism and stability across recovery, independent
per-shard frontiers/leases, the exactly-once sync fallback on lease
expiry, backend equivalence for committed state, and the span-leak
regression for crashed stabilizations.
"""

import pytest

from repro.config import ClusterConfig, TREATY_FULL
from repro.core import DurabilityPipeline, TreatyCluster
from repro.core.rollback import (
    BACKENDS,
    CounterAsyncBackend,
    CounterSyncBackend,
    LcmBackend,
    make_backend,
)
from repro.core.trusted_counter import shard_of
from repro.errors import NetworkError


def make_cluster(**overrides):
    config = ClusterConfig(tracing=True, monitor=True, **overrides)
    return TreatyCluster(profile=TREATY_FULL, config=config).start()


# -- shard routing -------------------------------------------------------------


class TestShardRouting:
    def test_mapping_is_deterministic(self):
        names = ["node%d/wal-000001.log" % i for i in range(8)]
        first = [shard_of(name, 4) for name in names]
        second = [shard_of(name, 4) for name in names]
        assert first == second
        assert all(0 <= shard < 4 for shard in first)

    def test_single_shard_short_circuits(self):
        assert shard_of("anything", 1) == 0
        assert shard_of("anything", 0) == 0

    def test_many_logs_spread_over_shards(self):
        names = ["node%d/wal-%06d.log" % (i % 3, i) for i in range(64)]
        used = {shard_of(name, 4) for name in names}
        assert used == {0, 1, 2, 3}

    def test_mapping_is_stable_across_recovery(self):
        """The log→shard route depends only on the log name and shard
        count — a recovered node must resolve every log to the same
        counter group its pre-crash incarnation used."""
        cluster = make_cluster(
            rollback_backend="counter-async", counter_shards=4
        )
        node = cluster.nodes[0]
        names = ["recov/log-%02d" % i for i in range(16)]
        before = [node.counter_client.shard_of(name) for name in names]

        def body():
            yield from node.counter_client.stabilize(names[0], 3)

        cluster.run(body())
        cluster.crash_node(0)
        cluster.run(cluster.recover_node(0), name="recover")
        node = cluster.nodes[0]
        after = [node.counter_client.shard_of(name) for name in names]
        assert before == after
        # The recovered client still knows the stabilized value.
        assert node.counter_client.stable_value(names[0]) >= 3


# -- backend construction ------------------------------------------------------


class TestBackendSelection:
    def test_registry_matches_config_values(self):
        assert BACKENDS == ("counter-sync", "counter-async", "lcm")

    def test_make_backend_dispatch(self):
        expected = {
            "counter-sync": CounterSyncBackend,
            "counter-async": CounterAsyncBackend,
            "lcm": LcmBackend,
        }
        for name, cls in expected.items():
            cluster = make_cluster(rollback_backend=name)
            node = cluster.nodes[0]
            assert type(node.rollback) is cls
            assert node.rollback.name == name
            assert node.pipeline.rollback is node.rollback

    def test_unknown_backend_rejected(self):
        cluster = make_cluster()
        node = cluster.nodes[0]
        config = ClusterConfig(rollback_backend="no-such-backend")
        with pytest.raises(ValueError):
            make_backend(node.runtime, node.counter_client, config)

    def test_no_client_no_backend(self):
        """Without a counter client the pipeline builds no backend and
        is disabled, whatever the profile."""
        cluster = make_cluster()
        node = cluster.nodes[0]
        pipeline = DurabilityPipeline(node.runtime, None, ClusterConfig())
        assert pipeline.rollback is None
        assert not pipeline.enabled


# -- per-shard frontiers and leases --------------------------------------------


class TestPerShardFrontiers:
    def test_frontiers_and_leases_advance_independently(self):
        cluster = make_cluster(
            rollback_backend="counter-async", counter_shards=4
        )
        node = cluster.nodes[0]
        backend = node.rollback
        client = node.counter_client
        # Two logs guaranteed to live on different shards.
        log_a = "shard-ind/a"
        log_b = next(
            "shard-ind/b%d" % i for i in range(64)
            if client.shard_of("shard-ind/b%d" % i)
            != client.shard_of(log_a)
        )
        shard_a = client.shard_of(log_a)
        shard_b = client.shard_of(log_b)

        def body():
            yield from backend.stabilize(log_a, 5)

        cluster.run(body())
        assert client.stable_value(log_a) == 5
        assert client.stable_value(log_b) == 0
        # Only the serving shard's lease was renewed.
        assert backend.lease_until[shard_a] > 0.0
        assert backend.lease_until[shard_b] == 0.0

        def body_b():
            yield from backend.stabilize(log_b, 2)

        cluster.run(body_b())
        assert client.stable_value(log_b) == 2
        assert backend.lease_until[shard_b] > 0.0

    def test_cross_shard_group_covers_all_targets(self):
        """One stabilize_many spanning several shards: every target is
        covered, with one promise accounting entry."""
        cluster = make_cluster(
            rollback_backend="counter-async", counter_shards=4
        )
        node = cluster.nodes[0]
        backend = node.rollback
        targets = [("xshard/log-%02d" % i, i + 1) for i in range(8)]
        shards = {node.counter_client.shard_of(log) for log, _ in targets}
        assert len(shards) > 1

        def body():
            yield from backend.stabilize_many(targets)

        cluster.run(body())
        for log, value in targets:
            assert node.counter_client.stable_value(log) >= value
        assert backend.promises == 1
        assert backend.covered == len(targets)
        assert backend.sync_fallbacks == 0


# -- lease expiry --------------------------------------------------------------


class TestLeaseExpiry:
    @pytest.mark.parametrize("backend_name", ["counter-async", "lcm"])
    def test_expired_promise_falls_back_exactly_once(self, backend_name):
        cluster = make_cluster(
            rollback_backend=backend_name,
            counter_shards=2,
            counter_lease_s=0.005,
        )
        node = cluster.nodes[0]
        backend = node.rollback
        # Park the drivers: promises can only resolve via the waiter's
        # own lease-expiry fallback.
        backend.drivers_enabled = False
        start = cluster.sim.now

        def body():
            yield from backend.stabilize("lease-exp/a", 7)

        cluster.run(body())
        assert node.counter_client.stable_value("lease-exp/a") == 7
        assert backend.sync_fallbacks == 1
        assert node.runtime.metrics.counter("counter.lease.expired").value == 1
        # The waiter sat out the full grace window before falling back.
        assert cluster.sim.now - start >= 0.005

        targets2 = [("lease-exp/a", 9), ("lease-exp/c", 1)]
        shards2 = {node.counter_client.shard_of(log) for log, _ in targets2}

        def body2():
            yield from backend.stabilize_many(targets2)

        cluster.run(body2())
        # Exactly one more fallback per expired (promise, shard) — never
        # one per target, never a retry loop.
        assert backend.sync_fallbacks == 1 + len(shards2)
        assert node.counter_client.stable_value("lease-exp/a") == 9
        assert node.counter_client.stable_value("lease-exp/c") == 1

    def test_live_driver_never_falls_back(self):
        cluster = make_cluster(
            rollback_backend="counter-async", counter_shards=2
        )
        node = cluster.nodes[0]
        backend = node.rollback

        def body():
            for i in range(6):
                yield from backend.stabilize("no-fallback/%d" % i, i + 1)

        cluster.run(body())
        assert backend.sync_fallbacks == 0
        assert backend.covered == 6
        assert node.runtime.metrics.counter("counter.covered").value == 6
        assert (
            node.runtime.metrics.counter("counter.lease.renewals").value > 0
        )


# -- backend equivalence -------------------------------------------------------


def distinct_keys(cluster, node_index, count, tag):
    keys, i = [], 0
    while len(keys) < count:
        key = b"%s-%05d" % (tag, i)
        if cluster.partitioner(key) == node_index:
            keys.append(key)
        i += 1
    return keys


class TestBackendEquivalence:
    def test_all_backends_commit_identical_state(self):
        """The backend changes how coverage is established, never the
        committed state or the monitor verdict."""
        states = {}
        for backend in BACKENDS:
            cluster = make_cluster(
                rollback_backend=backend,
                counter_shards=1 if backend == "counter-sync" else 2,
            )
            pairs = [
                (distinct_keys(cluster, i, 1, b"beq")[0], b"v-" + name.encode())
                for i, name in enumerate(["a", "b", "c"])
            ]

            def body():
                txn = cluster.nodes[0].coordinator.begin()
                for key, value in pairs:
                    yield from txn.put(key, value)
                yield from txn.commit()

            cluster.run(body())
            cluster.sim.run(until=cluster.sim.now + 0.5)
            cluster.obs.monitor.check_quiescent(now=cluster.sim.now)
            assert cluster.obs.monitor.green, cluster.obs.monitor.violations

            def read(key):
                def rbody():
                    txn = cluster.nodes[
                        cluster.partitioner(key)
                    ].coordinator.begin()
                    value = yield from txn.get(key)
                    yield from txn.commit()
                    return value

                return cluster.run(rbody())

            states[backend] = [read(key) for key, _ in pairs]
        assert states["counter-sync"] == states["counter-async"]
        assert states["counter-sync"] == states["lcm"]
        assert all(value is not None for value in states["counter-sync"])


# -- span-leak regression ------------------------------------------------------


def _open_span_count(tracer):
    return len(tracer._open) + sum(
        len(stack) for stack in tracer._proc_open.values()
    )


class TestSpanLeakOnCrashedStabilization:
    def test_crashed_stabilization_leaves_no_open_spans(self):
        """A NetworkError out of the counter path (zombie fiber after a
        NIC detach) must close the stabilize/wait and group_round spans
        on the way out."""
        cluster = make_cluster()
        node = cluster.nodes[0]
        tracer = cluster.obs.tracer

        def boom(*_args, **_kwargs):
            raise NetworkError("NIC detached")
            yield  # pragma: no cover - generator shape

        node.rollback.stabilize = boom
        node.rollback.stabilize_many = boom

        def call_single():
            yield from node.pipeline.stabilize("leak/a", 3)

        def call_many():
            yield from node.pipeline.stabilize_group(
                [("leak/b", 1), ("leak/c", 2)], txn="t-leak"
            )

        before = _open_span_count(tracer)
        for body in (call_single, call_many):
            with pytest.raises(NetworkError):
                cluster.run(body())
        assert _open_span_count(tracer) == before
