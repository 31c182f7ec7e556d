"""Tests for the rollback-protection backends.

Covers the backend table (`repro.core.trusted_counter.BACKENDS`): the
round shape each row produces on the wire, the acked ⇒ found read rule
and the CONFIRM handler's never-echoed check; and the coverage-promise
machinery (`repro.core.rollback`): shard routing determinism and
stability across recovery, independent per-shard frontiers/leases, the
exactly-once sync fallback on lease expiry, backend equivalence for
committed state, and the span-leak regression for crashed
stabilizations.
"""

import itertools

import pytest

from repro.config import ClusterConfig, TREATY_FULL
from repro.core import ClogRecord, DurabilityPipeline, TreatyCluster, rollback
from repro.core.ids import GlobalTxnId
from repro.core.rollback import PromiseScheduler
from repro.core.trusted_counter import (
    BACKENDS,
    RoundShape,
    encode_counter_vector,
    shard_of,
)
from repro.errors import NetworkError
from repro.mc import keys_on, read_owner
from repro.net.message import MsgType, TxMessage


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
            yield from node.pipeline.rollback.stabilize(names[0], 3)

        cluster.run(body())
        # Waiters release at echo quorum here; let the detached CONFIRM
        # leg land, so the value is sealed before the crash.
        cluster.sim.run(until=cluster.sim.now + 0.01)
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
        assert list(BACKENDS) == ["counter-sync", "counter-async", "lcm"]
        assert BACKENDS == {
            "counter-sync": RoundShape(
                release_at_echo=False, confirm="strict", promises=False
            ),
            "counter-async": RoundShape(
                release_at_echo=True, confirm="background", promises=True
            ),
            "lcm": RoundShape(
                release_at_echo=True, confirm="none", promises=True
            ),
        }

    def test_each_node_runs_its_table_row(self):
        """The row is read once per node, by replica and client; the
        pipeline routes through the promise scheduler exactly where the
        row says rounds are promise-scheduled, else through the client."""
        for name, shape in BACKENDS.items():
            for node in make_cluster(rollback_backend=name).nodes:
                assert node.replica.shape is shape
                assert node.counter_client.shape is shape
                scheduler = node.pipeline.rollback
                if shape.promises:
                    assert type(scheduler) is PromiseScheduler
                    assert scheduler.client is node.counter_client
                else:
                    assert scheduler is node.counter_client

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError) as raised:
            make_cluster(rollback_backend="no-such-backend")
        for name in BACKENDS:
            assert name in str(raised.value)

    def test_no_client_no_backend(self):
        """Without a counter client the pipeline builds no backend and
        is disabled, whatever the profile."""
        cluster = make_cluster()
        node = cluster.nodes[0]
        pipeline = DurabilityPipeline(node.runtime, None, ClusterConfig())
        assert pipeline.rollback is None
        assert not pipeline.enabled


# -- quorum sizes --------------------------------------------------------------


@pytest.mark.parametrize("num_nodes, quorum", [(1, 1), (3, 2), (5, 3)])
def test_quorums_follow_the_cluster_size(num_nodes, quorum):
    """The counter group's echo quorum and both decision-ledger quorums
    are one majority of the nodes actually built: any two counter
    quorums intersect, and commit + abort quorums exceed the node count
    so at most one decision outcome becomes final."""
    cluster = TreatyCluster(
        profile=TREATY_FULL, config=ClusterConfig(), num_nodes=num_nodes
    ).start()
    assert len(cluster.nodes) == num_nodes
    for node in cluster.nodes:
        assert node.ledger.commit_quorum == quorum
        assert node.ledger.abort_quorum == quorum
        assert node.counter_client.quorum == quorum
    # ``final`` over every assignment of the n slots: COMMIT, ABORT,
    # empty (None) or unreachable (no entry in the map).
    commit, abort, unreachable = ClogRecord.COMMIT, ClogRecord.ABORT, "-"
    ledger = cluster.nodes[0].ledger
    for slots in itertools.product(
        (commit, abort, None, unreachable), repeat=num_nodes
    ):
        kinds = {
            node: kind for node, kind in enumerate(slots)
            if kind != unreachable
        }
        commits, aborts = slots.count(commit), slots.count(abort)
        final = ledger.final(kinds)
        assert (final == commit) == (commits >= quorum), slots
        assert (final == abort) == (
            aborts >= num_nodes - quorum + 1
        ), slots
        assert not (commits >= quorum and aborts >= num_nodes - quorum + 1)
        if slots[0] == commit:
            # Node 0 as the coordinator, its own slot COMMIT: the quorum
            # wait's former arithmetic, over its peers' answers.
            acks = commits - 1
            conflicts = aborts
            undecided = (num_nodes - 1) - acks - conflicts
            assert (final == commit) == (acks >= quorum - 1), slots
            assert (final == abort) == (
                1 + acks + undecided < quorum
            ), slots


# -- the round each table row produces -----------------------------------------


def _records(cluster, **match):
    return [
        record for record in cluster.obs.records()
        if all(record.get(key) == value for key, value in match.items())
    ]


@pytest.mark.parametrize("name", BACKENDS)
class TestRoundShape:
    TARGETS = [("shape/a", 3), ("shape/b", 1)]

    def _stabilize(self, cluster, then=None):
        """One ``stabilize_many`` through node0's pipeline, inside a
        traced root (handler spans open only under a trace context);
        ``then`` runs in the waiter's fiber the instant it resumes."""
        node = cluster.nodes[0]
        tracer = cluster.obs.tracer
        trace = GlobalTxnId(1 << 62, 1).encode().hex()

        def body():
            with tracer.span("test", "shape", node=node.name, trace=trace,
                             parent=0):
                yield from node.pipeline.rollback.stabilize_many(self.TARGETS)
            result = None
            if then is not None:
                result = yield from then()
            return cluster.sim.now, result

        resumed, result = cluster.run(body())
        # Let detached CONFIRM legs and straggler echoes land.
        cluster.sim.run(until=cluster.sim.now + 0.05)
        return resumed, result

    def test_shape_on_the_wire(self, name):
        shape = BACKENDS[name]
        cluster = make_cluster(rollback_backend=name)
        remotes = cluster.nodes[1:]
        at_resume = {}

        def snapshot():
            for peer in remotes:
                at_resume[peer.name] = dict(peer.replica.confirmed)
            return
            yield  # pragma: no cover - generator shape

        resumed, _ = self._stabilize(cluster, then=snapshot)
        #: remote replicas that had confirmed every target by then.
        confirmed_at_resume = sum(
            all(seen.get(log, 0) >= value for log, value in self.TARGETS)
            for seen in at_resume.values()
        )
        quorum = cluster.nodes[0].counter_client.quorum
        for peer in remotes:
            (update,) = _records(
                cluster, type="span", cat="rpc", name="COUNTER_UPDATE",
                node=peer.name,
            )
            legs = _records(
                cluster, type="span", cat="rpc", name="COUNTER_CONFIRM",
                node=peer.name,
            )
            assert len(legs) == (0 if shape.confirm == "none" else 1)
            confirms = _records(
                cluster, type="event", cat="counter", name="confirm",
                node=peer.name,
            )
            assert len(confirms) == len(self.TARGETS)
            # Only where the echo is the commit does a replica seal the
            # value while it echoes.
            sealed_at_echo = all(
                update["t0"] <= record["t"] <= update["t1"]
                for record in confirms
            )
            assert sealed_at_echo == (shape.confirm == "none")
            if shape.confirm == "background":
                # The waiter resumed before any remote CONFIRM landed.
                assert all(record["t"] > resumed for record in confirms)
        if shape.confirm == "background":
            assert confirmed_at_resume == 0
        else:
            # Released by the CONFIRM quorum (strict) or by an echo
            # quorum that sealed as it echoed (none); the sender's own
            # replica is one vote of either.
            assert confirmed_at_resume >= quorum - 1

    def test_acked_implies_found(self, name):
        """The instant the waiter resumes, a recovery read from another
        node already finds the value — echoed values are reported
        exactly where waiters release at echo quorum."""
        cluster = make_cluster(rollback_backend=name)
        reader = cluster.nodes[1].counter_client
        logs = [log for log, _ in self.TARGETS]
        _, found = self._stabilize(
            cluster, then=lambda: reader.read_stable_many(logs)
        )
        for log, value in self.TARGETS:
            assert found[log] >= value
        # A value that was only ever echoed (here: by one replica, no
        # quorum, no waiter released).
        cluster.nodes[2].replica.echo([("shape/echo-only", 9)])

        def read():
            values = yield from reader.read_stable_many(["shape/echo-only"])
            return values["shape/echo-only"]

        expected = 9 if BACKENDS[name].release_at_echo else 0
        assert cluster.run(read()) == expected

    def test_confirm_refuses_a_never_echoed_target(self, name):
        """One target this replica never echoed poisons the whole
        CONFIRM vector: FAIL, and none of it is confirmed."""
        cluster = make_cluster(rollback_backend=name)
        replica = cluster.nodes[1].replica
        replica.echo([("poison/echoed", 2)])
        message = TxMessage(
            MsgType.COUNTER_CONFIRM, 0, 1, 1,
            encode_counter_vector([("poison/echoed", 2), ("poison/never", 5)]),
        )

        def body():
            reply = yield from replica._on_confirm(message, "node0")
            return reply

        assert cluster.run(body()).msg_type == MsgType.FAIL
        assert "poison/echoed" not in replica.confirmed
        assert "poison/never" not in replica.confirmed
        assert not _records(
            cluster, type="event", cat="counter", name="confirm",
            node=replica.node_name,
        )


# -- per-shard frontiers and leases --------------------------------------------


class TestPerShardFrontiers:
    def test_frontiers_and_leases_advance_independently(self):
        cluster = make_cluster(
            rollback_backend="counter-async", counter_shards=4
        )
        node = cluster.nodes[0]
        backend = node.pipeline.rollback
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
        backend = node.pipeline.rollback
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
    def test_expired_promise_falls_back_exactly_once(self, backend_name,
                                                     monkeypatch):
        monkeypatch.setattr(rollback, "COUNTER_LEASE_S", 0.005)
        cluster = make_cluster(
            rollback_backend=backend_name,
            counter_shards=2,
        )
        node = cluster.nodes[0]
        backend = node.pipeline.rollback
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
        backend = node.pipeline.rollback

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
                (keys_on(cluster, i, 1, b"beq")[0], b"v-" + name.encode())
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

            states[backend] = [read_owner(cluster, key) for key, _ in pairs]
        assert states["counter-sync"] == [value for _, value in pairs]
        assert states["counter-sync"] == states["counter-async"]
        assert states["counter-sync"] == states["lcm"]


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

        node.pipeline.rollback.stabilize = boom
        node.pipeline.rollback.stabilize_many = boom

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
