"""The observability subsystem: tracer, registry, exporters, monitor."""

import json

import pytest

from repro.config import ClusterConfig, TREATY_FULL
from repro.core import TreatyCluster, crash_and_recover
from repro.core.pipeline import DurabilityPipeline
from repro.net import NetworkAdversary
from repro.obs import (
    Histogram,
    InvariantMonitor,
    MetricsHub,
    MetricsRegistry,
    MonitorViolation,
    Tracer,
    chrome_trace,
    load_chrome_trace,
    merge_snapshots,
    to_jsonl,
    write_chrome_trace,
)
from repro.sim import Simulator


def local_key(cluster, node_index, tag=b"obs"):
    i = 0
    while True:
        key = b"%s-%04d" % (tag, i)
        if cluster.partitioner(key) == node_index:
            return key
        i += 1


def traced_cluster(seed=11, monitor=False):
    config = ClusterConfig(tracing=True, monitor=monitor, seed=seed)
    return TreatyCluster(profile=TREATY_FULL, config=config).start()


def spread_txn(cluster, tag=b"obs"):
    """One transaction touching every shard (guaranteed distributed)."""
    keys = [local_key(cluster, i, tag) for i in range(cluster.num_nodes)]

    def body():
        txn = cluster.session(cluster.client_machine()).begin()
        for key in keys:
            yield from txn.put(key, b"traced")
        yield from txn.commit()

    return body


# -- registry ------------------------------------------------------------------


class TestHistogram:
    def test_bucket_edges_are_inclusive_upper_bounds(self):
        hist = Histogram([1.0, 2.0, 4.0])
        for value in (0.5, 1.0, 1.5, 2.0, 3.9, 4.0, 4.00001):
            hist.observe(value)
        # value <= edge lands in that bucket; beyond the last edge
        # overflows.
        assert hist.counts == [2, 2, 2, 1]
        assert hist.total == 7
        assert hist.min == 0.5
        assert hist.max == 4.00001

    def test_edges_must_increase(self):
        with pytest.raises(ValueError):
            Histogram([1.0, 1.0])
        with pytest.raises(ValueError):
            Histogram([])

    def test_registry_get_or_create(self):
        registry = MetricsRegistry("x")
        assert registry.counter("a") is registry.counter("a")
        registry.counter("a").inc(3)
        registry.probe("b", lambda: 9)
        snap = registry.snapshot()
        assert snap["a"] == 3
        assert snap["b"] == 9

    def test_merge_snapshots_equals_the_hand_sum(self):
        hub = MetricsHub()
        observed = {"node0": (0.5, 3.0), "node1": (1.5, 9.0, 2.0)}
        for name, values in observed.items():
            registry = hub.registry(name)
            registry.counter("ops").inc(len(values))
            registry.probe("load", lambda load=values[0]: load)
            registry.histogram("empty_s")
            for value in values:
                registry.histogram("wait_s", edges=[1.0, 2.0, 4.0]).observe(value)
        hub.registry("node1").counter("only_here").inc(7)

        snapshot = hub.snapshot()
        merged = merge_snapshots(snapshot)
        assert merged["ops"] == 5
        assert merged["load"] == 0.5 + 1.5
        assert merged["only_here"] == 7
        wait = merged["wait_s"]
        assert wait["total"] == 5
        assert wait["sum"] == (0.5 + 3.0) + (1.5 + 9.0 + 2.0)
        assert wait["mean"] == wait["sum"] / 5
        assert wait["counts"] == [1, 2, 1, 1]
        assert (wait["min"], wait["max"]) == (0.5, 9.0)
        empty = merged["empty_s"]
        assert empty["total"] == 0 and empty["max"] is None
        assert empty["mean"] == 0.0
        # Merging copies: the snapshot passed in is untouched.
        assert snapshot["node0"]["wait_s"]["counts"] == [1, 0, 1, 0]
        assert snapshot["node0"]["wait_s"]["total"] == 2


# -- tracer --------------------------------------------------------------------


class TestTracer:
    def test_span_nesting_assigns_parents(self):
        tracer = Tracer(Simulator())
        outer = tracer.span("t", "outer")
        inner = tracer.span("t", "inner")
        inner.close()
        outer.close()
        by_name = {rec["name"]: rec for rec in tracer.records}
        assert by_name["inner"]["parent"] == by_name["outer"]["sid"]
        assert by_name["outer"]["parent"] == 0

    def test_out_of_order_close_keeps_identity(self):
        """Interleaved fibers close spans in any order."""
        tracer = Tracer(Simulator())
        a = tracer.span("t", "a")
        b = tracer.span("t", "b")
        a.close()  # closes the *outer* span first
        c = tracer.span("t", "c")
        assert c.parent == b.sid
        b.close()
        c.close()
        assert tracer.spans_closed == 3

    def test_same_seed_gives_byte_identical_jsonl(self):
        texts = []
        for _run in range(2):
            cluster = traced_cluster(seed=23)
            cluster.run(spread_txn(cluster)())
            cluster.run(crash_and_recover(cluster, 1))
            texts.append(to_jsonl(cluster.obs.records()))
        assert texts[0] == texts[1]
        assert len(texts[0]) > 1000

    def test_disabled_tracing_keeps_sim_tracerless(self):
        config = ClusterConfig(monitor=False)  # opt out of the suite default
        cluster = TreatyCluster(profile=TREATY_FULL, config=config).start()
        assert cluster.sim.tracer is None
        assert cluster.obs.records() == []


# -- exporters -----------------------------------------------------------------


class TestChromeTrace:
    def test_round_trip_and_category_coverage(self, tmp_path):
        cluster = traced_cluster()
        cluster.run(spread_txn(cluster)())
        records = cluster.obs.records()
        path = tmp_path / "trace.json"
        write_chrome_trace(records, str(path))
        events = load_chrome_trace(str(path))
        # one event per record, plus "s"/"f" flow pairs along the
        # cross-node trace-context edges
        main = [e for e in events if e["ph"] not in ("s", "f")]
        assert len(main) == len(records)
        categories = {event["cat"] for event in events}
        assert {"twopc", "stabilize", "storage", "net", "tee"} <= categories
        # spans become complete events with durations, on per-node rows
        complete = [e for e in events if e["ph"] == "X"]
        assert complete and all(e["dur"] >= 0 for e in complete)
        assert {"node0", "node1", "node2"} <= {e["pid"] for e in events}

    def test_lanes_never_overlap(self):
        cluster = traced_cluster()
        cluster.run(spread_txn(cluster)())
        events = chrome_trace(cluster.obs.records())["traceEvents"]
        rows = {}
        for event in events:
            if event["ph"] != "X":
                continue
            rows.setdefault((event["pid"], event["tid"]), []).append(
                (event["ts"], event["ts"] + event["dur"])
            )
        for spans in rows.values():
            spans.sort()
            for (_, end), (start, _) in zip(spans, spans[1:]):
                # lanes are assigned on raw sim time; the exporter's
                # 3-decimal µs rounding may show a 1 ns pseudo-overlap
                assert start >= end - 0.0011

    def test_document_is_valid_json_with_metadata(self, tmp_path):
        cluster = traced_cluster()
        cluster.run(spread_txn(cluster)())
        path = tmp_path / "t.json"
        write_chrome_trace(cluster.obs.records(), str(path))
        document = json.loads(path.read_text())
        assert document["displayTimeUnit"] == "ms"
        assert any(e["ph"] == "M" for e in document["traceEvents"])


# -- monitor: green under real runs and attacks --------------------------------


class TestMonitorGreen:
    def test_normal_run_with_recovery_is_green(self):
        cluster = traced_cluster(monitor=True)
        cluster.run(spread_txn(cluster)())
        cluster.run(crash_and_recover(cluster, 1))
        cluster.sim.run(until=cluster.sim.now + 1.0)
        cluster.obs.monitor.check_quiescent()
        assert cluster.obs.monitor.green
        assert cluster.obs.monitor.events_seen > 0
        assert len(cluster.obs.monitor.decisions) >= 1

    def test_green_under_replayed_prepare(self):
        """Duplicated prepare messages must not trip any invariant."""
        cluster = traced_cluster(monitor=True)
        adversary = NetworkAdversary()
        adversary.duplicate_matching(
            lambda f: f.kind == "erpc" and f.meta.get("is_request")
            and f.meta.get("req_type") == 3  # TXN_PREPARE
        )
        cluster.fabric.adversary = adversary
        cluster.run(spread_txn(cluster, tag=b"rp")())
        cluster.sim.run(until=cluster.sim.now + 0.5)
        assert adversary.duplicated >= 1
        assert cluster.obs.monitor.green

    def test_green_under_delayed_decision(self):
        """Delaying commit messages reorders phases but stays safe."""
        cluster = traced_cluster(monitor=True)
        adversary = NetworkAdversary()
        adversary.delay_matching(
            lambda f: f.kind == "erpc" and f.meta.get("is_request")
            and f.meta.get("req_type") == 4,  # TXN_COMMIT
            delay=0.02,
        )
        cluster.fabric.adversary = adversary
        cluster.run(spread_txn(cluster, tag=b"dd")())
        cluster.sim.run(until=cluster.sim.now + 0.5)
        assert adversary.delayed >= 1
        assert cluster.obs.monitor.green


# -- monitor: deliberately broken components must trip it ----------------------


def _broken_stabilize(self, log_name, counter):
    """A stabilizer that lies: returns without running the protocol."""
    return
    yield  # pragma: no cover - makes this a generator function


def _broken_stabilize_many(self, targets):
    """The vectored/group entry point lying the same way."""
    return
    yield  # pragma: no cover - makes this a generator function


class TestMonitorTrips:
    def test_broken_stabilization_trips_invariants(self, monkeypatch):
        cluster = traced_cluster(monitor=True)
        cluster.obs.monitor.strict = False
        # Break the pipeline's whole waiting surface: the single-target
        # path and the vectored path the group-wide piggyback rounds use.
        monkeypatch.setattr(
            DurabilityPipeline, "stabilize", _broken_stabilize)
        monkeypatch.setattr(
            DurabilityPipeline, "stabilize_many", _broken_stabilize_many)
        cluster.run(spread_txn(cluster, tag=b"bs")())
        cluster.sim.run(until=cluster.sim.now + 0.5)
        violations = cluster.obs.monitor.violations
        assert violations, "monitor took the broken stabilizer at its word"
        assert any(v.startswith(("I1", "I2")) for v in violations)

    def test_injected_decision_before_stabilization(self):
        """I1 regression: commit applied before the decision is stable."""
        tracer = Tracer(Simulator())
        monitor = InvariantMonitor(require_stabilization=True).attach(tracer)
        tracer.event("twopc", "decision", node="node0", txn="aa",
                     kind="commit", log="node0/clog", counter=5)
        tracer.event("stabilize", "advance", node="node0",
                     log="node0/clog", value=4)  # one short of the decision
        with pytest.raises(MonitorViolation, match="I1"):
            tracer.event("twopc", "commit_apply", node="node1", txn="aa")
        # after the entry stabilizes the same apply is legal
        tracer.event("stabilize", "advance", node="node0",
                     log="node0/clog", value=5)
        tracer.event("twopc", "commit_apply", node="node2", txn="aa")

    def test_commit_without_logged_decision(self):
        tracer = Tracer(Simulator())
        InvariantMonitor().attach(tracer)
        with pytest.raises(MonitorViolation, match="I1"):
            tracer.event("twopc", "commit_apply", node="node1", txn="bb")

    def test_prepare_ack_before_stable(self):
        tracer = Tracer(Simulator())
        InvariantMonitor(require_stabilization=True).attach(tracer)
        with pytest.raises(MonitorViolation, match="I2"):
            tracer.event("twopc", "prepare_ack", node="node1", txn="cc",
                         log="node1/clog", counter=2)

    def test_counter_regression_trips_i3(self):
        tracer = Tracer(Simulator())
        InvariantMonitor().attach(tracer)
        tracer.event("stabilize", "advance", log="L", value=7)
        with pytest.raises(MonitorViolation, match="I3"):
            tracer.event("stabilize", "advance", log="L", value=3)

    def test_unresolved_prepared_txns_trip_i4(self):
        tracer = Tracer(Simulator())
        monitor = InvariantMonitor(strict=False).attach(tracer)
        tracer.event("node", "recover_done", node="node1",
                     prepared=["ab12"], redriven=0)
        monitor.check_quiescent()
        assert any(v.startswith("I4") for v in monitor.violations)
        # applying the recovered half clears the obligation (an abort:
        # this test logged no decision a commit apply could rest on)
        monitor.violations.clear()
        tracer.event("twopc", "abort_apply", node="node1", txn="ab12")
        monitor.check_quiescent()
        assert monitor.green
