"""The observability subsystem: tracer, registry, exporters, monitor."""

import collections
import json
import sys

import pytest

from repro.bench.metrics import MetricsCollector
from repro.config import ClusterConfig, TREATY_FULL
from repro.core import TreatyCluster, crash_and_recover
from repro.core.pipeline import DurabilityPipeline
from repro.net import NetworkAdversary, secure_rpc
from repro.obs import (
    FlightRecorder,
    Histogram,
    IncidentLog,
    InvariantMonitor,
    MetricsHub,
    MetricsRegistry,
    MonitorViolation,
    NullTracer,
    TimeSeriesRecorder,
    Tracer,
    chrome_trace,
    load_chrome_trace,
    merge_snapshots,
    to_jsonl,
    write_chrome_trace,
)
from repro.sim import Simulator
from repro.tee import runtime as tee_runtime
from repro.workloads.ycsb import YcsbConfig, run_ycsb


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


# -- routing: each record reaches the subscribers that asked for it ------------


class TestRouting:
    def test_keyed_subscriber_added_late_sees_only_its_records(self):
        sim = Simulator()
        tracer = Tracer(sim)
        everything, locks = [], []
        tracer.subscribe(everything.append)

        def emit():
            tracer.event("twopc", "decision", txn="t")
            tracer.span("locks", "wait").close()
            tracer.span("locks", "hold").close()
            tracer.event("locks", "grant")

        emit()  # fills the route cache with every key once
        tracer.subscribe(locks.append, [("span", "locks", None)])
        emit()
        assert [(r["type"], r["cat"], r["name"]) for r in everything] == [
            ("event", "twopc", "decision"), ("span", "locks", "wait"),
            ("span", "locks", "hold"), ("event", "locks", "grant"),
        ] * 2
        assert [r["name"] for r in locks] == ["wait", "hold"]
        assert all(r is everything[5 + i] for i, r in enumerate(locks))

    def test_clock_hook_runs_when_due_at_its_place(self):
        sim = Simulator()
        tracer = Tracer(sim)
        seen = []
        tracer.subscribe(lambda rec: seen.append(("first", rec["t"])))

        def hook(now):
            seen.append(("clock", now))
            return now + 1.0

        tracer.on_clock(hook, 1.0)
        tracer.subscribe(lambda rec: seen.append(("last", rec["t"])))

        def body():
            for _ in range(3):
                tracer.event("t", "tick")
                yield sim.sleep(0.75)

        sim.run_process(body())
        assert seen == [
            ("first", 0.0), ("last", 0.0),
            ("first", 0.75), ("last", 0.75),
            ("first", 1.5), ("clock", 1.5), ("last", 1.5),
        ]

    def test_routed_instruments_equal_instruments_fed_every_record(self):
        """The flight recorder, incident log and time series subscribe
        to a few keys and close windows on the tracer's clock.  A
        catch-all subscriber replays every record of the same run, as it
        is emitted, into a fresh set fed the whole stream: exemplars,
        windows and incidents come out equal."""
        config = ClusterConfig(
            seed=7, tracing=True, monitor=True, flight_recorder=True,
            timeseries=True, incidents=True, tail_warmup=4,
        )
        cluster = TreatyCluster(profile=TREATY_FULL, config=config)
        obs = cluster.obs
        recorder = FlightRecorder(obs.tracer, warmup=4)
        timeseries = TimeSeriesRecorder(cluster.sim, obs.hub)
        incidents = IncidentLog(recorder=recorder)
        timeseries.on_window.append(incidents.observe_window)
        stream = []

        def replay(rec):
            stream.append(rec)
            recorder.observe_record(rec)
            timeseries.observe_record(rec)
            incidents.observe_record(rec)

        obs.tracer.subscribe(replay)
        cluster.start()
        run_ycsb(cluster, YcsbConfig(num_keys=200), MetricsCollector(),
                 num_clients=8, duration=0.15, warmup=0.005)
        obs.timeseries.flush()
        timeseries.flush()
        assert len(stream) == len(obs.records())
        assert recorder.exemplars and recorder.exemplars == \
            obs.recorder.exemplars
        assert len(timeseries.windows) > 4
        assert timeseries.windows == obs.timeseries.windows
        counts = incidents.counts()
        assert counts.get("lock-convoy") and counts.get("stalled-window")
        assert incidents.to_jsonl() == obs.incidents.to_jsonl()


def test_tracing_off_computes_nothing_for_the_null_tracer(monkeypatch):
    """With tracing off, the hot call sites evaluate no trace-only
    argument (a batch's trace context, a rounded cost) and make no call to
    the null tracer."""
    calls = collections.Counter()

    def counted(what, fn):
        def wrapper(*args, **kwargs):
            calls[what, sys._getframe(1).f_code.co_name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(secure_rpc, "peek_context",
                        counted("peek_context", secure_rpc.peek_context))
    monkeypatch.setattr(tee_runtime, "round", counted("round", round),
                        raising=False)
    monkeypatch.setattr(Tracer, "_emit", counted("record", Tracer._emit))
    for method in ("span", "event"):
        monkeypatch.setattr(NullTracer, method,
                            counted("null " + method, getattr(NullTracer, method)))
    config = ClusterConfig(monitor=False)
    cluster = TreatyCluster(profile=TREATY_FULL, config=config).start()
    cluster.run(spread_txn(cluster)())
    runtime = cluster.nodes[0].runtime
    runtime.enclave.memory.allocate(10**10)  # EPC pressure: paging costs
    cluster.run(runtime.touch_enclave(1 << 20))
    cluster.run(runtime.world_switch())
    assert runtime.enclave.page_faults > 0
    swept = {"encode_batch", "decode_batch", "_exchange", "msgbuf_shield",
             "touch_enclave", "world_switch", "_transmit_batch", "_dispatch",
             "_open", "open_seconds", "aead_seconds"}
    assert {key: count for key, count in calls.items()
            if key[0] in ("peek_context", "record") or key[1] in swept} == {}
    # the null tracer is still called elsewhere: the counters count
    assert sum(calls.values()) > 0


# -- a frame's core hold in the trace ------------------------------------------


class TestFrameHoldRecords:
    """A frame's CPU charges are one core hold, recorded afterwards at the
    sub-instants the charges fall on."""

    @pytest.fixture(scope="class")
    def log(self):
        cluster = traced_cluster()
        cluster.run(spread_txn(cluster)())
        # the enclave nodes (the client machine runs native)
        nodes = {node.runtime.name for node in cluster.nodes}
        return cluster.obs.records(), cluster.nodes[0].runtime.costs, nodes

    def test_crypto_spans_cover_their_aead_share_of_the_hold(self, log):
        records, costs, nodes = log
        spans = [rec for rec in records if rec["type"] == "span"
                 and rec["cat"] == "crypto" and rec["node"] in nodes]
        assert {span["name"] for span in spans} == {"seal_batch",
                                                    "open_batch"}
        for span in spans:
            assert span["t1"] - span["t0"] == pytest.approx(
                costs.aead_cost(span["args"]["bytes"])
                / costs.enclave_speed_factor, rel=1e-9)

    def test_receive_side_shielding_carries_the_frames_trace(self, log):
        records, _costs, nodes = log
        shields = [rec for rec in records if rec["type"] == "event"
                   and rec["name"] == "msgbuf_shield"]
        crypto = [rec for rec in records if rec["type"] == "span"
                  and rec["cat"] == "crypto" and rec["node"] in nodes
                  and rec["trace"] is not None]
        opened = [span for span in crypto if span["name"] == "open_batch"]
        assert opened
        for span in opened:
            # the frame's shielding: same node, same trace, earlier in
            # the same hold
            assert any(rec["node"] == span["node"]
                       and rec["trace"] == span["trace"]
                       and rec["t"] < span["t0"] for rec in shields)
        # one traced shielding per traced seal and per traced open
        assert sum(rec["trace"] is not None for rec in shields) == len(crypto)


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
