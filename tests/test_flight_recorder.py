"""The always-on observability layer: flight recorder, time-series, incidents.

Pins the PR's acceptance properties:

* the streaming quantile estimator and the ring buffer are deterministic
  (same stream ⇒ same estimate, same retained records);
* an injected slow transaction is captured as a p99 exemplar whose
  critical-path breakdown sums **exactly** to its measured commit
  latency (the segments tile the root interval);
* ring memory is capped — span retention is pinned, eviction is FIFO in
  emission order and identical across same-seed runs;
* same seed ⇒ byte-identical timeline JSONL/CSV, incident log, and
  exemplar export;
* enabling the recorder/time-series/incident layer leaves the simulated
  execution bit-identical (subscriber-driven: no simulator entries);
* a coordinator death produces exactly the matching completer-takeover
  incidents; a parked counter driver produces exactly one
  lease-expiry-fallback incident;
* the satellite gauges (per-destination TX-queue depth, group-commit
  occupancy, decision slots, per-shard counter pending) surface in the
  snapshot and the Prometheus exposition.
"""

import json

import pytest

from repro.config import ClusterConfig, TREATY_FULL
from repro.core import TreatyCluster
from repro.errors import TransactionAborted
from repro.mc.faults import CrashInjector
from repro.obs import (
    FlightRecorder,
    IncidentLog,
    MetricsHub,
    P2Quantile,
    TimeSeriesRecorder,
    Tracer,
    prometheus_text,
    to_jsonl,
)
from repro.obs.critpath import percentile
from repro.obs.timeseries import WINDOW_FIELDS
from repro.sim import Simulator

COORDINATOR = 0

#: an exactly-representable "millisecond-ish" duration: every latency in
#: the synthetic tests is a small multiple of this binary fraction, so
#: float sums are exact and the breakdown-sums-to-latency assertion can
#: use ``==`` rather than an epsilon.
TICK = 1.0 / 1024


# -- helpers -------------------------------------------------------------------


def local_key(cluster, node_index, tag=b"fr"):
    i = 0
    while True:
        key = b"%s-%04d" % (tag, i)
        if cluster.partitioner(key) == node_index:
            return key
        i += 1


def obs_cluster(seed=11, **overrides):
    overrides.setdefault("flight_recorder", True)
    overrides.setdefault("timeseries", True)
    overrides.setdefault("incidents", True)
    overrides.setdefault("tail_warmup", 4)
    config = ClusterConfig(seed=seed, **overrides)
    return TreatyCluster(profile=TREATY_FULL, config=config).start()


def run_rounds(cluster, rounds=8, tag=b"fr"):
    """``rounds`` sequential distributed txns, one key per shard each."""
    keys = [local_key(cluster, i, tag) for i in range(cluster.num_nodes)]

    def body():
        session = cluster.session(cluster.client_machine())
        for r in range(rounds):
            txn = session.begin()
            for key in keys:
                yield from txn.put(key, b"v%03d" % r)
            yield from txn.commit()

    cluster.run(body())


def synth_commits(txns, **recorder_kwargs):
    """Emit synthetic txn span DAGs and return the attached recorder.

    ``txns`` is ``[(gid, [(cat, name, duration), ...]), ...]``; each
    transaction is a ``twopc/txn`` root whose sequential children tile
    its interval exactly.
    """
    sim = Simulator()
    tracer = Tracer(sim)
    recorder = FlightRecorder(tracer, **recorder_kwargs).attach()

    def body():
        for gid, segments in txns:
            root = tracer.span(
                "twopc", "txn", node="node0", txn=gid, trace=gid,
                participants=1,
            )
            for cat, name, duration in segments:
                child = tracer.span(cat, name, node="node0")
                yield sim.timeout(duration)
                child.close()
            root.close(outcome="commit")

    sim.run_process(body(), name="synth")
    return recorder


FAST = [("net", "rpc", TICK), ("storage", "group_commit", TICK / 2)]


# -- P2 streaming quantile -----------------------------------------------------


class TestP2Quantile:
    def test_rejects_degenerate_quantiles(self):
        for q in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                P2Quantile(q)

    def test_small_samples_are_exact(self):
        estimator = P2Quantile(0.5)
        assert estimator.value() == 0.0
        for value in (5.0, 1.0, 3.0):
            estimator.add(value)
        assert estimator.value() == 3.0  # exact median of {1, 3, 5}

    def test_tracks_true_percentile_on_long_streams(self):
        estimator = P2Quantile(0.9)
        values = [float((i * 37) % 1000) for i in range(2000)]
        for value in values:
            estimator.add(value)
        true = percentile(values, 90)
        assert abs(estimator.value() - true) < 0.05 * 1000

    def test_same_stream_same_estimate(self):
        a, b = P2Quantile(0.99), P2Quantile(0.99)
        for i in range(500):
            value = float((i * 97) % 113)
            a.add(value)
            b.add(value)
        assert a.value() == b.value()


# -- bounded ring buffer -------------------------------------------------------


def _ring_run(ring_max):
    """Eight interleaved fibers each closing ten spans."""
    sim = Simulator()
    tracer = Tracer(sim, ring_max=ring_max)

    def fiber(i):
        for j in range(10):
            span = tracer.span("t", "work", node="n%d" % i, seq=j)
            yield sim.timeout(TICK * ((i + j) % 3 + 1))
            span.close()

    for i in range(8):
        sim.process(fiber(i), name="f%d" % i)
    sim.run()
    return tracer


class TestRingBuffer:
    def test_span_retention_is_pinned(self):
        tracer = _ring_run(ring_max=32)
        assert tracer.spans_closed == 80
        assert len(tracer.records) == 32
        assert tracer.records_evicted == 80 - 32

    def test_eviction_is_fifo_in_emission_order(self):
        ring = _ring_run(ring_max=32)
        unbounded = _ring_run(ring_max=None)
        assert unbounded.records_evicted == 0
        # The ring retains exactly the newest 32 records of the full
        # emission order — eviction is as deterministic as emission.
        assert list(ring.records) == list(unbounded.records)[-32:]

    def test_same_run_same_retained_records(self):
        assert list(_ring_run(32).records) == list(_ring_run(32).records)

    def test_oversized_ring_never_evicts(self):
        tracer = _ring_run(ring_max=500)
        assert tracer.records_evicted == 0
        assert len(tracer.records) == 80


# -- exemplar capture ----------------------------------------------------------


class TestFlightRecorder:
    def test_slow_txn_captured_with_exact_breakdown(self):
        slow = [
            ("net", "rpc", TICK),
            ("locks", "wait", 32 * TICK),
            ("storage", "group_commit", TICK / 2),
        ]
        txns = [("%04x" % i, FAST) for i in range(8)] + [("beef", slow)]
        recorder = synth_commits(txns, warmup=5, max_exemplars=4)
        assert recorder.commits_seen == 9
        assert len(recorder.exemplars) == 1
        exemplar = recorder.exemplars[0]
        assert exemplar["trace"] == "beef"
        assert exemplar["latency_s"] == 33.5 * TICK
        assert exemplar["dominant"] == "lock"
        assert exemplar["breakdown"]["lock"] == 32 * TICK
        assert exemplar["breakdown"]["network"] == TICK
        assert exemplar["breakdown"]["group_commit"] == TICK / 2
        # The acceptance pin: critical-path segments tile the root
        # interval, so the breakdown sums *exactly* to the latency.
        assert sum(exemplar["breakdown"].values()) == exemplar["latency_s"]
        assert recorder.exemplar_for("beef") is exemplar
        assert recorder.exemplar_for("0000") is None

    def test_fast_commits_below_threshold_are_not_captured(self):
        recorder = synth_commits([("%04x" % i, FAST) for i in range(20)],
                                 warmup=5)
        assert recorder.commits_seen == 20
        assert recorder.exemplars == []

    def test_full_set_evicts_fastest_exemplar(self):
        def outlier(gid, ms):
            return (gid, [("locks", "wait", ms * TICK)])

        txns = [("%04x" % i, FAST) for i in range(2)]
        txns += [outlier("t10", 10), outlier("t20", 20), outlier("t30", 30)]
        recorder = synth_commits(txns, warmup=1, max_exemplars=2)
        traces = [exemplar["trace"] for exemplar in recorder.exemplars]
        assert traces == ["t20", "t30"]  # t10 (the fastest) evicted
        assert recorder.exemplars_dropped == 1

    def test_exemplars_jsonl_strips_records_and_is_stable(self):
        slow = [("locks", "wait", 16 * TICK)]
        txns = [("%04x" % i, FAST) for i in range(6)] + [("feed", slow)]
        first = synth_commits(txns, warmup=5).exemplars_jsonl()
        second = synth_commits(txns, warmup=5).exemplars_jsonl()
        assert first == second
        line = json.loads(first.splitlines()[0])
        assert line["trace"] == "feed"
        assert "records" not in line
        assert line["breakdown"]["lock"] == 16 * TICK

    def test_summary_shape(self):
        recorder = synth_commits([("%04x" % i, FAST) for i in range(6)],
                                 warmup=5)
        summary = recorder.summary()
        assert summary["commits"] == 6
        assert summary["exemplars"] == 0
        assert summary["tail_quantile"] == 0.99
        assert summary["p50_ms"] > 0.0


# -- cluster integration: recorder on a real workload --------------------------


class TestClusterCapture:
    def test_workload_exemplars_tile_their_latency(self):
        cluster = obs_cluster(seed=17)
        run_rounds(cluster, rounds=16)
        recorder = cluster.obs.recorder
        assert recorder.commits_seen == 16
        assert recorder.exemplars, "no tail exemplar captured in 16 txns"
        for exemplar in recorder.exemplars:
            total = sum(exemplar["breakdown"].values())
            assert total == pytest.approx(exemplar["latency_s"], rel=1e-9)
            assert exemplar["span_count"] > 1
            assert exemplar["dominant"] in exemplar["breakdown"]

    def test_satellite_gauges_surface_in_snapshot(self):
        cluster = obs_cluster(seed=13)
        run_rounds(cluster, rounds=4)
        snapshot = cluster.obs.snapshot()
        names = {name for metrics in snapshot.values() for name in metrics}
        assert "decision.slots" in names
        assert "group_commit.queue_depth" in names
        assert "counter.pending.0" in names
        assert any(name.startswith("net.txq.depth.") for name in names)
        occupancy = [
            metrics["group_commit.occupancy"]
            for metrics in snapshot.values()
            if "group_commit.occupancy" in metrics
        ]
        assert occupancy and all(hist["total"] > 0 for hist in occupancy)


# -- time-series recorder ------------------------------------------------------


class TestTimeSeries:
    def test_windows_partition_the_run(self):
        cluster = obs_cluster(seed=19)
        run_rounds(cluster, rounds=10)
        timeseries = cluster.obs.timeseries
        timeseries.flush()
        windows = timeseries.windows
        assert windows, "no windows closed"
        assert [w["window"] for w in windows] == list(range(len(windows)))
        assert sum(w["commits"] for w in windows) == 10
        for window in windows:
            assert set(window) == set(WINDOW_FIELDS)
        summary = timeseries.summary()
        assert summary["commits"] == 10
        assert summary["windows"] == len(windows)
        assert summary["tps_peak"] >= summary["tps_mean"] > 0.0

    def test_csv_matches_field_order(self):
        cluster = obs_cluster(seed=19)
        run_rounds(cluster, rounds=4)
        cluster.obs.timeseries.flush()
        lines = cluster.obs.timeseries.to_csv().splitlines()
        assert lines[0] == ",".join(WINDOW_FIELDS)
        assert len(lines) == len(cluster.obs.timeseries.windows) + 1

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            TimeSeriesRecorder(Simulator(), MetricsHub(), window_s=0.0)


# -- determinism and zero perturbation -----------------------------------------


class TestDeterminism:
    def test_same_seed_byte_identical_exports(self):
        outputs = []
        for _run in range(2):
            cluster = obs_cluster(seed=29)
            run_rounds(cluster, rounds=10)
            cluster.obs.timeseries.flush()
            outputs.append((
                cluster.obs.timeseries.to_jsonl(),
                cluster.obs.timeseries.to_csv(),
                cluster.obs.incidents.to_jsonl(),
                cluster.obs.recorder.exemplars_jsonl(),
            ))
        assert outputs[0] == outputs[1]
        assert len(outputs[0][0]) > 200

    def test_observation_does_not_perturb_the_simulation(self):
        def run(observed):
            config = ClusterConfig(
                seed=31, tracing=True, flight_recorder=observed,
                timeseries=observed, incidents=observed,
            )
            cluster = TreatyCluster(profile=TREATY_FULL,
                                    config=config).start()
            run_rounds(cluster, rounds=8)
            return cluster

        plain, observed = run(False), run(True)
        # Subscriber-driven observation adds no simulator entries: the
        # simulated execution — every record, every timestamp — is
        # bit-identical with the whole layer enabled.
        assert plain.sim.now == observed.sim.now
        assert to_jsonl(plain.obs.records()) == to_jsonl(
            observed.obs.records())


# -- incident detection --------------------------------------------------------


class TestIncidents:
    def test_lease_expiry_fallback_incident(self):
        cluster = obs_cluster(
            seed=5, tracing=True, monitor=True,
            rollback_backend="counter-async", counter_shards=2,
            counter_lease_s=0.005,
        )
        node = cluster.nodes[0]
        backend = node.pipeline.rollback
        backend.drivers_enabled = False  # only the fallback can resolve

        def body():
            yield from backend.stabilize("lease-exp/a", 7)

        cluster.run(body())
        assert backend.sync_fallbacks == 1
        counts = cluster.obs.incidents.counts()
        assert counts.get("lease-expiry-fallback") == 1
        incident = next(
            i for i in cluster.obs.incidents.incidents
            if i["kind"] == "lease-expiry-fallback"
        )
        assert incident["details"]["targets"] == 1
        assert "shard" in incident["details"]
        assert incident["node"] == node.runtime.name

    def test_coordinator_death_yields_takeover_incidents(self):
        config = ClusterConfig(
            seed=1, tracing=True, monitor=True, incidents=True,
            rollback_backend="counter-sync",
            counter_shards=1, decision_timeout_s=1.5,
        )
        cluster = TreatyCluster(profile=TREATY_FULL, config=config).start()
        sim = cluster.sim
        keys = [local_key(cluster, i, b"ko") for i in range(cluster.num_nodes)]

        def drive(index, delay):
            yield sim.timeout(delay)
            txn = cluster.nodes[COORDINATOR].coordinator.begin()
            try:
                for key in keys:
                    yield from txn.put(key + b"-%d" % index, b"v")
                yield from txn.commit()
            except Exception:
                pass  # the victim dies mid-protocol; survivors converge

        injector = CrashInjector(
            cluster, ("twopc", "decision"), 1, 0,
            victim=COORDINATOR, permanent=True,
        ).arm()
        for index in range(4):
            sim.process(drive(index, 0.002 * index), name="ko-%d" % index)
        sim.run(until=sim.now + 6.0)
        sim.run(until=sim.now + 6.0)

        assert injector.crashed == COORDINATOR
        takeovers = sum(
            node.participant.takeovers
            for i, node in enumerate(cluster.nodes) if i != COORDINATOR
        )
        assert takeovers >= 1
        counts = cluster.obs.incidents.counts()
        # Exactly one incident per completer takeover, each carrying the
        # transaction's trace id (its hex gid).
        assert counts.get("completer-takeover") == takeovers
        for incident in cluster.obs.incidents.incidents:
            if incident["kind"] != "completer-takeover":
                continue
            assert incident["trace"]
            assert incident["details"]["coord"] == COORDINATOR

    def test_post_hoc_replay_matches_live_detection(self):
        config = ClusterConfig(
            seed=1, tracing=True, monitor=True, incidents=True,
            rollback_backend="counter-sync",
            counter_shards=1, decision_timeout_s=1.5,
        )
        cluster = TreatyCluster(profile=TREATY_FULL, config=config).start()
        sim = cluster.sim
        keys = [local_key(cluster, i, b"ph") for i in range(cluster.num_nodes)]

        def drive(index, delay):
            yield sim.timeout(delay)
            txn = cluster.nodes[COORDINATOR].coordinator.begin()
            try:
                for key in keys:
                    yield from txn.put(key + b"-%d" % index, b"v")
                yield from txn.commit()
            except Exception:
                pass

        CrashInjector(
            cluster, ("twopc", "decision"), 1, 0,
            victim=COORDINATOR, permanent=True,
        ).arm()
        for index in range(3):
            sim.process(drive(index, 0.002 * index), name="ph-%d" % index)
        sim.run(until=sim.now + 6.0)
        sim.run(until=sim.now + 6.0)

        live = cluster.obs.incidents
        replayed = IncidentLog.from_records(cluster.obs.records())
        record_kinds = ("completer-takeover", "lease-expiry-fallback",
                        "lock-convoy")
        live_counts = {k: v for k, v in live.counts().items()
                       if k in record_kinds}
        replay_counts = {k: v for k, v in replayed.counts().items()
                         if k in record_kinds}
        assert replay_counts == live_counts
        assert live_counts.get("completer-takeover", 0) >= 1

    def test_monitor_violation_hook(self):
        log = IncidentLog()
        log.monitor_violation(0.5, "I2: decision before quorum")
        assert log.counts() == {"monitor-violation": 1}
        assert json.loads(log.to_jsonl())["details"]["message"].startswith(
            "I2")

    def test_windowed_detectors(self):
        log = IncidentLog(occ_storm_conflicts=5)
        base = dict.fromkeys(WINDOW_FIELDS, 0)
        log.observe_window(dict(base, window=0, t1_ms=5.0, commits=3,
                                occ_conflicts=9, frames_per_s=100.0))
        log.observe_window(dict(base, window=1, t1_ms=10.0, commits=0,
                                occ_conflicts=0, frames_per_s=100.0))
        # A commit-free window with no fabric traffic is idle, not
        # stalled.
        log.observe_window(dict(base, window=2, t1_ms=15.0, commits=0,
                                occ_conflicts=0, frames_per_s=0.0))
        assert log.counts() == {"occ-retry-storm": 1, "stalled-window": 1}


# -- Prometheus exposition -----------------------------------------------------


class TestPrometheusText:
    def test_families_and_sample_lines(self):
        hub = MetricsHub()
        registry = hub.registry("node0")
        registry.counter("txn.committed").inc(3)
        registry.probe("decision.pending", lambda: 2)
        registry.probe("decision.slots", lambda: 4)
        registry.histogram("latency", edges=(0.001, 0.01)).observe(0.002)
        hub.registry("node1").counter("txn.committed").inc(5)

        text = prometheus_text(hub)
        lines = text.splitlines()
        assert "# TYPE repro_txn_committed_total counter" in lines
        assert 'repro_txn_committed_total{component="node0"} 3' in lines
        assert 'repro_txn_committed_total{component="node1"} 5' in lines
        assert "# TYPE repro_decision_slots gauge" in lines
        assert 'repro_decision_slots{component="node0"} 4' in lines
        assert 'repro_decision_pending{component="node0"} 2' in lines
        assert "# TYPE repro_latency histogram" in lines
        assert 'repro_latency_bucket{component="node0",le="0.001"} 0' in lines
        assert 'repro_latency_bucket{component="node0",le="0.01"} 1' in lines
        assert 'repro_latency_bucket{component="node0",le="+Inf"} 1' in lines
        assert 'repro_latency_count{component="node0"} 1' in lines
        assert text.endswith("\n")

    def test_non_numeric_probes_are_skipped(self):
        hub = MetricsHub()
        registry = hub.registry("x")
        registry.probe("status", lambda: "ok")
        registry.probe("flag", lambda: True)
        registry.probe("depth", lambda: 7)
        text = prometheus_text(hub)
        assert "repro_status" not in text
        assert "repro_flag" not in text
        assert 'repro_depth{component="x"} 7' in text

    def test_cluster_export_is_parseable(self):
        cluster = obs_cluster(seed=23)
        run_rounds(cluster, rounds=4)
        text = prometheus_text(cluster.obs.hub)
        assert "repro_group_commit_occupancy" in text
        assert "repro_decision_slots" in text
        for line in text.splitlines():
            assert line.startswith("# TYPE ") or " " in line
