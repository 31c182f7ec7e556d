"""Cross-node trace propagation, critical-path attribution, baselines."""

import json

import pytest

import repro.obs
from repro.bench.metrics import MetricsCollector
from repro.config import ClusterConfig, TREATY_FULL
from repro.core import TreatyCluster
from repro.net import NetworkAdversary, secure_rpc
from repro.net.message import MsgType, TxMessage
from repro.obs import (
    aggregate_critical_paths,
    critical_path,
    format_breakdown,
    format_phase_table,
    load_chrome_trace,
    summary_table,
    to_jsonl,
    transaction_traces,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs import critpath
from repro.obs.critpath import CATEGORIES, span_dag, trace_spans
from repro.workloads import YcsbConfig, bulk_load, run_ycsb

from tests.test_obs import spread_txn, traced_cluster


def committed_trace(cluster):
    """The (single) committed distributed transaction's trace id."""
    traces = transaction_traces(cluster.obs.records(), outcome="commit")
    assert len(traces) >= 1
    return traces[0]


def assert_connected_dag(records, trace):
    """Every span of the trace reaches the root through parent links."""
    root, parents = span_dag(records, trace)
    for sid in parents:
        cursor, hops = sid, 0
        while parents.get(cursor, 0) != 0:
            cursor = parents[cursor]
            hops += 1
            assert hops < 10_000, "cycle in span DAG"
        assert cursor == root["sid"]
    return root


# -- trace propagation ---------------------------------------------------------


class TestTracePropagation:
    def test_committed_txn_forms_one_connected_dag(self):
        cluster = traced_cluster()
        cluster.run(spread_txn(cluster)())
        records = cluster.obs.records()
        trace = committed_trace(cluster)
        root = assert_connected_dag(records, trace)
        assert (root["cat"], root["name"]) == ("twopc", "txn")
        spans = trace_spans(records, trace)
        # the DAG reaches the coordinator, both participants, and the
        # counter service's echo round
        assert {"node0", "node1", "node2"} <= {s.get("node") for s in spans}
        names = {(s["cat"], s["name"]) for s in spans}
        assert ("counter", "round") in names
        assert ("rpc", "COUNTER_UPDATE") in names
        assert ("rpc", "TXN_PREPARE") in names
        assert ("crypto", "seal_batch") in names

    def test_trace_id_is_the_transaction_id(self):
        cluster = traced_cluster()
        cluster.run(spread_txn(cluster)())
        trace = committed_trace(cluster)
        spans = trace_spans(cluster.obs.records(), trace)
        root = [s for s in spans if s["name"] == "txn"][0]
        assert root["txn"] == trace

    def test_connected_under_delayed_frames(self):
        cluster = traced_cluster()
        adversary = NetworkAdversary()
        adversary.delay_matching(
            lambda f: f.kind == "erpc" and f.meta.get("is_request"),
            delay=0.003,
        )
        cluster.fabric.adversary = adversary
        cluster.run(spread_txn(cluster, tag=b"cd")())
        cluster.sim.run(until=cluster.sim.now + 0.5)
        assert adversary.delayed >= 1
        records = cluster.obs.records()
        assert_connected_dag(records, committed_trace(cluster))

    def test_replayed_frames_never_graft_spans(self):
        """A duplicated prepare is dropped by the replay guard *before*
        context adoption, so the live trace gains no extra handler
        spans: exactly one TXN_PREPARE span per remote participant."""
        cluster = traced_cluster()
        adversary = NetworkAdversary()
        adversary.duplicate_matching(
            lambda f: f.kind == "erpc" and f.meta.get("is_request")
            and f.meta.get("req_type") == 3  # TXN_PREPARE
        )
        cluster.fabric.adversary = adversary
        cluster.run(spread_txn(cluster, tag=b"rg")())
        cluster.sim.run(until=cluster.sim.now + 0.5)
        assert adversary.duplicated >= 1
        records = cluster.obs.records()
        trace = committed_trace(cluster)
        assert_connected_dag(records, trace)
        prepares = [
            s for s in trace_spans(records, trace)
            if s["cat"] == "rpc" and s["name"] == "TXN_PREPARE"
        ]
        assert len(prepares) == cluster.num_nodes - 1

    def test_tracing_off_adds_no_trace_to_wire(self):
        from repro.net.message import MsgType, TxMessage, peek_context

        message = TxMessage(MsgType.TXN_PREPARE, 1, 2, 3, b"x")
        assert peek_context(message.encode()) == (None, 0)
        carried = TxMessage(
            MsgType.TXN_PREPARE, 1, 2, 3, b"x", trace="ab" * 16,
            trace_parent=9,
        )
        assert peek_context(carried.encode()) == ("ab" * 16, 9)
        decoded = TxMessage.decode(carried.encode())
        assert decoded.trace == "ab" * 16
        assert decoded.trace_parent == 9
        # trace fields are transparent to equality / replay identity
        assert decoded == message


class TestCryptoSpanParents:
    """A frame's AEAD passes are filed under the message they served: the
    ``net/rpc`` span that sent the frame's first context-carrying
    message, read back here with a full decode of the frame's parts."""

    @pytest.fixture(scope="class")
    def run(self):
        cluster = traced_cluster()
        log = cluster.obs.records()
        passes = []  # (crypto span record, expected (trace, parent))

        def first_context(parts):
            for part in parts:
                message = TxMessage.decode(part)
                if message.trace is not None:
                    return message.trace, message.trace_parent
            return None, 0

        encode = secure_rpc.SecureRpc.encode_batch
        decode = secure_rpc.SecureRpc.decode_batch

        def encode_batch(self, parts):
            expected = first_context(parts)
            result = yield from encode(self, parts)
            passes.append((log[-1], expected))  # its seal span just closed
            return result

        def decode_batch(self, payload, src, meta):
            parts = yield from decode(self, payload, src, meta)
            if parts is not None:
                passes.append((log[-1], first_context(parts)))
            return parts

        patch = pytest.MonkeyPatch()
        patch.setattr(secure_rpc.SecureRpc, "encode_batch", encode_batch)
        patch.setattr(secure_rpc.SecureRpc, "decode_batch", decode_batch)
        try:
            cluster.run(spread_txn(cluster)())
            cluster.sim.run(until=cluster.sim.now + 0.5)
        finally:
            patch.undo()
        return log, passes

    def test_crypto_spans_parent_to_the_sending_rpc_span(self, run):
        log, passes = run
        spans = {rec["sid"]: rec for rec in log if rec["type"] == "span"}
        traced = 0
        for span, (trace, parent) in passes:
            assert span["cat"] == "crypto"
            assert span["trace"] == trace
            if trace is None:
                continue
            traced += 1
            assert span["parent"] == parent
            rpc = spans[parent]
            assert (rpc["cat"], rpc["name"], rpc["trace"]) == (
                "net", "rpc", trace)
            if span["name"] == "seal_batch":
                assert rpc["node"] == span["node"]
            else:
                assert span["name"] == "open_batch"
                assert rpc["node"] != span["node"]
        assert traced > 0
        names = {span["name"] for span, _ in passes}
        assert names == {"seal_batch", "open_batch"}

    def test_frames_without_a_context_record_no_trace(self, run):
        _log, passes = run
        untraced = [span for span, (trace, _) in passes
                    if span["name"] == "seal_batch" and trace is None]
        assert untraced
        assert all(span["trace"] is None for span in untraced)

    def test_committed_traces_have_no_parent_outside_them(self, run):
        log, _passes = run
        for trace in transaction_traces(log, outcome="commit"):
            spans = trace_spans(log, trace)
            root = critpath._find_root(spans)
            sids = {span["sid"] for span in spans}
            assert root["parent"] == 0
            outside = [span for span in spans
                       if span is not root and span["parent"] not in sids]
            assert outside == []


# -- critical-path attribution -------------------------------------------------


class TestCriticalPath:
    def test_breakdown_sums_to_commit_latency(self):
        cluster = traced_cluster()
        cluster.run(spread_txn(cluster)())
        records = cluster.obs.records()
        path = critical_path(records, committed_trace(cluster))
        assert path.total > 0
        assert sum(path.breakdown.values()) == pytest.approx(
            path.total, abs=1e-12
        )
        # segments exactly tile the root interval
        segments = sorted(path.segments)
        assert segments[0][0] == pytest.approx(path.root["t0"], abs=1e-12)
        assert segments[-1][1] == pytest.approx(path.root["t1"], abs=1e-12)
        for (_, end, _, _), (start, _, _, _) in zip(segments, segments[1:]):
            assert start == pytest.approx(end, abs=1e-12)

    def test_expected_categories_show_up(self):
        cluster = traced_cluster()
        cluster.run(spread_txn(cluster)())
        path = critical_path(
            cluster.obs.records(), committed_trace(cluster)
        )
        for category in ("network", "counter-round", "group_commit"):
            assert path.breakdown[category] > 0.0
        # counter-wait can legitimately be zero-width under the sync
        # backend (the round span exactly covers the wait interval), so
        # only the round share is pinned positive here.
        assert set(path.breakdown) == set(CATEGORIES)

    def test_outcome_and_formatting(self):
        cluster = traced_cluster()
        cluster.run(spread_txn(cluster)())
        records = cluster.obs.records()
        path = critical_path(records, committed_trace(cluster))
        assert path.outcome == "commit"
        text = format_breakdown(path)
        assert "critical path" in text and "total" in text
        table = format_phase_table(aggregate_critical_paths(records))
        assert "where does a millisecond go" in table

    def test_aggregate_is_deterministic_per_seed(self):
        tables = []
        for _run in range(2):
            cluster = traced_cluster(seed=37)
            cluster.run(spread_txn(cluster)())
            tables.append(
                format_phase_table(
                    aggregate_critical_paths(cluster.obs.records())
                )
            )
        assert tables[0] == tables[1]

    def test_cli_critical_path_from_jsonl(self, tmp_path, capsys):
        from repro.cli import main

        cluster = traced_cluster()
        cluster.run(spread_txn(cluster)())
        path = tmp_path / "records.jsonl"
        write_jsonl(cluster.obs.records(), str(path))
        assert main(["trace", "critical-path", "--from-jsonl",
                     str(path)]) == 0
        out = capsys.readouterr().out
        assert "where does a millisecond go" in out
        assert main(["trace", "critical-path", "last", "--from-jsonl",
                     str(path)]) == 0
        out = capsys.readouterr().out
        assert "critical path: txn" in out


# -- the per-trace index: equivalence oracle and cost guard --------------------


def scan_for(records, trace):
    """The pre-index way to find one trace's records: scan the whole log.
    Test-only reference; analysis code reads the per-trace index."""
    return [r for r in records if r.get("trace") == trace]


def scan_for_spans(records, trace):
    return [r for r in scan_for(records, trace) if r["type"] == "span"]


def reference_path(records, trace):
    """Full scan -> the critical-path walk, bypassing the index."""
    return critpath._critical_path(trace, scan_for(records, trace))


def reference_dag(records, trace):
    """Each span's recorded parent when that span is in the trace, else
    the root; the root's parent is 0."""
    spans = scan_for_spans(records, trace)
    root = critpath._find_root(spans)
    sids = {span["sid"] for span in spans}
    parents = {}
    for span in spans:
        if span is root:
            parents[span["sid"]] = 0
        elif span["parent"] in sids:
            parents[span["sid"]] = span["parent"]
        else:
            parents[span["sid"]] = root["sid"]
    return root, parents


def contended_ycsb(protocol, duration=0.03, seed=5, **obs):
    """A short 3-node optimistic YCSB run on few keys: commits *and*
    prepare-time aborts, under delayed commits and duplicated prepares
    (the frames TestTracePropagation perturbs)."""
    config = ClusterConfig(seed=seed, protocol=protocol, **obs)
    cluster = TreatyCluster(profile=TREATY_FULL, config=config).start()
    adversary = NetworkAdversary()

    def request(frame, req_type):
        return (frame.kind == "erpc" and frame.meta.get("is_request")
                and frame.meta.get("req_type") == req_type)

    adversary.delay_matching(
        lambda f: request(f, MsgType.TXN_COMMIT), delay=0.003)
    adversary.duplicate_matching(lambda f: request(f, MsgType.TXN_PREPARE))
    cluster.fabric.adversary = adversary
    ycsb = YcsbConfig(read_proportion=0.5, num_keys=100, optimistic=True)
    cluster.run(bulk_load(cluster, ycsb), name="load")
    run_ycsb(cluster, ycsb, MetricsCollector("contended"), num_clients=4,
             duration=duration, warmup=0.0)
    assert adversary.delayed and adversary.duplicated
    return cluster


class CountingList(list):
    """A record list that counts how often it is iterated in full."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


class TestTraceIndex:
    @pytest.fixture(scope="class")
    def long_run(self):
        """>= 50 committed traces (perf/ analyses 128 in 64 chunks)."""
        cluster = contended_ycsb("optimized", duration=0.2, tracing=True)
        log = cluster.obs.records()
        assert len(transaction_traces(log, outcome="commit")) >= 50
        return log

    @pytest.mark.parametrize("protocol", ["optimized", "paper"])
    def test_indexed_paths_equal_the_full_scan_reference(self, protocol):
        cluster = contended_ycsb(protocol, tracing=True)
        live = cluster.obs.records()
        reloaded = [json.loads(line) for line in to_jsonl(live).splitlines()]
        assert reloaded == list(live)
        assert transaction_traces(live, outcome="commit")
        assert transaction_traces(live, outcome="abort")
        for records in (live, reloaded):
            traces = transaction_traces(records)
            assert traces == transaction_traces(list(records))
            for trace in traces:
                assert trace_spans(records, trace) == scan_for_spans(
                    records, trace)
                expected = reference_path(records, trace)
                path = critical_path(records, trace)
                assert path.segments == expected.segments
                assert path.breakdown == expected.breakdown
                assert path.span_count == expected.span_count
                assert path.root == expected.root
                assert path.outcome in ("commit", "abort")
                assert span_dag(records, trace) == reference_dag(
                    records, trace)
            aggregate = aggregate_critical_paths(records, traces)
            assert aggregate["totals"] == [
                reference_path(records, t).total for t in traces
            ]

    def test_aggregate_reads_a_plain_list_a_constant_number_of_times(
            self, long_run):
        records = CountingList(long_run)
        aggregate = aggregate_critical_paths(records)
        assert aggregate["count"] >= 50
        # one pass finds the committed roots, one builds the index
        assert records.iterations <= 3
        one_shot = aggregate_critical_paths(iter(records))
        assert one_shot == aggregate

    def test_chunked_calls_on_a_live_log_never_scan_it(self, long_run):
        """perf/workloads.py's calling pattern: 64 calls, 2 traces each."""
        log = long_run
        traces = transaction_traces(log, outcome="commit")

        class CountingLog(type(log)):
            __slots__ = ()
            iterations = 0

            def __iter__(self):
                CountingLog.iterations += 1
                return super().__iter__()

        log.__class__ = CountingLog
        list(log)
        assert CountingLog.iterations == 1  # the counter does count
        totals = []
        for call in range(64):
            chunk = [traces[(2 * call + i) % len(traces)] for i in (0, 1)]
            totals.extend(aggregate_critical_paths(log, chunk)["totals"])
            critical_path(log, chunk[0])
            trace_spans(log, chunk[1])
        assert CountingLog.iterations == 1
        assert len(totals) == 128

    def test_ring_eviction_keeps_the_index_exact(self, monkeypatch):
        monkeypatch.setattr(repro.obs, "TRACE_RING_SPANS", 1500)
        cluster = contended_ycsb(
            "optimized", flight_recorder=True, tracing=False,
        )
        log = cluster.obs.records()
        assert cluster.obs.tracer.records_evicted > 0
        assert len(log) == 1500
        retained = list(log)
        # a bucket per surviving trace id and none for evicted-empty ones
        assert set(log.by_trace) == {r["trace"] for r in retained}
        assert (len(transaction_traces(retained, outcome="commit"))
                < cluster.obs.recorder.commits_seen)
        for trace, bucket in log.by_trace.items():
            assert list(bucket) == scan_for(retained, trace)
            assert trace_spans(log, trace) == scan_for_spans(retained, trace)


# -- chrome-trace flow events --------------------------------------------------


class TestFlowEvents:
    def test_flow_events_roundtrip_along_cross_node_edges(self, tmp_path):
        cluster = traced_cluster()
        cluster.run(spread_txn(cluster)())
        records = cluster.obs.records()
        path = tmp_path / "trace.json"
        write_chrome_trace(records, str(path))
        events = load_chrome_trace(str(path))
        starts = [e for e in events if e["ph"] == "s"]
        ends = [e for e in events if e["ph"] == "f"]
        assert starts and len(starts) == len(ends)
        assert {e["id"] for e in starts} == {e["id"] for e in ends}
        by_id = {e["id"]: e for e in starts}
        spans = {r["sid"]: r for r in records if r["type"] == "span"}
        for end in ends:
            start = by_id[end["id"]]
            assert end["bp"] == "e"
            assert start["cat"] == end["cat"] == "trace"
            # flow edges are exactly the cross-node parent links
            child = spans[end["id"]]
            parent = spans[child["parent"]]
            assert start["pid"] == parent["node"]
            assert end["pid"] == child["node"]
            assert start["pid"] != end["pid"]
            # the start timestamp is clamped into the parent's interval
            assert start["ts"] >= round(parent["t0"] * 1e6, 3) - 1e-6
            assert start["ts"] <= round(parent["t1"] * 1e6, 3) + 1e-6


# -- bench baseline ------------------------------------------------------------


class TestBaseline:
    @pytest.fixture(scope="class")
    def document(self):
        from repro.bench.baseline import run_baseline

        return run_baseline(num_clients=8, duration=0.05)

    def test_fresh_baseline_passes_its_own_check(self, document):
        from repro.bench.baseline import check_baseline

        assert check_baseline(document, document) == []

    def test_regressions_are_direction_aware(self, document):
        from repro.bench.baseline import check_baseline

        reference = json.loads(json.dumps(
            {k: v for k, v in document.items() if not k.startswith("_")}
        ))
        reference["metrics"]["throughput_tps"] *= 4.0
        reference["metrics"]["frames_per_txn"] /= 4.0
        failures = check_baseline(document, reference)
        assert any("throughput_tps" in f for f in failures)
        assert any("frames_per_txn" in f for f in failures)
        # improvements never fail
        better = json.loads(json.dumps(reference))
        better["metrics"]["throughput_tps"] = 0.01
        better["metrics"]["frames_per_txn"] = 1e9
        better["metrics"]["p99_commit_latency_ms"] = 1e9
        better["metrics"]["seal_ops_per_txn"] = 1e9
        better["metrics"]["counter_rounds_per_txn"] = 1e9
        assert check_baseline(document, better) == []

    def test_document_shape(self, document):
        from repro.bench.baseline import GATED_METRICS, write_baseline

        for name, _direction in GATED_METRICS:
            assert name in document["metrics"]
        breakdown = document["critical_path"]
        assert breakdown["txns"] > 0
        assert set(breakdown["categories"]) == set(CATEGORIES)
        shares = sum(
            c["share"] for c in breakdown["categories"].values()
        )
        assert shares == pytest.approx(1.0, abs=1e-3)

    def test_checked_in_baseline_matches_schema(self):
        from repro.bench.baseline import BASELINE_PATH, GATED_METRICS
        import os

        path = os.path.join(
            os.path.dirname(__file__), "..", BASELINE_PATH
        )
        with open(path) as fp:
            reference = json.load(fp)
        for name, _direction in GATED_METRICS:
            assert name in reference["metrics"]


class TestBaselineBand:
    """``--check``'s failures and the deltas table's FAIL rows come from
    one band rule, on both sides of each direction's band edge."""

    #: (metric, direction's reference, current, fails?)
    CASES = [
        ("throughput_tps", 100.0, 70.0, True),     # min: below the floor
        ("throughput_tps", 100.0, 75.0, False),    # min: at the floor
        ("throughput_tps", 100.0, 130.0, False),   # min: above the band
        ("frames_per_txn", 10.0, 7.0, False),      # max: below the band
        ("frames_per_txn", 10.0, 12.5, False),     # max: at the ceiling
        ("frames_per_txn", 10.0, 13.0, True),      # max: above it
        ("seal_ops_per_txn", 0.0, 1e-10, False),   # near zero: epsilon
        ("seal_ops_per_txn", 0.0, 1e-6, True),     # near zero: past it
    ]

    @staticmethod
    def documents(metric, ref, cur):
        from repro.bench.baseline import GATED_METRICS, WORKLOAD_GATED_METRICS

        def document(value, workload_value):
            metrics = {name: 1.0 for name, _ in GATED_METRICS}
            metrics[metric] = value
            section = {name: 1.0 for name, _ in WORKLOAD_GATED_METRICS}
            if metric in section:
                section[metric] = workload_value
            return {"metrics": metrics,
                    "workloads": {"w": {"metrics": section}}}

        return document(cur, cur), document(ref, ref)

    @pytest.mark.parametrize("metric,ref,cur,fails", CASES)
    def test_table_fails_exactly_what_check_fails(self, metric, ref, cur, fails):
        from repro.bench.baseline import check_baseline, format_baseline_deltas

        current, reference = self.documents(metric, ref, cur)
        checked = {
            failure.split(" ", 1)[0]
            for failure in check_baseline(current, reference)
        }
        table = format_baseline_deltas(current, reference)
        failed_rows = {
            line.split()[0] for line in table.splitlines()
            if line.split() and line.split()[-1] == "FAIL"
        }
        assert failed_rows == checked
        expected = {metric} | (
            {"w." + metric} if metric == "throughput_tps" else set()
        )
        assert checked == (expected if fails else set())


# -- summary-table truncation --------------------------------------------------


class TestSummaryTable:
    def test_long_metric_names_truncate_instead_of_misaligning(self):
        snapshot = {
            "node0": {
                "a" * 80: 1,
                "short": 2,
            }
        }
        text = summary_table(snapshot)
        lines = text.splitlines()
        assert any("..." in line for line in lines)
        # the name column is capped, so no row blows out the table width
        assert max(len(line) for line in lines) < 80
        # deterministic: same input, same bytes
        assert text == summary_table(snapshot)
