"""Tests for the benchmark substrate: metrics, reporting, null engine."""

import pytest

from repro.bench import MetricsCollector
from repro.bench.reporting import ComparisonTable, PaperRow, format_table
from repro.config import ClusterConfig, TREATY_ENC, TREATY_FULL
from repro.core import TreatyCluster
from repro.sim import Simulator
from repro.storage.nullengine import NullLog, NullStorageEngine
from repro.tee import NodeRuntime


class TestMetrics:
    def test_throughput_over_window(self):
        metrics = MetricsCollector()
        metrics.measure_from(1.0)
        for i in range(10):
            metrics.record(1.0 + i * 0.1, 1.05 + i * 0.1)
        metrics.finish(2.0)
        assert metrics.throughput() == pytest.approx(10.0)

    def test_warmup_samples_excluded(self):
        metrics = MetricsCollector()
        metrics.measure_from(1.0)
        metrics.record(0.5, 0.6)  # during warmup
        metrics.record(1.5, 1.6)
        metrics.finish(2.0)
        assert metrics.committed == 1

    def test_percentiles(self):
        metrics = MetricsCollector()
        metrics.measure_from(0.0)
        for i in range(1, 101):
            metrics.record(0.0, i / 1000.0)
        metrics.finish(1.0)
        assert metrics.percentile(50) == pytest.approx(0.0505, rel=0.02)
        assert metrics.percentile(99) == pytest.approx(0.100, rel=0.02)
        assert metrics.percentile(0) == pytest.approx(0.001)

    def test_abort_rate(self):
        metrics = MetricsCollector()
        metrics.measure_from(0.0)
        metrics.record(0, 0.1)
        metrics.record_abort()
        metrics.finish(1.0)
        assert metrics.abort_rate() == pytest.approx(0.5)

    def test_empty_collector_is_safe(self):
        metrics = MetricsCollector()
        assert metrics.throughput() == 0.0
        assert metrics.mean_latency() == 0.0
        assert metrics.percentile(99) == 0.0
        assert metrics.abort_rate() == 0.0

    def test_summary_keys(self):
        metrics = MetricsCollector("x")
        metrics.measure_from(0.0)
        metrics.record(0, 0.01)
        metrics.finish(1.0)
        summary = metrics.summary()
        assert summary["name"] == "x"
        assert summary["committed"] == 1
        assert summary["throughput_tps"] == pytest.approx(1.0)


class TestReporting:
    def test_paper_row_range_check(self):
        assert PaperRow("s", 2.0, paper_range=(1.5, 2.5)).within_paper_range()
        assert not PaperRow("s", 3.0, paper_range=(1.5, 2.5)).within_paper_range()
        assert PaperRow("s", 3.0).within_paper_range() is None

    def test_comparison_table_renders(self):
        table = ComparisonTable("T")
        table.add("sysA", 1.0)
        table.add("sysB", 2.0, paper_range=(1.5, 2.5), note="n")
        text = table.render()
        assert "sysA" in text and "sysB" in text
        assert "OK" in text
        results = table.results()
        assert results["sysB"]["within"] is True

    def test_format_table_alignment(self):
        text = format_table("t", ["col"], [["a-long-cell"]])
        assert "a-long-cell" in text


class TestNullEngine:
    def make(self):
        sim = Simulator()
        runtime = NodeRuntime(sim, TREATY_ENC, ClusterConfig())
        return sim, NullStorageEngine(runtime)

    def test_put_get(self):
        sim, engine = self.make()

        def body():
            writes = [(b"k", b"v", engine.next_seq())]
            yield from engine.log_commit(b"t", writes)
            yield from engine.apply_writes(writes)
            value, _seq = yield from engine.get_with_seq(b"k")
            return value

        assert sim.run_process(body()) == b"v"

    def test_scan_and_seq(self):
        sim, engine = self.make()

        def body():
            writes = [
                (b"a", b"1", engine.next_seq()),
                (b"b", b"2", engine.next_seq()),
                (b"c", None, engine.next_seq()),
            ]
            yield from engine.apply_writes(writes)
            rows = yield from engine.scan(b"a", b"z")
            seq = yield from engine.seq_of(b"b")
            return rows, seq

        rows, seq = sim.run_process(body())
        assert rows == [(b"a", b"1"), (b"b", b"2")]
        assert seq == 2

    def test_prepared_tracking(self):
        sim, engine = self.make()

        def body():
            yield from engine.log_prepare(b"g", [(b"k", b"v", 0)])
            assert b"g" in engine.prepared_txns
            yield from engine.log_commit(b"g", [(b"k", b"v", 1)])
            assert b"g" not in engine.prepared_txns

        sim.run_process(body())

    def test_null_log_counters(self):
        sim = Simulator()
        runtime = NodeRuntime(sim, TREATY_ENC, ClusterConfig())
        log = NullLog(runtime, "x/clog")

        def body():
            first = yield from log.append(b"a")
            rest = yield from log.append_many([b"b", b"c"])
            return first, rest

        assert sim.run_process(body()) == (1, [2, 3])
        assert log.last_counter == 3

    def test_null_cluster_end_to_end(self):
        config = ClusterConfig(storage_engine="null")
        cluster = TreatyCluster(profile=TREATY_FULL, config=config).start()
        session = cluster.session(cluster.client_machine())

        def body():
            txn = session.begin()
            yield from txn.put(b"nk", b"nv")
            yield from txn.commit()
            check = session.begin()
            value = yield from check.get(b"nk")
            yield from check.commit()
            return value

        assert cluster.run(body()) == b"nv"
        # Storage-less: nothing hit the simulated SSD beyond counters.
        for node in cluster.nodes:
            assert not node.disk.list_files(node.name + "/wal-")

    def test_null_cluster_fiber_delay_exempt(self):
        """The 2PC-only deployment fits in EPC: no resume delay."""
        config = ClusterConfig(storage_engine="null")
        cluster = TreatyCluster(profile=TREATY_FULL, config=config).start()
        for node in cluster.nodes:
            assert not node.runtime.heavy_enclave
            assert node.runtime.fiber_resume_delay() == 0.0


class TestStorageIoModes:
    def test_spdk_reads_skip_syscalls_but_pay_device(self):
        from repro.config import ClusterConfig, TREATY_ENC
        from repro.sim import Simulator
        from repro.tee import NodeRuntime

        def one_read(io_mode):
            sim = Simulator()
            runtime = NodeRuntime(
                sim, TREATY_ENC, ClusterConfig(storage_io=io_mode)
            )

            def body():
                yield from runtime.ssd_read(4096)

            sim.run_process(body())
            return sim.now, runtime.syscalls

        syscall_time, syscall_count = one_read("syscall")
        spdk_time, spdk_count = one_read("spdk")
        assert syscall_count == 1 and spdk_count == 0
        # Page-cached read is much faster than a device read.
        assert spdk_time > syscall_time

    def test_spdk_writes_cheaper_cpu(self):
        from repro.config import ClusterConfig, TREATY_ENC
        from repro.sim import Simulator
        from repro.tee import NodeRuntime

        def one_write(io_mode):
            sim = Simulator()
            runtime = NodeRuntime(
                sim, TREATY_ENC, ClusterConfig(storage_io=io_mode)
            )

            def body():
                yield from runtime.ssd_write(65536)

            sim.run_process(body())
            return sim.now

        # SPDK avoids the shielded syscall copies on the write path.
        assert one_write("spdk") < one_write("syscall")
