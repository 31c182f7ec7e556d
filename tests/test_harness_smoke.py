"""Smoke tests for the experiment harness (tiny scales)."""

import pytest

from repro.config import DS_ROCKSDB, TREATY_ENC, ClusterConfig
from repro.bench import harness
from repro.bench.harness import (
    WARMUP_FRACTION,
    bulk_load_null,
    loaded,
    measure,
    recovery_experiment,
    twopc_only,
)
from repro.bench.netbench import network_throughput
from repro.workloads import TpccScale, YcsbConfig, tpcc_partitioner
from repro.workloads.tpcc import initial_rows


class TestRecipe:
    def test_measure_warms_up_a_quarter_window_unless_told(self):
        ycsb = YcsbConfig(num_keys=100)
        cluster = loaded(DS_ROCKSDB, ycsb, num_nodes=1)
        start = cluster.sim.now
        metrics = measure(cluster, ycsb, 2, 0.04, "quarter")
        assert metrics.name == "quarter"
        assert metrics.window == pytest.approx(0.04)
        assert cluster.sim.now - start == pytest.approx(
            0.04 * (1 + WARMUP_FRACTION)
        )
        assert "phases" in metrics.extra_info["obs"]

        start = cluster.sim.now
        metrics = measure(cluster, ycsb, 2, 0.04, warmup=0.002)
        assert metrics.window == pytest.approx(0.04)
        assert cluster.sim.now - start == pytest.approx(0.042)

    def test_loaded_preloads_null_engines_directly(self, monkeypatch):
        calls = []

        def recording(cluster, config):
            calls.append(config)
            yield from bulk_load_null(cluster, config)

        monkeypatch.setattr(harness, "bulk_load_null", recording)
        ycsb = YcsbConfig(num_keys=50)
        loaded(DS_ROCKSDB, ycsb, ClusterConfig(storage_engine="null"))
        assert calls == [ycsb]
        loaded(DS_ROCKSDB, ycsb, num_nodes=1)
        assert calls == [ycsb]

    def test_loaded_shards_tpcc_by_warehouse(self):
        scale = TpccScale(
            warehouses=3, districts_per_warehouse=1,
            customers_per_district=2, items=5, initial_orders_per_district=1,
        )
        cluster = loaded(DS_ROCKSDB, scale)
        by_warehouse = tpcc_partitioner(3)
        keys = [key for key, _value in initial_rows(scale)]
        assert [cluster.partitioner(k) for k in keys] == [
            by_warehouse(k) for k in keys
        ]
        assert {cluster.partitioner(k) for k in keys} == {0, 1, 2}


class TestTwopcOnly:
    def test_runs_and_reports(self):
        metrics = twopc_only(DS_ROCKSDB, num_clients=6, duration=0.05)
        assert metrics.committed > 3
        assert metrics.throughput() > 0


class TestRecoveryExperiment:
    def test_ratio_direction(self):
        native_seconds, native_bytes = recovery_experiment(
            DS_ROCKSDB, num_entries=2_000
        )
        secure_seconds, secure_bytes = recovery_experiment(
            TREATY_ENC, num_entries=2_000
        )
        assert secure_seconds > native_seconds
        assert secure_bytes > native_bytes  # IV+MAC framing per entry


class TestNetworkThroughput:
    def test_basic_measurement(self):
        gbps = network_throughput("tcp-native", 1460, duration=3e-4)
        assert gbps > 1.0

    def test_udp_zero_above_mtu(self):
        assert network_throughput("udp-native", 2048, duration=3e-4) == 0.0

    def test_unknown_stack_rejected(self):
        with pytest.raises(ValueError):
            network_throughput("carrier-pigeon", 64)
