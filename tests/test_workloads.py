"""Tests for workload generators: YCSB key choice and mixes, TPC-C."""

import pytest

from repro.config import DS_ROCKSDB, TREATY_ENC
from repro.core import TreatyCluster
from repro.bench import MetricsCollector
from repro.sim import SeededRng
from repro.workloads import (
    TpccScale,
    YcsbConfig,
    YcsbWorkload,
    bulk_load,
    load_tpcc,
    run_tpcc,
    run_ycsb,
    tpcc_partitioner,
)
from repro.workloads import tpcc


class TestDistributions:
    """YCSB keys are uniform (§VIII-A), drawn from the ``keys`` child
    stream of the client's rng."""

    def test_uniform_bounds_and_spread(self):
        config = YcsbConfig(num_keys=100)
        workload = YcsbWorkload(config, SeededRng(1, "u"))
        keys = [key for _ in range(500)
                for _, key, _ in workload.next_transaction()]
        assert set(keys) <= {config.key(i) for i in range(100)}
        assert len(set(keys)) > 90

    def test_determinism(self):
        config = YcsbConfig(num_keys=500)
        a = YcsbWorkload(config, SeededRng(7, "d"))
        b = YcsbWorkload(config, SeededRng(7, "d"))
        ops = [a.next_transaction() for _ in range(10)]
        assert ops == [b.next_transaction() for _ in range(10)]
        stream = SeededRng(7, "d").child("keys")
        assert [key for txn in ops for _, key, _ in txn] == [
            config.key(stream.randrange(500)) for _ in range(100)]

    def test_validation(self):
        workload = YcsbWorkload(YcsbConfig(num_keys=0), SeededRng(1, "x"))
        with pytest.raises(ValueError):
            workload.next_transaction()


class TestYcsbGenerator:
    def test_ops_per_txn_and_value_size(self):
        config = YcsbConfig(ops_per_txn=10, value_size=1000)
        workload = YcsbWorkload(config, SeededRng(1, "y"))
        ops = workload.next_transaction()
        assert len(ops) == 10
        for kind, key, value in ops:
            assert key.startswith(config.key_prefix)
            if kind == "update":
                assert len(value) == 1000
            else:
                assert value is None

    def test_read_proportion_respected(self):
        config = YcsbConfig(read_proportion=0.8, ops_per_txn=10)
        workload = YcsbWorkload(config, SeededRng(1, "y2"))
        ops = [op for _ in range(300) for op in workload.next_transaction()]
        reads = sum(1 for kind, _, _ in ops if kind == "read")
        assert 0.75 < reads / len(ops) < 0.85

    def test_keyspace_respected(self):
        config = YcsbConfig(num_keys=50)
        workload = YcsbWorkload(config, SeededRng(1, "y3"))
        keys = {key for _ in range(100) for _, key, _ in workload.next_transaction()}
        assert keys <= {config.key(i) for i in range(50)}

    def test_variants_match_standard_mixes(self):
        assert YcsbConfig.variant("a").read_proportion == 0.5
        assert not YcsbConfig.variant("a").read_only
        b = YcsbConfig.variant("b")
        assert b.read_proportion == 0.95 and b.read_only
        c = YcsbConfig.variant("C")  # case-insensitive
        assert c.read_proportion == 1.0 and c.read_only
        for unknown in ("e", "f"):
            with pytest.raises(KeyError):
                YcsbConfig.variant(unknown)

    def test_variant_overrides_apply(self):
        config = YcsbConfig.variant("c", num_keys=77, read_only=False)
        assert config.num_keys == 77
        assert config.read_proportion == 1.0
        assert not config.read_only

    def test_is_read_only(self):
        assert YcsbWorkload.is_read_only(
            [("read", b"k", None), ("read", b"j", None)]
        )
        assert not YcsbWorkload.is_read_only(
            [("read", b"k", None), ("update", b"k", b"v")]
        )
        assert YcsbWorkload.is_read_only([])

    def test_ycsb_c_emits_no_updates(self):
        config = YcsbConfig.variant("c")
        workload = YcsbWorkload(config, SeededRng(7, "y7"))
        for _ in range(100):
            assert YcsbWorkload.is_read_only(workload.next_transaction())


class TestYcsbDriver:
    def test_end_to_end_run_collects_metrics(self):
        cluster = TreatyCluster(profile=DS_ROCKSDB).start()
        config = YcsbConfig(num_keys=200, value_size=100)
        cluster.run(bulk_load(cluster, config), name="load")
        metrics = MetricsCollector()
        run_ycsb(cluster, config, metrics, num_clients=4, duration=0.2, warmup=0.05)
        assert metrics.committed > 10
        assert metrics.throughput() > 0
        assert metrics.mean_latency() > 0

    def test_snapshot_reads_use_zero_cluster_frames(self):
        # The tentpole claim, pinned: a pure-read workload in snapshot
        # mode performs ZERO coordinator rounds — no frame crosses the
        # inter-node cluster fabric during the measured run.
        from repro.bench.harness import cluster_nic_tx_frames

        cluster = TreatyCluster(profile=TREATY_ENC).start()
        config = YcsbConfig.variant("c", num_keys=200, value_size=100)
        cluster.run(bulk_load(cluster, config), name="load")
        frames_before = cluster_nic_tx_frames(cluster)
        metrics = MetricsCollector()
        run_ycsb(
            cluster, config, metrics, num_clients=4, duration=0.3,
            warmup=0.05,
        )
        assert metrics.committed > 10
        assert cluster_nic_tx_frames(cluster) == frames_before

    def test_ycsb_e_scans_commit_via_snapshot_reads(self):
        """Read-only sessions scan ranges across every shard (the
        snapshot-scan fan-out TPC-C's scans take) and commit."""
        cluster = TreatyCluster(profile=TREATY_ENC).start()
        config = YcsbConfig(num_keys=200, value_size=100)
        cluster.run(bulk_load(cluster, config), name="load")
        rng = SeededRng(5, "scans")

        def scans():
            session = cluster.session(cluster.client_machine())
            for _ in range(8):
                first, length = rng.randrange(180), 1 + rng.randrange(20)
                txn = session.begin(read_only=True)
                rows = yield from txn.scan(config.key(first), None,
                                           limit=length)
                yield from txn.commit()
                assert rows == [(config.key(index), config.value(index, 0))
                                for index in range(first, first + length)]
            return session.committed

        assert cluster.run(scans()) == 8

    def test_bulk_load_visible_through_transactions(self):
        cluster = TreatyCluster(profile=TREATY_ENC).start()
        config = YcsbConfig(num_keys=100, value_size=64)
        cluster.run(bulk_load(cluster, config), name="load")

        def check():
            txn = cluster.nodes[0].coordinator.begin()
            value = yield from txn.get(config.key(42))
            yield from txn.commit()
            return value

        assert cluster.run(check()) == config.value(42, 0)


class TestTpccCodecs:
    @pytest.mark.parametrize(
        "row_cls,kwargs",
        [
            (tpcc.WarehouseRow, dict(ytd=123456)),
            (tpcc.DistrictRow, dict(next_o_id=42, ytd=7, tax_bp=825)),
            (
                tpcc.CustomerRow,
                dict(balance=-500, ytd_payment=10, payment_cnt=3,
                     delivery_cnt=1, lastname=b"BARBARBAR"),
            ),
            (tpcc.StockRow, dict(quantity=33, ytd=9, order_cnt=2, remote_cnt=1)),
            (tpcc.ItemRow, dict(price=999)),
            (tpcc.OrderRow, dict(c_id=7, entry_us=123, carrier_id=2, ol_cnt=9)),
            (
                tpcc.OrderLineRow,
                dict(i_id=5, supply_w=2, qty=3, amount=300, delivery_us=77),
            ),
        ],
    )
    def test_row_roundtrip(self, row_cls, kwargs):
        row = row_cls(**kwargs)
        assert row_cls.decode(row.encode()) == row

    def test_key_ordering_supports_scans(self):
        # Order-line keys must sort by order id so range scans work.
        keys = [tpcc.order_line_key(1, 2, o, 1) for o in (1, 9, 10, 100)]
        assert keys == sorted(keys)

    def test_last_name_generation(self):
        assert tpcc.last_name(0) == b"BARBARBAR"
        assert tpcc.last_name(999) == b"EINGEINGEING"
        assert tpcc.last_name(371) == b"PRICALLYOUGHT"

    def test_partitioner_by_warehouse(self):
        partition = tpcc_partitioner(3)
        assert partition(tpcc.warehouse_key(3)) == 0
        assert partition(tpcc.district_key(3, 5)) == 0
        assert partition(tpcc.stock_key(4, 10)) == 1
        assert partition(tpcc.order_key(5, 1, 1)) == 2

    def test_initial_rows_cover_all_tables(self):
        scale = TpccScale(
            warehouses=1, districts_per_warehouse=2,
            customers_per_district=3, items=5, initial_orders_per_district=2,
        )
        rows = dict(tpcc.initial_rows(scale))
        assert tpcc.warehouse_key(1) in rows
        assert tpcc.district_key(1, 2) in rows
        assert tpcc.customer_key(1, 2, 3) in rows
        assert tpcc.stock_key(1, 5) in rows
        assert tpcc.item_key(5) in rows
        assert tpcc.order_key(1, 1, 2) in rows
        assert tpcc.order_line_key(1, 1, 1, 5) in rows


class TestTpccDriver:
    @pytest.fixture(scope="class")
    def loaded_cluster(self):
        scale = TpccScale(
            warehouses=2, districts_per_warehouse=2,
            customers_per_district=5, items=20, initial_orders_per_district=2,
        )
        cluster = TreatyCluster(
            profile=DS_ROCKSDB, partitioner=tpcc_partitioner(3)
        ).start()
        cluster.run(load_tpcc(cluster, scale), name="load")
        return cluster, scale

    def _terminal(self, cluster, scale, seed="t1"):
        machine = cluster.client_machine()
        session = cluster.session(machine, coordinator=0)
        return tpcc.TpccTerminal(session, scale, home_w=1, rng=SeededRng(3, seed))

    def test_new_order_commits_and_writes_rows(self, loaded_cluster):
        cluster, scale = loaded_cluster
        terminal = self._terminal(cluster, scale)

        def body():
            ok = yield from terminal.new_order()
            return ok

        assert cluster.run(body()) is True

        def check():
            txn = cluster.nodes[0].coordinator.begin()
            district = yield from txn.get(tpcc.district_key(1, 1))
            yield from txn.commit()
            return tpcc.DistrictRow.decode(district)

        district = cluster.run(check())
        assert district.next_o_id >= scale.initial_orders_per_district + 1

    def test_payment_updates_balances(self, loaded_cluster):
        cluster, scale = loaded_cluster
        terminal = self._terminal(cluster, scale, seed="t2")

        def before():
            txn = cluster.nodes[0].coordinator.begin()
            row = yield from txn.get(tpcc.warehouse_key(1))
            yield from txn.commit()
            return tpcc.WarehouseRow.decode(row).ytd

        ytd_before = cluster.run(before())

        def body():
            return (yield from terminal.payment())

        assert cluster.run(body()) is True
        assert cluster.run(before()) > ytd_before

    def test_order_status_runs(self, loaded_cluster):
        cluster, scale = loaded_cluster
        terminal = self._terminal(cluster, scale, seed="t3")

        def body():
            return (yield from terminal.order_status())

        assert cluster.run(body()) is True

    def test_delivery_consumes_new_orders(self, loaded_cluster):
        cluster, scale = loaded_cluster
        terminal = self._terminal(cluster, scale, seed="t4")

        def create():
            return (yield from terminal.new_order())

        cluster.run(create())

        def deliver():
            return (yield from terminal.delivery())

        assert cluster.run(deliver()) is True

        def pending_new_orders():
            txn = cluster.nodes[0].coordinator.begin()
            rows = yield from txn.scan(b"no/0001/", b"no/0001/\xff")
            yield from txn.commit()
            return rows

        assert cluster.run(pending_new_orders()) == []

    def test_stock_level_runs(self, loaded_cluster):
        cluster, scale = loaded_cluster
        terminal = self._terminal(cluster, scale, seed="t5")

        def body():
            return (yield from terminal.stock_level())

        assert cluster.run(body()) is True

    def test_mix_distribution(self, loaded_cluster):
        cluster, scale = loaded_cluster
        terminal = self._terminal(cluster, scale, seed="t6")
        counts = {name: 0 for name, _ in tpcc.MIX}
        for _ in range(2000):
            counts[terminal.choose_type()] += 1
        assert 0.40 < counts["new_order"] / 2000 < 0.50
        assert 0.38 < counts["payment"] / 2000 < 0.48

    def test_full_driver_run(self):
        scale = TpccScale(
            warehouses=2, districts_per_warehouse=2,
            customers_per_district=5, items=20, initial_orders_per_district=2,
        )
        cluster = TreatyCluster(
            profile=DS_ROCKSDB, partitioner=tpcc_partitioner(3)
        ).start()
        cluster.run(load_tpcc(cluster, scale), name="load")
        metrics = MetricsCollector()
        run_tpcc(cluster, scale, metrics, num_clients=4, duration=0.3, warmup=0.05)
        assert metrics.committed > 5

    def test_optimistic_driver_opens_occ_transactions(self):
        scale = TpccScale(
            warehouses=2, districts_per_warehouse=2,
            customers_per_district=5, items=20, initial_orders_per_district=2,
        )
        cluster = TreatyCluster(profile=DS_ROCKSDB, num_nodes=1).start()
        cluster.run(load_tpcc(cluster, scale), name="load")
        validated = cluster.nodes[0].runtime.metrics.counter("occ.validated")
        metrics = MetricsCollector()
        run_tpcc(cluster, scale, metrics, num_clients=2, duration=0.05,
                 warmup=0.01)
        assert metrics.committed > 0 and validated.value == 0
        run_tpcc(cluster, scale, metrics, num_clients=2, duration=0.05,
                 warmup=0.01, optimistic=True)
        assert validated.value > 0
