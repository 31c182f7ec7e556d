"""Extra coverage: the pipeline's stabilization entry points, Clog records,
batched writes, client scans."""

import pytest

from repro.config import ClusterConfig, DS_ROCKSDB, TREATY_ENC, TREATY_FULL
from repro.core import ClogRecord, GlobalTxnId, TreatyCluster
from repro.core.pipeline import DurabilityPipeline
from repro.sim import Simulator
from repro.tee import NodeRuntime


def wait_histogram(runtime):
    """The ``stabilize.wait_s`` histogram; ``None`` before the first wait."""
    return runtime.metrics.snapshot().get("stabilize.wait_s")


class TestPipelineStabilization:
    def test_disabled_pipeline_is_a_noop(self):
        """No counter client (and no stabilization profile): every entry
        point returns at once — no sim time, no wait recorded."""
        sim = Simulator()
        runtime = NodeRuntime(sim, TREATY_ENC, ClusterConfig())
        pipeline = DurabilityPipeline(runtime, None, ClusterConfig())
        assert not pipeline.enabled
        assert pipeline.rollback is None
        sim.run_process(pipeline.stabilize("log", 5))
        sim.run_process(pipeline.stabilize_many([("log", 5), ("log2", 7)]))
        sim.run_process(pipeline.stabilize_group([("log", 5)], txn="t"))
        pipeline.background("log", 9)
        sim.run()
        assert sim.now == 0.0
        assert wait_histogram(runtime) is None
        assert pipeline.witness.covers(10 ** 9)

    def test_stabilization_profile_without_client_stays_disabled(self):
        sim = Simulator()
        runtime = NodeRuntime(sim, TREATY_FULL, ClusterConfig())
        pipeline = DurabilityPipeline(runtime, None, ClusterConfig())
        assert not pipeline.enabled
        sim.run_process(pipeline.stabilize("log", 5))
        assert sim.now == 0.0 and wait_histogram(runtime) is None

    def test_enabled_waits_and_records(self):
        cluster = TreatyCluster(profile=TREATY_FULL).start()
        node = cluster.nodes[0]
        start = cluster.sim.now
        cluster.run(node.pipeline.stabilize("extras-log", 1))
        waits = wait_histogram(node.runtime)
        assert waits["total"] == 1
        assert waits["sum"] > 0
        assert cluster.sim.now > start

    def test_zero_counter_is_noop(self):
        cluster = TreatyCluster(profile=TREATY_FULL).start()
        node = cluster.nodes[0]
        start = cluster.sim.now
        cluster.run(node.pipeline.stabilize("extras-log2", 0))
        assert cluster.sim.now == start

    def test_background_does_not_block(self):
        cluster = TreatyCluster(profile=TREATY_FULL).start()
        node = cluster.nodes[0]
        start = cluster.sim.now
        node.pipeline.background("extras-bg", 3)
        assert cluster.sim.now == start  # returned immediately
        cluster.sim.run(until=cluster.sim.now + 0.05)
        assert node.counter_client.stable_value("extras-bg") >= 3


class TestClogRecord:
    @pytest.mark.parametrize(
        "kind",
        [ClogRecord.PREPARE, ClogRecord.COMMIT, ClogRecord.ABORT, ClogRecord.COMPLETE],
    )
    def test_roundtrip(self, kind):
        record = ClogRecord(kind, GlobalTxnId(2, 99), [0, 1, 2])
        decoded = ClogRecord.decode(record.encode())
        assert decoded.kind == kind
        assert decoded.gid == GlobalTxnId(2, 99)
        assert decoded.participants == [0, 1, 2]

    def test_empty_participants(self):
        record = ClogRecord(ClogRecord.ABORT, GlobalTxnId(1, 1), [])
        assert ClogRecord.decode(record.encode()).participants == []


class TestGlobalTxnIdEpochs:
    def test_epoch_separates_id_spaces(self):
        from repro.core import TxnIdAllocator

        first_boot = TxnIdAllocator(1, epoch=1)
        second_boot = TxnIdAllocator(1, epoch=2)
        ids_1 = {first_boot.next() for _ in range(100)}
        ids_2 = {second_boot.next() for _ in range(100)}
        assert not ids_1 & ids_2

    def test_encode_decode(self):
        gid = GlobalTxnId(7, (3 << 48) | 123)
        assert GlobalTxnId.decode(gid.encode()) == gid


def prefix_partitioner(key):
    """Range-style sharding: 's<digit>/...' keys go to shard <digit>.

    Scans require a range partitioner (TPC-C partitions by warehouse the
    same way); hash partitioning cannot support prefix scans.
    """
    if key[:1] == b"s" and key[1:2].isdigit():
        return int(key[1:2]) % 3
    import zlib

    return zlib.crc32(key) % 3


class TestClientScan:
    @pytest.fixture(scope="class")
    def cluster(self):
        return TreatyCluster(
            profile=TREATY_ENC, partitioner=prefix_partitioner
        ).start()

    def test_scan_through_client_api(self, cluster):
        session = cluster.session(cluster.client_machine())
        keys = [b"s0/scan/%02d" % i for i in range(5)]

        def body():
            txn = session.begin()
            for i, key in enumerate(keys):
                yield from txn.put(key, b"v%d" % i)
            yield from txn.commit()
            reader = session.begin()
            rows = yield from reader.scan(b"s0/scan/", b"s0/scan/\xff")
            yield from reader.commit()
            return rows

        rows = cluster.run(body())
        assert [k for k, _ in rows] == keys

    def test_scan_sees_own_uncommitted_writes(self, cluster):
        session = cluster.session(cluster.client_machine())
        key = b"s1/sw/01"

        def body():
            txn = session.begin()
            yield from txn.put(key, b"mine")
            rows = yield from txn.scan(b"s1/sw/", b"s1/sw/\xff")
            yield from txn.rollback()
            return rows

        assert (key, b"mine") in cluster.run(body())

    def test_scan_limit(self, cluster):
        session = cluster.session(cluster.client_machine())
        keys = [b"s2/lim/%02d" % i for i in range(6)]

        def body():
            txn = session.begin()
            for key in keys:
                yield from txn.put(key, b"x")
            yield from txn.commit()
            reader = session.begin()
            rows = yield from reader.scan(b"s2/lim/", b"s2/lim/\xff", limit=2)
            yield from reader.commit()
            return rows

        assert len(cluster.run(body())) == 2


class TestResumeDelayModel:
    def test_native_never_delays(self):
        sim = Simulator()
        runtime = NodeRuntime(sim, DS_ROCKSDB, ClusterConfig())
        runtime.heavy_enclave = True
        runtime.active_requests = 50
        assert runtime.fiber_resume_delay() == 0.0

    def test_scone_light_enclave_never_delays(self):
        sim = Simulator()
        runtime = NodeRuntime(sim, TREATY_ENC, ClusterConfig())
        runtime.active_requests = 50
        assert runtime.fiber_resume_delay() == 0.0

    def test_scone_heavy_enclave_scales_with_load_up_to_cap(self):
        sim = Simulator()
        config = ClusterConfig()
        runtime = NodeRuntime(sim, TREATY_ENC, config)
        runtime.heavy_enclave = True
        runtime.active_requests = 10
        assert runtime.fiber_resume_delay() == pytest.approx(
            10 * config.costs.scone_fiber_resume_quantum
        )
        runtime.active_requests = 10_000
        assert runtime.fiber_resume_delay() == pytest.approx(
            config.costs.scone_resume_load_cap
            * config.costs.scone_fiber_resume_quantum
        )


class TestRequestDispatchDelay:
    def test_dispatch_charged_only_for_heavy_scone(self):
        """The per-request wake-up cost appears exactly when the storage
        engine is loaded into a SCONE enclave (Figures 6/7 deployments)."""
        from repro.config import DS_ROCKSDB, TREATY_ENC

        def one_request_latency(profile):
            cluster = TreatyCluster(profile=profile, num_nodes=1).start()
            session = cluster.session(cluster.client_machine())

            def body():
                txn = session.begin()
                start = cluster.sim.now
                yield from txn.get(b"nope")
                elapsed = cluster.sim.now - start
                yield from txn.commit()
                return elapsed

            return cluster.run(body())

        native = one_request_latency(DS_ROCKSDB)
        scone = one_request_latency(TREATY_ENC)
        dispatch = ClusterConfig().costs.scone_request_dispatch
        assert scone >= native + dispatch
