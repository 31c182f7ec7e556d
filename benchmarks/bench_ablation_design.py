"""Ablations of Treaty's substrate design choices (§V-A, §VII).

1. *Group commit* (§VII-B): leader-merged WAL writes vs one device
   write per transaction.
2. *Message buffers in host memory* (§VII-A): Treaty deliberately keeps
   eRPC msgbufs outside the enclave; placing them in enclave memory
   triggers EPC paging under load.
3. *Userland fibers* (§VII-C): the system's own fibers, queued on the
   node's enclave cores, switch without a syscall; a thread per client
   pays a syscall and a world switch per wake-up.
4. *Storage I/O mechanism* (§V-A): async syscalls + page cache vs SPDK
   on a read-heavy load that fits in the page cache.
"""

from repro.config import ClusterConfig, TREATY_ENC, TREATY_FULL
from repro.bench import MetricsCollector
from repro.bench.harness import loaded, measure
from repro.bench.reporting import ComparisonTable
from repro.workloads import YcsbConfig


def _ycsb_throughput(config: ClusterConfig) -> MetricsCollector:
    # Write-heavy load on one node at enough concurrency that per-commit
    # WAL device writes would serialize the commit path (§VII-B's
    # motivation for group commit).
    ycsb = YcsbConfig(read_proportion=0.2, num_keys=4_000)
    cluster = loaded(TREATY_FULL, ycsb, config, num_nodes=1)
    return measure(cluster, ycsb, 48, 0.3, warmup=0.1)


def test_ablation_group_commit(benchmark):
    results = {}

    def run():
        results["on"] = _ycsb_throughput(ClusterConfig(group_commit_max=16))
        results["off"] = _ycsb_throughput(ClusterConfig(group_commit_max=1))

    benchmark.pedantic(run, rounds=1, iterations=1)
    table = ComparisonTable("Ablation: group commit", metric_name="tps")
    on_tps = results["on"].throughput()
    off_tps = results["off"].throughput()
    table.add("group commit (16)", on_tps, "")
    table.add("no group commit (1)", off_tps, "")
    benchmark.extra_info.update(table.results())
    print(table.render())
    print("  group commit gains %.2fx throughput" % (on_tps / max(off_tps, 1e-9)))


def test_ablation_msgbuf_placement(benchmark):
    """EPC pressure from in-enclave message buffers (modelled directly)."""
    from repro.sim import Simulator
    from repro.tee import NodeRuntime

    results = {}

    def run():
        for placement in ("host", "enclave"):
            sim = Simulator()
            config = ClusterConfig()
            runtime = NodeRuntime(sim, TREATY_ENC, config)
            # A heavy network phase: 64 concurrent 1 MiB buffer sets.
            buffers = []
            region = (
                runtime.host_memory
                if placement == "host"
                else runtime.enclave.memory
            )
            for _ in range(192):
                buffers.append(region.allocate(1 << 20))

            def touch_all():
                # The enclave touches every buffer once per burst.
                for _ in range(64):
                    yield from runtime.touch_enclave(1 << 20)

            sim.run_process(touch_all())
            results[placement] = sim.now
            for allocation in buffers:
                allocation.free()

    benchmark.pedantic(run, rounds=1, iterations=1)
    table = ComparisonTable(
        "Ablation: message buffer placement", metric_name="paging time (s)"
    )
    table.add("host memory (Treaty)", results["host"], "s")
    table.add("enclave memory (naive)", results["enclave"], "s")
    benchmark.extra_info.update(table.results())
    print(table.render())
    assert results["enclave"] > results["host"]


def test_ablation_fiber_scheduler(benchmark):
    """§VII-C: fibers vs thread-per-client wake-ups.

    The system's fibers are simulator processes queued FIFO on the
    node's enclave cores (``NodeRuntime.cpu``): switching between
    runnable clients costs no syscall.  A naive SCONE deployment pays an
    async syscall (and a world switch) per thread wake-up.  Measure both
    for a bursty 64-client serving pattern.
    """
    from repro.sim import Simulator
    from repro.tee import NodeRuntime

    results = {}

    def run():
        config = ClusterConfig()
        # Fibers: 64 client fibers share the node's cores.
        sim = Simulator()
        runtime = NodeRuntime(sim, TREATY_ENC, config)

        def client():
            for _ in range(20):
                yield from runtime.compute(5e-6)
                yield sim.sleep(1e-4)

        for _ in range(64):
            sim.spawn(client())
        sim.run()
        results["fibers"] = (sim.now, runtime.syscalls)

        # Threads: every wake-up costs a syscall + world switch.
        sim2 = Simulator()
        runtime2 = NodeRuntime(sim2, TREATY_ENC, config)

        def thread_client():
            for _ in range(20):
                yield from runtime2.syscall()  # futex-style wake
                yield from runtime2.world_switch()
                yield from runtime2.compute(5e-6)
                yield sim2.timeout(1e-4)

        for _ in range(64):
            sim2.process(thread_client())
        sim2.run()
        results["threads"] = (sim2.now, runtime2.syscalls)

    benchmark.pedantic(run, rounds=1, iterations=1)
    fiber_time, fiber_syscalls = results["fibers"]
    thread_time, thread_syscalls = results["threads"]
    table = ComparisonTable(
        "Ablation: userland fiber scheduler", metric_name="syscalls"
    )
    table.add("fibers (Treaty)", fiber_syscalls, "", note="%.2f ms" % (fiber_time * 1e3))
    table.add("thread wake-ups", thread_syscalls, "", note="%.2f ms" % (thread_time * 1e3))
    benchmark.extra_info.update(table.results())
    print(table.render())
    assert fiber_syscalls < thread_syscalls / 4
    assert fiber_time < thread_time


def test_ablation_storage_io_mechanism(benchmark):
    """§V-A's design choice: async syscalls + page cache beat SPDK when
    the database fits in the page cache (read path dominates)."""
    results = {}

    def run():
        ycsb = YcsbConfig(read_proportion=0.8, num_keys=6_000)
        for io_mode in ("syscall", "spdk"):
            config = ClusterConfig(storage_io=io_mode)
            cluster = loaded(TREATY_ENC, ycsb, config, num_nodes=1)
            # Flush so reads actually hit SSTables (the I/O path at stake).
            cluster.run(cluster.nodes[0].engine.flush())
            results[io_mode] = measure(cluster, ycsb, 16, 0.25, warmup=0.05)

    benchmark.pedantic(run, rounds=1, iterations=1)
    table = ComparisonTable(
        "Ablation: storage I/O mechanism (read-heavy)", metric_name="tps"
    )
    for io_mode, metrics in results.items():
        label = {
            "syscall": "async syscalls + page cache (Treaty)",
            "spdk": "SPDK direct I/O (SPEICHER)",
        }[io_mode]
        table.add(label, metrics.throughput(), "",
                  note="lat %.2f ms" % (metrics.mean_latency() * 1e3))
    benchmark.extra_info.update(table.results())
    try:
        from conftest import publish
    except ImportError:
        publish = print
    publish(table.render())
    # The paper's claim: page-cached reads beat SPDK for this workload.
    assert (
        results["syscall"].throughput() > results["spdk"].throughput()
    )


if __name__ == "__main__":
    class _Fake:
        extra_info = {}

        def pedantic(self, fn, rounds=1, iterations=1):
            fn()

    test_ablation_group_commit(_Fake())
    test_ablation_msgbuf_placement(_Fake())
    test_ablation_fiber_scheduler(_Fake())
    test_ablation_storage_io_mechanism(_Fake())
