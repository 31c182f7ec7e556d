"""Ablation: SGX hardware monotonic counters vs the ROTE-style service.

§III motivates Treaty's distributed counter service: SGX's hardware
counters take up to ~250 ms per increment and wear out, so stabilizing
every transaction on them is unusable.  This ablation stabilizes a
stream of log entries through both mechanisms and compares achieved
stabilization throughput and latency.
"""

from repro.config import ClusterConfig, TREATY_FULL
from repro.core import TreatyCluster
from repro.bench.reporting import ComparisonTable
from repro.tee.counters import HardwareMonotonicCounter

NUM_ENTRIES = 200


def _rote_stabilization():
    """Entries stabilized through the echo-broadcast counter service."""
    cluster = TreatyCluster(profile=TREATY_FULL).start()
    node = cluster.nodes[0]
    sim = cluster.sim
    start = sim.now
    latencies = []

    def writer(i):
        begin = sim.now
        yield from node.counter_client.stabilize("ablation-log", i + 1)
        latencies.append(sim.now - begin)

    def run():
        # 8 concurrent writers, as a loaded node would see.
        pending = []
        for i in range(NUM_ENTRIES):
            pending.append(sim.process(writer(i)))
        yield sim.all_settled(pending)
        assert len(latencies) == NUM_ENTRIES  # no writer failed

    cluster.run(run())
    elapsed = sim.now - start
    return NUM_ENTRIES / elapsed, sum(latencies) / len(latencies)


def _hw_counter_stabilization():
    """The same entries, one hardware-counter increment each."""
    cluster = TreatyCluster(profile=TREATY_FULL).start()
    node = cluster.nodes[0]
    sim = cluster.sim
    counter = HardwareMonotonicCounter(sim, cluster.config.costs)
    start = sim.now
    latencies = []

    def run():
        # Hardware counters serialize: increments cannot be batched or
        # parallelized (one NVRAM device).
        for _ in range(NUM_ENTRIES):
            begin = sim.now
            yield from counter.increment()
            latencies.append(sim.now - begin)

    cluster.run(run())
    elapsed = sim.now - start
    return NUM_ENTRIES / elapsed, sum(latencies) / len(latencies)


def test_ablation_trusted_counters(benchmark):
    results = {}

    def run():
        results["rote"] = _rote_stabilization()
        results["hw"] = _hw_counter_stabilization()

    benchmark.pedantic(run, rounds=1, iterations=1)
    rote_tput, rote_lat = results["rote"]
    hw_tput, hw_lat = results["hw"]
    table = ComparisonTable(
        "Ablation: stabilization backend", metric_name="entries/s"
    )
    table.add(
        "ROTE-style service", rote_tput, "",
        note="mean latency %.2f ms" % (rote_lat * 1e3),
    )
    table.add(
        "SGX hw counter", hw_tput, "",
        note="mean latency %.1f ms" % (hw_lat * 1e3),
    )
    benchmark.extra_info.update(table.results())
    benchmark.extra_info["speedup"] = rote_tput / max(hw_tput, 1e-9)
    print(table.render())
    print("  ROTE-backed stabilization is %.0fx faster than hw counters"
          % (rote_tput / max(hw_tput, 1e-9)))
    assert rote_tput > hw_tput * 10  # the design choice, quantified


if __name__ == "__main__":
    class _Fake:
        extra_info = {}

        def pedantic(self, fn, rounds=1, iterations=1):
            fn()

    test_ablation_trusted_counters(_Fake())
