#!/usr/bin/env python3
"""TPC-C demo: the full five-transaction mix on a secure cluster.

Loads a (scaled-down) 4-warehouse TPC-C database, partitions it by
warehouse over three Treaty nodes, and runs the standard transaction mix
from 8 terminals, printing per-transaction-type commit counts and
overall throughput/latency.

Run:  python examples/tpcc_demo.py
"""

from repro import TREATY_FULL, TreatyCluster
from repro.bench import MetricsCollector
from repro.bench.reporting import format_table
from repro.errors import TransactionAborted
from repro.sim import SeededRng
from repro.workloads import TpccScale, load_tpcc, tpcc_partitioner
from repro.workloads.tpcc import TpccTerminal


def main():
    scale = TpccScale(warehouses=4)
    cluster = TreatyCluster(
        profile=TREATY_FULL, partitioner=tpcc_partitioner(3)
    ).start()
    print("loading TPC-C (%d warehouses) ..." % scale.warehouses)
    cluster.run(load_tpcc(cluster, scale), name="load")

    sim = cluster.sim
    metrics = MetricsCollector("tpcc")
    machines = [cluster.client_machine() for _ in range(2)]
    terminals = []
    duration = 1.0
    end_time = sim.now + duration
    metrics.measure_from(sim.now)

    def terminal_loop(index):
        machine = machines[index % len(machines)]
        home_w = (index % scale.warehouses) + 1
        session = cluster.session(machine, coordinator=(home_w - 1) % 3)
        terminal = TpccTerminal(
            session, scale, home_w, SeededRng(7, "demo", str(index))
        )
        terminals.append(terminal)
        while sim.now < end_time:
            started = sim.now
            try:
                ok = yield from terminal.execute(terminal.choose_type())
            except TransactionAborted:
                metrics.record_abort()
                continue
            if ok:
                metrics.record(started, sim.now)

    for i in range(8):
        sim.process(terminal_loop(i))
    sim.run(until=end_time)
    metrics.finish(sim.now)

    per_type = {}
    for terminal in terminals:
        for name, count in terminal.per_type_commits.items():
            per_type[name] = per_type.get(name, 0) + count
    rows = [(name, count) for name, count in sorted(per_type.items())]
    print()
    print(format_table("commits by transaction type", ["type", "commits"], rows))
    summary = metrics.summary()
    print("throughput : %.0f tps" % summary["throughput_tps"])
    print("mean lat   : %.2f ms   p99: %.2f ms"
          % (summary["mean_latency_ms"], summary["p99_ms"]))
    print("aborts     : %d" % summary["aborted"])


if __name__ == "__main__":
    main()
