#!/usr/bin/env python3
"""YCSB demo: throughput/latency across security configurations.

A scaled-down version of the paper's Figure 5 experiment: a read-heavy
YCSB workload against the distributed cluster under three environment
profiles, printing throughput, latency and the relative slowdown.

Run:  python examples/ycsb_demo.py
"""

from repro import DS_ROCKSDB, TREATY_ENC, TREATY_FULL, TreatyCluster
from repro.bench import MetricsCollector
from repro.bench.reporting import format_table
from repro.workloads import YcsbConfig, bulk_load, run_ycsb

PROFILES = [DS_ROCKSDB, TREATY_ENC, TREATY_FULL]


def run_one(profile):
    cluster = TreatyCluster(profile=profile).start()
    config = YcsbConfig(read_proportion=0.8, num_keys=2_000)
    cluster.run(bulk_load(cluster, config), name="load")
    metrics = MetricsCollector(profile.name)
    run_ycsb(cluster, config, metrics, num_clients=24, duration=0.3, warmup=0.1)
    return metrics.summary()


def main():
    print("running YCSB (80% reads, 10 ops/txn, 1000 B values) ...")
    results = [run_one(profile) for profile in PROFILES]
    baseline = results[0]["throughput_tps"]
    rows = [
        (
            summary["name"],
            "%.0f" % summary["throughput_tps"],
            "%.1fx" % (baseline / max(summary["throughput_tps"], 1.0)),
            "%.2f" % summary["mean_latency_ms"],
            "%.2f" % summary["p99_ms"],
            "%d" % summary["aborted"],
        )
        for summary in results
    ]
    print()
    print(
        format_table(
            "YCSB read-heavy, 24 clients, 3 nodes",
            ["system", "tput (tps)", "slowdown", "mean lat (ms)", "p99 (ms)", "aborts"],
            rows,
        )
    )


if __name__ == "__main__":
    main()
