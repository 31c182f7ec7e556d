#!/usr/bin/env python3
"""Cost-model sensitivity sweeps.

Maintaining the calibration (DESIGN.md §8) means knowing which constants
each experiment is sensitive to.  This tool re-runs a small experiment
while sweeping one `CostModel` constant and prints the response curve.

Examples:

    python tools/calibrate.py --constant scone_fiber_resume_quantum \
        --values 60e-6,120e-6,240e-6 --experiment ycsb-distributed
    python tools/calibrate.py --constant encrypt_setup \
        --values 0.2e-6,0.4e-6,0.8e-6 --experiment recovery
"""

from __future__ import annotations

import argparse
import dataclasses

from repro.config import ClusterConfig, CostModel, PROFILES


def run_experiment(name: str, config: ClusterConfig, profile_name: str):
    profile = PROFILES[profile_name]
    if name in ("ycsb-distributed", "ycsb-single"):
        from repro.bench.harness import loaded, measure
        from repro.workloads import YcsbConfig

        num_nodes, clients = (3, 48) if name == "ycsb-distributed" else (1, 16)
        ycsb = YcsbConfig(read_proportion=0.2, num_keys=4_000)
        metrics = measure(
            loaded(profile, ycsb, config, num_nodes), ycsb, clients, 0.25,
            warmup=0.05,
        )
        return {
            "tps": metrics.throughput(),
            "lat_ms": metrics.mean_latency() * 1e3,
        }
    if name == "recovery":
        from repro.bench.harness import recovery_experiment

        seconds, log_bytes = recovery_experiment(
            profile, num_entries=10_000
        )
        return {"recovery_ms": seconds * 1e3, "log_MiB": log_bytes / 1048576.0}
    if name == "network":
        from repro.bench.netbench import network_throughput

        return {
            "erpc_scone_1460_gbps": network_throughput(
                "erpc-scone", 1460, duration=1e-3, config=config
            )
        }
    raise SystemExit("unknown experiment %r" % name)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--constant", required=True,
                        help="CostModel field to sweep")
    parser.add_argument("--values", required=True,
                        help="comma-separated values")
    parser.add_argument(
        "--experiment",
        default="ycsb-distributed",
        choices=["ycsb-distributed", "ycsb-single", "recovery", "network"],
    )
    parser.add_argument("--profile", default="Treaty w/ Enc w/ Stab",
                        choices=sorted(PROFILES))
    args = parser.parse_args()

    field_names = {f.name for f in dataclasses.fields(CostModel)}
    if args.constant not in field_names:
        raise SystemExit("unknown CostModel constant %r" % args.constant)

    baseline = getattr(CostModel(), args.constant)
    print("sweeping %s (default %s) on %s [%s]" % (
        args.constant, baseline, args.experiment, args.profile))
    for raw in args.values.split(","):
        value = type(baseline)(float(raw))
        costs = CostModel().with_overrides(**{args.constant: value})
        config = ClusterConfig(costs=costs)
        result = run_experiment(args.experiment, config, args.profile)
        cells = "  ".join("%s=%.3f" % (k, v) for k, v in result.items())
        print("  %s=%-12s %s" % (args.constant, raw, cells))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
