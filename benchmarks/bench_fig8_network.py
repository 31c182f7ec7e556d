"""Figure 8: network bandwidth of seven stacks vs message size.

Paper (§VIII-E), expected shape:

* iPerf-UDP delivers zero goodput above the MTU (fragment loss);
* iPerf-TCP (native) is the fastest kernel stack (offloading) and eRPC
  (native) trails it by ~20-30 % at small/medium sizes, matching at MTU+;
* SCONE costs up to ~8x on the TCP path and up to ~4x on eRPC;
* eRPC (SCONE) beats iPerf-TCP (SCONE) (~1.5x in the paper);
* Treaty networking (eRPC + SCONE + encryption) lands in the same band
  as iPerf-TCP (SCONE) — full security at socket-baseline speed.
"""

import os

from repro.bench.netbench import STACKS, run_figure8
from repro.bench.reporting import format_table

SIZES = (64, 256, 1024, 1460, 2048, 4096)


def _duration():
    return 2e-3 if os.environ.get("REPRO_BENCH_SCALE") == "full" else 1e-3


def _run_and_render(extra_info):
    results = run_figure8(sizes=SIZES, duration=_duration())
    rows = [
        [stack] + ["%.1f" % results[stack][size] for size in SIZES]
        for stack in STACKS
    ]
    print()
    print(
        format_table(
            "Figure 8: throughput (Gbit/s) by message size",
            ["stack"] + ["%dB" % size for size in SIZES],
            rows,
        )
    )
    checks = {
        "udp dies above MTU": results["udp-native"][2048] == 0.0,
        "tcp-native fastest kernel stack": (
            results["tcp-native"][1460] > results["udp-native"][1460]
        ),
        "scone tcp penalty 3x-10x": (
            3.0
            <= results["tcp-native"][1460] / max(results["tcp-scone"][1460], 1e-9)
            <= 10.0
        ),
        "scone erpc penalty <= ~7x": (
            results["erpc-native"][1024] / max(results["erpc-scone"][1024], 1e-9)
            <= 7.0
        ),
        "treaty within 2x of tcp-scone": (
            0.5
            <= results["treaty"][1460] / max(results["tcp-scone"][1460], 1e-9)
            <= 2.0
        ),
        "erpc-scone >= tcp-scone at 4096": (
            results["erpc-scone"][4096] >= results["tcp-scone"][4096] * 0.9
        ),
    }
    for name, passed in checks.items():
        print("  [%s] %s" % ("OK " if passed else "off", name))
    extra_info["gbps"] = {
        stack: {str(size): results[stack][size] for size in SIZES}
        for stack in STACKS
    }
    extra_info["checks"] = {name: bool(ok) for name, ok in checks.items()}


def test_figure8_network_stacks(benchmark):
    benchmark.pedantic(
        lambda: _run_and_render(benchmark.extra_info), rounds=1, iterations=1
    )


if __name__ == "__main__":
    _run_and_render({})
