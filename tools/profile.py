#!/usr/bin/env python3
"""cProfile one benchmark pass: where does the host time go?

Runs one ``perf/workloads.run_pass`` (warm-up + measured window, and on
``ycsb-a-traced`` the trace analysis behind it) of a benchmark workload
under cProfile and prints the top functions.  Set-up (cluster build +
bulk load) is outside the profile, as it is outside ``host_ms_per_txn``.

cProfile charges every Python call but not the work inside native code,
so the proportions are skewed towards call-heavy code: use this to find
candidates, then measure with ``perf/bench.py`` (profiling off).

Usage::

    python tools/profile.py ycsb-a-traced
    python tools/profile.py ycsb-a-dist --seed 3 --top 40 --sort cumtime
    python tools/profile.py ycsb-w-single --callers 'read_range|aead.py.*seal'

The header line also counts ``Simulator.step`` calls per committed
transaction (one per kernel entry, from the profile's call counts): the
number a simulator-kernel change moves, without the benchmark's layer
pass.

``--callers REGEX`` adds, for every profiled function whose
``file:line(name)`` matches, who called it and how often: a hot leaf
(an AEAD seal, a disk read) is fixed at its call sites.

``perf/`` is imported read-only; this file lives outside ``src/repro``,
where ``tools/lint_determinism.py`` bans the host clock.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Run as a script, this file's directory leads sys.path and the file
# itself would answer cProfile's ``import profile``: take it off first.
sys.path[:] = [entry for entry in sys.path
               if os.path.abspath(entry or os.curdir) != HERE]
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perf")]

import argparse
import cProfile
import json
import pstats

import workloads

#: where ``Simulator.step`` lives, as cProfile names it.
SIM_STEP = (os.path.join("repro", "sim", "core.py"), "step")


def sim_steps(stats: pstats.Stats) -> int:
    """``Simulator.step`` calls in the profile: one per kernel entry."""
    return sum(
        total_calls
        for (filename, _line, name), (_prim, total_calls, *_rest)
        in stats.stats.items()
        if name == SIM_STEP[1] and filename.endswith(SIM_STEP[0])
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--top", type=int, default=25,
                        help="functions to print (default 25)")
    parser.add_argument("--sort", choices=("tottime", "cumtime"),
                        default="tottime")
    parser.add_argument("--callers", metavar="REGEX",
                        help="also print the callers of matching functions")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        seconds = json.load(fp)["run_seconds"]
    workload = workloads.WORKLOADS[args.workload]
    cluster = workloads.set_up(workload, args.seed)
    profiler = cProfile.Profile()
    result = profiler.runcall(workloads.run_pass, workload, cluster, seconds)
    stats = pstats.Stats(profiler)
    print("%s  seed %d  committed %d  failed %d  obs records %d  "
          "sim steps/txn %.0f"
          % (workload.name, args.seed, result.committed, result.failed,
             result.obs_records,
             sim_steps(stats) / max(result.committed, 1)))
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    if args.callers:
        stats.print_callers(args.callers)
    return 0


if __name__ == "__main__":
    sys.exit(main())
