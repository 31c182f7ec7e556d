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
    python tools/profile.py ycsb-a-dist --entries
    python tools/profile.py ycsb-a-dist --sample

The header line also counts ``Simulator.step`` calls per committed
transaction (one per kernel entry, from the profile's call counts): the
number a simulator-kernel change moves, without the benchmark's layer
pass.

``--callers REGEX`` adds, for every profiled function whose
``file:line(name)`` matches, who called it and how often: a hot leaf
(an AEAD seal, a disk read) is fixed at its call sites.

``--entries`` runs the pass unprofiled instead and prints the kernel
entries per committed transaction *by kind* — what each
``Simulator.step`` is about to run, classified by a wrapper installed
from outside: a sleeping process waking, a process bootstrap, an event
dispatch that wakes a waiter or runs a callback, a no-op dispatch (an
event nobody waits on), and a plain callable (a ``call_later`` such as
a fabric delivery, or a late callback).  A kernel lever starts from
this count: it names the entries worth removing.

``--sample`` runs the pass unprofiled under a statistical sampler
instead: ``signal.setitimer(ITIMER_PROF)`` interrupts every millisecond
of process CPU time and the innermost Python frame is charged one
sample, so native work (a SHA-256 update, a ``struct`` pack) counts
toward the Python function that called it.  It prints self time by
file and by function.  Unlike cProfile it adds no cost per call, so a
call-heavy function (a generator resumed a million times) is not
inflated: size a lever with it before cutting.

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
import collections
import cProfile
import json
import pstats
import signal

import workloads
from repro.sim.core import Event, Process, Simulator

#: where ``Simulator.step`` lives, as cProfile names it.
SIM_STEP = (os.path.join("repro", "sim", "core.py"), "step")

#: ``--sample``'s interval, in seconds of process CPU time.
SAMPLE_S = 1e-3

#: the kinds of kernel entry ``--entries`` counts, in print order.
ENTRY_KINDS = ("sleep wake", "process bootstrap", "event, live waiter",
               "event, no-op", "plain callable")


def sim_steps(stats: pstats.Stats) -> int:
    """``Simulator.step`` calls in the profile: one per kernel entry."""
    return sum(
        total_calls
        for (filename, _line, name), (_prim, total_calls, *_rest)
        in stats.stats.items()
        if name == SIM_STEP[1] and filename.endswith(SIM_STEP[0])
    )


def entry_kind(sim: Simulator) -> str:
    """The kind of entry the next ``sim.step()`` runs (no chooser)."""
    ready, heap = sim._ready, sim._heap
    if ready and not (heap and heap[0][0] == sim.now):
        entry = ready[0]
    else:
        _when, _seq, entry = heap[0]
    if type(entry) is Process and not entry._triggered:
        return "sleep wake"
    if isinstance(entry, Event):
        return "event, live waiter" if entry._callbacks else "event, no-op"
    if getattr(entry, "__func__", None) is Process._bootstrap_call:
        return "process bootstrap"
    return "plain callable"


def count_entries(workload, cluster, seconds: float):
    """Run the pass with every kernel entry classified just before it
    runs; returns the pass result and the count per kind."""
    counts: collections.Counter = collections.Counter()
    step = Simulator.step

    def classified(sim: Simulator) -> None:
        counts[entry_kind(sim)] += 1
        step(sim)

    Simulator.step = classified
    try:
        result = workloads.run_pass(workload, cluster, seconds)
    finally:
        Simulator.step = step
    return result, counts


def sample(fn, *args):
    """Run ``fn(*args)`` under the ITIMER_PROF sampler; returns its
    result and the samples per ``(file, function)`` of the innermost
    frame, one per :data:`SAMPLE_S` of process CPU time."""
    samples: collections.Counter = collections.Counter()

    def tick(_signum, frame) -> None:
        if frame is not None:
            code = frame.f_code
            samples[(code.co_filename, code.co_name)] += 1

    previous = signal.signal(signal.SIGPROF, tick)
    signal.setitimer(signal.ITIMER_PROF, SAMPLE_S, SAMPLE_S)
    try:
        result = fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, previous)
    return result, samples


def self_time(samples, top: int):
    """(by file, by function): the ``top`` largest ``(share, name)`` rows
    of each; a file is named from the repository root or by basename."""
    total = max(sum(samples.values()), 1)
    by_file: collections.Counter = collections.Counter()
    by_function: collections.Counter = collections.Counter()
    for (filename, function), count in samples.items():
        path = os.path.relpath(filename, ROOT)
        if path.startswith(os.pardir):
            path = os.path.basename(filename)
        by_file[path] += count
        by_function["%s:%s" % (path, function)] += count
    return tuple(
        [(count / total, name) for name, count in table.most_common(top)]
        for table in (by_file, by_function))


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
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--entries", action="store_true",
                      help="count kernel entries per txn by kind "
                           "instead of profiling")
    mode.add_argument("--sample", action="store_true",
                      help="sample self time by file and function "
                           "instead of profiling")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        seconds = json.load(fp)["run_seconds"]
    workload = workloads.WORKLOADS[args.workload]
    cluster = workloads.set_up(workload, args.seed)
    if args.entries:
        result, counts = count_entries(workload, cluster, seconds)
        txns = max(result.committed, 1)
        total = sum(counts.values())
        print("%s  seed %d  committed %d  kernel entries/txn %.0f"
              % (workload.name, args.seed, result.committed, total / txns))
        for kind in ENTRY_KINDS:
            print("  %-20s %8.1f /txn  %5.1f %%"
                  % (kind, counts[kind] / txns,
                     100.0 * counts[kind] / max(total, 1)))
        return 0
    if args.sample:
        result, samples = sample(workloads.run_pass, workload, cluster, seconds)
        print("%s  seed %d  committed %d  samples %d (%g ms of CPU each)"
              % (workload.name, args.seed, result.committed,
                 sum(samples.values()), SAMPLE_S * 1e3))
        for title, rows in zip(("file", "function"),
                               self_time(samples, args.top)):
            print("self time by %s:" % title)
            for share, name in rows:
                print("  %5.1f %%  %s" % (100.0 * share, name))
        return 0
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
