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
    python tools/profile.py ycsb-a-dist --charges
    python tools/profile.py ycsb-a-dist --sample
    python tools/profile.py ycsb-w-single --memory

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
a fabric delivery, a ``deadline`` that fired, or a late callback).
Under each kind it names who the entries ran for, most first: the
process (its name up to the ``@``) or the callable's qualname.  It
also breaks down the entries the heap still holds at the end of the
pass by kind: a sleeping process (by name), a pending ``Timeout`` (by
whom its first callback runs for), a live deadline and a plain
``call_later`` callable (by whom they run for), and a cancelled
deadline.  A kernel lever starts from these counts: they name the
entries worth removing.

``--charges`` runs the pass unprofiled and prints the CPU holds per
committed transaction by charging site — the ``NodeRuntime`` method
that called ``CpuPool.consume`` and the first function outside
``tee/runtime.py`` that called it — and, per site, how many holds
came *back to back*: the fiber's previous hold ended in the same
kernel entry, so it ran from that hold to this one without blocking.
Each hold is one sleep wake; a back-to-back hold is one a fiber that
kept its core across the two charges would not pay.

``--sample`` runs the pass unprofiled under a statistical sampler
instead: ``signal.setitimer(ITIMER_PROF)`` interrupts every millisecond
of process CPU time and the innermost Python frame is charged one
sample, so native work (a SHA-256 update, a ``struct`` pack) counts
toward the Python function that called it.  It prints self time by
file and by function.  Unlike cProfile it adds no cost per call, so a
call-heavy function (a generator resumed a million times) is not
inflated: size a lever with it before cutting.

``--memory`` runs set-up and the pass unprofiled under ``tracemalloc``
instead and prints the allocation sites of what the pass allocated and
still holds at its end (its retained growth over set-up), largest
first: MiB, blocks and the innermost frames of the allocating
traceback, so one structure that grows with every frame or transaction
stands out.  Above them it prints the traced peak of set-up and of the
pass (``tracemalloc.reset_peak`` between the two), what set-up still
held at its end, and ``ru_maxrss`` after set-up and after the pass,
the figure ``host_peak_rss_mb`` reports.  A peak far above what is
held is a transient: on ``ycsb-w-single`` set-up's flushes, not
anything the pass keeps, set ``ru_maxrss``.  Below the sites it prints
the pass's growth in live objects the cyclic collector tracks, by type
(a ``gc.get_objects()`` count before and after the pass).  Size a
lever from that table: a site row charges every block to the traceback
that first allocated it, and CPython's free lists hand a freed dict or
tuple's block to the next one of any owner, so on ``ycsb-a-traced`` the
sites blamed a frame's ``meta`` dicts for 6.9 MiB that live ``Frame``
objects do not hold.  The site rows still size what the collector does
not track (``bytes``, ``str``) and give bytes once the type is known.  tracemalloc's own tables
(tens of MiB) are in both ``ru_maxrss`` figures, so compare them only
with another ``--memory`` run.  On a workload that traces
(``ycsb-a-traced``) it also counts the trace records the tracer retains
at the pass's end by ``(type, cat, name)``, most first, with how many
of each carry no trace id (filed under no transaction, so the
critical-path analyser never reads them) and the total per type.

Every mode ends with the cyclic collector's passes over the pass, per
generation: how many ran, their host seconds (also as a share of the
pass's wall time) and the objects they reclaimed, read through
``gc.callbacks``.  Neither cProfile nor a sampler has a collector row:
the collector runs when an allocation crosses a threshold, so both
charge its time to whichever frame allocated — an object's
``__init__``.  Before ``Simulator.run`` froze the loaded cluster,
``sim/core.py:__init__`` (the ``Timeout`` and ``Process``
constructors) read 3.3 % of ``--sample`` self time on ``ycsb-a-dist``
at seed 11, part of it collector time.  With the callbacks installed, a
sample that lands in a collection is charged to the first Python frame
after it, ``CollectorPasses.__call__``.

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
import contextlib
import cProfile
import functools
import gc
import json
import pstats
import resource
import signal
import time
import tracemalloc

import workloads
from repro.sim.core import Deadline, Event, Process, Simulator
from repro.sim.cpu import CpuPool

#: where ``Simulator.step`` lives, as cProfile names it.
SIM_STEP = (os.path.join("repro", "sim", "core.py"), "step")

#: ``--sample``'s interval, in seconds of process CPU time.
SAMPLE_S = 1e-3

#: ``--memory``'s traceback depth: the frames a site is told apart by.
MEMORY_FRAMES = 4

#: the kinds of kernel entry ``--entries`` counts, in print order.
ENTRY_KINDS = ("sleep wake", "process bootstrap", "event, live waiter",
               "event, no-op", "plain callable")

#: ``--entries``' names listed under each kind.
ENTRY_NAMES = 5

#: the kinds of entry left in the heap that ``--entries`` counts, in
#: print order.
HEAP_KINDS = ("sleeping process", "pending Timeout", "live deadline",
              "cancelled deadline", "plain callable")


class CollectorPasses:
    """A ``gc.callbacks`` entry: passes, host seconds and objects
    reclaimed per generation while it is installed."""

    def __init__(self):
        self.passes = [0] * 3
        self.seconds = [0.0] * 3
        self.collected = [0] * 3
        self._started = 0.0

    def __call__(self, phase: str, info) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        generation = info["generation"]
        self.passes[generation] += 1
        self.seconds[generation] += time.perf_counter() - self._started
        self.collected[generation] += info["collected"]


@contextlib.contextmanager
def collector_passes():
    """Count the collector's passes over the ``with`` body."""
    passes = CollectorPasses()
    gc.callbacks.append(passes)
    try:
        yield passes
    finally:
        gc.callbacks.remove(passes)


def format_collector(passes, seconds, collected, wall_s: float):
    """The collector lines: one total, then one row per generation."""
    total_s = sum(seconds)
    lines = ["collector: %d passes, %.3f s (%.1f %% of %.2f s wall), "
             "%d objects reclaimed"
             % (sum(passes), total_s, 100.0 * total_s / max(wall_s, 1e-9),
                wall_s, sum(collected))]
    for generation, row in enumerate(zip(passes, seconds, collected)):
        lines.append("  gen %d  %6d passes  %8.3f s  %9d reclaimed"
                     % ((generation,) + row))
    return lines


def sim_steps(stats: pstats.Stats) -> int:
    """``Simulator.step`` calls in the profile: one per kernel entry."""
    return sum(
        total_calls
        for (filename, _line, name), (_prim, total_calls, *_rest)
        in stats.stats.items()
        if name == SIM_STEP[1] and filename.endswith(SIM_STEP[0])
    )


def runs_for(fn) -> str:
    """Who a callable runs for: a process's name up to its ``@`` (a
    bootstrap, a resume), else the qualname of what ``fn`` wraps."""
    if isinstance(fn, Deadline):
        fn = fn._fn
    while isinstance(fn, functools.partial):
        fn = fn.func
    owner = getattr(fn, "__self__", None)
    if isinstance(owner, Process):
        return owner.name.split("@", 1)[0]
    return getattr(fn, "__qualname__", type(fn).__name__)


def entry_kind(sim: Simulator):
    """The kind of entry the next ``sim.step()`` runs (no chooser), and
    whom it runs for (:func:`runs_for`; an event nobody waits on is
    named by its class)."""
    ready, heap = sim._ready, sim._heap
    if ready and not (heap and heap[0][0] == sim.now):
        entry = ready[0]
    else:
        _when, _seq, entry = heap[0]
    if type(entry) is Process and not entry._triggered:
        return "sleep wake", entry.name.split("@", 1)[0]
    if isinstance(entry, Event):
        if entry._callbacks:
            return "event, live waiter", runs_for(entry._callbacks[0])
        return "event, no-op", type(entry).__name__
    if getattr(entry, "__func__", None) is Process._bootstrap_call:
        return "process bootstrap", runs_for(entry)
    return "plain callable", runs_for(entry)


def heap_kind(entry):
    """The kind of a heap entry (:data:`HEAP_KINDS`) and whom it waits
    or runs for (:func:`runs_for`)."""
    if type(entry) is Process:
        return "sleeping process", entry.name.split("@", 1)[0]
    if isinstance(entry, Event):
        return "pending Timeout", (runs_for(entry._callbacks[0])
                                   if entry._callbacks else "nobody waits")
    if isinstance(entry, Deadline):
        if entry._fn is None:
            return "cancelled deadline", ""
        return "live deadline", runs_for(entry)
    return "plain callable", runs_for(entry)


def count_entries(workload, cluster, seconds: float):
    """Run the pass with every kernel entry classified just before it
    runs; returns the pass result, the count per ``(kind, runs for)``
    and the heap left at the end, counted per :func:`heap_kind`."""
    counts: collections.Counter = collections.Counter()
    step = Simulator.step
    sims = set()

    def classified(sim: Simulator) -> None:
        counts[entry_kind(sim)] += 1
        sims.add(sim)
        step(sim)

    Simulator.step = classified
    try:
        result = workloads.run_pass(workload, cluster, seconds)
    finally:
        Simulator.step = step
    heap_left = collections.Counter(
        heap_kind(entry) for sim in sims for _when, _seq, entry in sim._heap)
    return result, counts, heap_left


def _by_kind(counts, kinds, top: int):
    """Per kind of ``kinds``: its total and its ``top`` names with their
    counts, most first."""
    for kind in kinds:
        names = collections.Counter(
            {name: count for (of, name), count in counts.items()
             if of == kind})
        yield kind, sum(names.values()), names.most_common(top)


def format_entries(counts, txns: int, top: int = ENTRY_NAMES):
    """``--entries``' rows: per kind, entries per txn and share, then
    the ``top`` names it ran for, most first."""
    total = max(sum(counts.values()), 1)
    lines = []
    for kind, of_kind, names in _by_kind(counts, ENTRY_KINDS, top):
        lines.append("  %-20s %8.1f /txn  %5.1f %%"
                     % (kind, of_kind / txns, 100.0 * of_kind / total))
        for name, count in names:
            lines.append("      %8.1f /txn  %s" % (count / txns, name))
    return lines


def format_heap(heap_left, top: int = ENTRY_NAMES):
    """``--entries``' heap rows: the entries left, then per kind their
    count and the ``top`` names, most first."""
    lines = ["heap at the end of the pass: %d entries"
             % sum(heap_left.values())]
    for kind, of_kind, names in _by_kind(heap_left, HEAP_KINDS, top):
        lines.append("  %-20s %8d" % (kind, of_kind))
        for name, count in names:
            if name:
                lines.append("      %8d  %s" % (count, name))
    return lines


#: the file whose frames are ``NodeRuntime`` methods.
RUNTIME_FILE = os.path.join("repro", "tee", "runtime.py")


def charging_site(frame) -> str:
    """``method → file:caller`` for a ``CpuPool.consume`` run from
    ``frame``: the innermost ``NodeRuntime`` method and the first frame
    outside it.  Every charge goes through ``NodeRuntime``, and
    ``NodeRuntime.compute`` hands back the pool's hold itself, so a hold
    run straight from outside the runtime is a ``compute``."""
    method = None
    while frame is not None and frame.f_code.co_filename.endswith(
            RUNTIME_FILE):
        if method is None:
            method = frame.f_code.co_name
        frame = frame.f_back
    method = method or "compute"
    if frame is None:
        return "%s → ?" % method
    path = os.path.relpath(frame.f_code.co_filename,
                           os.path.join(ROOT, "src", "repro"))
    return "%s → %s:%s" % (method, path, frame.f_code.co_name)


def count_charges(workload, cluster, seconds: float):
    """Run the pass with every CPU hold counted by charging site; returns
    the pass result, the holds per site and the back-to-back holds per
    site (the fiber's previous hold ended in the same kernel entry)."""
    holds: collections.Counter = collections.Counter()
    chained: collections.Counter = collections.Counter()
    entries = [0]
    # the fibers whose hold ended in the kernel entry ``ended[0]``
    ended = [-1, set()]
    step, consume = Simulator.step, CpuPool.consume

    def counted_step(sim: Simulator) -> None:
        entries[0] += 1
        step(sim)

    def counted_consume(pool: CpuPool, *charges: float):
        if not any(charges):  # no hold (a negative charge raises there)
            return (yield from consume(pool, *charges))
        site = charging_site(sys._getframe(1))
        process = pool.sim.current_process
        holds[site] += 1
        if ended[0] == entries[0] and process in ended[1]:
            chained[site] += 1
        start = yield from consume(pool, *charges)
        if ended[0] != entries[0]:
            ended[:] = [entries[0], set()]
        ended[1].add(process)
        return start

    Simulator.step, CpuPool.consume = counted_step, counted_consume
    try:
        result = workloads.run_pass(workload, cluster, seconds)
    finally:
        Simulator.step, CpuPool.consume = step, consume
    return result, holds, chained


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


def short_path(filename: str) -> str:
    """A file named from the repository root, or by basename outside it."""
    path = os.path.relpath(filename, ROOT)
    return os.path.basename(filename) if path.startswith(os.pardir) else path


def self_time(samples, top: int):
    """(by file, by function): the ``top`` largest ``(share, name)`` rows
    of each."""
    total = max(sum(samples.values()), 1)
    by_file: collections.Counter = collections.Counter()
    by_function: collections.Counter = collections.Counter()
    for (filename, function), count in samples.items():
        path = short_path(filename)
        by_file[path] += count
        by_function["%s:%s" % (path, function)] += count
    return tuple(
        [(count / total, name) for name, count in table.most_common(top)]
        for table in (by_file, by_function))


def traced_set_up(fn, *args):
    """Start tracemalloc and run ``fn(*args)`` (set-up) under it; returns
    its result, the traced peak and what is held at its end (bytes), and
    ``ru_maxrss`` after it.  Tracing stays on for
    :func:`retained_sites`, which stops it."""
    tracemalloc.start(MEMORY_FRAMES)
    result = fn(*args)
    held, peak = tracemalloc.get_traced_memory()
    return result, peak, held, max_rss_mib()


def type_name(cls: type) -> str:
    """``cls``'s qualified name, its module first unless builtin."""
    if cls.__module__ == "builtins":
        return cls.__qualname__
    return "%s.%s" % (cls.__module__, cls.__qualname__)


def live_objects() -> collections.Counter:
    """The live objects the cyclic collector tracks, by type name.

    ``gc.get_objects()`` lists each object as what it is, however its
    memory was obtained: a dict or tuple that reused a free-listed block
    counts as itself, not as whatever first allocated the block.  Only
    containers are tracked: ``bytes`` and ``str`` never count, and a
    tuple or dict holding only atomic values may be untracked."""
    return collections.Counter(type_name(type(obj))
                               for obj in gc.get_objects())


def object_growth(before, after):
    """``(type, growth)`` for each type with more live objects in
    ``after`` than in ``before`` (:func:`live_objects`), most first."""
    grown = [(name, count - before.get(name, 0))
             for name, count in after.items() if count > before.get(name, 0)]
    return sorted(grown, key=lambda row: (-row[1], row[0]))


def retained_sites(fn, *args):
    """Run ``fn(*args)`` under tracemalloc; returns its result, one
    ``(bytes, blocks, frames)`` row per allocating traceback of what the
    run allocated and still holds at its end, largest first, the traced
    peak while it ran (bytes) and its :func:`object_growth`.  ``frames``
    is ``(file, line)`` pairs, innermost first.  Tracing already on
    (:func:`traced_set_up`) counts what was held before the run in the
    peak, not in the rows; either way tracing stops at the end.  Both
    object counts are taken while the first snapshot is alive, so its
    own tuples cancel out, and outside the peak."""
    if not tracemalloc.is_tracing():
        tracemalloc.start(MEMORY_FRAMES)
    try:
        before = tracemalloc.take_snapshot()
        objects_before = live_objects()
        tracemalloc.reset_peak()
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
        grown = object_growth(objects_before, live_objects())
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    rows = [(stat.size_diff, stat.count_diff,
             [(frame.filename, frame.lineno) for frame in stat.traceback][::-1])
            for stat in after.compare_to(before, "traceback")
            if stat.size_diff > 0]
    return result, rows, peak, grown


def format_sites(rows, top: int):
    """The ``top`` rows of :func:`retained_sites`, one line each."""
    lines = ["      MiB     blocks  site (innermost frame first)"]
    for size, count, frames in rows[:top]:
        lines.append("  %7.2f  %9d  %s" % (
            size / 2 ** 20, count,
            " ← ".join("%s:%d" % (short_path(filename), line)
                       for filename, line in frames)))
    return lines


def format_growth(grown, top: int):
    """The ``top`` rows of :func:`object_growth`, one line each, under
    the total growth."""
    lines = ["live gc-tracked objects: %+d over the pass"
             % sum(count for _name, count in grown),
             "    objects  type"]
    for name, count in grown[:top]:
        lines.append("  %+9d  %s" % (count, name))
    return lines


def record_kinds(records):
    """``{(type, cat, name): [records, of them with no trace]}`` over
    the retained trace records."""
    kinds = collections.defaultdict(lambda: [0, 0])
    for rec in records:
        tally = kinds[rec["type"], rec["cat"], rec["name"]]
        tally[0] += 1
        if rec["trace"] is None:
            tally[1] += 1
    return kinds


def format_record_kinds(kinds, top: int):
    """:func:`record_kinds` as lines: a total per type, then the ``top``
    kinds, most records first."""
    per_type = collections.Counter()
    untraced = 0
    for (kind, _cat, _name), (count, no_trace) in kinds.items():
        per_type[kind] += count
        untraced += no_trace
    total = sum(per_type.values())
    lines = ["retained trace records: %d (%s), %d with no trace"
             % (total, ", ".join("%d %ss" % (count, kind) for kind, count
                                 in sorted(per_type.items())), untraced),
             "    records   no trace  type   cat/name"]
    rows = sorted(kinds.items(), key=lambda item: (-item[1][0], item[0]))
    for (kind, cat, name), (count, no_trace) in rows[:top]:
        lines.append("  %9d  %9d  %-5s  %s/%s"
                     % (count, no_trace, kind, cat, name))
    return lines


def max_rss_mib() -> float:
    """This process's peak RSS so far (``ru_maxrss`` is in KiB here)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


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
    mode.add_argument("--charges", action="store_true",
                      help="count CPU holds per txn by charging site "
                           "instead of profiling")
    mode.add_argument("--sample", action="store_true",
                      help="sample self time by file and function "
                           "instead of profiling")
    mode.add_argument("--memory", action="store_true",
                      help="list the allocation sites of what the pass "
                           "retains and the traced peaks of set-up and "
                           "pass (tracemalloc) instead of profiling")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        seconds = json.load(fp)["run_seconds"]
    workload = workloads.WORKLOADS[args.workload]
    if args.memory:
        cluster, setup_peak, setup_held, rss_set_up = traced_set_up(
            workloads.set_up, workload, args.seed)
    else:
        cluster = workloads.set_up(workload, args.seed)
    started = time.perf_counter()
    with collector_passes() as collector:
        if args.entries:
            result, counts, heap_left = count_entries(workload, cluster,
                                                      seconds)
        elif args.charges:
            result, holds, chained = count_charges(workload, cluster,
                                                   seconds)
        elif args.sample:
            result, samples = sample(workloads.run_pass, workload, cluster,
                                     seconds)
        elif args.memory:
            result, sites, pass_peak, grown = retained_sites(
                workloads.run_pass, workload, cluster, seconds)
        else:
            profiler = cProfile.Profile()
            result = profiler.runcall(workloads.run_pass, workload, cluster,
                                      seconds)
    wall_s = time.perf_counter() - started
    if args.entries:
        txns = max(result.committed, 1)
        total = sum(counts.values())
        print("%s  seed %d  committed %d  kernel entries/txn %.0f"
              % (workload.name, args.seed, result.committed, total / txns))
        print("\n".join(format_entries(counts, txns)))
        print("\n".join(format_heap(heap_left)))
    elif args.charges:
        txns = max(result.committed, 1)
        total, back = sum(holds.values()), sum(chained.values())
        print("%s  seed %d  committed %d  CPU holds/txn %.1f  back to back "
              "%.1f /txn (%.1f %%)"
              % (workload.name, args.seed, result.committed, total / txns,
                 back / txns, 100.0 * back / max(total, 1)))
        print("  holds/txn  back to back  site (NodeRuntime method → caller)")
        for site, count in holds.most_common(args.top):
            print("  %9.1f  %12.1f  %s"
                  % (count / txns, chained[site] / txns, site))
    elif args.sample:
        print("%s  seed %d  committed %d  samples %d (%g ms of CPU each)"
              % (workload.name, args.seed, result.committed,
                 sum(samples.values()), SAMPLE_S * 1e3))
        for title, rows in zip(("file", "function"),
                               self_time(samples, args.top)):
            print("self time by %s:" % title)
            for share, name in rows:
                print("  %5.1f %%  %s" % (100.0 * share, name))
    elif args.memory:
        print("%s  seed %d  committed %d  retained by the pass %.1f MiB in "
              "%d blocks"
              % (workload.name, args.seed, result.committed,
                 sum(row[0] for row in sites) / 2 ** 20,
                 sum(row[1] for row in sites)))
        print("traced peak: %.1f MiB in set-up (%.1f MiB held at its end), "
              "%.1f MiB in the pass"
              % (setup_peak / 2 ** 20, setup_held / 2 ** 20,
                 pass_peak / 2 ** 20))
        print("ru_maxrss: %.1f MiB after set-up, %.1f MiB after the pass "
              "(tracemalloc's tables included)"
              % (rss_set_up, max_rss_mib()))
        print("\n".join(format_sites(sites, args.top)))
        print("\n".join(format_growth(grown, args.top)))
        records = cluster.obs.records()
        if records:
            print("\n".join(format_record_kinds(record_kinds(records),
                                                 args.top)))
    else:
        stats = pstats.Stats(profiler)
        print("%s  seed %d  committed %d  failed %d  obs records %d  "
              "sim steps/txn %.0f"
              % (workload.name, args.seed, result.committed, result.failed,
                 result.obs_records,
                 sim_steps(stats) / max(result.committed, 1)))
        stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
        if args.callers:
            stats.print_callers(args.callers)
    print("\n".join(format_collector(collector.passes, collector.seconds,
                                     collector.collected, wall_s)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
