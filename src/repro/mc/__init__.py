"""repro.mc — bounded model checker for the secure 2PC protocol.

The simulator is deterministic: given one seed, a run is a pure function
of the choices made at its nondeterministic points (adversary moves on
frames in flight, crash injections at protocol steps, optional ready-set
tie breaks).  This package enumerates those choices explicitly — a
stateless-search model checker in the CHESS/DPOR tradition:

* :mod:`repro.mc.controller` — the controlled scheduler.  Installed as
  ``Simulator.chooser``; replays a prescribed choice trace and records
  every choice point it was consulted at.
* :mod:`repro.mc.harness` — one world per trace: builds a fresh
  cluster, drives a small fixed workload (the *scope*, default 2
  transactions x 3 nodes), applies the trace, and audits safety
  (I1–I5 online, atomicity, durability) plus — on schedules where no
  message was dropped — liveness (quiescence, lock release).
* :mod:`repro.mc.digest` — canonical digest of per-node protocol state
  (Clog/WAL bytes, lock tables, counter views, in-flight frames) for
  the visited-state cache.
* :mod:`repro.mc.explorer` — iterative-deepening DFS over choice
  traces with sleep-set pruning and visited-state subsumption, plus
  counterexample shrinking (delta debugging) and replay.
* :mod:`repro.mc.faults` — the crash-point vocabulary shared with the
  randomized crash-conformance sweep.

Entry point: ``repro mc explore --scope 2x3 --depth N --budget 60s``.
"""

from .controller import ChoicePoint, TraceController
from .explorer import (
    ExploreStats,
    explore,
    load_counterexample,
    replay_counterexample,
    save_counterexample,
    shrink_trace,
)
from .faults import (
    SCENARIOS,
    CrashInjector,
    coordinator_crash_points,
    protocol_crash_points,
)
from .harness import MUTATIONS, RunResult, Scope, parse_scope, run_one

__all__ = [
    "ChoicePoint",
    "TraceController",
    "ExploreStats",
    "explore",
    "shrink_trace",
    "save_counterexample",
    "load_counterexample",
    "replay_counterexample",
    "SCENARIOS",
    "CrashInjector",
    "protocol_crash_points",
    "coordinator_crash_points",
    "Scope",
    "RunResult",
    "MUTATIONS",
    "parse_scope",
    "run_one",
]
