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
  cluster, drives the fault workload over a small fixed *scope*
  (default 2 transactions x 3 nodes), applies the trace, and runs the
  end-state audit.
* :mod:`repro.mc.workload` — the fault workload and the end-state
  audit, one copy shared by :func:`run_one`, the randomized crash
  sweep (``tests/test_crash_conformance.py``) and the coordinator-death
  sweep (``tests/test_nonblocking_commit.py``): ``spread_txns`` (one
  key per shard, so every transaction is a full 2PC), ``drive`` (put
  phase under a give-up deadline, then commit), ``read_owner`` and
  ``audit`` — atomicity and durability on every schedule, plus
  ``quiescence`` (no node down unless killed for good, no held lock, no
  in-doubt half, the monitor's I4/I5 tail sweep) on schedules that
  dropped no frame.  ``tests/test_lost_frames.py`` asserts
  ``quiescence`` after its lossy runs.
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
from .workload import (UNREADABLE, audit, drive, keys_on, quiescence,
                       read_owner, spread_txns)

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
    # the shared fault workload and end-state audit
    "UNREADABLE", "keys_on", "spread_txns", "drive", "read_owner",
    "quiescence", "audit",
]
