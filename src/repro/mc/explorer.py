"""Iterative-deepening DFS over choice traces, with DPOR-style pruning.

The search space is the tree of choice traces (see
:mod:`repro.mc.controller`): each run's recorded choice points spawn
child traces that flip exactly one beyond-prefix choice to a non-default
option.  Iterative deepening is over the *perturbation budget* — the
number of non-default choices in a trace — so depth ``N`` covers every
schedule with at most ``N`` adversary actions / crashes, the bounded
search CHESS showed finds almost all real schedule bugs at tiny depths.

Pruning:

* **visited-state subsumption** — the controller digests cluster state
  at every beyond-prefix choice point; reaching a digest a previous run
  covered with strictly more remaining budget subsumes the rest of the
  run (its alternatives are counted, not executed).
* **sleep sets** — when alternative ``k`` of a point is expanded, its
  earlier siblings' ``(footprint, action)`` pairs ride along as the
  child's initial sleep set; the controller evicts entries as dependent
  actions execute (node-set intersection), and the explorer refuses to
  branch an alternative still asleep at its point.  Conservative on
  both sides: eviction may be spurious (less pruning), entries only
  ever suppress re-exploration of an action that an already-explored
  sibling covers while nothing dependent ran.

This module is the single place in ``src/repro`` outside the sim's RNG
wrapper that may touch the wall clock (``--budget 60s`` is a real-time
bound on exploration; the *simulated* worlds stay deterministic — the
determinism lint enforces exactly this split).

On violation the trace is shrunk by delta debugging on choice indices
(drop one non-default choice at a time, keep the trace if it still
fails) and exported as replayable JSON; :func:`replay_counterexample`
re-executes it bit-for-bit.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from .digest import DiskCrcCache
from .harness import RunResult, Scope, run_one

__all__ = [
    "ExploreStats", "explore", "shrink_trace", "save_counterexample",
    "load_counterexample", "replay_counterexample",
]

COUNTEREXAMPLE_FORMAT = "repro-mc-counterexample-v1"


@dataclass
class ExploreStats:
    """Progress counters, printed by ``repro mc explore``."""

    runs: int = 0
    states: int = 0            # distinct digests in the visited cache
    pruned_sleep: int = 0      # alternatives suppressed by sleep sets
    pruned_visited: int = 0    # alternatives suppressed by subsumption
    deepest_trace: int = 0     # most choice points seen in one run
    depth_reached: int = 0     # perturbation budget of the current pass
    depth_exhausted: Dict[int, bool] = field(default_factory=dict)
    elapsed_s: float = 0.0
    shrink_runs: int = 0
    violation: Optional[str] = None

    @property
    def pruned(self) -> int:
        return self.pruned_sleep + self.pruned_visited

    @property
    def prune_rate(self) -> float:
        considered = self.runs + self.pruned
        return self.pruned / considered if considered else 0.0

    @property
    def runs_per_s(self) -> float:
        return self.runs / self.elapsed_s if self.elapsed_s > 0 else 0.0


def _nonzeros(trace) -> int:
    return sum(1 for choice in trace if choice)


def _trim(trace) -> List[int]:
    trace = list(trace)
    while trace and trace[-1] == 0:
        trace.pop()
    return trace


def _expansions(result: RunResult, prefix_len: int, budget: int,
                stats: ExploreStats) -> List[Tuple[List[int], frozenset]]:
    """Child traces branching off one run, sleep sets attached."""
    if _nonzeros(result.trace) + 1 > budget:
        return []
    children: List[Tuple[List[int], frozenset]] = []
    base = [point.chosen for point in result.points]
    for point in result.points:
        if point.index < prefix_len or not point.expandable:
            continue
        siblings: List[Tuple[Any, str]] = []
        for alt in range(1, point.num_options):
            label, fp = point.options[alt]
            entry = (fp, label)
            if fp is not None and entry in point.sleep:
                stats.pruned_sleep += 1
            else:
                child_trace = base[:point.index] + [alt]
                children.append(
                    (child_trace, frozenset(point.sleep) | set(siblings))
                )
            if fp is not None:
                siblings.append(entry)
    return children


def explore(scope: Scope, *, depth: int = 2,
            budget_s: Optional[float] = None,
            max_runs: Optional[int] = None,
            mutation: Optional[str] = None,
            progress: Optional[Callable[[ExploreStats], None]] = None,
            ) -> Tuple[ExploreStats, Optional[Dict[str, Any]]]:
    """Iterative-deepening exhaustive pass over ``scope``.

    Returns ``(stats, counterexample)`` — the counterexample is a
    replayable document (see :func:`save_counterexample`) already shrunk
    to a minimal trace, or ``None`` if every explored schedule was
    clean.
    """
    visited: Dict[int, int] = {}
    crc_cache = DiskCrcCache()
    stats = ExploreStats()
    started = time.monotonic()
    deadline = started + budget_s if budget_s is not None else None

    def out_of_budget() -> bool:
        if deadline is not None and time.monotonic() >= deadline:
            return True
        return max_runs is not None and stats.runs >= max_runs

    def execute(trace, sleep0, budget) -> RunResult:
        result = run_one(
            scope, trace, mutation=mutation,
            remaining_budget=budget - _nonzeros(trace),
            visited=visited, sleep0=sleep0, crc_cache=crc_cache,
        )
        stats.runs += 1
        stats.states = len(visited)
        stats.pruned_visited += result.suppressed
        stats.deepest_trace = max(stats.deepest_trace, len(result.points))
        stats.elapsed_s = time.monotonic() - started
        if progress is not None:
            progress(stats)
        return result

    failing: Optional[RunResult] = None
    for budget in range(1, depth + 1):
        stats.depth_reached = budget
        exhausted = True
        root = execute([], frozenset(), budget)
        if root.violations:
            failing = root
            break
        stack = _expansions(root, 0, budget, stats)
        stack.reverse()  # pop in (earliest point, smallest alt) order
        while stack:
            if out_of_budget():
                exhausted = False
                break
            trace, sleep0 = stack.pop()
            result = execute(trace, sleep0, budget)
            if result.violations:
                failing = result
                break
            grandchildren = _expansions(result, len(trace), budget, stats)
            grandchildren.reverse()
            stack.extend(grandchildren)
        stats.depth_exhausted[budget] = exhausted and failing is None
        if failing is not None or out_of_budget():
            break

    stats.elapsed_s = time.monotonic() - started
    if failing is None:
        return stats, None

    stats.violation = failing.violations[0]
    trace, failing, stats.shrink_runs = shrink_trace(
        scope, _trim(failing.trace), mutation=mutation
    )
    stats.elapsed_s = time.monotonic() - started
    return stats, build_counterexample(scope, trace, failing, mutation)


def shrink_trace(scope: Scope, trace, *, mutation: Optional[str] = None
                 ) -> Tuple[List[int], RunResult, int]:
    """Delta-debug a failing trace to a locally minimal one.

    Repeatedly zeroes one non-default choice; a candidate that still
    fails replaces the current trace.  Terminates when no single removal
    preserves the violation — every remaining perturbation is necessary.
    Returns ``(minimal_trace, its RunResult, runs spent)``.
    """
    current = _trim(trace)
    result = run_one(scope, current, mutation=mutation)
    runs = 1
    if not result.violations:
        raise ValueError("shrink_trace called with a non-failing trace")
    improved = True
    while improved:
        improved = False
        for index in [i for i, choice in enumerate(current) if choice]:
            candidate = _trim(
                current[:index] + [0] + current[index + 1:]
            )
            attempt = run_one(scope, candidate, mutation=mutation)
            runs += 1
            if attempt.violations:
                current, result = candidate, attempt
                improved = True
                break
    return current, result, runs


# -- counterexample documents -------------------------------------------------

def build_counterexample(scope: Scope, trace, result: RunResult,
                         mutation: Optional[str]) -> Dict[str, Any]:
    return {
        "format": COUNTEREXAMPLE_FORMAT,
        "scope": scope.to_dict(),
        "mutation": mutation,
        "trace": list(trace),
        "violations": list(result.violations),
        "outcomes": list(result.outcomes),
        "sim_time": result.sim_time,
        "crashes": [
            {"node": victim, "at": list(point), "time": when}
            for victim, point, when in result.crashes
        ],
        # The perturbed choice points, for humans; replay only needs
        # the trace.
        "choices": [
            point.describe() for point in result.points if point.chosen
        ],
    }


def save_counterexample(path: str, document: Dict[str, Any]) -> None:
    with open(path, "w") as fp:
        json.dump(document, fp, indent=2, sort_keys=True)
        fp.write("\n")


def load_counterexample(path: str) -> Dict[str, Any]:
    with open(path) as fp:
        document = json.load(fp)
    if document.get("format") != COUNTEREXAMPLE_FORMAT:
        raise ValueError(
            "not a counterexample file (format=%r)" % document.get("format")
        )
    return document


def replay_counterexample(document: Dict[str, Any], *,
                          tracing: bool = False,
                          keep_cluster: bool = False,
                          mutation: Optional[str] = "__from_document__",
                          ) -> Tuple[Scope, RunResult]:
    """Re-execute a counterexample document bit-for-bit.

    ``mutation`` defaults to the document's own; pass ``None`` to replay
    the same trace against the *unmutated* protocol (the fix-validation
    workflow).
    """
    scope = Scope.from_dict(document["scope"])
    if mutation == "__from_document__":
        mutation = document.get("mutation")
    result = run_one(
        scope, document["trace"], mutation=mutation,
        tracing=tracing, keep_cluster=keep_cluster,
    )
    return scope, result
