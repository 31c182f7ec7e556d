"""The controlled scheduler: replay one choice trace, record all points.

A run of the model checker is one execution of the deterministic sim
under a :class:`TraceController` installed as ``Simulator.chooser``.
The controller is consulted at every nondeterministic choice point:

* **frame points** — a protocol frame entering the fabric
  (``Fabric.route``).  Options are the adversary's enumerated actions
  (deliver / drop / duplicate / delay), option 0 always "deliver".
* **crash points** — a crash-eligible trace event (the
  :mod:`repro.mc.faults` vocabulary) was emitted.  Options are "no
  crash" plus one victim per configured offset, option 0 always "no
  crash".
* **tie points** — optional (``Scope.tie_window > 1``): several
  simulator entries (heap timeouts due then, ready-queue work) are
  runnable at the same instant and the simulator asks which to run
  first.  Option ``k`` is the ``k``-th in the uncontrolled order, so
  option 0 is the uncontrolled order.

The trace is a list of option indices, indexed by consultation order.
Points beyond the end of the trace choose option 0 (no perturbation),
so a trace is a *finite perturbation prefix* over an otherwise
unperturbed run — the stateless-search representation used by CHESS.

While executing, the controller also maintains the two DPOR structures
the explorer prunes with:

* a **sleep set** of ``(footprint, action)`` pairs inherited from the
  explorer; an entry is evicted when a dependent action executes
  (footprints are dependent when their node sets intersect).  A point's
  snapshot of the sleep set filters which alternatives the explorer
  may branch on there.
* the **visited-state cache** (shared across runs): at each beyond-
  prefix point the cluster digest is looked up; if a previous visit
  reached this state with *strictly more* remaining perturbation
  budget, the whole remainder of this run is subsumed — no further
  digests, and every alternative from here on is counted as pruned.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from ..net.adversary import NetworkAdversary
from ..net.message import MsgType
from .digest import DiskCrcCache, cluster_digest

__all__ = ["ChoicePoint", "TraceController", "footprint_nodes"]

Footprint = Tuple[Any, ...]


def footprint_nodes(fp: Optional[Footprint]) -> Set[str]:
    """The set of node names an action footprint touches.

    Two actions are *dependent* (may not commute) iff their node sets
    intersect; this is the (node, log/key, message-type) independence
    relation collapsed to its coarsest sound level — everything on one
    node shares logs and lock tables, distinct nodes only interact
    through frames, which are themselves choice points.
    """
    if fp is None:
        return set()
    if fp[0] == "frame":
        return {fp[1].split(".")[0], fp[2].split(".")[0]}
    if fp[0] == "crash":
        return {fp[1]}
    return set()


class ChoicePoint:
    """One consultation of the controller, with everything the explorer
    needs to branch from it."""

    __slots__ = (
        "index", "kind", "label", "options", "chosen", "time",
        "sleep", "expandable",
    )

    def __init__(self, index, kind, label, options, chosen, time,
                 sleep, expandable):
        self.index = index
        self.kind = kind            # "frame" | "crash" | "tie"
        self.label = label          # human-readable, for counterexamples
        #: ``[(action_label, footprint)]`` per option; option 0 is the
        #: no-perturbation default.
        self.options = options
        self.chosen = chosen
        self.time = time            # sim time at the consultation
        self.sleep = sleep          # frozenset snapshot for the explorer
        #: False for prefix replays and post-subsumption points — the
        #: explorer must not branch there.
        self.expandable = expandable

    @property
    def num_options(self) -> int:
        return len(self.options)

    def describe(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "kind": self.kind,
            "label": self.label,
            "options": [label for label, _fp in self.options],
            "chosen": self.chosen,
            "time": self.time,
        }


class TraceController:
    """Drives one world through a prescribed choice trace."""

    def __init__(self, cluster, scope, trace=(), *, remaining_budget=0,
                 visited=None, sleep0=(), crc_cache=None, adversary=None):
        self.cluster = cluster
        self.sim = cluster.sim
        self.scope = scope
        self.trace = list(trace)
        self.remaining_budget = remaining_budget
        self.visited = visited          # shared digest -> best budget map
        self.sleep: Set[Tuple[Footprint, str]] = set(sleep0)
        self.adversary = adversary or NetworkAdversary()
        self.crc_cache = crc_cache or DiskCrcCache()
        self.tie_window = scope.tie_window

        self.points: List[ChoicePoint] = []
        self.in_flight: Dict[Tuple[str, str, int], int] = {}
        self.frozen = False      # end-state audit: stop perturbing
        self.subsumed = False    # visited-state cache hit: stop digesting
        self.new_states = 0      # digests first seen by this run
        self.suppressed = 0      # alternatives pruned via subsumption
        self.drops = 0           # frames dropped by prescribed choices
        self.crashes: List[Tuple[int, Tuple[str, str], float]] = []

    # -- the choice core ---------------------------------------------------
    def _choose(self, kind: str, label: str,
                options: List[Tuple[str, Optional[Footprint]]]) -> ChoicePoint:
        index = len(self.points)
        in_prefix = index < len(self.trace)
        chosen = 0
        if in_prefix:
            chosen = self.trace[index]
            if not 0 <= chosen < len(options):
                # Shrinking shifts later indices; out-of-range choices
                # degrade to "no perturbation" rather than erroring.
                chosen = 0
        elif not self.subsumed and self.visited is not None:
            digest = cluster_digest(self.cluster, self.in_flight,
                                    self.crc_cache)
            stored = self.visited.get(digest)
            if stored is None:
                self.visited[digest] = self.remaining_budget
                self.new_states += 1
            elif self.remaining_budget > stored:
                self.visited[digest] = self.remaining_budget
            elif stored > self.remaining_budget:
                # A previous visit covered this state with strictly more
                # budget: everything reachable from here was reachable
                # from there.  (Equality must NOT subsume: the earlier
                # visit may be this run's own sibling still in progress.)
                self.subsumed = True
        if self.subsumed:
            self.suppressed += len(options) - 1
        point = ChoicePoint(
            index=index, kind=kind, label=label, options=options,
            chosen=chosen, time=self.sim.now,
            sleep=frozenset(self.sleep),
            expandable=not in_prefix and not self.subsumed and not self.frozen,
        )
        self.points.append(point)
        return point

    def _evolve_sleep(self, fp: Optional[Footprint]) -> None:
        """Evict sleep entries dependent on an executed action."""
        if not self.sleep or fp is None:
            return
        nodes = footprint_nodes(fp)
        self.sleep = {
            entry for entry in self.sleep
            if not (nodes & footprint_nodes(entry[0]))
        }

    # -- frame choice points (Fabric.route) --------------------------------
    def intercept_frame(self, frame):
        meta = frame.meta or {}
        req_type = meta.get("req_type")
        src_node = frame.src.split(".")[0]
        dst_node = frame.dst.split(".")[0]
        eligible = (
            not self.frozen
            and req_type in self.scope.frame_types
            and src_node.startswith("node")
            and dst_node.startswith("node")
        )
        fp = ("frame", frame.src, frame.dst, req_type,
              bool(meta.get("is_request", True)))
        if not eligible:
            self._evolve_sleep(fp)
            return [(frame, 0.0)]
        enumerated = self.adversary.enumerate_actions(
            frame, self.scope.action_delay
        )
        allowed = ("deliver",) + tuple(self.scope.actions)
        actions = [(n, v) for n, v in enumerated if n in allowed]
        direction = "req" if meta.get("is_request", True) else "resp"
        label = "%s:%s %s->%s" % (
            MsgType.NAMES.get(req_type, req_type), direction,
            frame.src, frame.dst,
        )
        point = self._choose(
            "frame", label, [(name, fp) for name, _v in actions]
        )
        name, verdict = actions[point.chosen]
        if name != "deliver":
            verdict = self.adversary.apply_action(
                name, frame, self.scope.action_delay
            )
            if name == "drop":
                self.drops += 1
        self._evolve_sleep(fp)
        return verdict

    # -- crash choice points (trace events) --------------------------------
    def on_record(self, rec) -> None:
        if self.frozen or rec.get("type") != "event":
            return
        event_key = (rec["cat"], rec["name"])
        if event_key not in self.scope.crash_points:
            return
        if len(self.crashes) >= self.scope.max_crashes:
            return
        emitter = rec.get("node") or ""
        if not emitter.startswith("node"):
            return
        emitter_id = int(emitter[4:])
        victims = []
        for offset in self.scope.crash_offsets:
            victim = (emitter_id + offset) % self.cluster.num_nodes
            if victim not in victims and self.cluster.nodes[victim].is_up:
                victims.append(victim)
        if not victims:
            return
        options = [("none", None)] + [
            ("crash-node%d" % victim, ("crash", "node%d" % victim))
            for victim in victims
        ]
        label = "%s/%s@%s" % (rec["cat"], rec["name"], emitter)
        point = self._choose("crash", label, options)
        if point.chosen > 0:
            victim = victims[point.chosen - 1]
            fp = ("crash", "node%d" % victim)
            self.crashes.append((victim, event_key, self.sim.now))
            self._evolve_sleep(fp)
            self.cluster.crash_node(victim)

    # -- tie choice points (Simulator.step) --------------------------------
    def pick_ready(self, count: int) -> int:
        if self.frozen:
            return 0
        options = [("ready-%d" % i, None) for i in range(count)]
        point = self._choose("tie", "tie x%d" % count, options)
        return point.chosen

    # -- in-flight frame accounting (digest input) -------------------------
    def _flight_key(self, frame) -> Tuple[str, str, int]:
        req_type = (frame.meta or {}).get("req_type")
        return (frame.src, frame.dst, -1 if req_type is None else req_type)

    def frame_sent(self, frame) -> None:
        key = self._flight_key(frame)
        self.in_flight[key] = self.in_flight.get(key, 0) + 1

    def frame_delivered(self, frame) -> None:
        key = self._flight_key(frame)
        count = self.in_flight.get(key, 0)
        if count <= 1:
            self.in_flight.pop(key, None)
        else:
            self.in_flight[key] = count - 1

    # -- lifecycle ---------------------------------------------------------
    def freeze(self) -> None:
        """Stop perturbing: the harness is auditing end state."""
        self.frozen = True
