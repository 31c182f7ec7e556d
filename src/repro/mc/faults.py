"""Crash-point vocabulary and injection helpers.

Shared between the randomized crash-conformance sweep
(``tests/test_crash_conformance.py``) and the model checker: both crash
nodes at *observable protocol steps* — trace events emitted by the 2PC
and stabilization pipeline — rather than at arbitrary instruction
boundaries, which is exactly the granularity at which the recovery
rules are specified.

The injectable points, in pipeline order:

* ``twopc/prepare_target``  — prepare logged, piggybacked ACK about to
  leave the participant (its counter target is *not* yet stable);
* ``twopc/prepare_ack``     — ``paper`` protocol: prepare stabilized,
  ACK sent;
* ``stabilize/group_begin`` — the coordinator's group-wide echo round
  is in flight (targets chosen, nothing stable yet);
* ``twopc/decision``        — decision logged to the Clog, not stable;
* ``twopc/commit_apply``    — a participant applied the commit;
* ``stabilize/advance``     — a stable-counter gate moved;
* ``counter/promise``       — a coverage promise was just registered
  (async/lcm backends only: the waiter is parked on the lease, no round
  of its own in flight — crashing here exercises "coordinator dies with
  an unexpired coverage promise outstanding");
* ``twopc/decision-quorum`` — the coordinator just counted a decision
  replication ACK (``optimized`` protocol only: crashing between the
  (k-1)-th and k-th ack exercises every partially-replicated decision
  state the completer protocol must converge from).

Crash model: :meth:`TreatyCluster.crash_node` detaches the node's NICs
— nothing is sent or received afterwards (in-flight frames and zombie
fibers' sends are dropped at the NIC identity check).
"""

from __future__ import annotations

from typing import Tuple

__all__ = [
    "SCENARIOS",
    "CrashInjector",
    "protocol_crash_points",
    "coordinator_crash_points",
]

CrashPoint = Tuple[str, str]

#: (trace event to crash on, ``ClusterConfig.protocol`` to run).
#: prepare_target, group_begin and decision-quorum only exist under
#: ``optimized``; prepare_ack only under ``paper``;
#: counter/promise only fires under the coverage backends (a sweep run
#: with ``counter-sync`` never sees it, so that scenario degrades to an
#: uninjected baseline run there).
#: ORDER MATTERS: the conformance sweep maps ``seed % len(SCENARIOS)``
#: onto this tuple, so reordering silently reshuffles every seed — new
#: points are appended, never inserted.
SCENARIOS = (
    (("twopc", "prepare_target"), "optimized"),
    (("stabilize", "group_begin"), "optimized"),
    (("twopc", "decision"), "optimized"),
    (("twopc", "commit_apply"), "optimized"),
    (("stabilize", "advance"), "optimized"),
    (("twopc", "prepare_ack"), "paper"),
    (("twopc", "decision"), "paper"),
    (("twopc", "commit_apply"), "paper"),
    (("counter", "promise"), "optimized"),
    (("twopc", "decision-quorum"), "optimized"),
)


def protocol_crash_points(protocol: str) -> Tuple[CrashPoint, ...]:
    """Crash points the sweep runs under ``ClusterConfig.protocol``."""
    return tuple(point for point, name in SCENARIOS if name == protocol)


def coordinator_crash_points() -> Tuple[CrashPoint, ...]:
    """Crash points emitted by the *coordinator* of a transaction.

    The non-blocking-commit battery kills the coordinator (and only
    the coordinator) at each of these, never restarts it, and asserts
    the survivors converge via the completer protocol.
    """
    return (
        ("stabilize", "group_begin"),
        ("twopc", "decision"),
        ("twopc", "decision-quorum"),
    )


class CrashInjector:
    """Crash one node at the N-th occurrence of a trace event.

    ``victim`` (absolute node index) overrides the offset arithmetic —
    the no-restart battery uses it to always kill the coordinator
    regardless of which node emitted the matched event.  ``permanent``
    is bookkeeping for the driver: the injector itself never restarts
    anything, but drivers skip their recovery pass when it is set.
    """

    def __init__(
        self, cluster, point, occurrence, victim_offset,
        victim=None, permanent=False,
    ):
        self.cluster = cluster
        self.point = point
        self.occurrence = occurrence
        #: 0 crashes the node that emitted the event; 1/2 crash a
        #: seeded bystander (same step, different failure domain).
        self.victim_offset = victim_offset
        self.victim = victim
        self.permanent = permanent
        self.seen = 0
        self.crashed = None  # node index, once fired

    def arm(self):
        self.cluster.obs.tracer.subscribe(self._on_record)
        return self

    def _on_record(self, rec):
        if self.crashed is not None or rec["type"] != "event":
            return
        if (rec["cat"], rec["name"]) != self.point:
            return
        emitter = rec.get("node") or ""
        if not emitter.startswith("node"):
            return
        self.seen += 1
        if self.seen != self.occurrence:
            return
        if self.victim is not None:
            victim = self.victim
        else:
            victim = (
                int(emitter[4:]) + self.victim_offset
            ) % self.cluster.num_nodes
        self.crashed = victim
        self.cluster.crash_node(victim)
