"""Online 2PC invariant monitor.

Subscribes to the tracer's event stream and checks Treaty's safety
argument *while the simulation runs* — the runtime-verification stance
of LCM-style rollback detectors and Fides, rather than test-only
assertions.  Invariants:

I1 **decision-before-apply** — no participant applies a commit before
   the coordinator logged the decision to its Clog and (under
   stabilization profiles) the decision entry is rollback-protected.
I2 **stable-before-ack** — no participant ACKs a prepare before the
   prepare record's trusted counter is stable (§V-A: "participants
   delay replying back to the coordinator until the prepare entry in
   the log is stabilized").
I3 **counter monotonicity** — trusted-counter stable values and replica
   confirmations never regress.
I4 **recovery resolution** — every node that recovers with prepared
   transactions eventually resolves all of them (checked by
   :meth:`InvariantMonitor.check_quiescent` at end of run).
I5 **bounded liveness** — absent crashes, every prepare-ACKed
   transaction reaches a logged decision within ``liveness_timeout``
   simulated seconds, so a stuck 2PC fiber trips the monitor instead of
   a test timeout.  Obligations are tracked *per coordinator*: a crash
   clears only the transactions whose coordinator (or, lacking that
   attribution, any node) went down — a bystander's crash must not
   blind the monitor to a genuinely stuck transaction.

Under cross-node piggybacking (``protocol="optimized"``) participants emit
``prepare_target`` instead of ``prepare_ack``: the prepare's counter is
deliberately *not* yet stable at ACK time (it rides the coordinator's
group-wide round), so I2 is deferred — the target must be stable by the
time that participant applies the commit (checked at ``commit_apply``
alongside I1).

The monitor learns stability from the counter service's own ``advance``
events, *not* from the components under check — a broken stabilization
path (one that returns without running the echo-broadcast protocol)
therefore trips I1/I2 instead of being taken at its word.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set

__all__ = ["MonitorViolation", "InvariantMonitor"]


class MonitorViolation(AssertionError):
    """A protocol-safety invariant was observed to fail."""


class InvariantMonitor:
    """Checks 2PC safety invariants against the live event stream."""

    def __init__(self, require_stabilization: bool = False,
                 strict: bool = True,
                 liveness_timeout: Optional[float] = None):
        #: when True, I1/I2 require counter stability, not just logging
        #: (set from the profile: only stabilization profiles promise it).
        self.require_stabilization = require_stabilization
        #: raise :class:`MonitorViolation` at the violating instant;
        #: False collects into :attr:`violations` instead.
        self.strict = strict
        #: I5 horizon in simulated seconds; ``None`` disables the check.
        self.liveness_timeout = liveness_timeout
        #: optional ``callback(sim_time, message)`` invoked for every
        #: violation before it is raised/collected — the incident log's
        #: hook (repro.obs.incidents).
        self.on_violation: Optional[Any] = None
        self.reset()

    def reset(self) -> None:
        """Forget all observed protocol state (configuration is kept).

        A monitor instance reused across sim runs in one process — the
        model checker resets the world thousands of times — must start
        each run blank: stale counter views or I5 obligations from a
        previous world would otherwise surface as phantom violations.
        """
        self.violations: List[str] = []
        self.events_seen = 0
        #: timestamp of the last record seen (what on_violation reports).
        self.last_seen_t = 0.0
        #: highest stable counter value observed per log name (the
        #: monitor's global knowledge, max over all observers).
        self.stable: Dict[str, int] = {}
        #: highest advance per (observer node, log): with cross-node
        #: piggybacking any node stabilizes any log, and a lagging
        #: observer legitimately advances its *local* view to a value
        #: below the global maximum — only a regression within one
        #: observer's own view is an I3 violation.
        self.advance_views: Dict[Any, int] = {}
        #: highest confirmed value per (replica, log).
        self.confirmed: Dict[Any, int] = {}
        #: txn -> {"kind", "log", "counter"} from coordinator Clog writes.
        self.decisions: Dict[str, Dict[str, Any]] = {}
        #: node -> set of prepared txns recovered but not yet resolved.
        self.unresolved: Dict[str, Set[str]] = {}
        #: txn -> (time of its first prepare ACK, coordinator numeric id
        #: or None) awaiting a decision (insertion-ordered, so the front
        #: is always the oldest).
        self.awaiting_decision: Dict[str, Any] = {}
        #: (txn, node) -> (log, counter) of a piggybacked prepare whose
        #: I2 check is deferred to that node's commit apply.
        self.deferred_prepares: Dict[Any, Any] = {}

    # -- wiring ------------------------------------------------------------
    def attach(self, tracer) -> "InvariantMonitor":
        tracer.subscribe(self.on_record)
        return self

    @property
    def green(self) -> bool:
        return not self.violations

    def _violate(self, message: str) -> None:
        self.violations.append(message)
        if self.on_violation is not None:
            self.on_violation(self.last_seen_t, message)
        if self.strict:
            raise MonitorViolation(message)

    # -- event dispatch ----------------------------------------------------
    def on_record(self, rec: Dict[str, Any]) -> None:
        if rec["type"] != "event":
            return
        self.last_seen_t = rec["t"]
        self.events_seen += 1
        key = (rec["cat"], rec["name"])
        handler = _HANDLERS.get(key)
        if handler is not None:
            handler(self, rec)
        if self.liveness_timeout is not None:
            self._check_liveness(rec["t"])

    # -- invariant checks --------------------------------------------------
    def _on_stable_advance(self, rec: Dict[str, Any]) -> None:
        log = rec["args"]["log"]
        value = rec["args"]["value"]
        view = (rec["node"], log)
        previous = self.advance_views.get(view, 0)
        if value < previous:
            self._violate(
                "I3: stable counter for %s regressed from %d to %d "
                "(observer %s)" % (log, previous, value, rec["node"])
            )
            return
        self.advance_views[view] = value
        if value > self.stable.get(log, 0):
            self.stable[log] = value

    def _on_counter_confirm(self, rec: Dict[str, Any]) -> None:
        replica = rec["args"]["replica"]
        log = rec["args"]["log"]
        value = rec["args"]["value"]
        previous = self.confirmed.get((replica, log), 0)
        if value < previous:
            self._violate(
                "I3: replica %s confirmed counter for %s regressed %d -> %d"
                % (replica, log, previous, value)
            )
            return
        self.confirmed[(replica, log)] = value
        # A CONFIRM is also a stability witness: the source only
        # confirms after a quorum of echoes, so the value is rollback-
        # protected by construction even if the confirming client dies
        # before emitting its own advance event.  Survivors trust
        # replica-confirmed values (gate init) — the monitor must too,
        # or a completer finishing a dead coordinator's transaction
        # trips I1 on a decision entry that IS protected.
        if value > self.stable.get(log, 0):
            self.stable[log] = value

    def _await_decision(self, rec: Dict[str, Any]) -> None:
        txn = rec.get("txn")
        if txn is not None and txn not in self.decisions:
            self.awaiting_decision.setdefault(
                txn, (rec["t"], rec["args"].get("coord"))
            )

    def _on_prepare_ack(self, rec: Dict[str, Any]) -> None:
        self._await_decision(rec)
        if not self.require_stabilization:
            return
        log = rec["args"]["log"]
        counter = rec["args"]["counter"]
        if self.stable.get(log, 0) < counter:
            self._violate(
                "I2: %s ACKed prepare of txn %s before entry %d of %s was "
                "stable (stable=%d)"
                % (rec["node"], rec["txn"], counter, log,
                   self.stable.get(log, 0))
            )

    def _on_prepare_target(self, rec: Dict[str, Any]) -> None:
        """A piggybacked prepare: I2 moves to this node's commit apply."""
        self._await_decision(rec)
        self.deferred_prepares[(rec["txn"], rec["node"])] = (
            rec["args"]["log"], rec["args"]["counter"]
        )

    def _on_decision(self, rec: Dict[str, Any]) -> None:
        self.decisions[rec["txn"]] = {
            "kind": rec["args"]["kind"],
            "log": rec["args"]["log"],
            "counter": rec["args"]["counter"],
        }
        self.awaiting_decision.pop(rec["txn"], None)

    def _on_commit_apply(self, rec: Dict[str, Any]) -> None:
        txn = rec["txn"]
        self._resolve(rec["node"], txn)
        deferred = self.deferred_prepares.pop((txn, rec["node"]), None)
        decision = self.decisions.get(txn)
        if decision is None or decision["kind"] != "commit":
            self._violate(
                "I1: %s applied commit of txn %s without a logged commit "
                "decision" % (rec["node"], txn)
            )
            return
        if self.require_stabilization:
            log, counter = decision["log"], decision["counter"]
            if self.stable.get(log, 0) < counter:
                self._violate(
                    "I1: %s applied commit of txn %s before decision entry "
                    "%d of %s was stable (stable=%d)"
                    % (rec["node"], txn, counter, log, self.stable.get(log, 0))
                )
            if deferred is not None:
                # Deferred I2: the piggybacked prepare target must have
                # become stable (via the coordinator's group-wide round)
                # before this participant applies the commit.
                log, counter = deferred
                if self.stable.get(log, 0) < counter:
                    self._violate(
                        "I2: %s applied commit of txn %s before its "
                        "piggybacked prepare entry %d of %s was stable "
                        "(stable=%d)"
                        % (rec["node"], txn, counter, log,
                           self.stable.get(log, 0))
                    )

    def _on_abort_apply(self, rec: Dict[str, Any]) -> None:
        self._resolve(rec["node"], rec["txn"])
        self.deferred_prepares.pop((rec["txn"], rec["node"]), None)
        # Presumed abort: a participant may abort without the
        # coordinator ever logging a decision entry.
        self.awaiting_decision.pop(rec["txn"], None)

    def _on_recover_done(self, rec: Dict[str, Any]) -> None:
        prepared = rec["args"].get("prepared") or []
        if prepared:
            self.unresolved.setdefault(rec["node"], set()).update(prepared)

    def _on_prepared_resolved(self, rec: Dict[str, Any]) -> None:
        self._resolve(rec["node"], rec["txn"])
        self.awaiting_decision.pop(rec["txn"], None)

    def _on_crash(self, rec: Dict[str, Any]) -> None:
        # I5 promises bounded liveness *absent crashes* — but only the
        # crashed coordinator's obligations are excused: a bystander's
        # crash must not mask a transaction stuck on a healthy
        # coordinator.  Events without attribution (no ``node_id`` on
        # the crash, or no ``coord`` on the prepare) fall back to the
        # conservative legacy behaviour of clearing everything they
        # cannot attribute.
        # The crashed node's enclave (and its counter-client view) is
        # gone: its next advance starts from a fresh gate and may be
        # below its pre-crash view without any rollback having happened.
        node = rec.get("node")
        if node is not None:
            for view in [v for v in self.advance_views if v[0] == node]:
                del self.advance_views[view]
        crashed = rec["args"].get("node_id")
        if crashed is None:
            self.awaiting_decision.clear()
            return
        for txn in [
            txn for txn, (_since, coord) in self.awaiting_decision.items()
            if coord is None or coord == crashed
        ]:
            del self.awaiting_decision[txn]

    # -- I5: bounded liveness ----------------------------------------------
    def _check_liveness(self, now: float) -> None:
        """Flag prepares that outlived the decision horizon.

        ``awaiting_decision`` is insertion-ordered, so scanning stops at
        the first entry inside the horizon — the common case is O(1).
        """
        overdue = []
        for txn, (since, _coord) in self.awaiting_decision.items():
            if now - since <= self.liveness_timeout:
                break
            overdue.append((txn, since))
        for txn, since in overdue:
            # Remove first: a strict monitor raises on the first one,
            # and a lenient one must not re-report it every event.
            del self.awaiting_decision[txn]
        for txn, since in overdue:
            self._violate(
                "I5: txn %s was prepare-ACKed at t=%.6f but reached no "
                "decision by t=%.6f (> %.1fs liveness bound)"
                % (txn, since, now, self.liveness_timeout)
            )

    def _resolve(self, node: Optional[str], txn: Optional[str]) -> None:
        pending = self.unresolved.get(node)
        if pending is not None:
            pending.discard(txn)
            if not pending:
                del self.unresolved[node]

    # -- end-of-run checks -------------------------------------------------
    def check_quiescent(self, now: Optional[float] = None) -> None:
        """I4: assert every recovered node resolved its prepared txns.

        With ``now`` (final sim time), also runs a last I5 sweep so a
        transaction that stalled near the end of the run is still caught
        even though no later event advanced the monitor's clock.
        """
        for node, pending in sorted(self.unresolved.items()):
            self._violate(
                "I4: node %s still has unresolved prepared txns after "
                "recovery: %s" % (node, sorted(pending))
            )
        if now is not None and self.liveness_timeout is not None:
            self._check_liveness(now)

    def summary(self) -> Dict[str, Any]:
        return {
            "events_seen": self.events_seen,
            "decisions": len(self.decisions),
            "stable_logs": len(self.stable),
            "violations": list(self.violations),
            "green": self.green,
        }


_HANDLERS = {
    ("stabilize", "advance"): InvariantMonitor._on_stable_advance,
    ("counter", "confirm"): InvariantMonitor._on_counter_confirm,
    ("twopc", "prepare_ack"): InvariantMonitor._on_prepare_ack,
    ("twopc", "prepare_target"): InvariantMonitor._on_prepare_target,
    ("twopc", "decision"): InvariantMonitor._on_decision,
    ("twopc", "commit_apply"): InvariantMonitor._on_commit_apply,
    ("twopc", "abort_apply"): InvariantMonitor._on_abort_apply,
    ("node", "recover_done"): InvariantMonitor._on_recover_done,
    ("twopc", "prepared_resolved"): InvariantMonitor._on_prepared_resolved,
    ("node", "crash"): InvariantMonitor._on_crash,
}
