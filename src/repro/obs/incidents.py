"""Structured incident records derived from the trace + timeline streams.

An *incident* is a named, machine-readable "something notable happened"
record: a participant took over a dead coordinator's commit, a coverage
promise outlived its shard lease and fell back to a synchronous counter
round, a window saw an OCC retry storm, a lock wait degenerated into a
convoy, throughput stalled while the fabric stayed busy, or the online
invariant monitor flagged a violation.  Each record carries the sim
time, the node, the transaction trace id (the link to its flight-
recorder exemplar, when one was captured), and kind-specific details —
emitted to a deterministic incident log (same seed ⇒ identical bytes).

Detection is purely stream-driven (tracer subscription + time-series
window callbacks), so it can also run *post hoc* over a saved record
list (:meth:`IncidentLog.from_records`) — how the crash-conformance
sweep attaches an incident log to a failing seed's artifacts without
having had the detector enabled up front.
"""

from __future__ import annotations

import json
from typing import Any, Dict, IO, Iterable, List, Optional, Union

from .tracer import Record

__all__ = ["IncidentLog", "INCIDENT_KINDS"]

#: every incident kind the detectors can emit.
INCIDENT_KINDS = (
    "completer-takeover",
    "lease-expiry-fallback",
    "occ-retry-storm",
    "lock-convoy",
    "stalled-window",
    "monitor-violation",
)

#: a lock wait at least this long (simulated seconds) is a convoy.
LOCK_CONVOY_S = 0.01


class IncidentLog:
    """Stream-driven incident detection + a deterministic incident log.

    Wire it up with :meth:`attach` (tracer subscription), optionally
    register :meth:`observe_window` on a
    :class:`~repro.obs.timeseries.TimeSeriesRecorder` for the windowed
    detectors, and point the invariant monitor's ``on_violation`` hook
    at :meth:`monitor_violation`.  ``recorder`` (a
    :class:`~repro.obs.recorder.FlightRecorder`) upgrades the ``trace``
    link on each incident to ``exemplar`` when a captured exemplar
    exists for that transaction.
    """

    def __init__(self, recorder=None, occ_storm_conflicts: int = 20):
        self.recorder = recorder
        self.occ_storm_conflicts = max(1, occ_storm_conflicts)
        self.incidents: List[Dict[str, Any]] = []
        self._seen_commit_window = False

    def attach(self, tracer) -> "IncidentLog":
        tracer.subscribe(self.observe_record, [
            ("event", "twopc", "completer_takeover"),
            ("event", "counter", "lease"),
            ("span", "locks", None),
        ])
        return self

    # -- emission ------------------------------------------------------------
    def _emit(self, t: float, kind: str, node: Optional[str],
              trace: Optional[str], **details: Any) -> None:
        self.incidents.append({
            "seq": len(self.incidents),
            "t_ms": round(t * 1e3, 6),
            "kind": kind,
            "node": node,
            "trace": trace,
            "details": details,
        })

    def link_exemplars(self) -> None:
        """Resolve each incident's flight-recorder exemplar link.

        Called at export time: exemplars are captured when the root span
        *closes*, which is after most incident-triggering records (a
        takeover or lease expiry happens mid-transaction), so the lookup
        must run once the run is over.
        """
        if self.recorder is None:
            return
        for incident in self.incidents:
            trace = incident.get("trace")
            if not trace or "exemplar" in incident:
                continue
            exemplar = self.recorder.exemplar_for(trace)
            if exemplar is not None:
                incident["exemplar"] = {
                    "latency_ms": round(exemplar["latency_s"] * 1e3, 6),
                    "dominant": exemplar["dominant"],
                }

    # -- trace-stream detectors ----------------------------------------------
    def observe_record(self, rec: Record) -> None:
        if rec["type"] == "event":
            if rec["cat"] == "twopc" and rec["name"] == "completer_takeover":
                args = rec.get("args") or {}
                # The trace id of a distributed txn is its hex gid, so
                # the event's txn field links the trace even when the
                # watchdog fiber carries no inherited context.
                self._emit(
                    rec["t"], "completer-takeover", rec.get("node"),
                    rec.get("trace") or rec.get("txn"), txn=rec.get("txn"),
                    **{key: args[key] for key in sorted(args) if key != "txn"}
                )
            elif (rec["cat"] == "counter" and rec["name"] == "lease"
                    and (rec.get("args") or {}).get("state") == "expired"):
                args = rec.get("args") or {}
                self._emit(
                    rec["t"], "lease-expiry-fallback", rec.get("node"),
                    rec.get("trace"),
                    shard=args.get("shard"), targets=args.get("targets"),
                    epoch=args.get("epoch"),
                )
            return
        if rec["cat"] == "locks" and rec["t1"] - rec["t0"] >= LOCK_CONVOY_S:
            self._emit(
                rec["t1"], "lock-convoy", rec.get("node"), rec.get("trace"),
                txn=rec.get("txn"),
                wait_ms=round((rec["t1"] - rec["t0"]) * 1e3, 6),
            )

    # -- windowed detectors (TimeSeriesRecorder.on_window) --------------------
    def observe_window(self, window: Dict[str, Any]) -> None:
        t = window["t1_ms"] / 1e3
        if window["occ_conflicts"] >= self.occ_storm_conflicts:
            self._emit(
                t, "occ-retry-storm", None, None,
                window=window["window"],
                conflicts=window["occ_conflicts"],
                commits=window["commits"],
            )
        if window["commits"] > 0:
            self._seen_commit_window = True
        elif self._seen_commit_window and window["frames_per_s"] > 0.0:
            self._emit(
                t, "stalled-window", None, None,
                window=window["window"],
                frames_per_s=window["frames_per_s"],
            )

    # -- monitor hook ---------------------------------------------------------
    def monitor_violation(self, t: float, message: str) -> None:
        self._emit(t, "monitor-violation", None, None, message=message)

    # -- post-hoc replay -------------------------------------------------------
    @classmethod
    def from_records(cls, records: Iterable[Record],
                     **thresholds: Any) -> "IncidentLog":
        """Run the trace-stream detectors over a saved record list.

        Windowed detectors need the live metrics hub and do not run
        here; the record-driven kinds (takeover, lease expiry, lock
        convoy) are exactly reproduced.
        """
        log = cls(**thresholds)
        for rec in records:
            log.observe_record(rec)
        return log

    # -- reporting -------------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for incident in self.incidents:
            out[incident["kind"]] = out.get(incident["kind"], 0) + 1
        return {kind: out[kind] for kind in sorted(out)}

    def to_jsonl(self) -> str:
        """The incident log as byte-stable JSON lines."""
        self.link_exemplars()
        lines = [json.dumps(incident, sort_keys=True, separators=(",", ":"))
                 for incident in self.incidents]
        return "\n".join(lines) + ("\n" if lines else "")

    def write(self, path_or_fp: Union[str, IO]) -> None:
        text = self.to_jsonl()
        if hasattr(path_or_fp, "write"):
            path_or_fp.write(text)
        else:
            with open(path_or_fp, "w") as fp:
                fp.write(text)
