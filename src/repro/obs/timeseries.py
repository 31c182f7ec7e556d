"""Windowed time-series over the metrics hub and the trace stream.

End-of-run snapshots explain *how much*; they cannot explain *when* — a
lease-expiry storm during a crash sweep and a steady trickle of
fallbacks produce the same final counters.  The
:class:`TimeSeriesRecorder` adds the time axis: it partitions simulated
time into fixed windows and derives, per window, the rates and gauges a
timeline view needs (tps, aborts/s, frames/s, seal ops/s, counter
rounds/s, lock-wait p50, group-commit occupancy, per-shard counter
pending, decision-ledger slots, OCC conflicts).

Sampling is **subscriber-driven**: the recorder watches the tracer's
record stream and closes windows as records cross boundaries, sampling
the :class:`~repro.obs.registry.MetricsHub` at each close and diffing
against the previous sample.  No fiber, no timer — the recorder adds
nothing to the simulator's queues, so it cannot perturb the
simulation (enabling it leaves every simulated result bit-identical)
and cannot mask a genuine deadlock by keeping the simulator busy.  The
cost is boundary resolution: a window closes at the first record past
its end, so metric deltas landing in the inter-record gap are credited
to the window containing the records that caused them — exactly the
attribution a timeline wants.

Deterministic: windows are keyed to the sim clock and driven by the
(deterministic) record stream, so two runs with one seed export
byte-identical JSONL/CSV.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, IO, List, Optional, Union

from .critpath import percentile
from .registry import merge_snapshots
from .tracer import Record

__all__ = ["TimeSeriesRecorder", "WINDOW_FIELDS"]


#: column order of the CSV export (and the timeline table).
WINDOW_FIELDS = (
    "window",
    "t0_ms",
    "t1_ms",
    "commits",
    "aborts",
    "tps",
    "aborts_per_s",
    "frames_per_s",
    "seal_ops_per_s",
    "counter_rounds_per_s",
    "occ_conflicts",
    "lock_wait_p50_ms",
    "group_commit_occupancy",
    "counter_pending",
    "decision_slots",
)


class TimeSeriesRecorder:
    """Fixed-window rates/gauges derived from hub snapshots + the trace.

    Attach to a tracer (:meth:`attach`); call :meth:`flush` before
    exporting to close the trailing partial window.  ``on_window``
    subscribers (the incident detector) receive each window dict as it
    closes, in order.
    """

    def __init__(self, sim, hub, window_s: float = 0.005):
        if window_s <= 0.0:
            raise ValueError("window must be positive")
        self.sim = sim
        self.hub = hub
        self.window_s = window_s
        self.windows: List[Dict[str, Any]] = []
        self.on_window: List[Callable[[Dict[str, Any]], None]] = []
        self._index = 0
        self._previous = self._sample()
        self._commits = 0
        self._aborts = 0
        self._lock_waits: List[float] = []
        self._flushed_through = 0.0

    def attach(self, tracer) -> "TimeSeriesRecorder":
        """Close windows on the tracer's clock; count the spans
        :meth:`observe_record` counts."""
        tracer.on_clock(self._tick, self._due())
        tracer.subscribe(self.observe_record,
                         [("span", "twopc", "txn"), ("span", "locks", None)])
        return self

    # -- sampling ------------------------------------------------------------
    def _sample(self) -> Dict[str, float]:
        totals = merge_snapshots(self.hub.snapshot())
        group_commit = totals.get(
            "group_commit.batch_size", {"total": 0, "sum": 0.0}
        )
        return {
            "frames": totals.get("net.delivered_frames", 0),
            "seal_ops": totals.get("net.seal_ops", 0),
            "counter_rounds": totals.get("counter.rounds_executed", 0),
            "occ_conflicts": totals.get("occ.conflicts", 0),
            "counter_pending": sum(
                value for name, value in totals.items()
                if name.startswith("counter.pending.")
            ),
            "decision_slots": totals.get("decision.slots", 0),
            "gc_batches": group_commit["total"],
            "gc_txns": group_commit["sum"],
        }

    def observe_record(self, rec: Record) -> None:
        t = rec["t1"] if rec["type"] == "span" else rec["t"]
        self._roll_to(t)
        if rec["type"] != "span":
            return
        if rec["cat"] == "twopc" and rec["name"] == "txn":
            outcome = (rec.get("args") or {}).get("outcome")
            if outcome == "commit":
                self._commits += 1
            elif outcome == "abort":
                self._aborts += 1
        elif rec["cat"] == "locks":
            self._lock_waits.append(rec["t1"] - rec["t0"])

    def _due(self) -> float:
        """When the current window ends."""
        return (self._index + 1) * self.window_s

    def _roll_to(self, t: float) -> None:
        """Close every window that ends at or before ``t``."""
        while t >= (self._index + 1) * self.window_s:
            self._close_window()

    def _tick(self, now: float) -> float:
        self._roll_to(now)
        return self._due()

    def _close_window(self) -> None:
        current = self._sample()
        previous = self._previous
        w = self.window_s
        t0 = self._index * w
        gc_batches = current["gc_batches"] - previous["gc_batches"]
        gc_txns = current["gc_txns"] - previous["gc_txns"]
        window = {
            "window": self._index,
            "t0_ms": round(t0 * 1e3, 6),
            "t1_ms": round((t0 + w) * 1e3, 6),
            "commits": self._commits,
            "aborts": self._aborts,
            "tps": round(self._commits / w, 3),
            "aborts_per_s": round(self._aborts / w, 3),
            "frames_per_s": round(
                (current["frames"] - previous["frames"]) / w, 3
            ),
            "seal_ops_per_s": round(
                (current["seal_ops"] - previous["seal_ops"]) / w, 3
            ),
            "counter_rounds_per_s": round(
                (current["counter_rounds"] - previous["counter_rounds"]) / w, 3
            ),
            "occ_conflicts": int(
                current["occ_conflicts"] - previous["occ_conflicts"]
            ),
            "lock_wait_p50_ms": round(
                percentile(self._lock_waits, 50) * 1e3, 6
            ),
            "group_commit_occupancy": round(
                gc_txns / gc_batches if gc_batches else 0.0, 3
            ),
            "counter_pending": int(current["counter_pending"]),
            "decision_slots": int(current["decision_slots"]),
        }
        self.windows.append(window)
        self._previous = current
        self._commits = 0
        self._aborts = 0
        self._lock_waits = []
        self._index += 1
        for subscriber in self.on_window:
            subscriber(window)

    def flush(self, now: Optional[float] = None) -> None:
        """Close windows through ``now`` (default: the sim clock).

        Call once at end of run: the trailing window closes even though
        no record has crossed its boundary yet.
        """
        if now is None:
            now = self.sim.now
        self._roll_to(now)
        if (self._commits or self._aborts or self._lock_waits
                or now > self._index * self.window_s):
            self._close_window()

    # -- export --------------------------------------------------------------
    def to_jsonl(self) -> str:
        """Windows as byte-stable JSON lines (sorted keys, same seed ⇒
        identical bytes)."""
        lines = [json.dumps(window, sort_keys=True, separators=(",", ":"))
                 for window in self.windows]
        return "\n".join(lines) + ("\n" if lines else "")

    def to_csv(self) -> str:
        lines = [",".join(WINDOW_FIELDS)]
        for window in self.windows:
            lines.append(",".join(str(window[field])
                                  for field in WINDOW_FIELDS))
        return "\n".join(lines) + "\n"

    def write(self, path_or_fp: Union[str, IO], csv: bool = False) -> None:
        text = self.to_csv() if csv else self.to_jsonl()
        if hasattr(path_or_fp, "write"):
            path_or_fp.write(text)
        else:
            with open(path_or_fp, "w") as fp:
                fp.write(text)

    def summary(self) -> Dict[str, Any]:
        """Headline timeline numbers for bench reports."""
        if not self.windows:
            return {"windows": 0, "window_s": self.window_s}
        tps = [window["tps"] for window in self.windows]
        commits = sum(window["commits"] for window in self.windows)
        active = [t for t in tps if t > 0.0]
        stalled = sum(
            1 for window in self.windows
            if window["commits"] == 0 and window["frames_per_s"] > 0.0
        )
        return {
            "windows": len(self.windows),
            "window_s": self.window_s,
            "commits": commits,
            "tps_mean": round(sum(active) / len(active), 3) if active else 0.0,
            "tps_peak": round(max(tps), 3),
            "stalled_windows": stalled,
        }
