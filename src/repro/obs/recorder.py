"""Flight recorder: streaming tail estimation + p99 outlier exemplars.

The tracer's ring buffer (``Tracer(ring_max=...)``) makes tracing safe
to leave on — memory is capped, old records fall off the back — but a
capped ring is useless for post-hoc forensics precisely *because* the
interesting transaction's spans may already be gone by the time anyone
looks.  The :class:`FlightRecorder` closes that gap: it watches the
record stream, keeps a streaming estimate of the commit-latency tail
(:class:`P2Quantile` — the P² algorithm, pure arithmetic, no samples
retained), and the instant a committed transaction exceeds the running
tail threshold it *retro-dumps* that transaction's full span DAG out of
the ring — before eviction can eat it — together with its critical-path
breakdown.  The captured exemplar answers "why was this one slow" with
zero always-on memory cost beyond the ring itself.

Everything here is driven by the tracer's synchronous subscriber
dispatch: no fibers, no timers, no perturbation of the simulation.  Two
runs with the same seed capture byte-identical exemplars.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from .critpath import CATEGORIES, critical_path, trace_records
from .tracer import Record

__all__ = ["P2Quantile", "FlightRecorder"]



class P2Quantile:
    """Streaming quantile estimate via the P² algorithm (Jain & Chlamtac).

    Five markers track the running quantile without retaining samples;
    every update is pure arithmetic on the observation stream, so the
    estimate is a deterministic function of the (deterministic) stream.
    Exact for the first five observations, O(1) per update after.

    O(1) memory is the reason it exists: the flight recorder is always
    on, for a run of any length, and must judge each commit against the
    running tail as it happens.  Reported percentiles are exact, from
    :func:`~repro.obs.critpath.percentile`.
    """

    __slots__ = ("q", "count", "_heights", "_positions", "_desired",
                 "_increments")

    def __init__(self, q: float):
        if not 0.0 < q < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        self.q = q
        self.count = 0
        self._heights: List[float] = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
        self._increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]

    def add(self, value: float) -> None:
        self.count += 1
        if len(self._heights) < 5:
            self._heights.append(value)
            self._heights.sort()
            return
        heights, positions = self._heights, self._positions
        if value < heights[0]:
            heights[0] = value
            cell = 0
        elif value >= heights[4]:
            heights[4] = value
            cell = 3
        else:
            cell = 0
            while value >= heights[cell + 1]:
                cell += 1
        for index in range(cell + 1, 5):
            positions[index] += 1.0
        for index in range(5):
            self._desired[index] += self._increments[index]
        for index in (1, 2, 3):
            drift = self._desired[index] - positions[index]
            ahead = positions[index + 1] - positions[index]
            behind = positions[index - 1] - positions[index]
            if (drift >= 1.0 and ahead > 1.0) or (drift <= -1.0 and behind < -1.0):
                step = 1.0 if drift >= 1.0 else -1.0
                adjusted = self._parabolic(index, step)
                if heights[index - 1] < adjusted < heights[index + 1]:
                    heights[index] = adjusted
                else:
                    heights[index] = self._linear(index, step)
                positions[index] += step

    def _parabolic(self, index: int, step: float) -> float:
        heights, positions = self._heights, self._positions
        return heights[index] + step / (
            positions[index + 1] - positions[index - 1]
        ) * (
            (positions[index] - positions[index - 1] + step)
            * (heights[index + 1] - heights[index])
            / (positions[index + 1] - positions[index])
            + (positions[index + 1] - positions[index] - step)
            * (heights[index] - heights[index - 1])
            / (positions[index] - positions[index - 1])
        )

    def _linear(self, index: int, step: float) -> float:
        heights, positions = self._heights, self._positions
        other = index + int(step)
        return heights[index] + step * (heights[other] - heights[index]) / (
            positions[other] - positions[index]
        )

    def value(self) -> float:
        """The current estimate (0.0 before any observation)."""
        if not self._heights:
            return 0.0
        if len(self._heights) < 5:
            # Exact small-sample quantile: interpolate order statistics.
            rank = self.q * (len(self._heights) - 1)
            low = int(rank)
            high = min(low + 1, len(self._heights) - 1)
            fraction = rank - low
            return (self._heights[low] * (1 - fraction)
                    + self._heights[high] * fraction)
        return self._heights[2]


#: the streaming quantile a commit must exceed to be captured.
TAIL_QUANTILE = 0.99


class FlightRecorder:
    """Captures p99 outlier exemplars from the tracer's (ring) buffer.

    Subscribe it to a tracer (:meth:`attach`).  Every committed
    distributed transaction's root span feeds the streaming p50/p99
    estimators; once ``warmup`` commits have been seen, any commit whose
    latency exceeds the running :data:`TAIL_QUANTILE` estimate is captured:
    its span DAG is copied out of the tracer's record buffer (the ring
    may evict it seconds later — the copy is the flight recorder's whole
    point) and its critical-path breakdown computed.  At most
    ``max_exemplars`` are kept, evicting the *fastest* exemplar first,
    so the retained set is always the worst tail observed.
    """

    def __init__(self, tracer, warmup: int = 32, max_exemplars: int = 16):
        self.tracer = tracer
        self.warmup = max(1, warmup)
        self.max_exemplars = max(1, max_exemplars)
        self.p50 = P2Quantile(0.5)
        self.tail = P2Quantile(TAIL_QUANTILE)
        self.commits_seen = 0
        self.exemplars_dropped = 0
        #: captured exemplars in capture order (deterministic).
        self.exemplars: List[Dict[str, Any]] = []

    def attach(self, tracer=None) -> "FlightRecorder":
        (tracer or self.tracer).subscribe(
            self.observe_record, [("span", "twopc", "txn")])
        return self

    # -- the subscriber ------------------------------------------------------
    def observe_record(self, rec: Record) -> None:
        if (rec.get("type") != "span" or rec.get("cat") != "twopc"
                or rec.get("name") != "txn"):
            return
        if (rec.get("args") or {}).get("outcome") != "commit":
            return
        latency = rec["t1"] - rec["t0"]
        threshold = self.tail.value()
        self.commits_seen += 1
        if (self.commits_seen > self.warmup and latency > threshold
                and rec.get("trace")):
            self._capture(rec, latency, threshold)
        self.p50.add(latency)
        self.tail.add(latency)

    def _capture(self, rec: Record, latency: float, threshold: float) -> None:
        trace = rec["trace"]
        # Retro-dump: copy the transaction's records out of the ring
        # before eviction — its bucket of the log's per-trace index, so
        # same-trace tee events come along and the breakdown's tee
        # carve-out stays intact.
        records = trace_records(self.tracer.records, trace)
        try:
            path = critical_path(records, trace)
        except ValueError:
            return  # root already evicted: nothing to explain
        breakdown = {
            category: path.breakdown[category]
            for category in CATEGORIES
            if path.breakdown[category] > 0.0
        }
        dominant = max(
            CATEGORIES, key=lambda c: (path.breakdown[c], -CATEGORIES.index(c))
        )
        exemplar = {
            "trace": trace,
            "t1": rec["t1"],
            "node": rec.get("node"),
            "latency_s": latency,
            "threshold_s": threshold,
            "p50_s": self.p50.value(),
            "dominant": dominant,
            "breakdown": breakdown,
            "span_count": path.span_count,
            "records": records,
        }
        if len(self.exemplars) >= self.max_exemplars:
            fastest = min(
                range(len(self.exemplars)),
                key=lambda i: (self.exemplars[i]["latency_s"], -i),
            )
            if self.exemplars[fastest]["latency_s"] >= latency:
                self.exemplars_dropped += 1
                return
            del self.exemplars[fastest]
            self.exemplars_dropped += 1
        self.exemplars.append(exemplar)

    # -- reporting -----------------------------------------------------------
    def exemplar_for(self, trace: str) -> Optional[Dict[str, Any]]:
        for exemplar in self.exemplars:
            if exemplar["trace"] == trace:
                return exemplar
        return None

    def category_table(self) -> List[Dict[str, Any]]:
        """Per-category view of the captured tail: which phase dominates.

        One row per category that dominates at least one exemplar, worst
        offender first: count of exemplars it dominates, their mean
        latency, and the category's mean share of those exemplars.
        """
        rows: List[Dict[str, Any]] = []
        for category in CATEGORIES:
            dominated = [e for e in self.exemplars
                         if e["dominant"] == category]
            if not dominated:
                continue
            latencies = [e["latency_s"] for e in dominated]
            shares = [
                e["breakdown"].get(category, 0.0) / e["latency_s"]
                for e in dominated if e["latency_s"] > 0.0
            ]
            rows.append({
                "category": category,
                "exemplars": len(dominated),
                "mean_latency_s": sum(latencies) / len(latencies),
                "mean_share": sum(shares) / len(shares) if shares else 0.0,
            })
        rows.sort(key=lambda row: (-row["mean_latency_s"], row["category"]))
        return rows

    def summary(self) -> Dict[str, Any]:
        return {
            "commits": self.commits_seen,
            "p50_ms": self.p50.value() * 1e3,
            "tail_ms": self.tail.value() * 1e3,
            "tail_quantile": TAIL_QUANTILE,
            "exemplars": len(self.exemplars),
            "exemplars_dropped": self.exemplars_dropped,
            "ring_evicted": getattr(self.tracer, "records_evicted", 0),
        }

    def exemplars_jsonl(self) -> str:
        """Exemplars (without raw records) as byte-stable JSON lines."""
        import json

        lines = []
        for exemplar in self.exemplars:
            slim = {key: value for key, value in exemplar.items()
                    if key != "records"}
            lines.append(json.dumps(slim, sort_keys=True,
                                    separators=(",", ":")))
        return "\n".join(lines) + ("\n" if lines else "")
