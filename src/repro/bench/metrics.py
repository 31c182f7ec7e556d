"""Throughput / latency collection for experiments."""

from __future__ import annotations

from typing import List, Optional

from ..obs.critpath import percentile

__all__ = ["MetricsCollector"]


class MetricsCollector:
    """Accumulates per-transaction samples over a measurement window."""

    def __init__(self, name: str = ""):
        self.name = name
        self.latencies: List[float] = []
        self.committed = 0
        self.aborted = 0
        self._measure_start: Optional[float] = None
        self._measure_end: Optional[float] = None
        #: free-form auxiliary data (e.g. obs registry snapshots) carried
        #: alongside the core samples and included in ``summary()``.
        self.extra_info: dict = {}

    # -- recording ---------------------------------------------------------
    def measure_from(self, start_time: float) -> None:
        """Ignore samples before ``start_time`` (warm-up)."""
        self._measure_start = start_time

    def record(self, start: float, end: float) -> None:
        if self._measure_start is not None and start < self._measure_start:
            return
        self.committed += 1
        self.latencies.append(end - start)

    def record_abort(self, start: Optional[float] = None) -> None:
        """Count one aborted transaction.

        ``start`` is the transaction's begin timestamp; aborts that began
        during the warm-up window are excluded just like commits, so the
        abort *rate* compares like with like.  Calls without ``start``
        are always counted (legacy behaviour).
        """
        if (
            start is not None
            and self._measure_start is not None
            and start < self._measure_start
        ):
            return
        self.aborted += 1

    def finish(self, end_time: float) -> None:
        self._measure_end = end_time

    # -- summaries -----------------------------------------------------------
    @property
    def window(self) -> float:
        if self._measure_start is None or self._measure_end is None:
            return 0.0
        return self._measure_end - self._measure_start

    def throughput(self) -> float:
        """Committed transactions per second over the window."""
        if self.window <= 0:
            return 0.0
        return self.committed / self.window

    def mean_latency(self) -> float:
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)

    def percentile(self, p: float) -> float:
        """Latency percentile, ``p`` in [0, 100]."""
        return percentile(self.latencies, p)

    def abort_rate(self) -> float:
        total = self.committed + self.aborted
        if total == 0:
            return 0.0
        return self.aborted / total

    def summary(self) -> dict:
        out = {
            "name": self.name,
            "committed": self.committed,
            "aborted": self.aborted,
            "throughput_tps": self.throughput(),
            "mean_latency_ms": self.mean_latency() * 1e3,
            "p50_ms": self.percentile(50) * 1e3,
            "p99_ms": self.percentile(99) * 1e3,
            "abort_rate": self.abort_rate(),
        }
        if self.extra_info:
            out["extra_info"] = self.extra_info
        return out
