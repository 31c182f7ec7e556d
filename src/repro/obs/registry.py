"""Per-node metrics registry: counters, gauges, fixed-bucket histograms.

Components publish where simulated time and bytes go — 2PC phase
latencies, stabilization round trips, enclave transitions, lock waits,
log/SSTable bytes, RPC frames — into a :class:`MetricsRegistry`.  Two
publication styles keep the hot paths cheap:

* *active* — ``registry.counter("x").inc()`` / ``histogram.observe(v)``
  for quantities that need per-sample resolution (latencies);
* *probes* — ``registry.probe("x", fn)`` registers a callable sampled
  only at :meth:`MetricsRegistry.snapshot` time, so existing attribute
  counters (``enclave.transitions``, ``fabric.delivered_frames``) are
  surfaced with zero added cost on the paths that maintain them.

A :class:`MetricsHub` aggregates one registry per node (plus the fabric
and other cluster-wide components) and snapshots them all for reports;
:func:`merge_snapshots` folds such a snapshot into one deployment-wide
value per metric name.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, Dict, List, Optional, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsHub",
    "merge_snapshots",
    "LATENCY_BUCKETS_S",
    "SIZE_BUCKETS_BYTES",
    "bucket_quantile",
]

#: default latency bucket upper edges, in simulated seconds (1 µs – 10 s).
LATENCY_BUCKETS_S = (
    1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4,
    1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 1e-1, 1.0, 10.0,
)

#: default size bucket upper edges, in bytes (64 B – 16 MiB).
SIZE_BUCKETS_BYTES = (
    64, 256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304, 16777216,
)


def bucket_quantile(
    edges: Sequence[float],
    counts: Sequence[int],
    q: float,
    lo: Optional[float] = None,
    hi: Optional[float] = None,
) -> float:
    """Interpolated quantile over fixed-bucket counts.

    ``counts[i]`` counts observations ``<= edges[i]`` (``counts[-1]`` is
    the overflow bucket).  The estimate interpolates linearly *within*
    the covering bucket — between its lower and upper edge, proportional
    to the rank's position among the bucket's observations — the same
    estimator :func:`repro.obs.critpath.percentile` applies to raw
    samples, so registry and critical-path percentiles agree to within
    one bucket's resolution instead of the old upper-edge bias.

    ``lo``/``hi`` bound the first bucket's lower edge and the overflow
    bucket's upper edge (typically the observed min/max).
    """
    total = sum(counts)
    if total == 0:
        return 0.0
    rank = q * total
    running = 0
    for index, count in enumerate(counts):
        below = running
        running += count
        if running >= rank and count > 0:
            if index < len(edges):
                upper = edges[index]
                lower = edges[index - 1] if index > 0 else (
                    lo if lo is not None else 0.0
                )
            else:
                lower = edges[-1]
                upper = hi if hi is not None else edges[-1]
            lower = min(lower, upper)
            fraction = (rank - below) / count
            return lower + (upper - lower) * fraction
    last = hi if hi is not None else edges[-1]
    return last


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A value that can move in either direction."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta


class Histogram:
    """Fixed-bucket histogram with ``value <= edge`` bucket semantics.

    ``counts[i]`` counts observations with ``value <= edges[i]`` (and
    greater than ``edges[i-1]``); ``counts[-1]`` is the overflow bucket
    for observations beyond the last edge.
    """

    __slots__ = ("edges", "counts", "total", "sum", "min", "max")

    def __init__(self, edges: Sequence[float]):
        if not edges:
            raise ValueError("histogram needs at least one bucket edge")
        ordered = tuple(edges)
        if any(b <= a for a, b in zip(ordered, ordered[1:])):
            raise ValueError("bucket edges must be strictly increasing")
        self.edges = ordered
        self.counts = [0] * (len(ordered) + 1)
        self.total = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.edges, value)] += 1
        self.total += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def quantile(self, q: float) -> float:
        """Interpolated quantile within the covering bucket.

        Previously this returned the covering bucket's *upper edge*,
        biasing every estimate high by up to a full bucket width (a
        2.1 ms p50 reported as 5 ms with the default latency edges).
        Now it interpolates (:func:`bucket_quantile`), clamped to the
        observed min/max.
        """
        if self.total == 0:
            return 0.0
        estimate = bucket_quantile(
            self.edges, self.counts, q, lo=self.min, hi=self.max
        )
        if self.min is not None:
            estimate = max(estimate, self.min)
        if self.max is not None:
            estimate = min(estimate, self.max)
        return estimate

    def as_dict(self) -> Dict[str, Any]:
        return {
            "total": self.total,
            "sum": self.sum,
            "mean": self.mean(),
            "min": self.min,
            "max": self.max,
            "edges": list(self.edges),
            "counts": list(self.counts),
        }


class MetricsRegistry:
    """One component's named metrics (typically one registry per node)."""

    def __init__(self, name: str = ""):
        self.name = name
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._probes: Dict[str, Callable[[], Any]] = {}

    # -- get-or-create ----------------------------------------------------
    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter()
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge()
        return gauge

    def histogram(self, name: str,
                  edges: Sequence[float] = LATENCY_BUCKETS_S) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(edges)
        return histogram

    def probe(self, name: str, fn: Callable[[], Any]) -> None:
        """Register ``fn`` to be sampled at snapshot time."""
        self._probes[name] = fn

    # -- reporting --------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """All metrics as a sorted, JSON-serializable dict."""
        out: Dict[str, Any] = {}
        for name, counter in self._counters.items():
            out[name] = counter.value
        for name, gauge in self._gauges.items():
            out[name] = gauge.value
        for name, fn in self._probes.items():
            out[name] = fn()
        for name, histogram in self._histograms.items():
            out[name] = histogram.as_dict()
        return {key: out[key] for key in sorted(out)}


class MetricsHub:
    """Registries from every component, keyed by component name."""

    def __init__(self):
        self._registries: Dict[str, MetricsRegistry] = {}

    def add(self, name: str, registry: MetricsRegistry) -> MetricsRegistry:
        """Attach (or replace, e.g. after a node recovers) a registry."""
        registry.name = name
        self._registries[name] = registry
        return registry

    def registry(self, name: str) -> MetricsRegistry:
        registry = self._registries.get(name)
        if registry is None:
            registry = self._registries[name] = MetricsRegistry(name)
        return registry

    def names(self) -> List[str]:
        return sorted(self._registries)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        return {name: self._registries[name].snapshot()
                for name in sorted(self._registries)}


def merge_snapshots(registries: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    """One deployment-wide value per metric name.

    ``registries`` maps component names to registry snapshots (a
    :meth:`MetricsHub.snapshot`, possibly with more registries added).
    This is the one definition of how a metric is summed over a
    deployment: scalars add up by name; histograms (same edges in every
    registry) merge bucket-wise into the :meth:`Histogram.as_dict`
    shape.  Components are folded in the mapping's order, so float sums
    are reproducible.
    """
    merged: Dict[str, Any] = {}
    for metrics in registries.values():
        for name, value in metrics.items():
            seen = merged.get(name)
            if not isinstance(value, dict):
                merged[name] = value if seen is None else seen + value
            elif seen is None:
                merged[name] = dict(value, counts=list(value["counts"]))
            else:
                seen["total"] += value["total"]
                seen["sum"] += value["sum"]
                seen["counts"] = [
                    a + b for a, b in zip(seen["counts"], value["counts"])
                ]
                for key, pick in (("min", min), ("max", max)):
                    if value[key] is not None:
                        seen[key] = (
                            value[key] if seen[key] is None
                            else pick(seen[key], value[key])
                        )
                seen["mean"] = (
                    seen["sum"] / seen["total"] if seen["total"] else 0.0
                )
    return merged
