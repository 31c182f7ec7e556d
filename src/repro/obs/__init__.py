"""repro.obs — deterministic tracing, metrics, and runtime verification.

The observability subsystem has five parts:

* :mod:`repro.obs.tracer` — structured spans/events on the sim clock,
  zero-cost when disabled;
* :mod:`repro.obs.critpath` — critical-path analysis over a
  transaction's cross-node span DAG, attributing commit latency to
  network / crypto / counter / lock / group-commit / storage / TEE /
  compute;
* :mod:`repro.obs.registry` — per-node counters/histograms plus
  snapshot-time probes, aggregated by a :class:`MetricsHub`;
* :mod:`repro.obs.export` — JSONL, Chrome ``chrome://tracing`` trace
  events, and plain-text summary tables;
* :mod:`repro.obs.monitor` — an online 2PC invariant monitor that
  verifies protocol safety as the simulation runs.

:class:`Observability` bundles them and installs onto a simulator;
:class:`~repro.core.cluster.TreatyCluster` builds one from its
:class:`~repro.config.ClusterConfig` and profile.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..config import ClusterConfig, EnvProfile
from .critpath import (
    CATEGORIES,
    CriticalPath,
    aggregate_critical_paths,
    critical_path,
    format_breakdown,
    format_phase_table,
    transaction_roots,
    transaction_traces,
)
from .export import (
    chrome_trace,
    format_table,
    load_chrome_trace,
    prometheus_text,
    summary_table,
    to_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from .incidents import INCIDENT_KINDS, IncidentLog
from .monitor import InvariantMonitor, MonitorViolation
from .recorder import FlightRecorder, P2Quantile
from .registry import (
    Counter,
    Histogram,
    LATENCY_BUCKETS_S,
    MetricsHub,
    MetricsRegistry,
    SIZE_BUCKETS_BYTES,
    merge_snapshots,
)
from .timeseries import TimeSeriesRecorder
from .tracer import NULL_TRACER, NullTracer, Span, Tracer, tracer_of

__all__ = [
    "Observability",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "tracer_of",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "MetricsHub",
    "merge_snapshots",
    "LATENCY_BUCKETS_S",
    "SIZE_BUCKETS_BYTES",
    "InvariantMonitor",
    "MonitorViolation",
    "CATEGORIES",
    "CriticalPath",
    "critical_path",
    "transaction_roots",
    "transaction_traces",
    "aggregate_critical_paths",
    "format_breakdown",
    "format_phase_table",
    "chrome_trace",
    "write_chrome_trace",
    "load_chrome_trace",
    "format_table",
    "to_jsonl",
    "write_jsonl",
    "summary_table",
    "prometheus_text",
    "FlightRecorder",
    "P2Quantile",
    "TimeSeriesRecorder",
    "IncidentLog",
    "INCIDENT_KINDS",
    "enable_monitor_by_default",
    "monitor_enabled_by_default",
]

#: span-record cap of the flight recorder's ring buffer (FIFO eviction);
#: 0 = unbounded.  Ignored when full ``tracing`` is on (explicit tracing
#: keeps the complete buffer for export).
TRACE_RING_SPANS = 50_000

#: process-wide default for new clusters; the test suite flips it on in
#: ``tests/conftest.py`` so every existing test runs under the monitor.
_MONITOR_BY_DEFAULT = False


def enable_monitor_by_default(enabled: bool = True) -> None:
    """Make every subsequently built cluster install the invariant monitor."""
    global _MONITOR_BY_DEFAULT
    _MONITOR_BY_DEFAULT = enabled


def monitor_enabled_by_default() -> bool:
    return _MONITOR_BY_DEFAULT


class Observability:
    """One deployment's tracer + metrics hub + invariant monitor.

    Built from the cluster's :class:`~repro.config.ClusterConfig`:
    ``tracing`` retains records for export; ``monitor`` runs the
    invariant checks (``None`` defers to
    :func:`monitor_enabled_by_default`), requiring counter stability
    when the ``profile`` stabilizes.  Any instrument installs a tracer
    on the simulator (the monitor consumes the event stream without
    recording it); with all of them off the simulator keeps
    ``tracer = None`` and instrumented components fall back to the
    free null tracer.
    """

    def __init__(self, sim, config: ClusterConfig, profile: EnvProfile):
        self.sim = sim
        self.hub = MetricsHub()
        self.tracer: Optional[Tracer] = None
        self.monitor: Optional[InvariantMonitor] = None
        self.recorder: Optional[FlightRecorder] = None
        self.timeseries: Optional[TimeSeriesRecorder] = None
        self.incidents: Optional[IncidentLog] = None
        tracing = config.tracing
        monitor = (config.monitor if config.monitor is not None
                   else monitor_enabled_by_default())
        flight_recorder = config.flight_recorder
        if (tracing or monitor or flight_recorder or config.timeseries
                or config.incidents):
            # The flight recorder needs retained records to retro-dump
            # exemplars from; without full tracing it runs on a bounded
            # ring (`TRACE_RING_SPANS`, 0 = unbounded) so it is safe to
            # leave on.  Explicit tracing keeps the full buffer — the
            # export tests byte-compare complete traces.
            ring = (TRACE_RING_SPANS or None) if (
                flight_recorder and not tracing
            ) else None
            self.tracer = Tracer(
                sim, record=tracing or flight_recorder, ring_max=ring,
            )
            sim.tracer = self.tracer
        if monitor:
            self.monitor = InvariantMonitor(
                require_stabilization=profile.stabilization,
                liveness_timeout=config.monitor_liveness_timeout_s,
            ).attach(self.tracer)
        if flight_recorder:
            self.recorder = FlightRecorder(
                self.tracer, warmup=config.tail_warmup
            ).attach()
        if config.timeseries:
            self.timeseries = TimeSeriesRecorder(sim, self.hub).attach(
                self.tracer
            )
        if config.incidents:
            self.incidents = IncidentLog(
                recorder=self.recorder
            ).attach(self.tracer)
            if self.timeseries is not None:
                self.timeseries.on_window.append(
                    self.incidents.observe_window
                )
            if self.monitor is not None:
                self.monitor.on_violation = self.incidents.monitor_violation
        sim.obs = self

    def records(self):
        return self.tracer.records if self.tracer is not None else []

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        return self.hub.snapshot()

    def summary(self, title: str = "metrics") -> str:
        return summary_table(self.snapshot(), title=title)
