"""The four benchmark workloads and one pass over one of them.

A *pass* builds a cluster, loads it, runs closed-loop YCSB clients for a
warm-up and a measured window of simulated time, and reads the model
metrics (simulated clock) and the host-clock marks around the window.
The simulated durations are fixed by ``--seconds`` alone, so a pass does
the same work for the same seed on every machine and commit; how long
the host takes over it is what ``host_ms_per_txn`` measures.
"""

from __future__ import annotations

import gc
import resource
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.bench.metrics import MetricsCollector
from repro.config import ClusterConfig, TREATY_FULL
from repro.core.cluster import TreatyCluster
from repro.errors import TransactionAborted
from repro.obs import (
    CATEGORIES,
    aggregate_critical_paths,
    transaction_traces,
)
from repro.sim.core import Simulator
from repro.sim.rng import SeededRng
from repro.workloads.ycsb import YcsbConfig, bulk_load, run_ycsb

from hostclock import SpeedClock
from layers import flat_counters

__all__ = [
    "Workload",
    "WORKLOADS",
    "CLIENTS",
    "OBS_ON",
    "PassResult",
    "percentile",
    "tail_percentile",
    "set_up",
    "timed_set_ups",
    "run_pass",
    "readback_errors",
]

#: closed loop: 24 client fibers over 3 client machines (``run_ycsb``).
CLIENTS = 24
#: warm-up before the measured window, as a share of the window
#: (``run_baseline`` uses the same quarter).
WARMUP_SHARE = 0.25
#: simulated seconds after the window in which in-flight transactions
#: finish before the read-back check (a transaction retries at most
#: three 50 ms lock timeouts).
DRAIN_S = 0.25
READBACK_KEYS = 100

_ASYNC_COUNTERS = dict(rollback_backend="counter-async", counter_shards=4)
OBS_ON = dict(tracing=True, flight_recorder=True, timeseries=True,
              incidents=True)
#: host-clock sections per measured window; each is timed next to a
#: calibration loop (``hostclock.SpeedClock``).  128 sections of ~0.1 s
#: gave the steadiest totals (3 % between identical runs; 32 gave 7 %).
WINDOW_SLICES = 128
#: transactions whose critical path a *timed run* analyses, and how many
#: go into one host-clock section.  A fixed number, not "all": one
#: critical path costs a scan of every record, so analysing all N
#: transactions of a run costs N^2 and a seed with 10 % more commits
#: would take 20 % longer to analyse.
ANALYSED_TXNS = 128
ANALYSIS_CHUNK = 2


@dataclass(frozen=True)
class Workload:
    """One workload's parameters; why it exists is in BENCHMARK.json."""

    name: str
    nodes: int
    config: Dict[str, Any]
    ycsb: Dict[str, Any]
    #: measured window, in simulated seconds per second of ``--seconds``;
    #: sized on the reference machine so that warm-up + window (+ analysis)
    #: take about ``--seconds`` of host time.
    window_per_second: float
    #: set-ups per timed run (``setup_s`` is their median).  The driver
    #: takes every run's own ``setup_s``; a single set-up spread by 6-13 %
    #: over twenty runs, the median of these by 3-4 %.
    setups: int = 5
    #: run the trace analysis (critical paths of the first
    #: :data:`ANALYSED_TXNS` commits, time series, incidents) after the
    #: window, inside the timed interval
    analysis: bool = False

    def window_s(self, seconds: float) -> float:
        return seconds * self.window_per_second

    def ycsb_config(self) -> YcsbConfig:
        kwargs = dict(self.ycsb)
        variant = kwargs.pop("variant", None)
        if variant is not None:
            return YcsbConfig.variant(variant, **kwargs)
        return YcsbConfig(**kwargs)


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="ycsb-a-dist",
            nodes=3,
            config=_ASYNC_COUNTERS,
            ycsb=dict(read_proportion=0.5, num_keys=2_000),
            window_per_second=0.025,
        ),
        Workload(
            name="ycsb-c-snapshot",
            nodes=3,
            config=_ASYNC_COUNTERS,
            ycsb=dict(variant="c", num_keys=2_000),
            window_per_second=0.015,
        ),
        Workload(
            name="ycsb-w-single",
            nodes=1,
            config={},
            ycsb=dict(read_proportion=0.2, num_keys=10_000),
            window_per_second=0.0225,
            setups=3,
        ),
        Workload(
            name="ycsb-a-traced",
            nodes=3,
            config=dict(_ASYNC_COUNTERS, **OBS_ON),
            ycsb=dict(read_proportion=0.5, num_keys=2_000),
            window_per_second=0.0125,
            analysis=True,
        ),
    )
}


def percentile(values: List[float], p: float) -> float:
    """The repo's one percentile: ``MetricsCollector.percentile``."""
    collector = MetricsCollector()
    collector.latencies = values
    return collector.percentile(p)


def tail_percentile(samples: int) -> float:
    """Highest of p50/p90/p95/p99/p99.9 with >= 10 samples beyond it."""
    # (percentile, samples beyond it per thousand): integers, so that
    # 100 samples support p90 exactly
    supported = [p for p, beyond in ((50.0, 500), (90.0, 100), (95.0, 50),
                                     (99.0, 10), (99.9, 1))
                 if samples * beyond >= 10 * 1000]
    return supported[-1] if supported else 50.0


@dataclass
class PassResult:
    """What one pass measured; ``model`` is exact for a fixed seed."""

    model: Dict[str, Any]
    latencies: List[float]
    committed: int
    failed: int
    window_sim_s: float
    #: host seconds at reference speed (:class:`SpeedClock`): the measured
    #: window, the analysis behind it, and the critical paths within that
    window_host_s: float
    analysis_host_s: float
    critpath_host_s: float
    #: the same window + analysis as the wall clock read, unscaled
    raw_host_s: float
    #: process CPU seconds / wall seconds over window + analysis
    cpu_share: float
    peak_rss_mb: float
    counters_before: Dict[str, float]
    counters_after: Dict[str, float]
    obs_records: int
    critpath: Dict[str, float] = field(default_factory=dict)

    @property
    def host_ms_per_txn(self) -> float:
        """Host ms (window + analysis) per transaction committed in it."""
        return ((self.window_host_s + self.analysis_host_s) * 1e3
                / max(1, self.committed))

    @property
    def host_s_per_sim_s(self) -> float:
        """The same host interval per simulated second of the window."""
        return (self.window_host_s + self.analysis_host_s) / self.window_sim_s


def set_up(workload: Workload, seed: int, **config: Any) -> TreatyCluster:
    """Build, attest, start and bulk-load one cluster."""
    kwargs = dict(workload.config, seed=seed, **config)
    cluster = TreatyCluster(
        profile=TREATY_FULL, config=ClusterConfig(**kwargs),
        num_nodes=workload.nodes,
    ).start()
    cluster.run(bulk_load(cluster, workload.ycsb_config()), name="load")
    return cluster


def timed_set_ups(workload: Workload, seed: int):
    """``workload.setups`` set-ups; returns (last cluster, seconds each).

    Seconds are at reference speed, like every host time.
    """
    seconds: List[float] = []
    cluster = None
    for _ in range(workload.setups):
        cluster = None  # free the last one before timing the next
        gc.collect()
        clock = SpeedClock()
        cluster = set_up(workload, seed)
        seconds.append(clock.lap())
    return cluster, seconds


def run_pass(
    workload: Workload,
    cluster: TreatyCluster,
    seconds: float,
    at_window_start: Callable[[], None] = lambda: None,
    timed: Callable[[str, Callable[[], Any]], Any] = lambda name, fn: fn(),
    analysed_txns: Optional[int] = ANALYSED_TXNS,
) -> PassResult:
    """Warm-up + measured window (+ analysis) on a loaded cluster.

    ``run_ycsb`` drives the simulator with one ``sim.run(until=end)``.
    For the length of that call the simulator *instance* gets a ``run``
    that stops at the end of the warm-up and then after each of
    :data:`WINDOW_SLICES` equal parts of the window, so the registries
    can be read at the window's start and the host clock calibrated
    between slices: the same ``step()`` calls happen in the same order,
    and no event is added.

    ``at_window_start`` runs at the first stop (the layer pass turns its
    span recorder on there); ``timed(name, fn)`` runs one analysis call
    (the layer pass makes it a span).  ``analysed_txns=None`` analyses
    every committed transaction, as ``run_baseline`` does (the layer
    pass: its metrics have no spread to keep).
    """
    sim = cluster.sim
    ycsb = workload.ycsb_config()
    window = workload.window_s(seconds)
    warmup = window * WARMUP_SHARE
    marks: List[Any] = []

    def run_in_slices(until: Optional[float] = None) -> float:
        window_start = Simulator.run(sim, until=sim.now + warmup)
        marks.append(flat_counters(cluster))
        at_window_start()
        marks.append((time.perf_counter(), time.process_time()))
        clock = SpeedClock()
        marks.append(clock)
        for part in range(1, WINDOW_SLICES):
            Simulator.run(sim, until=window_start + window * part / WINDOW_SLICES)
            clock.lap()
        now = Simulator.run(sim, until=until)
        clock.lap()
        return now

    metrics = MetricsCollector(workload.name)
    sim.run = run_in_slices
    try:
        run_ycsb(cluster, ycsb, metrics, num_clients=CLIENTS,
                 duration=window, warmup=warmup)
    finally:
        del sim.run
    counters_before, (wall_start, cpu_start), clock = marks
    window_host_s = clock.norm_s

    critpath: Dict[str, float] = {}
    critpath_host_s = 0.0
    records = cluster.obs.records()
    if workload.analysis:
        # run_baseline's analysis, the critical paths a few transactions
        # at a time so that the clock can calibrate in between
        traces = transaction_traces(records, outcome="commit")[:analysed_txns]
        totals: List[float] = []
        categories: Dict[str, List[float]] = {name: [] for name in CATEGORIES}
        for first in range(0, len(traces), ANALYSIS_CHUNK):
            chunk = traces[first:first + ANALYSIS_CHUNK]
            part = timed("aggregate_critical_paths",
                         lambda: aggregate_critical_paths(records, chunk))
            critpath_host_s += clock.lap()
            totals.extend(part["totals"])
            for name in CATEGORIES:
                categories[name].extend(part["categories"][name])
        obs = cluster.obs

        def timeline() -> Dict[str, int]:
            obs.timeseries.flush()
            obs.timeseries.summary()
            return obs.incidents.counts()

        timed("timeseries+incidents", timeline)
        clock.lap()
        grand_total = sum(totals) or 1.0
        critpath["critpath.txns"] = len(totals)
        critpath["critpath.p50_ms"] = percentile(totals, 50) * 1e3
        for name in CATEGORIES:
            critpath["critpath.%s_share" % name] = (
                sum(categories[name]) / grand_total)
    wall_end = time.perf_counter()
    cpu_end = time.process_time()

    # a copy: client fibers still finishing during the read-back's drain
    # keep recording into the collector
    latencies = list(metrics.latencies)
    model = {
        "committed": metrics.committed,
        "failed": metrics.aborted,
        "samples": len(latencies),
        "model_tps": metrics.throughput(),
        "model_p50_ms": metrics.percentile(50) * 1e3,
        "model_p90_ms": metrics.percentile(90) * 1e3,
        "model_p95_ms": metrics.percentile(95) * 1e3,
        # only with >= 10 samples beyond it
        "model_p99_ms": metrics.percentile(99) * 1e3
        if tail_percentile(len(latencies)) >= 99 else None,
        "failed_share":
            metrics.aborted / max(1, metrics.committed + metrics.aborted),
        "sim_end_s": sim.now,
    }
    return PassResult(
        model=model,
        latencies=latencies,
        committed=metrics.committed,
        failed=metrics.aborted,
        window_sim_s=metrics.window,
        window_host_s=window_host_s,
        analysis_host_s=clock.norm_s - window_host_s,
        critpath_host_s=critpath_host_s,
        raw_host_s=clock.raw_s,
        cpu_share=(cpu_end - cpu_start) / (wall_end - wall_start),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        counters_before=counters_before,
        counters_after=flat_counters(cluster),
        obs_records=len(records),
        critpath=critpath,
    )


def readback_errors(workload: Workload, cluster: TreatyCluster,
                    seed: int) -> List[str]:
    """Read seeded keys back through a fresh client session.

    Every value must be a well-formed ``YcsbConfig.value(index, op)`` for
    the key's own index.  In-flight client transactions are given
    :data:`DRAIN_S` simulated seconds to finish first.
    """
    ycsb = workload.ycsb_config()
    sim = cluster.sim
    sim.run(until=sim.now + DRAIN_S)
    rng = SeededRng(seed, "perf-readback")
    indices = [int(rng.random() * ycsb.num_keys) % ycsb.num_keys
               for _ in range(READBACK_KEYS)]
    session = cluster.session(cluster.client_machine("perf-readback"))
    errors: List[str] = []

    def read_all():
        for start in range(0, len(indices), ycsb.ops_per_txn):
            batch = indices[start:start + ycsb.ops_per_txn]
            for _attempt in range(4):
                txn = session.begin(read_only=session.snapshot_reads)
                try:
                    values = []
                    for index in batch:
                        values.append((yield from txn.get(ycsb.key(index))))
                    yield from txn.commit()
                    break
                except TransactionAborted:
                    continue
            else:
                errors.append("read-back of keys %r aborted 4 times" % batch)
                continue
            for index, value in zip(batch, values):
                problem = _malformed(ycsb, index, value)
                if problem:
                    errors.append("key %d: %s" % (index, problem))

    cluster.run(read_all(), name="perf-readback")
    return errors


def _malformed(ycsb: YcsbConfig, index: int,
               value: Optional[bytes]) -> Optional[str]:
    if value is None:
        return "missing"
    head, bar, _rest = value.partition(b"|")
    owner, colon, op = head.partition(b":")
    if not (bar and colon and owner == b"%d" % index and op.isdigit()):
        return "value does not start with %d:<op>|" % index
    if value != ycsb.value(index, int(op)):
        return "value is not YcsbConfig.value(%d, %d)" % (index, int(op))
    return None
