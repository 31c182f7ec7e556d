"""Experiment runners shared by the benchmark scripts.

One function per experiment family.  Every runner builds a fresh,
deterministic cluster, runs the workload for a configurable amount of
*simulated* time, and returns a :class:`MetricsCollector` (plus
auxiliary data where a figure needs it).  Scale knobs default to values
that keep the full benchmark suite's wall-clock time reasonable; the
``REPRO_BENCH_SCALE=full`` environment variable switches to paper-scale
client counts and durations.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..config import ClusterConfig, EnvProfile
from ..core.cluster import TreatyCluster
from ..workloads.tpcc import TpccScale, load_tpcc, run_tpcc, tpcc_partitioner
from ..workloads.ycsb import YcsbConfig, bulk_load, run_ycsb
from .metrics import MetricsCollector

__all__ = [
    "bench_scale",
    "cluster_nic_tx_frames",
    "ycsb_distributed",
    "ycsb_variant_run",
    "ycsb_single_node",
    "tpcc_distributed",
    "tpcc_single_node",
    "twopc_only",
    "recovery_experiment",
    "durability_smoke",
    "sweep_group_commit_window",
    "transport_stats",
    "netbatch_compare",
    "scaleout_sweep",
]


def bench_scale() -> str:
    """'quick' (default) or 'full' (paper-scale clients/durations)."""
    return os.environ.get("REPRO_BENCH_SCALE", "quick")


def _scaled(quick, full):
    return full if bench_scale() == "full" else quick


def _attach_phase_breakdown(metrics: MetricsCollector, cluster) -> None:
    """Store a cross-node 2PC phase/latency breakdown in ``extra_info``.

    Registry histograms are always live (only the *tracer* is gated on
    ``ClusterConfig.tracing``), so every bench run gets the breakdown
    for free.  Aggregates each phase histogram across nodes to
    ``{count, mean_ms, max_ms}`` plus the enclave counters.
    """
    snapshot = cluster.obs.snapshot()
    phases = {}
    for name in ("twopc.prepare_s", "twopc.decision_s", "twopc.commit_s",
                 "stabilize.wait_s", "locks.wait_s"):
        count, total, peak = 0, 0.0, 0.0
        for component in snapshot.values():
            hist = component.get(name)
            if not isinstance(hist, dict):
                continue
            count += hist["total"]
            total += hist["sum"]
            if hist["max"] is not None:
                peak = max(peak, hist["max"])
        if count:
            phases[name] = {
                "count": count,
                "mean_ms": total / count * 1e3,
                "max_ms": peak * 1e3,
            }
    enclave = {
        name: sum(
            component.get(name, 0) for component in snapshot.values()
        )
        for name in ("tee.transitions", "tee.page_faults")
    }
    durability = {
        "rounds_executed": sum(
            component.get("counter.rounds_executed", 0)
            for component in snapshot.values()
        )
    }
    for name in ("stabilize.batch_size", "group_commit.batch_size"):
        count, total, peak = 0, 0.0, 0.0
        for component in snapshot.values():
            hist = component.get(name)
            if not isinstance(hist, dict):
                continue
            count += hist["total"]
            total += hist["sum"]
            if hist["max"] is not None:
                peak = max(peak, hist["max"])
        if count:
            durability[name] = {
                "count": count,
                "mean": total / count,
                "max": peak,
            }
    if metrics.committed:
        durability["rounds_per_committed_txn"] = (
            durability["rounds_executed"] / metrics.committed
        )
    metrics.extra_info["obs"] = {
        "phases": phases,
        "enclave": enclave,
        "durability": durability,
    }


# --- YCSB ---------------------------------------------------------------------


def ycsb_distributed(
    profile: EnvProfile,
    read_proportion: float,
    num_clients: Optional[int] = None,
    duration: Optional[float] = None,
    num_keys: int = 10_000,
    optimistic: bool = False,
) -> MetricsCollector:
    """Distributed YCSB on a 3-node cluster (Figures 4 & 5 substrate)."""
    num_clients = num_clients or _scaled(48, 96)
    duration = duration or _scaled(0.3, 1.0)
    cluster = TreatyCluster(profile=profile).start()
    config = YcsbConfig(
        read_proportion=read_proportion, num_keys=num_keys, optimistic=optimistic
    )
    cluster.run(bulk_load(cluster, config), name="load")
    metrics = MetricsCollector(profile.name)
    run_ycsb(
        cluster,
        config,
        metrics,
        num_clients=num_clients,
        duration=duration,
        warmup=duration * 0.25,
    )
    _attach_phase_breakdown(metrics, cluster)
    return metrics


def ycsb_single_node(
    profile: EnvProfile,
    read_proportion: float,
    num_clients: Optional[int] = None,
    duration: Optional[float] = None,
    optimistic: bool = False,
) -> MetricsCollector:
    """Single-node YCSB (Figures 6 & 7): one node, local transactions."""
    num_clients = num_clients or _scaled(24, 32)
    duration = duration or _scaled(0.3, 1.0)
    cluster = TreatyCluster(profile=profile, num_nodes=1).start()
    config = YcsbConfig(
        read_proportion=read_proportion, num_keys=10_000, optimistic=optimistic
    )
    cluster.run(bulk_load(cluster, config), name="load")
    metrics = MetricsCollector(profile.name)
    run_ycsb(
        cluster,
        config,
        metrics,
        num_clients=num_clients,
        duration=duration,
        warmup=duration * 0.25,
    )
    _attach_phase_breakdown(metrics, cluster)
    return metrics


def cluster_nic_tx_frames(cluster: TreatyCluster) -> int:
    """Frames transmitted on the cluster fabric (node NICs only).

    Client traffic rides separate front NICs, so differencing this
    counter over a run isolates inter-node protocol traffic — the
    quantity the snapshot-read fast path drives to zero.
    """
    total = 0
    for node in cluster.nodes:
        nic = cluster.fabric._nics.get(node.name)
        if nic is not None:
            total += nic.tx_frames
    return total


def ycsb_variant_run(
    variant: str,
    snapshot: bool,
    num_clients: Optional[int] = None,
    duration: Optional[float] = None,
    seed: Optional[int] = None,
) -> Tuple[MetricsCollector, dict]:
    """One standard YCSB mix ("a"/"b"/"c"/"e") on TREATY_FULL.

    ``snapshot=False`` runs the mix's write-free transactions as
    ordinary locking 2PC transactions instead of coordinator-free
    snapshot reads, so callers can compare the two on the identical
    seed.  Returns the collector plus a stats dict with
    cluster-fabric frame accounting and the read-only/OCC counters.
    """
    from ..config import TREATY_FULL

    num_clients = num_clients or _scaled(24, 48)
    duration = duration or _scaled(0.2, 0.6)
    config = ClusterConfig() if seed is None else ClusterConfig(seed=seed)
    cluster = TreatyCluster(profile=TREATY_FULL, config=config).start()
    overrides = {} if snapshot else {"read_only": False}
    ycsb = YcsbConfig.variant(variant, num_keys=2_000, **overrides)
    cluster.run(bulk_load(cluster, ycsb), name="load")
    frames_before = cluster_nic_tx_frames(cluster)
    metrics = MetricsCollector(
        "ycsb-%s-%s" % (variant, "snapshot" if snapshot else "locking")
    )
    run_ycsb(
        cluster,
        ycsb,
        metrics,
        num_clients=num_clients,
        duration=duration,
        warmup=duration * 0.25,
    )
    frames = cluster_nic_tx_frames(cluster) - frames_before
    committed = max(1, metrics.committed)
    counters: dict = {}
    for node in cluster.nodes:
        for name in (
            "txn.readonly.local",
            "txn.readonly.upgraded",
            "txn.readonly.conflicts",
            "occ.validated",
            "occ.conflicts",
            "occ.retries",
        ):
            counters[name] = (
                counters.get(name, 0)
                + node.runtime.metrics.counter(name).value
            )
    stats = {
        "committed": metrics.committed,
        "aborted": metrics.aborted,
        "throughput_tps": metrics.throughput(),
        "p50_ms": metrics.percentile(50) * 1e3,
        "p99_ms": metrics.percentile(99) * 1e3,
        "cluster_frames": frames,
        "cluster_frames_per_txn": frames / committed,
        "counters": counters,
    }
    return metrics, stats


# --- TPC-C ---------------------------------------------------------------------


def tpcc_distributed(
    profile: EnvProfile,
    warehouses: int = 10,
    num_clients: Optional[int] = None,
    duration: Optional[float] = None,
) -> MetricsCollector:
    """Distributed TPC-C on 3 nodes with warehouse partitioning (Fig. 3).

    Both warehouse scales run the same client count so the panels are
    comparable under the load-dependent SCONE model (the paper scales
    clients per system to its saturation point instead; see
    EXPERIMENTS.md for the resulting deviation).
    """
    if num_clients is None:
        num_clients = _scaled(10, 20)
    duration = duration or _scaled(0.5, 1.5)
    scale = TpccScale(warehouses=warehouses)
    cluster = TreatyCluster(
        profile=profile, partitioner=tpcc_partitioner(3)
    ).start()
    cluster.run(load_tpcc(cluster, scale), name="load")
    metrics = MetricsCollector(profile.name)
    run_tpcc(
        cluster,
        scale,
        metrics,
        num_clients=num_clients,
        duration=duration,
        warmup=duration * 0.25,
    )
    _attach_phase_breakdown(metrics, cluster)
    return metrics


def tpcc_single_node(
    profile: EnvProfile,
    num_clients: Optional[int] = None,
    duration: Optional[float] = None,
    optimistic: bool = False,
) -> MetricsCollector:
    """Single-node TPC-C, 10 warehouses (Figures 6 & 7)."""
    num_clients = num_clients or _scaled(10, 16)
    duration = duration or _scaled(0.5, 1.5)
    scale = TpccScale(warehouses=10)
    cluster = TreatyCluster(profile=profile, num_nodes=1).start()
    cluster.run(load_tpcc(cluster, scale), name="load")
    metrics = MetricsCollector(profile.name)
    _run_tpcc_mode(
        cluster, scale, metrics, num_clients, duration, optimistic=optimistic
    )
    _attach_phase_breakdown(metrics, cluster)
    return metrics


def _run_tpcc_mode(cluster, scale, metrics, num_clients, duration, optimistic):
    if not optimistic:
        run_tpcc(
            cluster,
            scale,
            metrics,
            num_clients=num_clients,
            duration=duration,
            warmup=duration * 0.25,
        )
        return
    # Optimistic mode (Figure 7): terminals open OCC sessions.
    from ..workloads.tpcc import TpccTerminal
    from ..sim.rng import SeededRng
    from ..errors import TransactionAborted

    machines = [cluster.client_machine() for _ in range(3)]
    sim = cluster.sim
    end_time = sim.now + duration * 1.25
    metrics.measure_from(sim.now + duration * 0.25)

    class OccSession:
        """Session wrapper forcing optimistic transactions."""

        def __init__(self, inner):
            self.inner = inner
            self.machine = inner.machine
            self.client_id = inner.client_id

        def begin(self):
            return self.inner.begin(optimistic=True)

    def terminal_loop(index):
        machine = machines[index % len(machines)]
        home_w = (index % scale.warehouses) + 1
        session = OccSession(cluster.session(machine, coordinator=0))
        rng = SeededRng(cluster.config.seed, "tpcc-occ", str(index))
        terminal = TpccTerminal(session, scale, home_w, rng)
        while sim.now < end_time:
            txn_type = terminal.choose_type()
            started = sim.now
            committed = False
            for _attempt in range(4):
                try:
                    committed = yield from terminal.execute(txn_type)
                    break
                except TransactionAborted:
                    continue
            if committed:
                metrics.record(started, sim.now)
            else:
                metrics.record_abort(started)

    for i in range(num_clients):
        sim.process(terminal_loop(i), name="tpcc-occ-%d" % i)
    sim.run(until=end_time)
    metrics.finish(sim.now)


# --- 2PC-only (Figure 4) ----------------------------------------------------------


def twopc_only(
    profile: EnvProfile,
    num_clients: Optional[int] = None,
    duration: Optional[float] = None,
) -> MetricsCollector:
    """YCSB 50R/50W through the 2PC protocol with no storage engine.

    The paper saturates all four versions with 300 clients; to keep the
    simulation's wall-clock time tractable we reach the same *saturated*
    regime with fewer clients on fewer cores — the throughput ratios at
    saturation are independent of the core count.
    """
    num_clients = num_clients or _scaled(80, 160)
    duration = duration or _scaled(0.3, 1.0)
    config = ClusterConfig(storage_engine="null", cores_per_node=2)
    cluster = TreatyCluster(profile=profile, config=config).start()
    ycsb = YcsbConfig(read_proportion=0.5, num_keys=10_000)
    cluster.run(bulk_load_null(cluster, ycsb), name="load")
    metrics = MetricsCollector(profile.name)
    run_ycsb(
        cluster,
        ycsb,
        metrics,
        num_clients=num_clients,
        duration=duration,
        warmup=duration * 0.25,
    )
    _attach_phase_breakdown(metrics, cluster)
    return metrics


def bulk_load_null(cluster: TreatyCluster, config: YcsbConfig):
    """Preload the storage-less engines directly."""
    per_node: List[List[Tuple[bytes, bytes]]] = [[] for _ in cluster.nodes]
    for index in range(config.num_keys):
        key = config.key(index)
        per_node[cluster.partitioner(key)].append((key, config.value(index, 0)))
    for node, pairs in zip(cluster.nodes, per_node):
        engine = node.engine
        batch = [(key, value, engine.next_seq()) for key, value in pairs]
        yield from engine.apply_writes(batch)


# --- durability pipeline (smoke + window sweep) ------------------------------


def durability_smoke(
    num_clients: int = 24,
    duration: float = 0.2,
    flight_recorder: bool = False,
) -> MetricsCollector:
    """Short deterministic YCSB run on TREATY_FULL under the monitor.

    Exercises the whole durability pipeline — vectored counter rounds,
    stabilization-aware group commit, and the I1–I5 invariant monitor —
    in a few wall-clock seconds.  CI runs this and fails the build on
    any monitor violation; ``extra_info["obs"]["durability"]`` carries
    the rounds-per-committed-transaction amortization number.

    ``flight_recorder`` additionally turns on the always-on observability
    stack (ring-buffered tracer + time-series + incident detection) and
    stores its summaries in ``extra_info["flight"]`` — the CI overhead
    gate runs the smoke this way to prove the recorder does not move the
    workload (the simulation is untouched: recording is subscriber-
    driven and adds nothing to the event heap).
    """
    from ..config import TREATY_FULL

    config = ClusterConfig(
        monitor=True,
        monitor_liveness_timeout_s=duration,
        flight_recorder=flight_recorder,
        timeseries=flight_recorder,
        incidents=flight_recorder,
    )
    cluster = TreatyCluster(profile=TREATY_FULL, config=config).start()
    ycsb = YcsbConfig(read_proportion=0.5, num_keys=2_000)
    cluster.run(bulk_load(cluster, ycsb), name="load")
    metrics = MetricsCollector("durability-smoke")
    run_ycsb(
        cluster,
        ycsb,
        metrics,
        num_clients=num_clients,
        duration=duration,
        warmup=duration * 0.25,
    )
    monitor = cluster.obs.monitor
    monitor.check_quiescent(now=cluster.sim.now)
    _attach_phase_breakdown(metrics, cluster)
    metrics.extra_info["monitor"] = monitor.summary()
    if flight_recorder:
        obs = cluster.obs
        obs.timeseries.flush()
        metrics.extra_info["flight"] = {
            "recorder": obs.recorder.summary(),
            "timeline": obs.timeseries.summary(),
            "incidents": obs.incidents.counts(),
        }
    return metrics


def sweep_group_commit_window(
    windows: Optional[List[Optional[float]]] = None,
    num_clients: Optional[int] = None,
    duration: Optional[float] = None,
    arrivals: str = "closed",
) -> List[Tuple[str, MetricsCollector]]:
    """Sweep the group-commit window and report the latency/throughput
    frontier.

    ``None`` in ``windows`` selects the adaptive (trace-informed)
    window; ``0.0`` is the legacy immediate-dispatch behaviour; positive
    values are fixed windows in simulated seconds.  ``arrivals`` picks
    the YCSB arrival process (``"closed"`` or ``"bursty"`` on-off with
    Pareto idle gaps — the case where the adaptive window's EWMAs move).
    """
    from ..config import TREATY_FULL

    if windows is None:
        windows = [0.0, 5e-5, 1e-4, 2e-4, 4e-4, None]
    num_clients = num_clients or _scaled(32, 64)
    duration = duration or _scaled(0.2, 0.6)
    results: List[Tuple[str, MetricsCollector]] = []
    for window in windows:
        label = "adaptive" if window is None else "%.0fus" % (window * 1e6)
        config = ClusterConfig(group_commit_window=window)
        cluster = TreatyCluster(profile=TREATY_FULL, config=config).start()
        ycsb = YcsbConfig(read_proportion=0.5, num_keys=5_000)
        cluster.run(bulk_load(cluster, ycsb), name="load")
        metrics = MetricsCollector(label)
        run_ycsb(
            cluster,
            ycsb,
            metrics,
            num_clients=num_clients,
            duration=duration,
            warmup=duration * 0.25,
            arrivals=arrivals,
        )
        _attach_phase_breakdown(metrics, cluster)
        windows_seen = sorted(
            node.manager.group.window_delay() for node in cluster.nodes
        )
        metrics.extra_info["adaptive_window"] = {
            "delays_s": windows_seen,
            "gap_ewma_s": [
                node.manager.group._gap_ewma for node in cluster.nodes
            ],
            "stab_ewma_s": [
                node.manager.group._stab_ewma for node in cluster.nodes
            ],
        }
        results.append((label, metrics))
    return results


# --- transport batching (frames + seal-op accounting) ------------------------


def transport_stats(cluster: TreatyCluster) -> dict:
    """Fabric and AEAD accounting for one finished run.

    Sums the per-runtime transport counters (``net.seal_ops`` — actual
    AEAD passes; ``net.messages_sealed`` — messages protected;
    ``net.batches_sent`` / ``net.frames_saved``) across every node and
    client machine, merges the batch-occupancy histograms, and reads the
    fabric's crash-proof cumulative frame/byte counters.
    """
    from ..net.erpc import BATCH_OCCUPANCY_BUCKETS

    runtimes = [
        node.runtime for node in cluster.nodes if node.runtime is not None
    ]
    runtimes.extend(machine.runtime for machine in cluster.client_machines)

    def total(name: str) -> int:
        return sum(rt.metrics.counter(name).value for rt in runtimes)

    occupancy = {
        "edges": list(BATCH_OCCUPANCY_BUCKETS),
        "counts": [0] * (len(BATCH_OCCUPANCY_BUCKETS) + 1),
        "total": 0,
        "sum": 0.0,
        "max": None,
    }
    for rt in runtimes:
        hist = rt.metrics.histogram(
            "net.batch_occupancy", edges=BATCH_OCCUPANCY_BUCKETS
        )
        for index, count in enumerate(hist.counts):
            occupancy["counts"][index] += count
        occupancy["total"] += hist.total
        occupancy["sum"] += hist.sum
        if hist.max is not None:
            occupancy["max"] = max(occupancy["max"] or 0, hist.max)
    occupancy["mean"] = (
        occupancy["sum"] / occupancy["total"] if occupancy["total"] else 0.0
    )
    return {
        "delivered_frames": cluster.fabric.delivered_frames,
        "dropped_frames": cluster.fabric.dropped_frames,
        "tx_bytes": cluster.fabric.tx_bytes_total,
        "seal_ops": total("net.seal_ops"),
        "messages_sealed": total("net.messages_sealed"),
        "batches_sent": total("net.batches_sent"),
        "frames_saved": total("net.frames_saved"),
        "batch_occupancy": occupancy,
    }


def netbatch_compare(
    num_clients: Optional[int] = None,
    duration: Optional[float] = None,
    read_proportion: float = 0.5,
    locality: float = 0.0,
) -> dict:
    """Same deterministic YCSB run without coalescing, then with.

    ``"off"`` is ``net_tx_batch_max=1`` (one message and one AEAD pass
    per frame), ``"on"`` the default.  Returns per-configuration
    throughput plus :func:`transport_stats`, and the headline ratios
    the CI smoke gate asserts on: delivered frames and AEAD seal
    operations per committed transaction must both shrink with
    coalescing.
    """
    from ..config import TREATY_FULL

    num_clients = num_clients or _scaled(24, 48)
    duration = duration or _scaled(0.15, 0.5)
    results: dict = {}
    for label, overrides in (("off", {"net_tx_batch_max": 1}), ("on", {})):
        config = ClusterConfig(
            monitor=True,
            monitor_liveness_timeout_s=duration,
            **overrides,
        )
        cluster = TreatyCluster(profile=TREATY_FULL, config=config).start()
        ycsb = YcsbConfig(
            read_proportion=read_proportion,
            num_keys=2_000,
            locality=locality,
        )
        cluster.run(bulk_load(cluster, ycsb), name="load")
        metrics = MetricsCollector("netbatch-%s" % label)
        run_ycsb(
            cluster,
            ycsb,
            metrics,
            num_clients=num_clients,
            duration=duration,
            warmup=duration * 0.25,
        )
        monitor = cluster.obs.monitor
        monitor.check_quiescent(now=cluster.sim.now)
        stats = transport_stats(cluster)
        stats["committed"] = metrics.committed
        stats["aborted"] = metrics.aborted
        stats["throughput"] = metrics.throughput()
        stats["monitor"] = monitor.summary()
        committed = max(1, metrics.committed)
        stats["frames_per_txn"] = stats["delivered_frames"] / committed
        stats["seals_per_txn"] = stats["seal_ops"] / committed
        results[label] = stats
    off, on = results["off"], results["on"]
    results["reduction"] = {
        "frames_per_txn": 1.0 - on["frames_per_txn"] / off["frames_per_txn"],
        "seals_per_txn": 1.0 - on["seals_per_txn"] / off["seals_per_txn"],
    }
    return results


def scaleout_sweep(
    nodes: Tuple[int, ...] = (3, 5, 7, 9),
    num_clients: Optional[int] = None,
    duration: Optional[float] = None,
    locality: float = 0.9,
) -> List[Tuple[int, dict]]:
    """Cluster-size sweep (ROADMAP: scale-out) under transport batching.

    Runs a partitioned YCSB workload (``locality`` fraction of
    transactions single-shard) on TREATY_FULL clusters of growing size
    and reports, per committed transaction, the counter-round and
    delivered-frame counts — the quantities that must grow sublinearly
    with cluster size for batching to pay off at scale.
    """
    from ..config import TREATY_FULL

    num_clients = num_clients or _scaled(12, 32)
    duration = duration or _scaled(0.08, 0.3)
    results: List[Tuple[int, dict]] = []
    for num_nodes in nodes:
        config = ClusterConfig(
            monitor=True, monitor_liveness_timeout_s=duration
        )
        cluster = TreatyCluster(
            profile=TREATY_FULL, config=config, num_nodes=num_nodes
        ).start()
        ycsb = YcsbConfig(
            read_proportion=0.5, num_keys=1_000, locality=locality
        )
        cluster.run(bulk_load(cluster, ycsb), name="load")
        metrics = MetricsCollector("scaleout-%d" % num_nodes)
        run_ycsb(
            cluster,
            ycsb,
            metrics,
            num_clients=num_clients,
            duration=duration,
            warmup=duration * 0.25,
        )
        monitor = cluster.obs.monitor
        monitor.check_quiescent(now=cluster.sim.now)
        _attach_phase_breakdown(metrics, cluster)
        stats = transport_stats(cluster)
        stats["committed"] = metrics.committed
        stats["aborted"] = metrics.aborted
        stats["throughput"] = metrics.throughput()
        stats["monitor"] = monitor.summary()
        committed = max(1, metrics.committed)
        stats["frames_per_txn"] = stats["delivered_frames"] / committed
        stats["seals_per_txn"] = stats["seal_ops"] / committed
        durability = metrics.extra_info["obs"]["durability"]
        stats["counter_rounds_per_txn"] = (
            durability.get("rounds_per_committed_txn", 0.0)
        )
        results.append((num_nodes, stats))
    return results


# --- recovery (Table I) --------------------------------------------------------------


def recovery_experiment(
    profile: EnvProfile,
    num_entries: Optional[int] = None,
    entry_bytes: int = 100,
) -> Tuple[float, int]:
    """Write ``num_entries`` small WAL records, crash, time the recovery.

    Returns ``(recovery_sim_seconds, log_bytes)``.  The paper uses 800 k
    entries of ~100 B; the default is scaled down (same per-entry work,
    so the *ratios* are preserved) — ``REPRO_BENCH_SCALE=full`` raises it.
    """
    num_entries = num_entries or _scaled(20_000, 100_000)
    cluster = TreatyCluster(profile=profile, num_nodes=3).start()
    node = cluster.nodes[0]
    engine = node.engine

    def fill():
        batch_size = 200
        payload = b"x" * (entry_bytes - 28)
        index = 0
        for _ in range(num_entries // batch_size):
            records = []
            for _ in range(batch_size):
                index += 1
                key = b"rec-%010d" % index
                records.append((key, [(key, payload, engine.next_seq())]))
            yield from engine.log_commits(records)
            # Keep the MemTable bounded without flushing (recovery should
            # replay the log, not the SSTables).

    cluster.run(fill(), name="fill")
    log_bytes = node.disk.size(engine.wal.filename)
    cluster.crash_node(0)
    start = cluster.sim.now
    cluster.run(cluster.recover_node(0))
    return cluster.sim.now - start, log_bytes
