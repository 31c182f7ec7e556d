"""Experiment runners shared by the benchmark scripts.

A measured run is written once, as two steps a caller can put work
between and one account of what the run cost:

* :func:`loaded` — start a fresh, deterministic cluster and preload the
  workload's database (partitioner and loader follow from the
  workload's type and ``config.storage_engine``);
* :func:`measure` — closed-loop clients for a warm-up (a quarter of the
  window unless given) plus ``duration`` *simulated* seconds, returning
  the :class:`MetricsCollector` with the 2PC phase breakdown and, on a
  monitored cluster, the invariant monitor's verdict attached;
* :func:`account` — frames, AEAD seals, counter rounds and cluster-NIC
  frames per committed transaction, plus the read-only/OCC counters.

Every experiment family below is a parameter row over those three.
Scale knobs default to values that keep the full benchmark suite's
wall-clock time reasonable; the ``REPRO_BENCH_SCALE=full`` environment
variable switches to paper-scale client counts and durations.
"""

from __future__ import annotations

import os
from typing import List, Optional, Tuple, Union

from ..config import ClusterConfig, EnvProfile, TREATY_FULL
from ..core.cluster import TreatyCluster
from ..obs.registry import merge_snapshots
from ..workloads.tpcc import TpccScale, load_tpcc, run_tpcc, tpcc_partitioner
from ..workloads.ycsb import YcsbConfig, bulk_load, run_ycsb
from .metrics import MetricsCollector

__all__ = [
    "bench_scale",
    "WARMUP_FRACTION",
    "loaded",
    "measure",
    "account",
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
    "netbatch_compare",
    "scaleout_sweep",
]

#: every measured run warms up for this fraction of its window first,
#: unless the caller names a warm-up.
WARMUP_FRACTION = 0.25


def bench_scale() -> str:
    """'quick' (default) or 'full' (paper-scale clients/durations)."""
    return os.environ.get("REPRO_BENCH_SCALE", "quick")


def _scaled(quick, full):
    return full if bench_scale() == "full" else quick


# --- the recipe: loaded -> measure -> account ---------------------------------


def loaded(
    profile: EnvProfile,
    workload: Union[YcsbConfig, TpccScale],
    config: Optional[ClusterConfig] = None,
    num_nodes: int = 3,
) -> TreatyCluster:
    """A started cluster with ``workload``'s initial database preloaded.

    TPC-C (a :class:`TpccScale`) shards by warehouse; YCSB keeps the
    hash partitioner and, under ``storage_engine="null"``, loads the
    storage-less engines directly.
    """
    config = config or ClusterConfig()
    if isinstance(workload, TpccScale):
        partitioner, load = tpcc_partitioner(num_nodes), load_tpcc
    elif config.storage_engine == "null":
        partitioner, load = None, bulk_load_null
    else:
        partitioner, load = None, bulk_load
    cluster = TreatyCluster(
        profile=profile, config=config, num_nodes=num_nodes,
        partitioner=partitioner,
    ).start()
    cluster.run(load(cluster, workload), name="load")
    return cluster


def measure(
    cluster: TreatyCluster,
    workload: Union[YcsbConfig, TpccScale],
    num_clients: int,
    duration: float,
    name: str = "",
    warmup: Optional[float] = None,
    **run_options,
) -> MetricsCollector:
    """Run ``workload`` on a loaded cluster; returns its collector.

    Closed-loop clients run for ``warmup`` (default: a quarter of the
    window) plus ``duration`` simulated seconds; ``run_options`` go to
    :func:`run_ycsb` / :func:`run_tpcc` (TPC-C's ``optimistic=``).
    The collector carries the phase breakdown in ``extra_info["obs"]``
    and, when the cluster runs the I1–I5 invariant monitor, its verdict
    after a final quiescence check in ``extra_info["monitor"]``.
    """
    metrics = MetricsCollector(name)
    if warmup is None:
        warmup = duration * WARMUP_FRACTION
    run = run_tpcc if isinstance(workload, TpccScale) else run_ycsb
    run(
        cluster, workload, metrics, num_clients=num_clients,
        duration=duration, warmup=warmup, **run_options,
    )
    _attach_phase_breakdown(metrics, cluster)
    monitor = cluster.obs.monitor
    if monitor is not None:
        monitor.check_quiescent(now=cluster.sim.now)
        metrics.extra_info["monitor"] = monitor.summary()
    return metrics


def _attach_phase_breakdown(metrics: MetricsCollector, cluster) -> None:
    """Store a cross-node 2PC phase/latency breakdown in ``extra_info``.

    Registry histograms are always live (only the *tracer* is gated on
    ``ClusterConfig.tracing``), so every bench run gets the breakdown
    for free.  Aggregates each phase histogram across nodes to
    ``{count, mean_ms, max_ms}`` plus the enclave counters.
    """
    totals = merge_snapshots(cluster.obs.snapshot())
    phases = {}
    for name in ("twopc.prepare_s", "twopc.decision_s", "twopc.commit_s",
                 "stabilize.wait_s", "locks.wait_s"):
        hist = totals.get(name)
        if hist and hist["total"]:
            phases[name] = {
                "count": hist["total"],
                "mean_ms": hist["mean"] * 1e3,
                "max_ms": hist["max"] * 1e3,
            }
    enclave = {
        name: totals.get(name, 0)
        for name in ("tee.transitions", "tee.page_faults")
    }
    durability = {
        "rounds_executed": totals.get("counter.rounds_executed", 0)
    }
    for name in ("stabilize.batch_size", "group_commit.batch_size"):
        hist = totals.get(name)
        if hist and hist["total"]:
            durability[name] = {
                "count": hist["total"],
                "mean": hist["mean"],
                "max": hist["max"],
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


def account(
    cluster: TreatyCluster,
    metrics: MetricsCollector,
    nic_frames_before: int = 0,
) -> dict:
    """What one measured run cost, per committed transaction.

    The one place the per-transaction costs are computed.  Sums
    ``net.seal_ops`` (actual AEAD passes) and merges the batch-occupancy
    histograms over every hub registry *and* every client machine
    (clients seal too, and their registries are not in the hub); reads
    the fabric's crash-proof cumulative frame counter; differences the
    cluster-NIC frames against ``nic_frames_before``
    (:func:`cluster_nic_tx_frames` taken before :func:`measure`); and
    carries the read-only/OCC counters and the monitor verdict
    :func:`measure` attached.
    """
    snapshot = cluster.obs.snapshot()
    for machine in cluster.client_machines:
        snapshot[machine.name] = machine.runtime.metrics.snapshot()
    totals = merge_snapshots(snapshot)
    committed = max(1, metrics.committed)
    frames = totals["net.delivered_frames"]
    seal_ops = totals.get("net.seal_ops", 0)
    cluster_frames = cluster_nic_tx_frames(cluster) - nic_frames_before
    durability = metrics.extra_info["obs"]["durability"]
    return {
        "committed": metrics.committed,
        "aborted": metrics.aborted,
        "throughput_tps": metrics.throughput(),
        "p50_ms": metrics.percentile(50) * 1e3,
        "p99_ms": metrics.percentile(99) * 1e3,
        "delivered_frames": frames,
        "seal_ops": seal_ops,
        "batch_occupancy": totals.get("net.batch_occupancy"),
        "frames_per_txn": frames / committed,
        "seals_per_txn": seal_ops / committed,
        "counter_rounds_per_txn": durability.get(
            "rounds_per_committed_txn", 0.0
        ),
        "cluster_frames": cluster_frames,
        "cluster_frames_per_txn": cluster_frames / committed,
        "counters": {
            name: totals.get(name, 0)
            for name in (
                "txn.readonly.local",
                "txn.readonly.upgraded",
                "txn.readonly.conflicts",
                "occ.validated",
                "occ.conflicts",
                "occ.retries",
            )
        },
        "monitor": metrics.extra_info.get("monitor", {}),
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
    ycsb = YcsbConfig(
        read_proportion=read_proportion, num_keys=num_keys, optimistic=optimistic
    )
    return measure(
        loaded(profile, ycsb),
        ycsb,
        num_clients or _scaled(48, 96),
        duration or _scaled(0.3, 1.0),
        profile.name,
    )


def ycsb_single_node(
    profile: EnvProfile,
    read_proportion: float,
    num_clients: Optional[int] = None,
    duration: Optional[float] = None,
    optimistic: bool = False,
) -> MetricsCollector:
    """Single-node YCSB (Figures 6 & 7): one node, local transactions."""
    ycsb = YcsbConfig(
        read_proportion=read_proportion, num_keys=10_000, optimistic=optimistic
    )
    return measure(
        loaded(profile, ycsb, num_nodes=1),
        ycsb,
        num_clients or _scaled(24, 32),
        duration or _scaled(0.3, 1.0),
        profile.name,
    )


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
    seed.  Returns the collector plus its :func:`account`, with
    cluster-fabric frame accounting and the read-only/OCC counters.
    """
    config = ClusterConfig() if seed is None else ClusterConfig(seed=seed)
    overrides = {} if snapshot else {"read_only": False}
    ycsb = YcsbConfig.variant(variant, num_keys=2_000, **overrides)
    cluster = loaded(TREATY_FULL, ycsb, config)
    frames_before = cluster_nic_tx_frames(cluster)
    metrics = measure(
        cluster,
        ycsb,
        num_clients or _scaled(24, 48),
        duration or _scaled(0.2, 0.6),
        "ycsb-%s-%s" % (variant, "snapshot" if snapshot else "locking"),
    )
    return metrics, account(cluster, metrics, frames_before)


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
    scale = TpccScale(warehouses=warehouses)
    return measure(
        loaded(profile, scale),
        scale,
        num_clients,
        duration or _scaled(0.5, 1.5),
        profile.name,
    )


def tpcc_single_node(
    profile: EnvProfile,
    num_clients: Optional[int] = None,
    duration: Optional[float] = None,
    optimistic: bool = False,
) -> MetricsCollector:
    """Single-node TPC-C, 10 warehouses (Figures 6 & 7).

    ``optimistic`` (Figure 7): terminals open OCC transactions.
    """
    scale = TpccScale(warehouses=10)
    return measure(
        loaded(profile, scale, num_nodes=1),
        scale,
        num_clients or _scaled(10, 16),
        duration or _scaled(0.5, 1.5),
        profile.name,
        optimistic=optimistic,
    )


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
    config = ClusterConfig(storage_engine="null", cores_per_node=2)
    ycsb = YcsbConfig(read_proportion=0.5, num_keys=10_000)
    return measure(
        loaded(profile, ycsb, config),
        ycsb,
        num_clients or _scaled(80, 160),
        duration or _scaled(0.3, 1.0),
        profile.name,
    )


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
    driven and adds nothing to the simulator's queues).
    """
    config = ClusterConfig(
        monitor=True,
        monitor_liveness_timeout_s=duration,
        flight_recorder=flight_recorder,
        timeseries=flight_recorder,
        incidents=flight_recorder,
    )
    ycsb = YcsbConfig(read_proportion=0.5, num_keys=2_000)
    cluster = loaded(TREATY_FULL, ycsb, config)
    metrics = measure(cluster, ycsb, num_clients, duration, "durability-smoke")
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
) -> List[Tuple[str, MetricsCollector]]:
    """Sweep the group-commit window and report the latency/throughput
    frontier.

    ``None`` in ``windows`` selects the adaptive (trace-informed)
    window; ``0.0`` is the legacy immediate-dispatch behaviour; positive
    values are fixed windows in simulated seconds.
    """
    if windows is None:
        windows = [0.0, 5e-5, 1e-4, 2e-4, 4e-4, None]
    num_clients = num_clients or _scaled(32, 64)
    duration = duration or _scaled(0.2, 0.6)
    ycsb = YcsbConfig(read_proportion=0.5, num_keys=5_000)
    results: List[Tuple[str, MetricsCollector]] = []
    for window in windows:
        label = "adaptive" if window is None else "%.0fus" % (window * 1e6)
        cluster = loaded(
            TREATY_FULL, ycsb, ClusterConfig(group_commit_window=window)
        )
        metrics = measure(cluster, ycsb, num_clients, duration, label)
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


def netbatch_compare(
    num_clients: Optional[int] = None,
    duration: Optional[float] = None,
    read_proportion: float = 0.5,
    locality: float = 0.0,
) -> dict:
    """Same deterministic YCSB run without coalescing, then with.

    ``"off"`` is ``net_tx_batch_max=1`` (one message and one AEAD pass
    per frame), ``"on"`` the default.  Returns each configuration's
    :func:`account`, and the headline ratios the CI smoke gate asserts
    on: delivered frames and AEAD seal operations per committed
    transaction must both shrink with coalescing.
    """
    num_clients = num_clients or _scaled(24, 48)
    duration = duration or _scaled(0.15, 0.5)
    ycsb = YcsbConfig(
        read_proportion=read_proportion, num_keys=2_000, locality=locality
    )
    results: dict = {}
    for label, overrides in (("off", {"net_tx_batch_max": 1}), ("on", {})):
        config = ClusterConfig(
            monitor=True,
            monitor_liveness_timeout_s=duration,
            **overrides,
        )
        cluster = loaded(TREATY_FULL, ycsb, config)
        metrics = measure(
            cluster, ycsb, num_clients, duration, "netbatch-%s" % label
        )
        results[label] = account(cluster, metrics)
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
    and reports each size's :func:`account` — per committed transaction,
    the counter-round and delivered-frame counts are the quantities that
    must grow sublinearly with cluster size for batching to pay off at
    scale.
    """
    num_clients = num_clients or _scaled(12, 32)
    duration = duration or _scaled(0.08, 0.3)
    ycsb = YcsbConfig(read_proportion=0.5, num_keys=1_000, locality=locality)
    results: List[Tuple[int, dict]] = []
    for num_nodes in nodes:
        config = ClusterConfig(
            monitor=True, monitor_liveness_timeout_s=duration
        )
        cluster = loaded(TREATY_FULL, ycsb, config, num_nodes=num_nodes)
        metrics = measure(
            cluster, ycsb, num_clients, duration, "scaleout-%d" % num_nodes
        )
        results.append((num_nodes, account(cluster, metrics)))
    return results


# --- recovery (Table I) --------------------------------------------------------------

#: bytes per WAL entry of the recovery experiment (the paper's ~100 B).
RECOVERY_ENTRY_BYTES = 100


def recovery_experiment(
    profile: EnvProfile,
    num_entries: Optional[int] = None,
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
        payload = b"x" * (RECOVERY_ENTRY_BYTES - 28)
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
