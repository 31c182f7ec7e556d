"""YCSB workload generator and driver (§VIII-A).

The paper's YCSB configuration: 10 operations per transaction, 1000 B
values, 10 k unique keys, uniform distribution — with read fractions of
20 % (write-heavy), 50 % (the 2PC microbenchmark) and 80 % (read-heavy).

The driver runs N concurrent closed-loop clients against the cluster's
client API and reports committed-transaction throughput and latency
percentiles through a :class:`~repro.bench.metrics.MetricsCollector`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, List, Optional, Tuple

from ..core.cluster import TreatyCluster
from ..errors import TransactionAborted
from ..sim.core import Event
from ..sim.rng import SeededRng
from .zipf import (
    ScrambledZipfianGenerator,
    UniformGenerator,
    ZipfianGenerator,
)

__all__ = [
    "YcsbConfig",
    "YcsbWorkload",
    "run_ycsb",
    "bulk_load",
    "shard_key_indices",
]

Gen = Generator[Event, Any, Any]


@dataclass(frozen=True)
class YcsbConfig:
    """One YCSB experiment's parameters (defaults: the paper's §VIII-D)."""

    read_proportion: float = 0.5
    ops_per_txn: int = 10
    value_size: int = 1000
    num_keys: int = 10_000
    distribution: str = "uniform"  # or "zipfian"
    key_prefix: bytes = b"usertable/"
    optimistic: bool = False
    #: fraction of transactions whose keys all live on the client's
    #: coordinator shard (0.0 disables).  A partitioned deployment
    #: (ROADMAP: partitioned workloads) keeps ~90 % of transactions
    #: single-shard; the rest fan out through 2PC as usual.
    locality: float = 0.0
    #: probability that an operation is a range scan (YCSB-E); drawn
    #: before the read/update split.
    scan_proportion: float = 0.0
    #: scan lengths are zipf-bounded in ``[1, max_scan_length]`` (short
    #: scans dominate, the standard YCSB-E shape).
    max_scan_length: int = 100
    #: run transactions that turn out write-free as coordinator-free
    #: snapshot reads (client-routed).
    read_only: bool = False

    #: the standard YCSB mixes.  E replaces inserts with updates (the
    #: simulated keyspace is fixed); B/C/E default to the read-only
    #: snapshot path for their write-free transactions.
    VARIANTS = {
        "a": dict(read_proportion=0.5),
        "b": dict(read_proportion=0.95, read_only=True),
        "c": dict(read_proportion=1.0, read_only=True),
        "e": dict(
            read_proportion=0.0, scan_proportion=0.95, read_only=True
        ),
    }

    @classmethod
    def variant(cls, name: str, **overrides) -> "YcsbConfig":
        """The named standard mix ("a"/"b"/"c"/"e"), with overrides."""
        params = dict(cls.VARIANTS[name.lower()])
        params.update(overrides)
        return cls(**params)

    def key(self, index: int) -> bytes:
        return self.key_prefix + b"user%08d" % index

    def value(self, index: int, op: int) -> bytes:
        seed = b"%d:%d|" % (index, op)
        reps = self.value_size // len(seed) + 1
        return (seed * reps)[: self.value_size]


def shard_key_indices(
    config: YcsbConfig, partitioner, num_shards: int
) -> List[List[int]]:
    """Key indices per shard under ``partitioner`` (for locality mode)."""
    shards: List[List[int]] = [[] for _ in range(num_shards)]
    for index in range(config.num_keys):
        shards[partitioner(config.key(index))].append(index)
    return shards


class YcsbWorkload:
    """Generates per-transaction operation lists.

    With ``config.locality > 0`` and ``shard_keys``/``home_shard`` set,
    that fraction of transactions draws every key uniformly from the
    home shard's slice of the keyspace (single-shard commit path); the
    remainder uses the global key generator and crosses shards.
    """

    def __init__(
        self,
        config: YcsbConfig,
        rng: SeededRng,
        shard_keys: Optional[List[List[int]]] = None,
        home_shard: Optional[int] = None,
    ):
        self.config = config
        self.rng = rng
        if config.distribution == "uniform":
            self._keygen = UniformGenerator(config.num_keys, rng.child("keys"))
        elif config.distribution == "zipfian":
            self._keygen = ScrambledZipfianGenerator(
                config.num_keys, rng.child("keys")
            )
        else:
            raise ValueError("unknown distribution %r" % config.distribution)
        self._scan_len: Optional[ZipfianGenerator] = None
        if config.scan_proportion > 0.0:
            # Plain (unscrambled) zipfian so rank 0 — the hottest draw —
            # maps to the shortest scan: short ranges dominate.
            self._scan_len = ZipfianGenerator(
                config.max_scan_length, rng.child("scan-len")
            )
        self._home_keys: Optional[List[int]] = None
        if config.locality > 0.0 and shard_keys is not None:
            if home_shard is None:
                raise ValueError("locality mode needs a home shard")
            home = shard_keys[home_shard]
            self._home_keys = home if home else None
        self._op_counter = 0

    def next_transaction(self) -> List[Tuple[str, bytes, Any]]:
        """A list of (kind, key, argument) operations.

        Kinds: ``('read', key, None)``, ``('update', key, value)``,
        ``('scan', start_key, length)`` — the scan length is the third
        slot (zipf-bounded; short ranges dominate).
        """
        local = (
            self._home_keys is not None
            and self.rng.random() < self.config.locality
        )
        ops = []
        for _ in range(self.config.ops_per_txn):
            if local:
                home = self._home_keys
                index = home[int(self.rng.random() * len(home)) % len(home)]
            else:
                index = self._keygen.next()
            key = self.config.key(index)
            if (
                self._scan_len is not None
                and self.rng.random() < self.config.scan_proportion
            ):
                ops.append(("scan", key, 1 + self._scan_len.next()))
            elif self.rng.random() < self.config.read_proportion:
                ops.append(("read", key, None))
            else:
                self._op_counter += 1
                ops.append(
                    ("update", key, self.config.value(index, self._op_counter))
                )
        return ops

    @staticmethod
    def is_read_only(ops: List[Tuple[str, bytes, Any]]) -> bool:
        """Whether a transaction's operation list is write-free."""
        return all(kind != "update" for kind, _, _ in ops)


def bulk_load(cluster: TreatyCluster, config: YcsbConfig) -> Gen:
    """Preload the keyspace directly through each node's engine.

    Load-phase work is not part of any measured figure, so it bypasses
    the client network (like preloading the store before an experiment).
    """
    per_node: List[List[Tuple[bytes, Optional[bytes], int]]] = [
        [] for _ in cluster.nodes
    ]
    for index in range(config.num_keys):
        key = config.key(index)
        owner = cluster.partitioner(key)
        per_node[owner].append((key, config.value(index, 0)))
    for node, pairs in zip(cluster.nodes, per_node):
        engine = node.engine
        batch = [(key, value, engine.next_seq()) for key, value in pairs]
        # Load in chunks so MemTable flushes interleave realistically.
        chunk = 500
        for start in range(0, len(batch), chunk):
            part = batch[start : start + chunk]
            yield from engine.log_commit(b"load", part)
            yield from engine.apply_writes(part)
        # Load-phase writes bypass the group committer, so no freshness
        # mark covers their seqs; advance the snapshot-read floor like
        # bootstrap does, or read-only commits would wait forever on a
        # write-free workload.
        node.pipeline.witness.advance_floor(engine.current_seq())


#: bursty arrivals: mean transactions per on-burst (geometric).
_BURST_MEAN_TXNS = 8
#: bursty arrivals: Pareto idle-gap scale (seconds) and shape.  Shape
#: 1.5 gives the heavy tail that makes arrival-gap EWMAs actually move.
_BURST_IDLE_SCALE = 2.0e-3
_BURST_IDLE_SHAPE = 1.5
#: cap on a single idle gap so a run is not one long silence.
_BURST_IDLE_CAP = 5.0e-2


def _pareto_gap(rng: SeededRng) -> float:
    """One Pareto(shape, scale) idle gap via inverse-transform sampling."""
    u = rng.random()
    gap = _BURST_IDLE_SCALE * (1.0 - u) ** (-1.0 / _BURST_IDLE_SHAPE)
    return min(gap, _BURST_IDLE_CAP)


def run_ycsb(
    cluster: TreatyCluster,
    config: YcsbConfig,
    metrics,
    num_clients: int = 32,
    duration: float = 2.0,
    warmup: float = 0.2,
    max_retries: int = 3,
    arrivals: str = "closed",
) -> None:
    """Run closed-loop YCSB clients until ``duration`` simulated seconds.

    Clients are spread over three client machines (the testbed's layout)
    and round-robin across coordinator nodes.  ``metrics`` receives one
    sample per committed transaction.

    ``arrivals`` selects the arrival process: ``"closed"`` is the
    classic closed loop (next transaction immediately after the last);
    ``"bursty"`` is an on-off process — geometric bursts of back-to-back
    transactions separated by Pareto-distributed idle gaps, the
    heavy-tailed shape under which an adaptive group-commit window has
    something to adapt to.
    """
    if arrivals not in ("closed", "bursty"):
        raise ValueError("unknown arrival process %r" % arrivals)
    machines = [cluster.client_machine() for _ in range(3)]
    sim = cluster.sim
    start_time = sim.now
    end_time = start_time + warmup + duration
    metrics.measure_from(start_time + warmup)
    shard_keys = (
        shard_key_indices(config, cluster.partitioner, cluster.num_nodes)
        if config.locality > 0.0
        else None
    )

    def client_loop(client_index: int):
        machine = machines[client_index % len(machines)]
        coordinator = client_index % cluster.num_nodes
        session = cluster.session(machine, coordinator=coordinator)
        retry_counter = cluster.nodes[coordinator].runtime.metrics.counter(
            "occ.retries"
        )
        rng = SeededRng(cluster.config.seed, "ycsb-client", str(client_index))
        workload = YcsbWorkload(
            config, rng, shard_keys=shard_keys, home_shard=coordinator
        )
        burst_rng = rng.child("arrivals")
        burst_left = 1 + int(burst_rng.random() * 2 * _BURST_MEAN_TXNS)
        while sim.now < end_time:
            if arrivals == "bursty":
                if burst_left <= 0:
                    yield sim.sleep(_pareto_gap(burst_rng))
                    burst_left = 1 + int(
                        burst_rng.random() * 2 * _BURST_MEAN_TXNS
                    )
                    continue
                burst_left -= 1
            ops = workload.next_transaction()
            read_only = config.read_only and YcsbWorkload.is_read_only(ops)
            txn_start = sim.now
            committed = False
            for _attempt in range(max_retries + 1):
                txn = session.begin(
                    optimistic=config.optimistic and not read_only,
                    read_only=read_only,
                )
                try:
                    for kind, key, value in ops:
                        if kind == "read":
                            yield from txn.get(key)
                        elif kind == "scan":
                            yield from txn.scan(key, None, limit=value)
                        else:
                            yield from txn.put(key, value)
                    yield from txn.commit()
                    committed = True
                    break
                except TransactionAborted:
                    if _attempt < max_retries:
                        retry_counter.inc()
                    continue
            if committed:
                metrics.record(txn_start, sim.now)
            else:
                metrics.record_abort(txn_start)

    workers = [
        sim.spawn(client_loop(i), name="ycsb-client-%d" % i)
        for i in range(num_clients)
    ]
    sim.run(until=end_time)
    metrics.finish(sim.now)
