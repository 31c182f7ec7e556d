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

__all__ = [
    "YcsbConfig",
    "YcsbWorkload",
    "run_ycsb",
    "bulk_load",
    "shard_key_indices",
]

Gen = Generator[Event, Any, Any]

#: re-runs of an aborted transaction before a client records it failed.
MAX_RETRIES = 3


@dataclass(frozen=True)
class YcsbConfig:
    """One YCSB experiment's parameters (defaults: the paper's §VIII-D)."""

    read_proportion: float = 0.5
    ops_per_txn: int = 10
    value_size: int = 1000
    num_keys: int = 10_000
    key_prefix: bytes = b"usertable/"
    optimistic: bool = False
    #: fraction of transactions whose keys all live on the client's
    #: coordinator shard (0.0 disables).  A partitioned deployment
    #: (ROADMAP: partitioned workloads) keeps ~90 % of transactions
    #: single-shard; the rest fan out through 2PC as usual.
    locality: float = 0.0
    #: run transactions that turn out write-free as coordinator-free
    #: snapshot reads (client-routed).
    read_only: bool = False

    #: the standard YCSB mixes; B/C default to the read-only snapshot
    #: path for their write-free transactions.
    VARIANTS = {
        "a": dict(read_proportion=0.5),
        "b": dict(read_proportion=0.95, read_only=True),
        "c": dict(read_proportion=1.0, read_only=True),
    }

    @classmethod
    def variant(cls, name: str, **overrides) -> "YcsbConfig":
        """The named standard mix ("a"/"b"/"c"), with overrides."""
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
    remainder draws from the whole keyspace and crosses shards.
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
        self._keys = rng.child("keys")
        self._home_keys: Optional[List[int]] = None
        if config.locality > 0.0 and shard_keys is not None:
            if home_shard is None:
                raise ValueError("locality mode needs a home shard")
            home = shard_keys[home_shard]
            self._home_keys = home if home else None
        self._op_counter = 0

    def next_transaction(self) -> List[Tuple[str, bytes, Any]]:
        """A list of ``('read', key, None)`` and ``('update', key,
        value)`` operations; keys are uniform over the keyspace."""
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
                index = self._keys.randrange(self.config.num_keys)
            key = self.config.key(index)
            if self.rng.random() < self.config.read_proportion:
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


def run_ycsb(
    cluster: TreatyCluster,
    config: YcsbConfig,
    metrics,
    num_clients: int = 32,
    duration: float = 2.0,
    warmup: float = 0.2,
) -> None:
    """Run closed-loop YCSB clients until ``duration`` simulated seconds.

    Clients are spread over three client machines (the testbed's layout)
    and round-robin across coordinator nodes.  ``metrics`` receives one
    sample per committed transaction.
    """
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
        while sim.now < end_time:
            ops = workload.next_transaction()
            read_only = config.read_only and YcsbWorkload.is_read_only(ops)
            txn_start = sim.now
            committed = False
            for _attempt in range(MAX_RETRIES + 1):
                txn = session.begin(
                    optimistic=config.optimistic and not read_only,
                    read_only=read_only,
                )
                try:
                    for kind, key, value in ops:
                        if kind == "read":
                            yield from txn.get(key)
                        else:
                            yield from txn.put(key, value)
                    yield from txn.commit()
                    committed = True
                    break
                except TransactionAborted:
                    if _attempt < MAX_RETRIES:
                        retry_counter.inc()
                    continue
            if committed:
                metrics.record(txn_start, sim.now)
            else:
                metrics.record_abort(txn_start)

    for i in range(num_clients):
        sim.spawn(client_loop(i), name="ycsb-client-%d" % i)
    sim.run(until=end_time)
    metrics.finish(sim.now)
