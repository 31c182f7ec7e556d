"""Recovery and attack-scenario helpers (§VI).

The recovery protocol itself lives in :meth:`TreatyNode.recover` —
MANIFEST first, then live WALs, then the Clog, with integrity checks on
every entry and freshness checks against the trusted counter service.
This module packages the crash / attack scenarios the paper's security
argument covers, so tests, examples and benchmarks can inject them with
one call each.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Sequence

from ..net.message import MsgType, TxMessage
from ..sim.core import Event
from ..storage.disk import DiskSnapshot
from .cluster import TreatyCluster
from .ids import GlobalTxnId
from .node import TreatyNode
from .trusted_counter import CounterClient
from .twopc import RESOLUTION_RETRY_INTERVAL, DecisionRecord

__all__ = [
    "StableCounterResolver",
    "DecisionResolver",
    "crash_and_recover",
    "rollback_attack",
    "tamper_attack",
    "snapshot_node_disk",
]

Gen = Generator[Event, Any, Any]


class StableCounterResolver:
    """Caching, vector-capable stable-counter reader for recovery.

    Behaves as the resolver callable that
    :meth:`~repro.storage.engine.LSMEngine.recover` expects
    (``(log_name) -> stable value``), but additionally exposes
    :meth:`prefetch`, which the engine uses to resolve every live WAL
    and Clog in *one* vectored quorum read per counter group instead of
    one query round per log.  With sharded counter groups
    (``counter_shards > 1``) the missing logs are routed by the same
    deterministic log→shard hash the write path uses and the per-shard
    reads run concurrently.  Values are cached, so the per-log freshness
    checks (and the node's later Clog check) reuse the answers.
    """

    def __init__(self, counter_client: CounterClient):
        self.counter_client = counter_client
        self._cache: Dict[str, int] = {}
        #: vectored quorum reads actually issued (for tests/metrics).
        self.reads = 0

    def prefetch(self, log_names: Sequence[str]) -> Gen:
        """Resolve many logs with one quorum-read round per shard."""
        client = self.counter_client
        missing = sorted(
            set(name for name in log_names if name not in self._cache)
        )
        if not missing:
            return
        by_shard: Dict[int, List[str]] = {}
        for name in missing:
            by_shard.setdefault(client.shard_of(name), []).append(name)
        if len(by_shard) == 1:
            self.reads += 1
            values = yield from client.read_stable_many(missing)
            self._cache.update(values)
            return
        # Independent counter groups answer concurrently; a failed
        # shard read (no quorum) fails the whole prefetch, exactly as
        # the unsharded single read would.
        sim = client.runtime.sim
        procs = []
        for shard in sorted(by_shard):
            self.reads += 1
            procs.append(
                sim.process(
                    self._read_shard(by_shard[shard]),
                    name="recovery-read/%d" % shard,
                )
            )
        yield sim.all_of(procs)

    def _read_shard(self, names: List[str]) -> Gen:
        values = yield from self.counter_client.read_stable_many(names)
        self._cache.update(values)

    def __call__(self, log_name: str) -> Gen:
        if log_name not in self._cache:
            yield from self.prefetch([log_name])
        return self._cache[log_name]


class DecisionResolver:
    """Warm a recovering node's decision ledger in one vectored burst.

    Recovery re-adopts every prepared transaction half and finishes each
    in a fiber of its own; under ``protocol="optimized"`` the fiber of a
    half whose coordinator stays unreachable falls back to the completer
    state machine, which opens with a decision-query round of its own,
    and a recovering coordinator re-protecting its own commit reads its
    own slot first.  This resolver front-loads that work: one
    DECISION_QUERY per (peer, in-doubt transaction), all enqueued in the
    same instant so the transport's doorbell window coalesces them into
    one sealed frame per peer — the decision-ledger analogue of
    :class:`StableCounterResolver`'s vectored quorum read.  Every
    answered record lands in the node's write-once ledger, so those
    fibers start from warmed slots.
    """

    def __init__(self, participant):
        self.participant = participant
        #: decision records actually learned (for tests/metrics).
        self.warmed = 0

    def prefetch(self, txn_ids: Sequence[bytes]) -> Gen:
        part = self.participant
        asked = [
            (txn_id, GlobalTxnId.decode(txn_id), node)
            for txn_id in txn_ids for node in part.peers
        ]
        # Down peers fail fast; bound the round so one slow straggler
        # cannot stall the whole recovery pass.
        replies = yield from part.rpc.gather(
            [
                (
                    part.addresses[node],
                    TxMessage(
                        MsgType.DECISION_QUERY, gid.node_id,
                        gid.local_seq, part.op_id(),
                    ),
                )
                for _txn_id, gid, node in asked
            ],
            timeout=RESOLUTION_RETRY_INTERVAL,
        )
        for (txn_id, _gid, _node), reply in zip(asked, replies):
            if reply is None or not reply.body:
                continue
            record = DecisionRecord.decode(reply.body)
            if part.ledger.record(txn_id, record) is record:
                self.warmed += 1


def crash_and_recover(cluster: TreatyCluster, index: int) -> Gen:
    """Fail-stop the node, then run the recovery protocol."""
    cluster.crash_node(index)
    yield from cluster.recover_node(index)


def snapshot_node_disk(cluster: TreatyCluster, index: int) -> DiskSnapshot:
    """Adversary checkpoint of a node's persistent state."""
    return cluster.nodes[index].disk.snapshot()


def rollback_attack(
    cluster: TreatyCluster, index: int, snapshot: DiskSnapshot
) -> Gen:
    """Shut the node down, restore an older disk, restart it.

    Under profiles with stabilization, recovery must raise
    :class:`~repro.errors.FreshnessError` — the trusted counter service
    remembers newer stable values than the rolled-back logs contain.
    """
    cluster.crash_node(index)
    cluster.nodes[index].disk.restore(snapshot)
    yield from cluster.recover_node(index)


def tamper_attack(
    cluster: TreatyCluster,
    index: int,
    filename: str,
    offset: int = 10,
    xor_mask: int = 0x01,
) -> Gen:
    """Crash the node, flip persistent bytes, restart it.

    Under encrypted profiles recovery must raise
    :class:`~repro.errors.IntegrityError`.
    """
    cluster.crash_node(index)
    cluster.nodes[index].disk.tamper(filename, offset, xor_mask)
    yield from cluster.recover_node(index)


def find_log_file(node: TreatyNode, kind: str) -> Optional[str]:
    """Locate a node's current log file by kind ('wal'/'manifest'/'clog')."""
    if kind == "manifest":
        return node.name + "/MANIFEST"
    prefix = "%s/%s-" % (node.name, kind)
    files = node.disk.list_files(prefix)
    return files[-1] if files else None
