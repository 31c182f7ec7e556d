"""Recovery and attack-scenario helpers (§VI).

The recovery protocol itself lives in :meth:`TreatyNode.recover` —
MANIFEST first, then live WALs, then the Clog, with integrity checks on
every entry and freshness checks against the trusted counter service.
This module packages the crash / attack scenarios the paper's security
argument covers, so tests, examples and benchmarks can inject them with
one call each.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..sim.core import Event
from ..storage.disk import DiskSnapshot
from .cluster import TreatyCluster
from .node import TreatyNode

__all__ = [
    "crash_and_recover",
    "rollback_attack",
    "tamper_attack",
    "snapshot_node_disk",
]

Gen = Generator[Event, Any, Any]


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
