"""Treaty's core: secure 2PC, stabilization, attestation, cluster, clients."""

from .cas import ConfigurationService, LocalAttestationService, NodeCredentials
from .client import ClientMachine, ClientSession, ClientTxn, FrontEnd
from .cluster import TreatyCluster, hash_partitioner
from .ids import GlobalTxnId, TxnIdAllocator
from .node import TreatyNode
from .pipeline import DurabilityPipeline
from .recovery import (
    crash_and_recover,
    rollback_attack,
    snapshot_node_disk,
    tamper_attack,
)
from .trusted_counter import CounterClient, CounterReplica
from .twopc import ClogRecord, Coordinator, GlobalTxn, Participant

__all__ = [
    "ClientMachine",
    "ClientSession",
    "ClientTxn",
    "ClogRecord",
    "ConfigurationService",
    "Coordinator",
    "CounterClient",
    "CounterReplica",
    "DurabilityPipeline",
    "FrontEnd",
    "GlobalTxn",
    "GlobalTxnId",
    "LocalAttestationService",
    "NodeCredentials",
    "Participant",
    "TreatyCluster",
    "TreatyNode",
    "TxnIdAllocator",
    "crash_and_recover",
    "hash_partitioner",
    "rollback_attack",
    "snapshot_node_disk",
    "tamper_attack",
]
