"""Cluster assembly: nodes, CAS bootstrap, clients, partitioning.

Mirrors the paper's testbed: N Treaty nodes on a 40 GbE fabric, client
machines on a secondary 1 Gb/s network, a CAS hosted in the data center,
and Intel's IAS reachable (slowly) for the one-time bootstrap.
"""

from __future__ import annotations

import zlib
from typing import Callable, Dict, List, Optional

from ..config import PROTOCOLS, ClusterConfig, EnvProfile, TREATY_FULL
from ..crypto.keys import KeyRing, derive_key
from ..net.simnet import Fabric
from ..obs import Observability
from ..sim.core import Simulator
from ..tee.attestation import IntelAttestationService
from ..tee.runtime import NodeRuntime
from .cas import ConfigurationService, LocalAttestationService
from .client import ClientMachine, ClientSession
from .node import TreatyNode

__all__ = ["TreatyCluster", "hash_partitioner"]


def hash_partitioner(num_nodes: int) -> Callable[[bytes], int]:
    """Deterministic key→shard mapping (CRC-based, stable across runs)."""

    def partition(key: bytes) -> int:
        return zlib.crc32(key) % num_nodes

    return partition


class TreatyCluster:
    """A complete Treaty deployment inside one simulator."""

    def __init__(
        self,
        profile: EnvProfile = TREATY_FULL,
        config: Optional[ClusterConfig] = None,
        num_nodes: int = 3,
        partitioner: Optional[Callable[[bytes], int]] = None,
    ):
        self.config = config or ClusterConfig()
        if self.config.protocol not in PROTOCOLS:
            raise ValueError(
                "unknown protocol %r (expected one of %s)"
                % (self.config.protocol, ", ".join(PROTOCOLS))
            )
        self.num_nodes = num_nodes
        self.profile = profile
        self.sim = Simulator()
        # Observability goes in before any component is built so that
        # everything caching ``tracer_of(sim)`` at construction sees it.
        self.obs = Observability(self.sim, self.config, profile)
        self.fabric = Fabric(self.sim, mtu=self.config.costs.net_mtu)
        self.obs.hub.add("fabric", self.fabric.metrics)
        seed_bytes = self.config.seed.to_bytes(8, "little") * 4
        self._manufacturer_seed = derive_key(seed_bytes, "manufacturer")
        self._root_key = derive_key(seed_bytes, "cluster-root")
        self.ias = IntelAttestationService(
            self.sim, self.config.costs, self._manufacturer_seed
        )
        self.addresses: Dict[int, str] = {
            i: "node%d" % i for i in range(num_nodes)
        }
        self.partitioner = partitioner or hash_partitioner(num_nodes)
        # The CAS runs on a node in the network (its own enclave runtime).
        self._cas_runtime = NodeRuntime(self.sim, profile, self.config,
                                        name="cas")
        self.obs.hub.add("cas", self._cas_runtime.metrics)
        self.cas = ConfigurationService(
            self._cas_runtime,
            self.ias,
            self._root_key,
            {("node%d" % i): address for i, address in self.addresses.items()},
        )
        self.nodes: List[TreatyNode] = [
            TreatyNode(
                self.sim,
                self.fabric,
                "node%d" % i,
                i,
                profile,
                self.config,
                derive_key(self._manufacturer_seed, "platform", str(i)),
                self.addresses,
                self.partitioner,
            )
            for i in range(num_nodes)
        ]
        self.client_machines: List[ClientMachine] = []
        self._started = False

    # -- lifecycle -----------------------------------------------------------
    def _bootstrap(self):
        """CAS attestation chain + node startup (§VI trust establishment)."""
        from ..tee.attestation import PlatformQuotingEnclave

        cas_qe = PlatformQuotingEnclave("cas-host", self._manufacturer_seed)
        self.ias.register_platform(cas_qe)
        yield from self.cas.attest_self(cas_qe)
        for node in self.nodes:
            self.ias.register_platform(node.qe)
            node.las = LocalAttestationService(
                self._cas_runtime, node.name, self._manufacturer_seed
            )
            yield from self.cas.register_las(node.las, node.qe)
        for node in self.nodes:
            yield from node.start(self.cas)

    def start(self) -> "TreatyCluster":
        """Run the full trust-establishment + startup sequence."""
        if self._started:
            return self
        self.sim.run_process(self._bootstrap(), name="cluster-bootstrap")
        self._started = True
        return self

    def run(self, body, name="main"):
        """Drive one generator to completion on the cluster's simulator."""
        return self.sim.run_process(body, name=name)

    # -- clients ---------------------------------------------------------------
    def keyring(self) -> KeyRing:
        """The cluster keyring (held by attested enclaves and clients)."""
        return KeyRing(self._root_key)

    def client_machine(self, name: Optional[str] = None) -> ClientMachine:
        machine = ClientMachine(
            self.sim,
            self.fabric,
            name or ("client%d" % len(self.client_machines)),
            self.profile,
            self.config,
            self.keyring(),
        )
        self.client_machines.append(machine)
        return machine

    def session(
        self, machine: ClientMachine, coordinator: int = 0
    ) -> ClientSession:
        """Open a client session against ``nodes[coordinator]``.

        The session learns every node's front address and the cluster
        partitioner so that (a) read-only transactions route each read
        to the key's owner (coordinator-free snapshot reads), and (b) a
        client whose coordinator dies mid-commit can poll the survivors
        for the outcome.
        """
        return machine.session(
            self.nodes[coordinator].front_address,
            routes=[node.front_address for node in self.nodes],
            partitioner=self.partitioner,
        )

    # -- fault injection -----------------------------------------------------------
    def crash_node(self, index: int) -> None:
        self.nodes[index].crash()

    def recover_node(self, index: int):
        """Generator: run the recovery protocol for one node."""
        return self.nodes[index].recover(self.cas)
