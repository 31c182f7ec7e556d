"""Configuration and Attestation Service (CAS) + local attestation (§VI).

"Upon startup TREATY bootstraps a CAS on a node in the network to
provide scalable remote attestation and authentication.  For attestation,
the service provider verifies the CAS over Intel Attestation Service
(IAS).  On success the service provider deploys an instance of TREATY's
local attestation service (LAS) on all nodes, verified by the CAS over
IAS.  The LAS replaces the Quoting Enclave, collecting and signing quotes
for all TREATY instances running on the node.  After the CAS verified a
new instance, it supplies the instance with the necessary configuration,
e.g., network key, nodes' IPs, etc."

The expensive IAS round trip therefore happens once per *node* (for its
LAS), not once per enclave start — and never during recovery, which is
the latency win the paper is after.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List

from ..crypto.keys import KeyRing
from ..crypto.signature import VerifyKey, generate_keypair
from ..errors import AttestationError
from ..sim.core import Event
from ..tee.attestation import IntelAttestationService, PlatformQuotingEnclave
from ..tee.runtime import NodeRuntime
from ..tee.sgx import Quote, Report, measure

__all__ = ["LocalAttestationService", "ConfigurationService", "NodeCredentials"]

Gen = Generator[Event, Any, Any]

TREATY_MEASUREMENT = measure("treaty-kv-v1")
LAS_MEASUREMENT = measure("treaty-las-v1")
CAS_MEASUREMENT = measure("treaty-cas-v1")


@dataclass
class NodeCredentials:
    """What an attested Treaty instance receives from the CAS."""

    root_key: bytes
    node_addresses: Dict[str, str]  # node name -> cluster NIC address
    counter_peers: List[str]

    def keyring(self) -> KeyRing:
        return KeyRing(self.root_key)


class LocalAttestationService:
    """Per-node LAS: signs quotes for local Treaty enclaves."""

    def __init__(self, runtime: NodeRuntime, node_name: str, seed: bytes):
        self.runtime = runtime
        self.node_name = node_name
        self._signing, self._verify = generate_keypair(seed, "las/" + node_name)

    @property
    def verify_key(self) -> VerifyKey:
        return self._verify

    def quote_local_enclave(self, measurement: bytes, report_data: bytes) -> Gen:
        """Produce a quote for an enclave running on this node.

        Local attestation is cheap — one signature, no network (this is
        the whole point of replacing the QE/IAS path).
        """
        yield from self.runtime.compute(self.runtime.costs.signature_op)
        return Quote.create(Report(measurement, report_data), self._signing)


class ConfigurationService:
    """The CAS: cluster-wide trust root and configuration distribution."""

    def __init__(
        self,
        runtime: NodeRuntime,
        ias: IntelAttestationService,
        root_key: bytes,
        node_addresses: Dict[str, str],
    ):
        self.runtime = runtime
        self.ias = ias
        self._root_key = root_key
        self._node_addresses = dict(node_addresses)
        self._trusted_las: Dict[str, VerifyKey] = {}
        self.attested_instances = 0
        self.cas_attested = False
        #: §VI: "CAS can be a single point of failure.  In case CAS
        #: fails, crashed nodes cannot recover."
        self.available = True

    def fail(self) -> None:
        """Take the CAS down (fault injection)."""
        self.available = False

    def restore(self) -> None:
        self.available = True

    # -- bootstrap ----------------------------------------------------------
    def attest_self(self, qe: PlatformQuotingEnclave) -> Gen:
        """The service provider verifies the CAS itself over IAS."""
        quote = Quote.create(Report(CAS_MEASUREMENT, b"cas"), qe.signing_key)
        yield from self.ias.verify_quote(quote, CAS_MEASUREMENT)
        self.cas_attested = True

    def register_las(
        self, las: LocalAttestationService, qe: PlatformQuotingEnclave
    ) -> Gen:
        """Verify one node's LAS over IAS and record its signing key.

        This is the only per-node IAS round trip; every later enclave
        start and recovery is attested locally.
        """
        if not self.cas_attested:
            raise AttestationError("CAS itself has not been attested yet")
        quote = Quote.create(
            Report(LAS_MEASUREMENT, las.verify_key.fingerprint()), qe.signing_key
        )
        yield from self.ias.verify_quote(quote, LAS_MEASUREMENT)
        self._trusted_las[las.node_name] = las.verify_key

    # -- instance attestation -----------------------------------------------------
    def attest_instance(self, node_name: str, quote: Quote) -> Gen:
        """Verify a Treaty instance's LAS-signed quote; return credentials.

        Raises :class:`AttestationError` for unknown nodes, wrong
        measurements (modified code) or bad signatures.
        """
        if not self.available:
            raise AttestationError(
                "CAS unavailable: node %r cannot be attested (and crashed "
                "nodes cannot recover, §VI)" % node_name
            )
        yield from self.runtime.compute(self.runtime.costs.signature_op)
        las_key = self._trusted_las.get(node_name)
        if las_key is None:
            raise AttestationError("node %r has no registered LAS" % node_name)
        quote.verify(las_key, TREATY_MEASUREMENT)
        self.attested_instances += 1
        peers = [
            address
            for name, address in sorted(self._node_addresses.items())
            if name != node_name
        ]
        return NodeCredentials(
            root_key=self._root_key,
            node_addresses=dict(self._node_addresses),
            counter_peers=peers,
        )
