"""Intel Attestation Service (IAS) simulation.

IAS verifies quotes produced by the platform Quoting Enclave.  The paper
avoids per-node IAS round trips (high latency, §IV-B#3) by attesting only
the CAS against IAS and letting a per-node LAS sign subsequent quotes.
This module provides the slow, single-node IAS path that CAS bootstraps
through, plus the platform QE key registry.
"""

from __future__ import annotations

from typing import Any, Dict, Generator

from ..config import CostModel
from ..crypto.signature import SigningKey, VerifyKey, generate_keypair
from ..errors import AttestationError
from ..sim.core import Event, Simulator
from .sgx import Quote

__all__ = ["IntelAttestationService", "PlatformQuotingEnclave"]


class PlatformQuotingEnclave:
    """The per-platform QE whose key Intel provisioned at manufacture."""

    def __init__(self, platform_id: str, manufacturer_seed: bytes):
        self.platform_id = platform_id
        self._signing, self._verify = generate_keypair(
            manufacturer_seed, "qe/" + platform_id
        )

    @property
    def signing_key(self) -> SigningKey:
        return self._signing

    @property
    def verify_key(self) -> VerifyKey:
        return self._verify


class IntelAttestationService:
    """Verifies platform quotes; one round trip costs ~hundreds of ms."""

    def __init__(self, sim: Simulator, costs: CostModel, manufacturer_seed: bytes):
        self.sim = sim
        self.costs = costs
        self._manufacturer_seed = manufacturer_seed
        self._platforms: Dict[str, VerifyKey] = {}
        self.verifications = 0

    def register_platform(self, qe: PlatformQuotingEnclave) -> None:
        """Record a genuine platform (models Intel's provisioning DB)."""
        self._platforms[qe.verify_key.key_id] = qe.verify_key

    def verify_quote(
        self, quote: Quote, expected_measurement: bytes
    ) -> Generator[Event, Any, bool]:
        """Verify a quote over the (slow) IAS round trip."""
        yield self.sim.sleep(self.costs.ias_round_trip)
        self.verifications += 1
        verify_key = self._platforms.get(quote.authority_id)
        if verify_key is None:
            raise AttestationError(
                "quote from unknown platform %r" % quote.authority_id
            )
        quote.verify(verify_key, expected_measurement)
        return True
