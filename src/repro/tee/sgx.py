"""SGX primitives: measurements, report/quote structures, sealing.

These are the building blocks the attestation flow (§VI) composes:

* a *measurement* identifies the code loaded into an enclave,
* a *report* binds a measurement to caller-chosen report data,
* a *quote* is a report signed by a quoting authority (Intel's QE, or
  Treaty's per-node LAS after CAS bootstrap),
* *sealing* encrypts enclave state to the local sealing key so it can be
  stored on untrusted media (used for counter-state persistence).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from hashlib import sha256

from ..crypto.aead import Aead
from ..crypto.keys import derive_key
from ..crypto.signature import SigningKey, VerifyKey
from ..errors import AttestationError

__all__ = ["measure", "Report", "Quote", "SealingKey"]


def measure(code_identity: str) -> bytes:
    """MRENCLAVE-style measurement of an enclave's code identity."""
    return sha256(("enclave:" + code_identity).encode("utf-8")).digest()


@dataclass(frozen=True)
class Report:
    """An enclave-produced report (pre-signature)."""

    measurement: bytes
    report_data: bytes

    def serialize(self) -> bytes:
        return (
            len(self.measurement).to_bytes(2, "little")
            + self.measurement
            + self.report_data
        )


@dataclass(frozen=True)
class Quote:
    """A signed report, verifiable against the quoting authority's key."""

    report: Report
    signature: bytes
    authority_id: str

    @staticmethod
    def create(report: Report, authority_key: SigningKey) -> "Quote":
        return Quote(
            report=report,
            signature=authority_key.sign(report.serialize()),
            authority_id=authority_key.key_id,
        )

    def verify(self, authority_verify_key: VerifyKey, expected_measurement: bytes):
        """Check the signature and the measurement; raise on mismatch."""
        authority_verify_key.verify(self.report.serialize(), self.signature)
        if self.report.measurement != expected_measurement:
            raise AttestationError(
                "unexpected enclave measurement (wrong or modified code)"
            )


class SealingKey:
    """Per-enclave sealing: encrypt state to the platform+measurement."""

    def __init__(self, platform_secret: bytes, measurement: bytes, epoch: int = 0):
        key = derive_key(platform_secret, "seal", measurement.hex())
        self._aead = Aead(key)
        #: the platform key outlives a reboot and the counter does not:
        #: the boot epoch keeps IVs from repeating across restarts.
        self._epoch = epoch
        self._counter = 0

    def seal(self, plaintext: bytes) -> bytes:
        self._counter += 1
        iv = struct.pack("<IQ", self._epoch, self._counter)
        return self._aead.seal(iv, plaintext, aad=b"sealed-state")

    def unseal(self, sealed: bytes) -> bytes:
        return self._aead.open(sealed, aad=b"sealed-state")
