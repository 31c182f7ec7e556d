"""Key hierarchy and key distribution.

The CAS hands each attested node the cluster secrets (§VI: "network key,
nodes' IPs, etc.").  We model a single 32-byte cluster *root key* from
which purpose-specific subkeys are derived — network sealing, per-log
authentication keys, storage block encryption, and sealing keys — so that
compromising one derived key does not reveal the others.
"""

from __future__ import annotations

import hmac
from hashlib import sha256
from typing import Dict

from .aead import KEY_BYTES, Aead

__all__ = ["derive_key", "KeyRing"]


def derive_key(root: bytes, *labels: str) -> bytes:
    """HKDF-style derivation of a subkey from ``root`` and a label path."""
    key = root
    for label in labels:
        key = hmac.new(key, label.encode("utf-8"), sha256).digest()
    return key[:KEY_BYTES]


class KeyRing:
    """All keys a Treaty node holds inside its enclave.

    Only attested enclaves ever receive the root (enforced by
    :mod:`repro.core.cas`); everything else in the node — host memory,
    disk, NIC — sees only ciphertext produced with derived keys.
    """

    def __init__(self, root: bytes):
        if len(root) != KEY_BYTES:
            raise ValueError("root key must be %d bytes" % KEY_BYTES)
        self._root = root
        self._aeads: Dict[str, Aead] = {}

    def subkey(self, *labels: str) -> bytes:
        return derive_key(self._root, *labels)

    def aead(self, *labels: str) -> Aead:
        """Cached AEAD instance for a derived key."""
        name = "/".join(labels)
        if name not in self._aeads:
            self._aeads[name] = Aead(self.subkey(*labels))
        return self._aeads[name]

    # Named accessors for the keys the design calls out explicitly.
    def network_aead(self) -> Aead:
        """Sealing key for Treaty's secure message format (§VII-A)."""
        return self.aead("network")

    def storage_aead(self, *scope: str) -> Aead:
        """Encryption key for SSTable blocks and host-memory values.

        ``scope`` names the sealer (node, then use): nodes number their
        versions and files alike, so under one cluster-wide key their
        IVs would collide.
        """
        return self.aead("storage", *scope)

    def log_auth_key(self, log_name: str) -> bytes:
        """Authentication (HMAC-chain) key for one persistent log."""
        return self.subkey("log", log_name)

    def log_aead(self, log_name: str) -> Aead:
        """Encryption key for one persistent log's entry payloads."""
        return self.aead("log-enc", log_name)
