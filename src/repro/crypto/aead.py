"""Authenticated encryption with associated data (AEAD).

The paper encrypts messages, log entries, SSTable blocks and host-memory
values with AES-GCM (via OpenSSL) using a 12-byte IV and a 16-byte MAC
(§VII-A).  So does this module: AES-256-GCM from ``cryptography``'s
OpenSSL, one native call per seal and one per open whatever the length.
The GCM key is an HMAC-SHA256 subkey of the cipher's 32-byte key.  Any
bit flip in IV, ciphertext, MAC or associated data fails authentication.
GCM is counter mode: one ``(key, IV)`` pair must never seal two
messages, so every caller folds what makes it unique (node, endpoint,
boot, counter) into the IV or the key label.

This module is pure computation; the *time* cost of sealing/opening is
charged by callers through :meth:`repro.config.CostModel.aead_cost`.
"""

from __future__ import annotations

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from ..errors import IntegrityError
from .hashing import HmacSha256

__all__ = ["IV_BYTES", "MAC_BYTES", "KEY_BYTES", "Aead"]

IV_BYTES = 12  # §VII-A: 12 B initialization vector
MAC_BYTES = 16  # §VII-A: 16 B MAC
KEY_BYTES = 32


class Aead:
    """AES-256-GCM bound to one 32-byte key.

    Layout produced by :meth:`seal`: ``IV (12 B) || ciphertext || MAC (16 B)``
    — the same on-the-wire framing as Treaty's secure message format.
    :meth:`encrypt` / :meth:`decrypt` are the same cipher for framings that
    keep the IV apart from ``ciphertext || MAC``.
    """

    __slots__ = ("_key", "_gcm")

    def __init__(self, key: bytes):
        if len(key) != KEY_BYTES:
            raise ValueError("AEAD key must be %d bytes" % KEY_BYTES)
        self._key = HmacSha256(key).digest(b"treaty-enc")
        self._gcm = AESGCM(self._key)

    def encrypt(self, iv: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Encrypt and authenticate; returns ``ciphertext || MAC``."""
        if len(iv) != IV_BYTES:
            raise ValueError("IV must be %d bytes" % IV_BYTES)
        return self._gcm.encrypt(iv, plaintext, aad)

    def decrypt(self, iv: bytes, body: bytes, aad: bytes = b"") -> bytes:
        """Verify and decrypt ``ciphertext || MAC``; raises
        :class:`IntegrityError` on any tamper."""
        try:
            return self._gcm.decrypt(iv, body, aad)
        except InvalidTag:
            raise IntegrityError("AEAD authentication failed") from None

    def seal(self, iv: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Encrypt and authenticate; returns ``IV || ciphertext || MAC``."""
        return iv + self.encrypt(iv, plaintext, aad)

    def open(self, sealed: bytes, aad: bytes = b"") -> bytes:
        """Verify and decrypt; raises :class:`IntegrityError` on any tamper."""
        if len(sealed) < IV_BYTES + MAC_BYTES:
            raise IntegrityError("sealed blob too short to be authentic")
        return self.decrypt(sealed[:IV_BYTES], sealed[IV_BYTES:], aad)

    @staticmethod
    def sealed_size(plaintext_len: int) -> int:
        """Total bytes :meth:`seal` produces for a plaintext of this size."""
        return IV_BYTES + plaintext_len + MAC_BYTES
