"""Authenticated encryption with associated data (AEAD).

The paper encrypts messages, log entries, SSTable blocks and host-memory
values with AES-GCM (via OpenSSL) using a 12-byte IV and a 16-byte MAC
(§VII-A).  Hardware AES is not available here, so we build a *real* AEAD
from stdlib primitives — a SHAKE-256 keystream plus an encrypt-then-MAC
HMAC-SHA256 tag — with exactly the paper's wire sizes.  Like the paper's
AES-NI path, a seal is a constant number of native calls whatever the
message length: one extendable-output digest of ``enc_key || IV`` for the
keystream, and a tag from copies of two SHA-256 states keyed once per
cipher (:class:`~repro.crypto.hashing.HmacSha256`).
Security properties relevant to the reproduction hold functionally:
ciphertext reveals nothing without the key, and any bit flip in IV,
ciphertext or associated data fails authentication.  This is a stream
cipher: one ``(key, IV)`` pair must never seal two messages, so every
caller folds what makes it unique (node, endpoint, boot, counter) into
the IV or the key label.

This module is pure computation; the *time* cost of sealing/opening is
charged by callers through :meth:`repro.config.CostModel.aead_cost`.
"""

from __future__ import annotations

import hmac
import struct
from hashlib import shake_256

from ..errors import IntegrityError
from .hashing import HmacSha256

__all__ = ["IV_BYTES", "MAC_BYTES", "KEY_BYTES", "Aead", "xor_bytes"]

IV_BYTES = 12  # §VII-A: 12 B initialization vector
MAC_BYTES = 16  # §VII-A: 16 B MAC
KEY_BYTES = 32

_LENGTHS = struct.Struct("<II")  # the tag's length header: |aad|, |ciphertext|


def xor_bytes(data: bytes, keystream: bytes) -> bytes:
    """XOR ``data`` with a keystream of at least the same length."""
    length = len(data)
    if len(keystream) < length:
        raise ValueError("keystream shorter than data")
    if length == 0:
        return b""
    left = int.from_bytes(data, "little")
    right = int.from_bytes(keystream[:length], "little")
    return (left ^ right).to_bytes(length, "little")


class Aead:
    """An AEAD cipher bound to one 32-byte key.

    Layout produced by :meth:`seal`: ``IV (12 B) || ciphertext || MAC (16 B)``
    — the same on-the-wire framing as Treaty's secure message format.
    """

    def __init__(self, key: bytes):
        if len(key) != KEY_BYTES:
            raise ValueError("AEAD key must be %d bytes" % KEY_BYTES)
        # Independent subkeys for the keystream and the MAC, derived the
        # usual KDF way so a single 32-byte master key is enough.
        master = HmacSha256(key)
        self._enc_key = master.digest(b"treaty-enc")
        self._mac = HmacSha256(master.digest(b"treaty-mac"))

    # -- internals -----------------------------------------------------------
    def _keystream(self, iv: bytes, length: int) -> bytes:
        return shake_256(self._enc_key + iv).digest(length)

    def _tag(self, iv: bytes, aad: bytes, ciphertext: bytes) -> bytes:
        return self._mac.digest(
            _LENGTHS.pack(len(aad), len(ciphertext)) + iv + aad + ciphertext
        )[:MAC_BYTES]

    # -- public API -----------------------------------------------------------
    def seal(self, iv: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Encrypt and authenticate; returns ``IV || ciphertext || MAC``."""
        if len(iv) != IV_BYTES:
            raise ValueError("IV must be %d bytes" % IV_BYTES)
        ciphertext = xor_bytes(plaintext, self._keystream(iv, len(plaintext)))
        return iv + ciphertext + self._tag(iv, aad, ciphertext)

    def open(self, sealed: bytes, aad: bytes = b"") -> bytes:
        """Verify and decrypt; raises :class:`IntegrityError` on any tamper."""
        if len(sealed) < IV_BYTES + MAC_BYTES:
            raise IntegrityError("sealed blob too short to be authentic")
        iv = sealed[:IV_BYTES]
        ciphertext = sealed[IV_BYTES : len(sealed) - MAC_BYTES]
        tag = sealed[len(sealed) - MAC_BYTES :]
        expected = self._tag(iv, aad, ciphertext)
        if not hmac.compare_digest(tag, expected):
            raise IntegrityError("AEAD authentication failed")
        return xor_bytes(ciphertext, self._keystream(iv, len(ciphertext)))

    @staticmethod
    def sealed_size(plaintext_len: int) -> int:
        """Total bytes :meth:`seal` produces for a plaintext of this size."""
        return IV_BYTES + plaintext_len + MAC_BYTES
