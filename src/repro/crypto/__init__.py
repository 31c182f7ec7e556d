"""Cryptographic primitives: AEAD, log chains, key hierarchy, signatures."""

from .aead import IV_BYTES, KEY_BYTES, MAC_BYTES, Aead
from .hashing import DIGEST_BYTES, ChainState, HmacSha256, LogChain, digest
from .keys import KeyRing, derive_key
from .signature import SIGNATURE_BYTES, SigningKey, VerifyKey, generate_keypair

__all__ = [
    "Aead",
    "ChainState",
    "DIGEST_BYTES",
    "HmacSha256",
    "IV_BYTES",
    "KEY_BYTES",
    "KeyRing",
    "LogChain",
    "MAC_BYTES",
    "SIGNATURE_BYTES",
    "SigningKey",
    "VerifyKey",
    "derive_key",
    "digest",
    "generate_keypair",
]
