"""Hashing utilities: digests, keyed MACs, authenticated log chains.

Treaty's persistent logs (MANIFEST, WAL, Clog) and SSTable blocks carry
cryptographic hashes that recovery re-verifies (§V-A, §VI).  We model the
log authentication as an HMAC chain: each entry's tag covers the entry
body, its trusted-counter value, and the previous tag, so deletion,
reordering or in-place modification of any entry breaks the chain.
"""

from __future__ import annotations

import hmac
from hashlib import sha256
from typing import Optional

from ..errors import IntegrityError

__all__ = ["DIGEST_BYTES", "digest", "HmacSha256", "ChainState", "LogChain"]

DIGEST_BYTES = 32

_BLOCK_BYTES = 64  # SHA-256 block size, the HMAC key width (RFC 2104)
_INNER_PAD = bytes(byte ^ 0x36 for byte in range(256))
_OUTER_PAD = bytes(byte ^ 0x5C for byte in range(256))


def digest(data: bytes) -> bytes:
    """Plain SHA-256 digest (SSTable block footers, measurements)."""
    return sha256(data).digest()


class HmacSha256:
    """HMAC-SHA256 under one key, keyed once.

    RFC 2104: ``H((K ^ opad) || H((K ^ ipad) || data))``.  The two SHA-256
    states that have absorbed the padded key are built here; a tag copies
    both, so its cost is two native copies and two digests whatever the
    key, and no Python ``hmac`` object is built per message.  Tags equal
    ``hmac.new(key, data, sha256).digest()``.
    """

    __slots__ = ("_inner", "_outer")

    def __init__(self, key: bytes):
        if len(key) > _BLOCK_BYTES:
            key = sha256(key).digest()
        key = key.ljust(_BLOCK_BYTES, b"\x00")
        self._inner = sha256(key.translate(_INNER_PAD))
        self._outer = sha256(key.translate(_OUTER_PAD))

    def digest(self, data: bytes) -> bytes:
        """The 32-byte tag of ``data``."""
        inner = self._inner.copy()
        inner.update(data)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()


class ChainState:
    """Immutable-ish cursor into a log chain (last tag + entry count)."""

    __slots__ = ("tag", "count")

    def __init__(self, tag: bytes = b"\x00" * DIGEST_BYTES, count: int = 0):
        self.tag = tag
        self.count = count


class LogChain:
    """HMAC chain over log entries, keyed with the log's authentication key.

    ``tag_i = HMAC(key, tag_{i-1} || counter_i || body_i)``.
    """

    def __init__(self, key: bytes, state: Optional[ChainState] = None):
        self._mac = HmacSha256(key)
        self.state = state or ChainState()

    def _tag(self, previous: bytes, counter: int, body: bytes) -> bytes:
        return self._mac.digest(previous + counter.to_bytes(8, "little") + body)

    def append(self, counter: int, body: bytes) -> bytes:
        """Extend the chain with an entry; returns the entry's tag."""
        tag = self._tag(self.state.tag, counter, body)
        self.state = ChainState(tag, self.state.count + 1)
        return tag

    def verify_next(self, counter: int, body: bytes, tag: bytes) -> None:
        """Verify ``tag`` is the correct continuation; advance the cursor.

        Raises :class:`IntegrityError` on mismatch — a modified, dropped
        or reordered log entry.
        """
        expected = self._tag(self.state.tag, counter, body)
        if not hmac.compare_digest(expected, tag):
            raise IntegrityError(
                "log chain broken at entry %d (tamper/reorder/deletion)"
                % self.state.count
            )
        self.state = ChainState(tag, self.state.count + 1)
