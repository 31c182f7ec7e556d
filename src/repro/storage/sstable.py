"""Authenticated SSTables: encrypted blocks + hash footer (SPEICHER model).

"SPEICHER stores encrypted blocks of KV pairs as well as a footer with
the blocks' hash values (for integrity checks)" (§V-A).  The footer's
own hash is recorded in the MANIFEST, which recovery verifies first —
so the chain of trust runs MANIFEST → footer → block → entry, and any
modified byte on the untrusted SSD is detected on access.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from hashlib import sha256
from typing import Any, Generator, List, Optional, Tuple

from ..crypto.keys import KeyRing
from ..errors import IntegrityError, StorageError
from ..sim.core import Event
from ..tee.runtime import NodeRuntime
from .disk import Disk
from .format import Reader, Writer
from .memtable import TOMBSTONE

__all__ = ["SSTableMeta", "build_sstable", "SSTableReader"]

Gen = Generator[Event, Any, Any]

_FOOTER_AAD = b"sst-footer"
_BLOCK_AAD = b"sst-block"


@dataclass
class SSTableMeta:
    """What the MANIFEST records about one SSTable."""

    filename: str
    level: int
    footer_hash: bytes
    min_key: bytes
    max_key: bytes
    max_seq: int
    entry_count: int
    file_bytes: int

    def encode(self) -> bytes:
        return (
            Writer()
            .blob(self.filename.encode())
            .u32(self.level)
            .blob(self.footer_hash)
            .blob(self.min_key)
            .blob(self.max_key)
            .u64(self.max_seq)
            .u32(self.entry_count)
            .u64(self.file_bytes)
            .getvalue()
        )

    @classmethod
    def decode(cls, data: bytes) -> "SSTableMeta":
        reader = Reader(data)
        return cls(
            filename=reader.blob().decode(),
            level=reader.u32(),
            footer_hash=reader.blob(),
            min_key=reader.blob(),
            max_key=reader.blob(),
            max_seq=reader.u64(),
            entry_count=reader.u32(),
            file_bytes=reader.u64(),
        )

    def overlaps(self, start: bytes, end: Optional[bytes]) -> bool:
        """Whether this table may contain keys in ``[start, end)``."""
        if end is not None and self.min_key >= end:
            return False
        return self.max_key >= start

    def covers_key(self, key: bytes) -> bool:
        return self.min_key <= key <= self.max_key


def _encode_block(entries: List[Tuple[bytes, Any, int]]) -> bytes:
    writer = Writer().u32(len(entries))
    for key, value, seq in entries:
        tombstone = 1 if value is TOMBSTONE else 0
        writer.blob(key).u32(tombstone).blob(b"" if tombstone else value).u64(seq)
    return writer.getvalue()


def _decode_block(data: bytes) -> List[Tuple[bytes, Any, int]]:
    reader = Reader(data)
    count = reader.u32()
    entries = []
    for _ in range(count):
        key = reader.blob()
        tombstone = reader.u32()
        value = reader.blob()
        seq = reader.u64()
        entries.append((key, TOMBSTONE if tombstone else value, seq))
    return entries


def build_sstable(
    runtime: NodeRuntime,
    disk: Disk,
    keyring: KeyRing,
    filename: str,
    level: int,
    entries: List[Tuple[bytes, Any, int]],
    block_bytes: int,
) -> Gen:
    """Write ``entries`` (sorted by key) as an SSTable; returns its meta.

    ``entries`` are ``(key, value_or_TOMBSTONE, seq)`` tuples.
    """
    if not entries:
        raise StorageError("refusing to build an empty SSTable")
    encrypted = runtime.encryption
    aead = keyring.storage_aead(runtime.name, "sstable")
    # A crash between writing a table and recording it re-issues the
    # file number, so the boot epoch is part of every IV's derivation.
    iv_scope = filename.encode() + runtime.epoch.to_bytes(4, "little")

    blocks: List[bytes] = []
    block_index: List[Tuple[bytes, int, int, bytes]] = []  # first_key, off, len, hash
    current: List[Tuple[bytes, Any, int]] = []
    current_bytes = 0
    offset = 0

    def finish_block():
        nonlocal current, current_bytes, offset
        if not current:
            return None
        plain = _encode_block(current)
        if encrypted:
            iv = sha256(iv_scope + len(blocks).to_bytes(4, "little")).digest()[:12]
            stored = aead.seal(iv, plain, aad=_BLOCK_AAD)
        else:
            stored = plain
        block_index.append((current[0][0], offset, len(stored), sha256(stored).digest()))
        blocks.append(stored)
        offset += len(stored)
        out = plain
        current, current_bytes = [], 0
        return out

    for key, value, seq in entries:
        current.append((key, value, seq))
        current_bytes += len(key) + (0 if value is TOMBSTONE else len(value)) + 16
        if current_bytes >= block_bytes:
            plain = finish_block()
            yield from runtime.compute(runtime.aead_seconds(len(plain)),
                                       runtime.hash_seconds(len(plain)))
    plain = finish_block()
    if plain is not None:
        yield from runtime.compute(runtime.aead_seconds(len(plain)),
                                   runtime.hash_seconds(len(plain)))

    footer_writer = Writer().u32(len(block_index))
    for first_key, off, length, block_hash in block_index:
        footer_writer.blob(first_key).u64(off).u64(length).blob(block_hash)
    footer_plain = footer_writer.getvalue()
    if encrypted:
        iv = sha256(iv_scope + b"footer").digest()[:12]
        footer_stored = aead.seal(iv, footer_plain, aad=_FOOTER_AAD)
    else:
        footer_stored = footer_plain
    yield from runtime.compute(runtime.aead_seconds(len(footer_plain)))

    body = b"".join(blocks)
    file_bytes = (
        body
        + footer_stored
        + len(footer_stored).to_bytes(4, "little")
    )
    disk.write(filename, file_bytes)
    yield from runtime.ssd_write(len(file_bytes))

    return SSTableMeta(
        filename=filename,
        level=level,
        footer_hash=sha256(footer_stored).digest(),
        min_key=entries[0][0],
        max_key=entries[-1][0],
        max_seq=max(seq for _, _, seq in entries),
        entry_count=len(entries),
        file_bytes=len(file_bytes),
    )


class SSTableReader:
    """Verified access to one on-disk SSTable."""

    def __init__(
        self,
        runtime: NodeRuntime,
        disk: Disk,
        keyring: KeyRing,
        meta: SSTableMeta,
    ):
        self.runtime = runtime
        self.disk = disk
        self.meta = meta
        self._aead = keyring.storage_aead(runtime.name, "sstable")
        self._index: Optional[List[Tuple[bytes, int, int, bytes]]] = None
        #: each block's first key, for bisecting to a key's block
        self._first_keys: List[bytes] = []

    @property
    def encrypted(self) -> bool:
        return self.runtime.encryption

    def _verify_open(self, stored: bytes, expected_hash: bytes,
                     block_no: Optional[int] = None) -> Gen:
        """Plaintext of the footer (``block_no`` None) or a block just
        read from disk.  Its hash check and open are one core hold;
        bytes that do not match ``expected_hash`` raise after the hash
        alone."""
        if not self.encrypted:
            return stored
        runtime = self.runtime
        hashed = runtime.hash_seconds(len(stored))
        if sha256(stored).digest() != expected_hash:
            yield from runtime.compute(hashed)
            if block_no is None:
                raise IntegrityError("SSTable %s: footer does not match "
                                     "MANIFEST" % self.meta.filename)
            raise IntegrityError("SSTable %s: block %d modified on disk"
                                 % (self.meta.filename, block_no))
        yield from runtime.compute(hashed, runtime.aead_seconds(len(stored)))
        aad = _FOOTER_AAD if block_no is None else _BLOCK_AAD
        return self._aead.open(stored, aad=aad)

    # -- footer ------------------------------------------------------------
    def _load_footer(self) -> Gen:
        if self._index is not None:
            return self._index
        file_size = self.disk.size(self.meta.filename)
        footer_len = int.from_bytes(
            self.disk.read_range(self.meta.filename, file_size - 4, 4), "little"
        )
        stored = self.disk.read_range(
            self.meta.filename, file_size - 4 - footer_len, footer_len
        )
        yield from self.runtime.ssd_read(footer_len)
        # The MANIFEST is the root of trust for the footer.
        plain = yield from self._verify_open(stored, self.meta.footer_hash)
        reader = Reader(plain)
        count = reader.u32()
        index = []
        for _ in range(count):
            index.append((reader.blob(), reader.u64(), reader.u64(), reader.blob()))
        self._index = index
        self._first_keys = [entry[0] for entry in index]
        return index

    # -- blocks ---------------------------------------------------------------
    def _load_block(self, block_no: int) -> Gen:
        index = yield from self._load_footer()
        _first_key, offset, length, block_hash = index[block_no]
        stored = self.disk.read_range(self.meta.filename, offset, length)
        yield from self.runtime.ssd_read(length)
        plain = yield from self._verify_open(stored, block_hash, block_no)
        return _decode_block(plain)

    def _block_for_key(self, key: bytes) -> int:
        """The last block whose first key is <= ``key`` (block 0 if none
        is); the footer is loaded."""
        return max(bisect_right(self._first_keys, key) - 1, 0)

    # -- queries -----------------------------------------------------------------
    def get(self, key: bytes) -> Gen:
        """Returns ``(value_or_TOMBSTONE, seq)`` or None if absent."""
        if not self.meta.covers_key(key):
            return None
        yield from self._load_footer()
        entries = yield from self._load_block(self._block_for_key(key))
        # ``(key,)`` sorts before ``(key, value, seq)`` and after every
        # smaller key's entry; no value is ever compared.
        at = bisect_left(entries, (key,))
        if at < len(entries) and entries[at][0] == key:
            return (entries[at][1], entries[at][2])
        return None

    def scan(self, start: bytes, end: Optional[bytes]) -> Gen:
        """All entries with ``start <= key < end``."""
        if not self.meta.overlaps(start, end):
            return []
        index = yield from self._load_footer()
        result = []
        first_block = self._block_for_key(start)
        for block_no in range(first_block, len(index)):
            if end is not None and index[block_no][0] >= end:
                break
            entries = yield from self._load_block(block_no)
            for key, value, seq in entries:
                if key < start:
                    continue
                if end is not None and key >= end:
                    return result
                result.append((key, value, seq))
        return result

    def all_entries(self) -> Gen:
        """Every entry, in order (compaction input)."""
        index = yield from self._load_footer()
        result = []
        for block_no in range(len(index)):
            entries = yield from self._load_block(block_no)
            result.extend(entries)
        return result
