"""Authenticated, counter-stamped persistent logs (WAL / MANIFEST / Clog).

Every Treaty log entry carries "a unique, monotonic and deterministically
increased trusted counter value" (§VI) and an authentication tag that
chains it to its predecessor.  Recovery walks a log and detects:

* *tampering* — an entry's tag no longer verifies,
* *deletion / reordering* — the chain breaks (each tag covers the
  previous tag),
* *rollback* — the last counter is behind the trusted counter service's
  stable value (checked by :mod:`repro.core.recovery`).

With encryption disabled (baseline profiles) entries are written in
plaintext with zero tags and no verification or crypto cost — the same
code path RocksDB's WAL would take.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, Sequence, Tuple

from ..crypto.hashing import LogChain
from ..crypto.keys import KeyRing
from ..errors import CorruptLogError, IntegrityError
from ..sim.core import Event
from ..tee.runtime import NodeRuntime
from .disk import Disk
from .format import TAG_BYTES, frame_log_entry, iter_log_entries

__all__ = ["SecureLog"]

Gen = Generator[Event, Any, Any]

_ZERO_TAG = b"\x00" * TAG_BYTES


class SecureLog:
    """An append-only log on the untrusted disk."""

    def __init__(
        self,
        runtime: NodeRuntime,
        disk: Disk,
        filename: str,
        keyring: KeyRing,
        log_name: Optional[str] = None,
    ):
        self.runtime = runtime
        self.disk = disk
        self.filename = filename
        self.log_name = log_name or filename
        self._keyring = keyring
        self._aead = keyring.log_aead(self.log_name)
        self._chain = LogChain(keyring.log_auth_key(self.log_name))
        self.next_counter = 1
        self.appended_bytes = 0
        self.tracer = runtime.tracer
        self._bytes_counter = runtime.metrics.counter("storage.log_bytes")

    # -- helpers -----------------------------------------------------------
    @property
    def secured(self) -> bool:
        return self.runtime.encryption

    @property
    def last_counter(self) -> int:
        """Counter value of the most recently appended entry (0 if none)."""
        return self.next_counter - 1

    def _seal_payload(self, counter: int, payload: bytes) -> bytes:
        return self._aead.seal(
            self.runtime.iv(counter), payload, aad=self.log_name.encode()
        )

    def _encode_entry(self, payload: bytes) -> Tuple[int, bytes]:
        counter = self.next_counter
        self.next_counter += 1
        if self.secured:
            sealed = self._seal_payload(counter, payload)
            tag = self._chain.append(counter, sealed)
        else:
            sealed, tag = payload, _ZERO_TAG
        return counter, frame_log_entry(counter, sealed, tag)

    # -- writing -----------------------------------------------------------
    def append(self, payload: bytes) -> Gen:
        """Append one entry; returns its trusted counter value."""
        counters = yield from self.append_many([payload])
        return counters[0]

    def append_many(self, payloads: Sequence[bytes]) -> Gen:
        """Append a batch in one device write (group commit, §VII-B).

        Each entry's seal and hash are one core hold before it is
        encoded; the device write's syscall is a hold of its own.
        """
        span = self.tracer.span(
            "storage", "log_append", node=self.runtime.name or None,
            log=self.log_name, entries=len(payloads),
        )
        frames: List[bytes] = []
        counters: List[int] = []
        runtime = self.runtime
        for payload in payloads:
            if self.secured:
                yield from runtime.compute(
                    runtime.aead_seconds(len(payload)),
                    runtime.hash_seconds(len(payload)),
                )
            counter, frame = self._encode_entry(payload)
            counters.append(counter)
            frames.append(frame)
        blob = b"".join(frames)
        self.disk.append(self.filename, blob)
        self.appended_bytes += len(blob)
        self._bytes_counter.inc(len(blob))
        yield from self.runtime.ssd_write(len(blob))
        span.close(bytes=len(blob))
        return counters

    # -- reading -------------------------------------------------------------
    def replay(self, up_to_counter: Optional[int] = None) -> Gen:
        """Read and verify the log; returns ``[(counter, payload), ...]``.

        ``up_to_counter`` bounds recovery to the stable prefix; entries
        beyond it were never acknowledged and are discarded.  Raises
        :class:`IntegrityError` on any tamper/reorder/deletion and
        :class:`CorruptLogError` on unparseable framing.
        """
        if not self.disk.exists(self.filename):
            return []
        data = self.disk.read(self.filename)
        yield from self.runtime.ssd_read(len(data))
        chain = LogChain(self._keyring.log_auth_key(self.log_name))
        runtime = self.runtime
        entries: List[Tuple[int, bytes]] = []
        expected_counter = 1
        for entry in iter_log_entries(data):
            if entry.counter != expected_counter:
                raise IntegrityError(
                    "log %s: counter gap (expected %d, found %d)"
                    % (self.log_name, expected_counter, entry.counter)
                )
            expected_counter += 1
            if self.secured:
                # Verified before the entry's one hold (hash, open); a
                # broken chain raises after the hash alone.
                hashed = runtime.hash_seconds(len(entry.payload))
                try:
                    chain.verify_next(entry.counter, entry.payload, entry.tag)
                except IntegrityError:
                    yield from runtime.compute(hashed)
                    raise
                yield from runtime.compute(
                    hashed, runtime.aead_seconds(len(entry.payload))
                )
                payload = self._aead.open(entry.payload, aad=self.log_name.encode())
            else:
                payload = entry.payload
            if up_to_counter is not None and entry.counter > up_to_counter:
                continue  # unstable suffix: legitimately discarded
            entries.append((entry.counter, payload))
        return entries

    def on_disk_max_counter(self) -> int:
        """Highest counter present on disk (0 if the file is missing).

        Used by the freshness check: a disk rolled back to a stale
        snapshot has ``on_disk_max_counter() < stable_value``.
        """
        if not self.disk.exists(self.filename):
            return 0
        last = 0
        for entry in iter_log_entries(self.disk.read(self.filename)):
            last = entry.counter
        return last

    def reset_from_replay(self, entries: List[Tuple[int, bytes]]) -> None:
        """After recovery, continue appending after the recovered prefix.

        Re-seals the recovered prefix so the on-disk chain matches the
        writer state (discarded unstable suffixes are dropped from disk).
        """
        self._chain = LogChain(self._keyring.log_auth_key(self.log_name))
        self.next_counter = 1
        frames = []
        for _counter, payload in entries:
            counter, frame = self._encode_entry(payload)
            assert counter == _counter
            frames.append(frame)
        self.disk.write(self.filename, b"".join(frames))
