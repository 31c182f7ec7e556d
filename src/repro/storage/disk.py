"""Simulated persistent storage device (the untrusted SSD).

A :class:`Disk` is byte-accurate, persistent state that survives node
crashes (the crash-fail model of §III: in-memory state is lost, SSD
content preserved).  Because the device is *untrusted*, the adversary
gets first-class hooks:

* :meth:`Disk.tamper` — flip bytes of any file,
* :meth:`Disk.snapshot` / :meth:`Disk.restore` — the rollback attack
  ("revert nodes to a stale state by intentionally shutting them down
  and replaying older logs"),
* :meth:`Disk.delete` — remove logs outright.

Treaty must *detect* all of these at recovery; tests assert exactly that.
Timing is charged by callers through the node runtime (``ssd_write`` /
``ssd_read``) — the disk itself is pure state.
"""

from __future__ import annotations

from typing import Dict, List

from ..errors import StorageError

__all__ = ["Disk", "DiskSnapshot"]


class DiskSnapshot:
    """A frozen copy of the device contents (for crashes and rollbacks)."""

    def __init__(self, files: Dict[str, bytes]):
        self.files = files


class Disk:
    """An SSD as a named collection of byte files."""

    def __init__(self, name: str = "ssd"):
        self.name = name
        self._files: Dict[str, bytearray] = {}
        self.bytes_written = 0

    # -- normal operation ---------------------------------------------------
    def append(self, filename: str, data: bytes) -> int:
        """Append ``data``; returns the offset it was written at."""
        if filename not in self._files:
            self._files[filename] = bytearray()
        offset = len(self._files[filename])
        self._files[filename].extend(data)
        self.bytes_written += len(data)
        return offset

    def write(self, filename: str, data: bytes) -> None:
        """Replace a file's contents (used for whole-file objects)."""
        self._files[filename] = bytearray(data)
        self.bytes_written += len(data)

    def _stored(self, filename: str) -> bytearray:
        try:
            return self._files[filename]
        except KeyError:
            raise StorageError("no such file: %r" % filename) from None

    def read(self, filename: str) -> bytes:
        return bytes(self._stored(filename))

    def read_range(self, filename: str, offset: int, length: int) -> bytes:
        """Copy out one range only: a block read must not cost the whole file."""
        data = self._stored(filename)
        if offset + length > len(data):
            raise StorageError(
                "short read from %r (offset=%d length=%d size=%d)"
                % (filename, offset, length, len(data))
            )
        return bytes(data[offset : offset + length])

    def delete(self, filename: str) -> None:
        self._files.pop(filename, None)

    def exists(self, filename: str) -> bool:
        return filename in self._files

    def size(self, filename: str) -> int:
        return len(self._files.get(filename, b""))

    def list_files(self, prefix: str = "") -> List[str]:
        return sorted(name for name in self._files if name.startswith(prefix))

    def total_bytes(self) -> int:
        return sum(len(data) for data in self._files.values())

    # -- adversary hooks (§III) ------------------------------------------------
    def tamper(self, filename: str, offset: int, xor_mask: int = 0x01) -> None:
        """Flip bits of one byte in place — unauthorized modification."""
        data = self._files.get(filename)
        if not data:
            raise StorageError("cannot tamper with empty/missing %r" % filename)
        data[offset % len(data)] ^= xor_mask

    def snapshot(self) -> DiskSnapshot:
        """Copy the full device state (adversary or test checkpoint)."""
        return DiskSnapshot({name: bytes(data) for name, data in self._files.items()})

    def restore(self, snapshot: DiskSnapshot) -> None:
        """Roll the device back to an earlier snapshot (rollback attack)."""
        self._files = {name: bytearray(data) for name, data in snapshot.files.items()}

    def truncate(self, filename: str, length: int) -> None:
        """Cut a file short (torn write / log truncation attack)."""
        if filename in self._files:
            del self._files[filename][length:]
