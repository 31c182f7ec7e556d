"""Storage substrate: disk, logs, MemTable, SSTables, the LSM engine."""

from .disk import Disk, DiskSnapshot
from .engine import LSMEngine
from .format import LogEntry, Reader, Writer, iter_log_entries, pack_kv, unpack_kv
from .log import SecureLog
from .manifest import Manifest, ManifestEdit, VersionState
from .memtable import MemTable, TOMBSTONE
from .records import WalRecord
from .sstable import SSTableMeta, SSTableReader, build_sstable

__all__ = [
    "Disk",
    "DiskSnapshot",
    "LSMEngine",
    "LogEntry",
    "Manifest",
    "ManifestEdit",
    "MemTable",
    "Reader",
    "SSTableMeta",
    "SSTableReader",
    "SecureLog",
    "TOMBSTONE",
    "VersionState",
    "WalRecord",
    "Writer",
    "build_sstable",
    "iter_log_entries",
    "pack_kv",
    "unpack_kv",
]
