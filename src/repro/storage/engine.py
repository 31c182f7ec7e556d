"""The LSM storage engine (RocksDB stand-in + SPEICHER extensions).

One :class:`LSMEngine` instance runs per node.  Under a native profile
with encryption off it behaves like stock RocksDB — plaintext WAL,
MemTable and SSTables — and serves as the DS-RocksDB baseline.  Under
SCONE profiles the same code paths charge enclave costs, and with
encryption on every persistent byte is sealed and authenticated
(SPEICHER's data model, §V-B/§VII-B).

Layout per node on the simulated SSD::

    <name>/MANIFEST          authenticated edit log (root of trust)
    <name>/wal-<n>.log       write-ahead logs (rotated at flush)
    <name>/clog-<n>.log      coordinator 2PC log (owned by repro.core)
    <name>/sst-<n>.sst       SSTables, leveled

Deletions are deferred until the MANIFEST entries recording the
replacement state are *stabilized* (rollback-protected), per §VI.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ..config import ClusterConfig
from ..crypto.keys import KeyRing
from ..errors import FreshnessError, StorageError
from ..sim.core import Event
from ..sim.sync import Resource
from ..tee.runtime import NodeRuntime
from .disk import Disk
from .log import SecureLog
from .manifest import Manifest, ManifestEdit
from .memtable import MemTable, TOMBSTONE
from .records import WalRecord, WriteOp
from .sstable import SSTableMeta, SSTableReader, build_sstable

__all__ = ["LSMEngine"]

Gen = Generator[Event, Any, Any]

#: L0 table count that triggers compaction into L1.
_L0_COMPACTION_TRIGGER = 4
#: Per-level table-count triggers beyond L0 (grows by this ratio).
_LEVEL_RATIO = 10
_MAX_LEVEL = 6
#: Grace period before physically deleting replaced files, so in-flight
#: readers (cooperative fibers) drain first.
_DELETE_GRACE = 0.05

# The hook that makes one log entry rollback-protected: the node's
# ``DurabilityPipeline.stabilize`` (repro.core.pipeline).  ``None`` means
# the profile runs without stabilization.
Stabilize = Callable[[str, int], Generator[Event, Any, None]]


class LSMEngine:
    """A per-node LSM key-value engine with authenticated persistence."""

    def __init__(
        self,
        runtime: NodeRuntime,
        disk: Disk,
        keyring: KeyRing,
        config: ClusterConfig,
        name: str = "node0",
        stabilize: Optional[Stabilize] = None,
    ):
        self.runtime = runtime
        self.disk = disk
        self.keyring = keyring
        self.config = config
        self.name = name
        self.stabilize = stabilize

        self.manifest = Manifest(
            SecureLog(runtime, disk, self._path("MANIFEST"), keyring,
                      log_name=name + "/MANIFEST")
        )
        self.wal: Optional[SecureLog] = None
        self.levels: Dict[int, List[SSTableMeta]] = {}
        self.memtable = MemTable(runtime, keyring)
        self._readers: Dict[str, SSTableReader] = {}
        self._seq = 0
        self._file_seq = 0
        self._wal_seq = 0
        self._flush_lock = Resource(runtime.sim, capacity=1)
        #: prepared-but-unresolved distributed transactions (txn_id -> writes)
        self.prepared_txns: Dict[bytes, List[WriteOp]] = {}
        self.flush_count = 0
        self.compaction_count = 0
        self._started = False
        self.tracer = runtime.tracer
        runtime.metrics.probe("storage.flush_count", lambda: self.flush_count)
        runtime.metrics.probe("storage.compaction_count",
                              lambda: self.compaction_count)
        runtime.metrics.probe(
            "storage.live_sstables",
            lambda: sum(len(tables) for tables in self.levels.values()),
        )

    # -- paths / ids ---------------------------------------------------------
    def _path(self, filename: str) -> str:
        return "%s/%s" % (self.name, filename)

    def _next_wal_name(self) -> str:
        self._wal_seq += 1
        return "wal-%06d.log" % self._wal_seq

    def _next_table_name(self) -> str:
        self._file_seq += 1
        return "sst-%06d.sst" % self._file_seq

    def next_seq(self) -> int:
        """Allocate the next global sequence number (version)."""
        self._seq += 1
        return self._seq

    def current_seq(self) -> int:
        return self._seq

    # -- lifecycle ---------------------------------------------------------------
    def bootstrap(self) -> Gen:
        """Initialize a fresh engine (first boot, empty disk)."""
        if self._started:
            raise StorageError("engine already started")
        self._started = True
        yield from self._open_new_wal()

    def _open_new_wal(self) -> Gen:
        wal_path = self._path(self._next_wal_name())
        self.wal = SecureLog(
            self.runtime, self.disk, wal_path, self.keyring, log_name=wal_path
        )
        counter = yield from self.manifest.record(ManifestEdit.new_log("wal", wal_path))
        return counter

    # -- write path -------------------------------------------------------------
    def log_commit(self, txn_id: bytes, writes: List[WriteOp]) -> Gen:
        """Persist a commit record to the WAL; returns its counter value."""
        record = WalRecord.commit(txn_id, writes)
        counter = yield from self.wal.append(record.encode())
        self.prepared_txns.pop(txn_id, None)
        return counter

    def log_commits(self, records: List[Tuple[bytes, List[WriteOp]]]) -> Gen:
        """Group commit: persist several commit records in one write."""
        payloads = [WalRecord.commit(t, w).encode() for t, w in records]
        counters = yield from self.wal.append_many(payloads)
        for txn_id, _writes in records:
            self.prepared_txns.pop(txn_id, None)
        return counters

    def log_prepare(self, txn_id: bytes, writes: List[WriteOp]) -> Gen:
        """Persist a distributed transaction's prepare record (§V-A).

        Returns ``(counter, log_name)``.  The WAL reference is captured
        *before* the device write: a concurrent flush may rotate
        ``self.wal`` while this fiber waits in the write, and the
        stabilization that follows must target the log that actually
        holds the record.
        """
        record = WalRecord.prepare(txn_id, writes)
        wal = self.wal
        counter = yield from wal.append(record.encode())
        self.prepared_txns[txn_id] = list(writes)
        return counter, wal.log_name

    def forget_prepared(self, txn_id: bytes) -> None:
        """Drop a prepared transaction after it resolved (commit/abort)."""
        self.prepared_txns.pop(txn_id, None)

    @property
    def wal_log_name(self) -> str:
        return self.wal.log_name

    @property
    def manifest_log_name(self) -> str:
        return self.manifest.log.log_name

    def apply_writes(self, writes: List[WriteOp]) -> Gen:
        """Apply already-logged writes to the MemTable; flush if full."""
        for key, value, seq in writes:
            yield from self.memtable.put(key, value, seq)
        if self.memtable.approximate_bytes >= self.config.memtable_limit_bytes:
            yield from self.flush()

    # -- read path ----------------------------------------------------------------
    def _reader(self, meta: SSTableMeta) -> SSTableReader:
        reader = self._readers.get(meta.filename)
        if reader is None:
            reader = SSTableReader(self.runtime, self.disk, self.keyring, meta)
            self._readers[meta.filename] = reader
        return reader

    def get_with_seq(self, key: bytes) -> Gen:
        """Return ``(value_or_None, seq)``; seq 0 when never written.

        The read's op overhead is paid in the MemTable's core hold, with
        a hit's hash and open (``MemTable.get``); a miss pays it alone
        before the SSTables are read.
        """
        found = yield from self.memtable.get(key, self.runtime.costs.op_base_cpu)
        if found is not None:
            value, seq = found
            return (None if value is TOMBSTONE else value, seq)
        # L0: newest table first (they may overlap).
        for meta in reversed(self.levels.get(0, [])):
            hit = yield from self._reader(meta).get(key)
            if hit is not None:
                value, seq = hit
                return (None if value is TOMBSTONE else value, seq)
        # Deeper levels: at most one covering table per level.
        for level in range(1, _MAX_LEVEL + 1):
            for meta in self.levels.get(level, []):
                if meta.covers_key(key):
                    hit = yield from self._reader(meta).get(key)
                    if hit is not None:
                        value, seq = hit
                        return (None if value is TOMBSTONE else value, seq)
                    break
        return (None, 0)

    def scan(
        self, start: bytes, end: Optional[bytes], limit: Optional[int] = None
    ) -> Gen:
        """Merged range scan ``[start, end)`` across all levels.

        Returns ``[(key, value)]`` sorted by key, tombstones elided.
        """
        yield from self.runtime.op_overhead()
        best: Dict[bytes, Tuple[Any, int]] = {}

        def consider(key, value, seq):
            current = best.get(key)
            if current is None or seq > current[1]:
                best[key] = (value, seq)

        mem_entries = yield from self.memtable.range_scan(start, end)
        for key, value, seq in mem_entries:
            consider(key, value, seq)
        for level, tables in sorted(self.levels.items()):
            for meta in tables:
                if not meta.overlaps(start, end):
                    continue
                entries = yield from self._reader(meta).scan(start, end)
                for key, value, seq in entries:
                    consider(key, value, seq)
        result = [
            (key, value)
            for key, (value, _seq) in sorted(best.items())
            if value is not TOMBSTONE
        ]
        if limit is not None:
            result = result[:limit]
        return result

    def seq_of(self, key: bytes) -> Gen:
        """Current version of ``key`` (for OCC validation)."""
        _value, seq = yield from self.get_with_seq(key)
        return seq

    # -- flush / compaction ------------------------------------------------------
    def flush(self) -> Gen:
        """Flush the MemTable to a new L0 SSTable and rotate the WAL."""
        yield self._flush_lock.request()
        span = None
        try:
            if len(self.memtable) == 0:
                return
            span = self.tracer.span("storage", "flush", node=self.name)
            entries = yield from self.memtable.entries()
            meta = yield from build_sstable(
                self.runtime,
                self.disk,
                self.keyring,
                self._path(self._next_table_name()),
                0,
                entries,
                self.config.block_bytes,
            )
            old_wal = self.wal
            yield from self._open_new_wal()
            # Carry unresolved prepared transactions into the new WAL so
            # their records survive the old WAL's garbage collection.
            for txn_id, writes in list(self.prepared_txns.items()):
                yield from self.wal.append(
                    WalRecord.prepare(txn_id, writes).encode()
                )
            counter = yield from self.manifest.record(ManifestEdit.add_table(meta))
            yield from self.manifest.record(
                ManifestEdit.del_log("wal", old_wal.filename)
            )
            self.levels.setdefault(0, []).append(meta)
            self.memtable.clear()
            self.flush_count += 1
            self._defer_delete([old_wal.filename], after_manifest_counter=counter)
            span.close(table=meta.filename, bytes=meta.file_bytes)
        finally:
            if span is not None:
                span.close()
            self._flush_lock.release()
        if len(self.levels.get(0, [])) >= _L0_COMPACTION_TRIGGER:
            yield from self.compact(0)

    def compact(self, level: int) -> Gen:
        """Merge ``level`` into ``level+1`` (cascading if needed, §II-A)."""
        inputs = list(self.levels.get(level, []))
        if not inputs:
            return
        span = self.tracer.span(
            "storage", "compact", node=self.name, level=level,
            inputs=len(inputs),
        )
        target = level + 1
        overlapping = [
            meta
            for meta in self.levels.get(target, [])
            if any(
                meta.overlaps(inp.min_key, inp.max_key + b"\x00") for inp in inputs
            )
        ]
        merged: Dict[bytes, Tuple[Any, int]] = {}
        for meta in overlapping + inputs:  # inputs are newer: applied last wins
            entries = yield from self._reader(meta).all_entries()
            for key, value, seq in entries:
                current = merged.get(key)
                if current is None or seq > current[1]:
                    merged[key] = (value, seq)
        # Tombstones can be dropped once nothing deeper may hold the key.
        deeper_data = any(
            self.levels.get(deep) for deep in range(target + 1, _MAX_LEVEL + 1)
        )
        output = [
            (key, value, seq)
            for key, (value, seq) in sorted(merged.items())
            if not (value is TOMBSTONE and not deeper_data)
        ]
        new_metas: List[SSTableMeta] = []
        max_output_bytes = 4 * self.config.memtable_limit_bytes
        chunk: List[Tuple[bytes, Any, int]] = []
        chunk_bytes = 0
        for entry in output:
            chunk.append(entry)
            chunk_bytes += len(entry[0]) + (
                0 if entry[1] is TOMBSTONE else len(entry[1])
            )
            if chunk_bytes >= max_output_bytes:
                new_metas.append(
                    (yield from self._build_level_table(target, chunk))
                )
                chunk, chunk_bytes = [], 0
        if chunk:
            new_metas.append((yield from self._build_level_table(target, chunk)))

        last_counter = 0
        for meta in new_metas:
            last_counter = yield from self.manifest.record(
                ManifestEdit.add_table(meta)
            )
        obsolete = inputs + overlapping
        for meta in obsolete:
            last_counter = yield from self.manifest.record(
                ManifestEdit.del_table(meta.filename)
            )
        self.levels[level] = [m for m in self.levels.get(level, []) if m not in inputs]
        kept = [m for m in self.levels.get(target, []) if m not in overlapping]
        self.levels[target] = kept + new_metas
        self.compaction_count += 1
        self._defer_delete(
            [m.filename for m in obsolete], after_manifest_counter=last_counter
        )
        for meta in obsolete:
            self._readers.pop(meta.filename, None)
        span.close(outputs=len(new_metas))
        # Cascade when the target level itself overflowed (§II-A).
        trigger = _L0_COMPACTION_TRIGGER * (_LEVEL_RATIO ** target)
        if target < _MAX_LEVEL and len(self.levels.get(target, [])) > trigger:
            yield from self.compact(target)

    def _build_level_table(self, level: int, entries) -> Gen:
        table_file = self._next_table_name()
        meta = yield from build_sstable(
            self.runtime,
            self.disk,
            self.keyring,
            self._path(table_file),
            level,
            entries,
            self.config.block_bytes,
        )
        return meta

    def _defer_delete(self, filenames: List[str], after_manifest_counter: int):
        """GC: delete replaced files only once the MANIFEST edit is stable.

        "TREATY's garbage collector only deletes SSTable files when the
        newly compacted ones refer to stabilized entries in MANIFEST."
        """

        def gc():
            if self.stabilize is not None:
                yield from self.stabilize(
                    self.manifest_log_name, after_manifest_counter
                )
            else:
                yield self.runtime.sim.sleep(_DELETE_GRACE)
            for filename in filenames:
                self.disk.delete(filename)

        self.runtime.sim.spawn(gc(), name="gc@%s" % self.name)

    # -- recovery -----------------------------------------------------------------
    def recover(self, read_stable_many=None) -> Gen:
        """Rebuild engine state from the untrusted disk after a crash.

        ``read_stable_many`` bounds each log's recovery to its trusted
        stable prefix (entries beyond it were never acknowledged).  It
        is ``None`` (trust everything — native baselines) or the node's
        quorum read of the trusted counter service,
        :meth:`~repro.core.trusted_counter.CounterClient.read_stable_many`
        (``(log_names) -> {log_name: stable value}``).  It is called
        twice: for the MANIFEST, then for every live WAL and Clog the
        MANIFEST names.

        Freshness (§VI): for every log with a known stable value, the
        bytes on disk must reach that value; a rolled-back disk raises
        :class:`FreshnessError`.

        Returns ``(version_state, prepared_txn_ids, stable)``, where
        ``stable`` holds every value read (empty without a reader).
        """
        if self._started:
            raise StorageError("recover() must run on a fresh engine instance")
        self._started = True
        stable: Dict[str, Optional[int]] = {}

        def read_stable(log_names: List[str]) -> Gen:
            if read_stable_many is not None and log_names:
                values = yield from read_stable_many(sorted(set(log_names)))
                stable.update(values)

        def check_fresh(log: SecureLog, value: Optional[int]) -> None:
            if value is not None and log.on_disk_max_counter() < value:
                raise FreshnessError(
                    "log %s rolled back: disk has %d entries, %d are stable"
                    % (log.log_name, log.on_disk_max_counter(), value)
                )

        # MANIFEST: the whole authenticated chain is trusted — its
        # entries are structural edits whose *effects* are protected by
        # the GC invariant (files are only deleted once the edit is
        # stable), so an unstable suffix is always safely replayable.
        # Freshness still applies: the disk must reach the stable value.
        yield from read_stable([self.manifest_log_name])
        check_fresh(self.manifest.log, stable.get(self.manifest_log_name))
        state = yield from self.manifest.replay()
        manifest_entries = yield from self.manifest.log.replay()
        self.manifest.log.reset_from_replay(manifest_entries)

        # Now that the MANIFEST named the live logs, one quorum read
        # fetches every one's stable value.
        yield from read_stable(state.live_wals + state.live_clogs)

        self.levels = {}
        for level, tables in state.tables.items():
            self.levels[level] = list(tables)

        # Resume file numbering beyond anything present on disk before
        # any new file can be created.
        for filename in self.disk.list_files(prefix=self.name + "/"):
            stem = filename.rsplit("/", 1)[1]
            if stem.startswith("sst-"):
                self._file_seq = max(self._file_seq, int(stem[4:10]))
            elif stem.startswith("wal-"):
                self._wal_seq = max(self._wal_seq, int(stem[4:10]))

        max_seq = state.max_seq()
        for wal_path in state.live_wals:
            wal = SecureLog(
                self.runtime, self.disk, wal_path, self.keyring, log_name=wal_path
            )
            wal_stable = stable.get(wal_path)
            check_fresh(wal, wal_stable)
            # The full authenticated chain is kept on disk; only entries
            # within the stable prefix are *applied*.  An unstable
            # commit record stays invisible (its client was never
            # acknowledged) but must not discard the prepare it resolves
            # — with cross-node piggybacking a prepare's stabilization
            # may be in flight in the coordinator's group-wide round
            # while this node crashes, and its counter can become stable
            # globally at any moment.  Keeping the chain means a later
            # stable value can never make this disk look rolled back,
            # and prepare records are re-adopted regardless of counter:
            # their fate comes from the coordinator (TXN_RESOLVE), which
            # stabilizes the decision and any piggybacked targets before
            # answering commit.
            entries = yield from wal.replay()
            for counter, payload in entries:
                yield from self.runtime.compute(
                    self.runtime.costs.recovery_record_cpu
                    + len(payload) * self.runtime.costs.copy_per_byte
                )
                record = WalRecord.decode(payload)
                applied = wal_stable is None or counter <= wal_stable
                if record.kind == WalRecord.KIND_PREPARE:
                    self.prepared_txns[record.txn_id] = record.writes
                elif applied:
                    self.prepared_txns.pop(record.txn_id, None)
                    for key, value, seq in record.writes:
                        yield from self.memtable.put(key, value, seq)
                        max_seq = max(max_seq, seq)
                else:
                    # Unstable commit suffix: keep the record (chain
                    # integrity) but leave the prepare adoptable and the
                    # memtable untouched; still reserve its sequence
                    # numbers so re-commits never reuse them.
                    for _key, _value, seq in record.writes:
                        max_seq = max(max_seq, seq)
            if wal_path == state.live_wals[-1]:
                wal.reset_from_replay(entries)
                self.wal = wal
        if self.wal is None:
            yield from self._open_new_wal()
        self._seq = max_seq

        # Drop orphaned files no recovered state references (e.g. an
        # SSTable from a flush whose MANIFEST entry never stabilized).
        referenced = {m.filename for ts in self.levels.values() for m in ts}
        referenced.update(state.live_wals)
        referenced.update(state.live_clogs)
        referenced.add(self.manifest.log.filename)
        if self.wal is not None:
            referenced.add(self.wal.filename)
        for filename in self.disk.list_files(prefix=self.name + "/"):
            stem = filename.rsplit("/", 1)[1]
            if filename in referenced or stem.startswith("clog"):
                continue
            if stem.endswith(".sealed"):
                # Sealed enclave state (the counter replica's confirmed
                # values) lives under the node prefix but is not LSM
                # state: deleting it would roll the replica back to zero
                # on its next boot.
                continue
            self.disk.delete(filename)
        return state, list(self.prepared_txns.keys()), stable

    # -- statistics ----------------------------------------------------------------
    def table_count(self) -> int:
        return sum(len(tables) for tables in self.levels.values())

    def describe_levels(self) -> Dict[int, int]:
        return {level: len(tables) for level, tables in self.levels.items() if tables}
