"""Targeted unit tests: manifest state machine, misc layer edges."""

import pytest

from repro.config import ClusterConfig, DS_ROCKSDB, TREATY_ENC
from repro.errors import CorruptLogError
from repro.storage import ManifestEdit, VersionState
from repro.storage.sstable import SSTableMeta

from tests.conftest import StorageHarness


def meta(filename, level=0, max_seq=1):
    return SSTableMeta(
        filename=filename, level=level, footer_hash=b"\x00" * 32,
        min_key=b"a", max_key=b"z", max_seq=max_seq, entry_count=1,
        file_bytes=100,
    )


class TestManifestEdits:
    def test_add_table_roundtrip(self):
        edit = ManifestEdit.add_table(meta("node0/sst-1.sst", level=2))
        decoded = ManifestEdit.decode(edit.encode())
        assert decoded.kind == ManifestEdit.ADD_TABLE
        assert decoded.table.filename == "node0/sst-1.sst"
        assert decoded.table.level == 2

    @pytest.mark.parametrize(
        "factory,kind",
        [
            (lambda: ManifestEdit.del_table("f"), ManifestEdit.DEL_TABLE),
            (lambda: ManifestEdit.new_log("wal", "f"), ManifestEdit.NEW_LOG),
            (lambda: ManifestEdit.del_log("clog", "f"), ManifestEdit.DEL_LOG),
        ],
    )
    def test_other_edits_roundtrip(self, factory, kind):
        decoded = ManifestEdit.decode(factory().encode())
        assert decoded.kind == kind
        assert decoded.filename == "f"

    def test_unknown_kind_rejected(self):
        from repro.storage.format import Writer

        blob = Writer().u32(99).blob(b"x").blob(b"y").getvalue()
        with pytest.raises(CorruptLogError):
            ManifestEdit.decode(blob)


class TestVersionState:
    def test_add_then_delete_table(self):
        state = VersionState()
        state.apply(ManifestEdit.add_table(meta("t1", level=1)))
        state.apply(ManifestEdit.add_table(meta("t2", level=1, max_seq=9)))
        assert len(state.tables[1]) == 2
        state.apply(ManifestEdit.del_table("t1"))
        assert [t.filename for t in state.tables[1]] == ["t2"]
        assert state.max_seq() == 9

    def test_log_lifecycle(self):
        state = VersionState()
        state.apply(ManifestEdit.new_log("wal", "w1"))
        state.apply(ManifestEdit.new_log("wal", "w2"))
        state.apply(ManifestEdit.new_log("clog", "c1"))
        state.apply(ManifestEdit.del_log("wal", "w1"))
        assert state.live_wals == ["w2"]
        assert state.live_clogs == ["c1"]

    def test_duplicate_new_log_idempotent(self):
        state = VersionState()
        state.apply(ManifestEdit.new_log("wal", "w1"))
        state.apply(ManifestEdit.new_log("wal", "w1"))
        assert state.live_wals == ["w1"]

    def test_delete_unknown_log_ignored(self):
        state = VersionState()
        state.apply(ManifestEdit.del_log("wal", "ghost"))
        assert state.live_wals == []

    def test_empty_state_max_seq(self):
        assert VersionState().max_seq() == 0


class TestSimCompositeFailures:
    def test_all_of_propagates_failure(self):
        from repro.sim import Simulator

        sim = Simulator()

        def failer():
            yield sim.timeout(1)
            raise ValueError("inner")

        def waiter():
            ok = sim.timeout(5)
            bad = sim.process(failer())
            try:
                yield sim.all_of([ok, bad])
            except ValueError as error:
                return str(error)

        assert sim.run_process(waiter()) == "inner"

    def test_any_of_propagates_failure(self):
        from repro.sim import Simulator

        sim = Simulator()

        def failer():
            yield sim.timeout(1)
            raise ValueError("first-to-fire")

        def waiter():
            slow = sim.timeout(10)
            bad = sim.process(failer())
            try:
                yield sim.any_of([bad, slow])
            except ValueError as error:
                return str(error)

        assert sim.run_process(waiter()) == "first-to-fire"


class TestSstableBlockBoundaries:
    def test_keys_at_block_edges_found(self):
        """Every key must be findable even when it is the first/last of
        its block (binary search edge cases)."""
        harness = StorageHarness()
        from repro.storage import SSTableReader, build_sstable

        entries = [(b"k%05d" % i, b"v" * 40, i + 1) for i in range(200)]
        meta_obj = harness.run(
            build_sstable(
                harness.runtime, harness.disk, harness.keyring,
                "node0/edge.sst", 0, entries, block_bytes=256,
            )
        )
        reader = SSTableReader(
            harness.runtime, harness.disk, harness.keyring, meta_obj
        )
        index = harness.run(reader._load_footer())
        assert len(index) >= 10
        # Check the first key of every block and its predecessor.
        for first_key, _off, _len, _hash in index:
            value, _seq = harness.run(reader.get(first_key))
            assert value == b"v" * 40
        # And keys just below each block boundary.
        for first_key, _off, _len, _hash in index[1:]:
            idx = int(first_key[1:])
            previous = b"k%05d" % (idx - 1)
            value, _seq = harness.run(reader.get(previous))
            assert value == b"v" * 40


class TestLockTableMisc:
    def test_holds_semantics(self):
        from repro.sim import Simulator
        from repro.txn import LockMode, LockTable

        sim = Simulator()
        table = LockTable(sim)
        sim.run_process(table.acquire(b"t", b"k", LockMode.EXCLUSIVE))
        assert table.holds(b"t", b"k")
        assert table.holds(b"t", b"k", LockMode.SHARED)  # W covers R
        assert table.holds(b"t", b"k", LockMode.EXCLUSIVE)
        assert not table.holds(b"x", b"k")
        assert table.held_keys(b"t") == [b"k"]

    def test_shared_holder_does_not_cover_exclusive(self):
        from repro.sim import Simulator
        from repro.txn import LockMode, LockTable

        sim = Simulator()
        table = LockTable(sim)
        sim.run_process(table.acquire(b"t", b"k", LockMode.SHARED))
        assert table.holds(b"t", b"k", LockMode.SHARED)
        assert not table.holds(b"t", b"k", LockMode.EXCLUSIVE)
