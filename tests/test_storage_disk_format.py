"""Tests for the simulated disk and the binary record formats."""

import pytest

from repro.errors import CorruptLogError, StorageError
from repro.storage import Disk, Reader, Writer, iter_log_entries, pack_kv, unpack_kv
from repro.storage.format import frame_log_entry


class TestDisk:
    def test_append_and_read(self):
        disk = Disk()
        offset = disk.append("log", b"hello")
        assert offset == 0
        assert disk.append("log", b" world") == 5
        assert disk.read("log") == b"hello world"

    def test_read_range(self):
        disk = Disk()
        disk.write("f", b"0123456789")
        got = disk.read_range("f", 2, 3)
        assert got == b"234" and type(got) is bytes
        disk.tamper("f", 2)  # an immutable copy, not a view of the device
        assert got == b"234"
        with pytest.raises(StorageError, match="short read"):
            disk.read_range("f", 8, 5)
        with pytest.raises(StorageError, match="no such file"):
            disk.read_range("nope", 0, 1)

    def test_missing_file_raises(self):
        with pytest.raises(StorageError):
            Disk().read("nope")

    def test_delete_and_exists(self):
        disk = Disk()
        disk.write("f", b"x")
        assert disk.exists("f")
        disk.delete("f")
        assert not disk.exists("f")
        disk.delete("f")  # idempotent

    def test_list_files_with_prefix(self):
        disk = Disk()
        disk.write("node0/a", b"")
        disk.write("node0/b", b"")
        disk.write("node1/a", b"")
        assert disk.list_files("node0/") == ["node0/a", "node0/b"]

    def test_snapshot_restore_rollback(self):
        disk = Disk()
        disk.write("log", b"old-state")
        old = disk.snapshot()
        disk.write("log", b"new-state")
        disk.restore(old)
        assert disk.read("log") == b"old-state"

    def test_snapshot_is_deep_copy(self):
        disk = Disk()
        disk.write("log", b"abc")
        snap = disk.snapshot()
        disk.append("log", b"def")
        assert snap.files["log"] == b"abc"

    def test_tamper_flips_byte(self):
        disk = Disk()
        disk.write("f", b"\x00\x00")
        disk.tamper("f", 1, xor_mask=0xFF)
        assert disk.read("f") == b"\x00\xff"

    def test_truncate(self):
        disk = Disk()
        disk.write("f", b"0123456789")
        disk.truncate("f", 4)
        assert disk.read("f") == b"0123"

    def test_total_bytes(self):
        disk = Disk()
        disk.write("a", b"xx")
        disk.write("b", b"yyy")
        assert disk.total_bytes() == 5


class TestFormat:
    def test_writer_reader_roundtrip(self):
        data = Writer().u32(7).u64(2**40).blob(b"payload").raw(b"zz").getvalue()
        reader = Reader(data)
        assert reader.u32() == 7
        assert reader.u64() == 2**40
        assert reader.blob() == b"payload"
        assert reader.raw(2) == b"zz"
        assert reader.exhausted

    def test_truncated_read_raises(self):
        reader = Reader(b"\x01\x02")
        with pytest.raises(CorruptLogError):
            reader.u32()

    def test_kv_roundtrip(self):
        packed = pack_kv(b"key", b"value")
        assert unpack_kv(packed) == (b"key", b"value")

    def test_log_entry_framing(self):
        tag = bytes(32)
        blob = frame_log_entry(1, b"first", tag) + frame_log_entry(2, b"second", tag)
        entries = list(iter_log_entries(blob))
        assert [(e.counter, e.payload) for e in entries] == [
            (1, b"first"),
            (2, b"second"),
        ]
        assert entries[1].offset == len(frame_log_entry(1, b"first", tag))

    def test_bad_tag_length_rejected(self):
        with pytest.raises(ValueError):
            frame_log_entry(1, b"x", b"short")

    def test_truncated_log_raises(self):
        tag = bytes(32)
        blob = frame_log_entry(1, b"data", tag)
        with pytest.raises(CorruptLogError):
            list(iter_log_entries(blob[:-10]))
