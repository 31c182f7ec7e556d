"""Tests for the skip list and the enclave/host-split MemTable."""

import pytest

from repro.config import DS_ROCKSDB, TREATY_ENC
from repro.crypto import KeyRing
from repro.errors import IntegrityError
from repro.sim import SeededRng
from repro.storage import MemTable, SkipList, TOMBSTONE

from tests.conftest import ROOT_KEY, StorageHarness


class TestSkipList:
    def test_insert_get(self):
        skiplist = SkipList(SeededRng(1, "t"))
        assert skiplist.insert(b"b", 2)
        assert skiplist.insert(b"a", 1)
        assert skiplist.get(b"a") == 1
        assert skiplist.get(b"b") == 2
        assert skiplist.get(b"c") is None

    def test_overwrite_returns_false(self):
        skiplist = SkipList(SeededRng(1, "t"))
        assert skiplist.insert(b"k", 1)
        assert not skiplist.insert(b"k", 2)
        assert skiplist.get(b"k") == 2
        assert len(skiplist) == 1

    def test_sorted_iteration(self):
        skiplist = SkipList(SeededRng(1, "t"))
        keys = [b"%04d" % i for i in range(200)]
        for key in reversed(keys):
            skiplist.insert(key, key)
        assert [k for k, _ in skiplist.items()] == keys

    def test_range_items(self):
        skiplist = SkipList(SeededRng(1, "t"))
        for i in range(20):
            skiplist.insert(b"%02d" % i, i)
        result = [k for k, _ in skiplist.range_items(b"05", b"09")]
        assert result == [b"05", b"06", b"07", b"08"]

    def test_range_open_end(self):
        skiplist = SkipList(SeededRng(1, "t"))
        for i in range(5):
            skiplist.insert(b"%d" % i, i)
        assert [k for k, _ in skiplist.range_items(b"3", None)] == [b"3", b"4"]

    def test_large_scale_ordering(self):
        rng = SeededRng(7, "keys")
        skiplist = SkipList(SeededRng(1, "t"))
        keys = {bytes([rng.randrange(256) for _ in range(8)]) for _ in range(2000)}
        for key in keys:
            skiplist.insert(key, None)
        assert [k for k, _ in skiplist.items()] == sorted(keys)


def make_memtable(profile=TREATY_ENC):
    harness = StorageHarness(profile=profile)
    table = MemTable(harness.runtime, KeyRing(ROOT_KEY))
    return harness, table


class TestMemTable:
    def test_put_get_roundtrip(self):
        harness, table = make_memtable()

        def body():
            yield from table.put(b"k1", b"v1", 1)
            return (yield from table.get(b"k1"))

        assert harness.run(body()) == (b"v1", 1)

    def test_missing_key_returns_none(self):
        harness, table = make_memtable()
        assert harness.run(table.get(b"missing")) is None

    def test_tombstone(self):
        harness, table = make_memtable()

        def body():
            yield from table.put(b"k", b"v", 1)
            yield from table.put(b"k", None, 2)
            return (yield from table.get(b"k"))

        value, seq = harness.run(body())
        assert value is TOMBSTONE
        assert seq == 2

    def test_values_encrypted_in_host_memory(self):
        harness, table = make_memtable()
        harness.run(table.put(b"k", b"plaintext-value", 1))
        stored = list(table.host_values.values())[0]
        assert b"plaintext-value" not in stored

    def test_plaintext_profile_skips_crypto(self):
        harness, table = make_memtable(profile=DS_ROCKSDB)
        harness.run(table.put(b"k", b"visible", 1))
        assert list(table.host_values.values())[0] == b"visible"

    def test_host_memory_tamper_detected(self):
        harness, table = make_memtable()
        harness.run(table.put(b"k", b"value", 1))
        value_id = list(table.host_values)[0]
        blob = bytearray(table.host_values[value_id])
        blob[-1] ^= 0x01
        table.host_values[value_id] = bytes(blob)
        with pytest.raises(IntegrityError):
            harness.run(table.get(b"k"))

    def test_enclave_holds_keys_host_holds_values(self):
        harness, table = make_memtable()
        key, value = b"k" * 16, b"v" * 4096
        harness.run(table.put(key, value, 1))
        assert harness.runtime.enclave.memory.used < 200
        assert harness.runtime.host_memory.used >= len(value)

    def test_entries_sorted_decrypted(self):
        harness, table = make_memtable()

        def body():
            yield from table.put(b"b", b"2", 2)
            yield from table.put(b"a", b"1", 1)
            yield from table.put(b"c", None, 3)
            return (yield from table.entries())

        entries = harness.run(body())
        assert entries == [(b"a", b"1", 1), (b"b", b"2", 2), (b"c", TOMBSTONE, 3)]

    def test_seq_of(self):
        harness, table = make_memtable()
        harness.run(table.put(b"k", b"v", 17))
        assert table.seq_of(b"k") == 17
        assert table.seq_of(b"other") is None

    def test_clear_releases_memory(self):
        harness, table = make_memtable()
        for i in range(10):
            harness.run(table.put(b"key-%d" % i, b"v" * 100, i + 1))
        assert harness.runtime.host_memory.used > 0
        table.clear()
        assert harness.runtime.host_memory.used == 0
        assert len(table) == 0
        assert table.approximate_bytes == 0

    def test_clear_leaves_no_stale_key(self):
        """After a flush's clear every key is gone, from point lookups and
        from scans alike, and a re-inserted key is new again."""
        harness, table = make_memtable()
        keys = [b"key-%d" % i for i in range(10)]
        for seq, key in enumerate(keys, 1):
            harness.run(table.put(key, b"v", seq))
        table.clear()
        for key in keys:
            assert harness.run(table.get(key)) is None
            assert table.seq_of(key) is None
        assert harness.run(table.range_scan(b"", None)) == []
        harness.run(table.put(keys[3], b"again", 11))
        assert len(table) == 1
        assert harness.run(table.get(keys[3])) == (b"again", 11)
        assert harness.run(table.get(keys[4])) is None

    def test_overwrite_updates_value(self):
        harness, table = make_memtable()

        def body():
            yield from table.put(b"k", b"old", 1)
            yield from table.put(b"k", b"new", 2)
            return (yield from table.get(b"k"))

        assert harness.run(body()) == (b"new", 2)

    def test_range_scan(self):
        harness, table = make_memtable()

        def body():
            for i in range(10):
                yield from table.put(b"%02d" % i, b"v%d" % i, i + 1)
            return (yield from table.range_scan(b"03", b"06"))

        entries = harness.run(body())
        assert [k for k, _, _ in entries] == [b"03", b"04", b"05"]
