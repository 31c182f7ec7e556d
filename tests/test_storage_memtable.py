"""Tests for the enclave/host-split MemTable and its key order."""

import pytest

from repro.config import DS_ROCKSDB, TREATY_ENC
from repro.crypto import KeyRing
from repro.errors import IntegrityError
from repro.sim import SeededRng
from repro.storage import MemTable, TOMBSTONE

from tests.conftest import ROOT_KEY, StorageHarness


def make_memtable(profile=TREATY_ENC):
    harness = StorageHarness(profile=profile)
    table = MemTable(harness.runtime, KeyRing(ROOT_KEY))
    return harness, table


def put_all(harness, table, pairs):
    """Put ``(key, value)`` pairs at seqs 1, 2, ... (value None: delete)."""

    def body():
        for seq, (key, value) in enumerate(pairs, 1):
            yield from table.put(key, value, seq)

    harness.run(body())


def scanned_keys(harness, table, start, end):
    return [key for key, _, _ in harness.run(table.range_scan(start, end))]


class TestMemTableOrder:
    def test_insert_get(self):
        harness, table = make_memtable()
        put_all(harness, table, [(b"b", b"2"), (b"a", b"1")])
        assert harness.run(table.get(b"a")) == (b"1", 2)
        assert harness.run(table.get(b"b")) == (b"2", 1)
        assert harness.run(table.get(b"c")) is None

    def test_overwrite_keeps_one_key(self):
        harness, table = make_memtable()
        put_all(harness, table, [(b"k", b"1"), (b"k", b"2")])
        assert harness.run(table.get(b"k")) == (b"2", 2)
        assert len(table) == 1
        assert harness.run(table.entries()) == [(b"k", b"2", 2)]

    def test_sorted_iteration(self):
        harness, table = make_memtable()
        keys = [b"%04d" % i for i in range(200)]
        put_all(harness, table, [(key, key) for key in reversed(keys)])
        assert [k for k, _, _ in harness.run(table.entries())] == keys

    def test_range_scan_half_open(self):
        harness, table = make_memtable()
        put_all(harness, table, [(b"%02d" % i, b"v") for i in range(20)])
        assert scanned_keys(harness, table, b"05", b"09") == [
            b"05", b"06", b"07", b"08"]
        assert scanned_keys(harness, table, b"051", b"07") == [b"06"]
        assert scanned_keys(harness, table, b"09", b"05") == []

    def test_range_open_end(self):
        harness, table = make_memtable()
        put_all(harness, table, [(b"%d" % i, b"v") for i in range(5)])
        assert scanned_keys(harness, table, b"3", None) == [b"3", b"4"]

    def test_large_scale_ordering(self):
        rng = SeededRng(7, "keys")
        harness, table = make_memtable(profile=DS_ROCKSDB)
        keys = {bytes([rng.randrange(256) for _ in range(8)]) for _ in range(2000)}
        put_all(harness, table, [(key, b"") for key in keys])
        assert [k for k, _, _ in harness.run(table.entries())] == sorted(keys)

    def test_put_during_walk(self):
        """A put that lands while the walk opens a value: a key behind
        the walk is skipped, one ahead of it is read, as in a linked
        list walked node by node."""
        harness, table = make_memtable()
        put_all(harness, table, [(b"b", b"2"), (b"d", b"4")])
        load_value = table._load_value

        def put_while_opening(key, entry, overhead=0.0):
            if key == b"b":
                yield from table.put(b"a", b"behind", 3)
                yield from table.put(b"c", b"ahead", 4)
            return (yield from load_value(key, entry, overhead))

        table._load_value = put_while_opening
        assert harness.run(table.entries()) == [
            (b"b", b"2", 1), (b"c", b"ahead", 4), (b"d", b"4", 2)]


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
