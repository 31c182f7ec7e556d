"""Tests for authenticated SSTables (blocks, footer, integrity)."""

from hashlib import sha256

import pytest

from repro.config import DS_ROCKSDB, TREATY_ENC
from repro.errors import IntegrityError, StorageError
from repro.storage import SSTableMeta, SSTableReader, TOMBSTONE, build_sstable

from tests.conftest import StorageHarness


def build(harness, entries, filename="node0/sst-000001.sst", block_bytes=256):
    return harness.run(
        build_sstable(
            harness.runtime,
            harness.disk,
            harness.keyring,
            filename,
            0,
            entries,
            block_bytes,
        )
    )


def reader_for(harness, meta):
    return SSTableReader(harness.runtime, harness.disk, harness.keyring, meta)


def sample_entries(n=50, value_size=32):
    return [(b"key-%04d" % i, bytes([i % 256]) * value_size, i + 1) for i in range(n)]


class TestBuildAndGet:
    def test_get_every_key(self):
        harness = StorageHarness()
        entries = sample_entries()
        meta = build(harness, entries)
        reader = reader_for(harness, meta)
        for key, value, seq in entries:
            assert harness.run(reader.get(key)) == (value, seq)

    def test_absent_keys(self):
        harness = StorageHarness()
        meta = build(harness, sample_entries(10))
        reader = reader_for(harness, meta)
        assert harness.run(reader.get(b"key-9999")) is None  # beyond range
        assert harness.run(reader.get(b"key-0005x")) is None  # between keys
        assert harness.run(reader.get(b"a")) is None  # before range

    def test_meta_summary(self):
        harness = StorageHarness()
        entries = sample_entries(20)
        meta = build(harness, entries)
        assert meta.min_key == b"key-0000"
        assert meta.max_key == b"key-0019"
        assert meta.entry_count == 20
        assert meta.max_seq == 20

    def test_multiple_blocks_created(self):
        harness = StorageHarness()
        meta = build(harness, sample_entries(100, value_size=64), block_bytes=256)
        reader = reader_for(harness, meta)
        index = harness.run(reader._load_footer())
        assert len(index) > 5

    def test_tombstones_roundtrip(self):
        harness = StorageHarness()
        entries = [(b"a", b"1", 1), (b"b", TOMBSTONE, 2), (b"c", b"3", 3)]
        meta = build(harness, entries)
        reader = reader_for(harness, meta)
        value, seq = harness.run(reader.get(b"b"))
        assert value is TOMBSTONE
        assert seq == 2

    def test_empty_rejected(self):
        harness = StorageHarness()
        with pytest.raises(StorageError):
            build(harness, [])

    def test_data_encrypted_on_disk(self):
        harness = StorageHarness()
        build(harness, [(b"k", b"super-secret-value", 1)])
        assert b"super-secret-value" not in harness.disk.read("node0/sst-000001.sst")

    def test_plaintext_profile(self):
        harness = StorageHarness(profile=DS_ROCKSDB)
        build(harness, [(b"k", b"visible-value", 1)])
        assert b"visible-value" in harness.disk.read("node0/sst-000001.sst")

    def test_meta_encode_decode(self):
        harness = StorageHarness()
        meta = build(harness, sample_entries(5))
        assert SSTableMeta.decode(meta.encode()) == meta


def pinned_entries():
    """40 entries, every seventh a tombstone, values of 4 to 36 bytes
    and the largest seq in the middle of the run."""
    return [
        (b"pin-%03d" % i,
         TOMBSTONE if i % 7 == 3 else (b"v%02d|" % i) * (i % 9 + 1),
         (i * 37) % 101 + 1)
        for i in range(40)
    ]


class TestPinnedBytes:
    """The file a fixed table is written as, byte for byte.

    No trace digest hashes disk bytes: these pin the blocks, their IVs
    and boundaries, the footer and the meta against a rewrite of
    ``build_sstable``.  The figures are those of the first build that
    streamed its entries, recorded before it, and the sim clock pins the
    build's holds."""

    @pytest.mark.parametrize("profile, file_sha, footer_hash, size, now", [
        (TREATY_ENC,
         "cff7970c607f2eb0b7aab2b5515962d858925d5fe6a3d99200e997dfa38c5eab",
         "6774c53e6600edcb585be55d77de404ec1fe169afe70290fcc7f3819ed57c0d3",
         2326, 5.183466666666667e-05),
        (DS_ROCKSDB,
         "8cd5564a1314d0a7ef803a793619b431dcc8c5b46e38a58102e4d36b550f0474",
         "c107583240e40116f24f016d66eac9f8e6e5ccd852106ed3bb9397632e3b3fb0",
         2130, 3.0178e-05),
    ], ids=["treaty-enc", "ds-rocksdb"])
    def test_file_and_meta(self, profile, file_sha, footer_hash, size, now):
        harness = StorageHarness(profile=profile)
        meta = harness.run(build_sstable(
            harness.runtime, harness.disk, harness.keyring,
            "node0/sst-000007.sst", 2, pinned_entries(), 256))
        data = harness.disk.read(meta.filename)
        assert sha256(data).hexdigest() == file_sha
        assert meta == SSTableMeta(
            filename="node0/sst-000007.sst", level=2,
            footer_hash=bytes.fromhex(footer_hash),
            min_key=b"pin-000", max_key=b"pin-039", max_seq=101,
            entry_count=40, file_bytes=size)
        assert len(data) == size
        assert harness.sim.now == now

    def test_callers_list_is_left_intact(self):
        harness = StorageHarness()
        entries = pinned_entries()
        build(harness, entries)
        assert entries == pinned_entries()

    def test_any_iterable_of_entries(self):
        """A generator builds the same file as the list it yields."""
        from_list, from_generator = StorageHarness(), StorageHarness()
        meta = build(from_list, pinned_entries())
        assert build(from_generator, iter(pinned_entries())) == meta
        assert (from_generator.disk.read(meta.filename)
                == from_list.disk.read(meta.filename))


class TestScan:
    def test_scan_range(self):
        harness = StorageHarness()
        meta = build(harness, sample_entries(50))
        reader = reader_for(harness, meta)
        result = harness.run(reader.scan(b"key-0010", b"key-0015"))
        assert [k for k, _, _ in result] == [b"key-%04d" % i for i in range(10, 15)]

    def test_scan_open_end(self):
        harness = StorageHarness()
        meta = build(harness, sample_entries(10))
        reader = reader_for(harness, meta)
        result = harness.run(reader.scan(b"key-0008", None))
        assert [k for k, _, _ in result] == [b"key-0008", b"key-0009"]

    def test_scan_outside_range_empty(self):
        harness = StorageHarness()
        meta = build(harness, sample_entries(10))
        reader = reader_for(harness, meta)
        assert harness.run(reader.scan(b"zzz", None)) == []

    def test_all_entries(self):
        harness = StorageHarness()
        entries = sample_entries(30)
        meta = build(harness, entries, block_bytes=128)
        reader = reader_for(harness, meta)
        assert harness.run(reader.all_entries()) == entries


class TestIntegrity:
    def test_block_tamper_detected(self):
        harness = StorageHarness()
        meta = build(harness, sample_entries(50))
        harness.disk.tamper(meta.filename, 10)
        reader = reader_for(harness, meta)
        with pytest.raises(IntegrityError):
            harness.run(reader.get(b"key-0000"))

    def test_footer_tamper_detected(self):
        harness = StorageHarness()
        meta = build(harness, sample_entries(50))
        size = harness.disk.size(meta.filename)
        harness.disk.tamper(meta.filename, size - 10)
        reader = reader_for(harness, meta)
        with pytest.raises(IntegrityError):
            harness.run(reader.get(b"key-0000"))

    def test_whole_file_substitution_detected(self):
        """Replacing the file with another valid SSTable fails the
        MANIFEST-recorded footer hash."""
        harness = StorageHarness()
        meta_a = build(harness, sample_entries(10), filename="node0/a.sst")
        build(harness, [(b"evil", b"data", 99)], filename="node0/b.sst")
        harness.disk.write("node0/a.sst", harness.disk.read("node0/b.sst"))
        reader = reader_for(harness, meta_a)
        with pytest.raises(IntegrityError):
            harness.run(reader.get(b"key-0000"))

    def test_native_profile_does_not_verify(self):
        """The unencrypted baseline is deliberately unable to detect this."""
        harness = StorageHarness(profile=DS_ROCKSDB)
        meta = build(harness, sample_entries(5, value_size=8))
        harness.disk.tamper(meta.filename, 12)
        reader = reader_for(harness, meta)
        harness.run(reader.get(b"key-0002"))  # silently serves bad data
