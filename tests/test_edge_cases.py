"""Edge cases across modules: empty payloads, boundary sizes, odd inputs."""

import pytest

from repro.config import ClusterConfig, DS_ROCKSDB, TREATY_ENC
from repro.crypto import Aead, KeyRing
from repro.errors import StorageError, TransactionError
from repro.storage import SecureLog, TOMBSTONE, build_sstable
from repro.txn import TxnBuffer, TxnStatus

from tests.conftest import ROOT_KEY, StorageHarness, TxnHarness


class TestEmptyAndBoundary:
    def test_empty_value_roundtrip(self):
        harness = TxnHarness().boot()
        harness.txn_put([(b"empty", b"")])
        assert harness.get(b"empty") == b""

    def test_empty_value_distinct_from_missing(self):
        harness = TxnHarness().boot()
        harness.txn_put([(b"empty", b"")])
        assert harness.get(b"empty") == b""
        assert harness.get(b"missing") is None

    def test_single_byte_key(self):
        harness = TxnHarness().boot()
        harness.txn_put([(b"k", b"v")])
        assert harness.get(b"k") == b"v"

    def test_large_value_crosses_block_boundaries(self):
        config = ClusterConfig(block_bytes=512)
        harness = StorageHarness(config=config).boot()
        big = b"X" * 20_000
        harness.put_all([(b"big", big)])
        harness.run(harness.engine.flush())
        assert harness.get(b"big") == big

    def test_binary_keys_with_separator_bytes(self):
        harness = TxnHarness().boot()
        weird = bytes(range(1, 32)) + b"\x00\xff/"
        harness.txn_put([(weird, b"v")])
        assert harness.get(weird) == b"v"

    def test_key_ordering_with_prefixes(self):
        harness = StorageHarness().boot()
        harness.put_all([(b"a", b"1"), (b"a\x00", b"2"), (b"a0", b"3")])
        rows = harness.run(harness.engine.scan(b"a", b"b"))
        assert [k for k, _ in rows] == [b"a", b"a\x00", b"a0"]

    def test_secure_log_empty_payload_entry(self):
        harness = StorageHarness()
        log = SecureLog(harness.runtime, harness.disk, "node0/e.log",
                        KeyRing(ROOT_KEY))

        def body():
            yield from log.append(b"")
            return (yield from log.replay())

        assert harness.run(body()) == [(1, b"")]

    def test_log_entry_of_exactly_one_block(self):
        aead = Aead(bytes(32))
        plaintext = b"z" * 32  # one SHA-256 digest; the XOF keystream has no block edge
        assert aead.open(aead.seal(b"\x01" * 12, plaintext)) == plaintext


class TestTransactionStateMachine:
    def test_commit_twice_rejected(self):
        harness = TxnHarness().boot()

        def body():
            txn = harness.manager.begin_pessimistic()
            yield from txn.put(b"k", b"v")
            yield from txn.commit()
            yield from txn.commit()

        with pytest.raises(TransactionError):
            harness.run(body())

    def test_rollback_after_commit_is_noop(self):
        harness = TxnHarness().boot()

        def body():
            txn = harness.manager.begin_pessimistic()
            yield from txn.put(b"k", b"v")
            yield from txn.commit()
            yield from txn.rollback()  # silently ignored
            return txn.status

        assert harness.run(body()) == TxnStatus.COMMITTED

    def test_prepare_on_committed_rejected(self):
        harness = TxnHarness().boot()

        def body():
            txn = harness.manager.begin_pessimistic()
            yield from txn.put(b"k", b"v")
            yield from txn.commit()
            yield from txn.prepare()

        with pytest.raises(TransactionError):
            harness.run(body())

    def test_put_none_value_rejected(self):
        harness = TxnHarness().boot()

        def body():
            txn = harness.manager.begin_pessimistic()
            yield from txn.put(b"k", None)

        with pytest.raises(ValueError):
            harness.run(body())

    def test_overwrite_in_buffer_keeps_last(self):
        harness = TxnHarness().boot()

        def body():
            txn = harness.manager.begin_pessimistic()
            for i in range(5):
                yield from txn.put(b"k", b"v%d" % i)
            yield from txn.commit()

        harness.run(body())
        assert harness.get(b"k") == b"v4"


class TestTxnBuffer:
    def test_contiguous_growth_accounting(self):
        from repro.memory.regions import MemoryRegion

        region = MemoryRegion("enclave")
        buffer = TxnBuffer(region)
        buffer.record(b"key1", b"x" * 100)
        buffer.record(b"key2", b"y" * 50)
        assert buffer.byte_size == 4 + 100 + 4 + 50
        assert region.used == buffer.byte_size
        buffer.release()
        assert region.used == 0
        assert len(buffer) == 0

    def test_delete_then_write_order(self):
        from repro.memory.regions import MemoryRegion

        buffer = TxnBuffer(MemoryRegion("enclave"))
        buffer.record(b"k", b"v1")
        buffer.record(b"k", None)
        buffer.record(b"k", b"v2")
        assert buffer.get(b"k") == (True, b"v2")
        assert buffer.items() == [(b"k", b"v2")]


class TestCompactionCascade:
    def test_multi_level_compaction_preserves_everything(self):
        config = ClusterConfig(memtable_limit_bytes=2048, block_bytes=256)
        harness = StorageHarness(profile=DS_ROCKSDB, config=config).boot()
        expected = {}
        for wave in range(30):
            pairs = [
                (b"key-%04d" % ((wave * 13 + i) % 120), b"w%d-%d" % (wave, i))
                for i in range(6)
            ]
            for key, value in pairs:
                expected[key] = value
            harness.put_all(pairs)
            harness.run(harness.engine.flush())
        assert harness.engine.compaction_count >= 2
        levels = harness.engine.describe_levels()
        assert max(levels) >= 1
        for key, value in expected.items():
            assert harness.get(key) == value
        # Scans agree with the model too.
        rows = dict(harness.run(harness.engine.scan(b"key-", b"key-\xff")))
        assert rows == expected

    def test_empty_sstable_build_rejected(self):
        harness = StorageHarness().boot()
        with pytest.raises(StorageError):
            harness.run(
                build_sstable(
                    harness.runtime, harness.disk, harness.keyring,
                    "node0/x.sst", 0, [], 4096,
                )
            )


class TestTombstoneEdgeCases:
    def test_delete_missing_key_commits(self):
        harness = TxnHarness().boot()
        harness.txn_put([(b"ghost", None)])
        assert harness.get(b"ghost") is None

    def test_delete_then_reinsert_across_flushes(self):
        config = ClusterConfig(memtable_limit_bytes=2048)
        harness = StorageHarness(config=config).boot()
        harness.put_all([(b"cycle", b"v1")])
        harness.run(harness.engine.flush())
        harness.put_all([(b"cycle", None)])
        harness.run(harness.engine.flush())
        harness.put_all([(b"cycle", b"v2")])
        harness.run(harness.engine.flush())
        assert harness.get(b"cycle") == b"v2"
        harness.sim.run()
        recovered = harness.reopen()
        assert recovered.get(b"cycle") == b"v2"
