"""Property-based tests (hypothesis) for core data structures/invariants."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import ClusterConfig, DS_ROCKSDB, TREATY_ENC
from repro.crypto import Aead, KeyRing, LogChain
from repro.crypto.aead import IV_BYTES
from repro.errors import IntegrityError
from repro.net.message import MsgType, TxMessage, seal_batch, unseal_batch
from repro.storage import MemTable, TOMBSTONE, Writer, Reader
from repro.storage.records import WalRecord
from repro.storage.sstable import SSTableMeta

KEY = bytes(range(32))

_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

keys_st = st.binary(min_size=1, max_size=32)
values_st = st.binary(min_size=0, max_size=256)


class TestAeadProperties:
    @_SETTINGS
    @given(plaintext=values_st, aad=st.binary(max_size=32), iv_seed=st.integers(0, 2**64 - 1))
    def test_roundtrip(self, plaintext, aad, iv_seed):
        aead = Aead(KEY)
        iv = iv_seed.to_bytes(8, "little") + b"\x00\x00\x00\x00"
        assert aead.open(aead.seal(iv, plaintext, aad), aad) == plaintext

    @_SETTINGS
    @given(
        plaintext=st.binary(min_size=1, max_size=128),
        position=st.integers(0, 10_000),
        mask=st.integers(1, 255),
    )
    def test_any_tamper_detected(self, plaintext, position, mask):
        aead = Aead(KEY)
        sealed = bytearray(aead.seal(b"\x01" * IV_BYTES, plaintext))
        sealed[position % len(sealed)] ^= mask
        with pytest.raises(IntegrityError):
            aead.open(bytes(sealed))


class TestCodecProperties:
    @_SETTINGS
    @given(
        fields=st.lists(
            st.one_of(
                st.tuples(st.just("u32"), st.integers(0, 2**32 - 1)),
                st.tuples(st.just("u64"), st.integers(0, 2**64 - 1)),
                st.tuples(st.just("blob"), values_st),
            ),
            max_size=12,
        )
    )
    def test_writer_reader_roundtrip(self, fields):
        writer = Writer()
        for kind, value in fields:
            getattr(writer, kind)(value)
        reader = Reader(writer.getvalue())
        for kind, value in fields:
            assert getattr(reader, kind)() == value
        assert reader.exhausted

    @_SETTINGS
    @given(
        kind=st.sampled_from([WalRecord.KIND_COMMIT, WalRecord.KIND_PREPARE]),
        txn_id=st.binary(min_size=1, max_size=24),
        writes=st.lists(
            st.tuples(keys_st, st.one_of(st.none(), values_st), st.integers(0, 2**40)),
            max_size=8,
        ),
    )
    def test_wal_record_roundtrip(self, kind, txn_id, writes):
        record = WalRecord(kind, txn_id, list(writes))
        decoded = WalRecord.decode(record.encode())
        assert decoded.kind == kind
        assert decoded.txn_id == txn_id
        assert decoded.writes == list(writes)

    @_SETTINGS
    @given(
        msg_type=st.sampled_from([MsgType.TXN_READ, MsgType.TXN_WRITE, MsgType.ACK]),
        node=st.integers(0, 2**32),
        txn=st.integers(0, 2**48),
        op=st.integers(0, 2**32),
        body=values_st,
    )
    def test_txmessage_roundtrip(self, msg_type, node, txn, op, body):
        message = TxMessage(msg_type, node, txn, op, body)
        assert TxMessage.decode(message.encode()) == message
        aead = Aead(KEY)
        wire = seal_batch(aead, b"\x09" * IV_BYTES, [message.encode()], b"a")
        (part,) = unseal_batch(aead, wire, b"a")
        assert TxMessage.decode(part) == message

    @_SETTINGS
    @given(
        filename=st.text(alphabet="abc123/-.", min_size=1, max_size=40),
        level=st.integers(0, 6),
        min_key=keys_st,
        max_key=keys_st,
        max_seq=st.integers(0, 2**40),
        count=st.integers(0, 2**20),
        nbytes=st.integers(0, 2**40),
    )
    def test_sstable_meta_roundtrip(
        self, filename, level, min_key, max_key, max_seq, count, nbytes
    ):
        meta = SSTableMeta(
            filename, level, b"\x00" * 32, min_key, max_key, max_seq, count, nbytes
        )
        assert SSTableMeta.decode(meta.encode()) == meta


class TestLogChainProperties:
    @_SETTINGS
    @given(bodies=st.lists(values_st, min_size=1, max_size=20))
    def test_chain_replays(self, bodies):
        writer = LogChain(KEY)
        tags = [writer.append(i + 1, body) for i, body in enumerate(bodies)]
        reader = LogChain(KEY)
        for i, (body, tag) in enumerate(zip(bodies, tags)):
            reader.verify_next(i + 1, body, tag)

    @_SETTINGS
    @given(
        bodies=st.lists(values_st, min_size=2, max_size=10),
        drop=st.integers(0, 8),
    )
    def test_dropping_any_entry_detected(self, bodies, drop):
        drop = drop % (len(bodies) - 1)  # drop a non-final entry
        writer = LogChain(KEY)
        entries = [
            (i + 1, body, writer.append(i + 1, body))
            for i, body in enumerate(bodies)
        ]
        del entries[drop]
        reader = LogChain(KEY)
        with pytest.raises(IntegrityError):
            for counter, body, tag in entries:
                reader.verify_next(counter, body, tag)


def _memtable_after(operations):
    """A MemTable after ``(key, value)`` puts at seqs 1, 2, ... (value
    None: a tombstone), the harness that runs it, and the dict model
    ``key -> (value or TOMBSTONE, seq)``."""
    from tests.conftest import StorageHarness

    harness = StorageHarness(profile=TREATY_ENC)
    table = MemTable(harness.runtime, KeyRing(KEY))
    model = {}

    def body():
        for seq, (key, value) in enumerate(operations, 1):
            yield from table.put(key, value, seq)
            model[key] = (TOMBSTONE if value is None else value, seq)

    harness.run(body())
    return harness, table, model


def _rows(model, start=b"", end=None):
    return [(key, value, seq) for key, (value, seq) in sorted(model.items())
            if start <= key and (end is None or key < end)]


values_or_tombstone_st = st.none() | st.binary(max_size=8)


class TestMemTableProperties:
    @_SETTINGS
    @given(
        operations=st.lists(
            st.tuples(keys_st, values_or_tombstone_st), max_size=80
        ),
    )
    def test_matches_dict_model(self, operations):
        harness, table, model = _memtable_after(operations)
        assert len(table) == len(model)
        assert harness.run(table.entries()) == _rows(model)
        for key, (value, seq) in model.items():
            assert harness.run(table.get(key)) == (value, seq)
            assert table.seq_of(key) == seq

    @_SETTINGS
    @given(
        operations=st.lists(
            st.tuples(st.sampled_from([b"a", b"ab", b"b", b"c\x00"]) | keys_st,
                      values_or_tombstone_st),
            max_size=80,
        ),
        probes=st.lists(keys_st, max_size=10),
        bounds=st.tuples(keys_st, keys_st),
    )
    def test_inserts_and_overwrites_match_sorted_dict(
        self, operations, probes, bounds
    ):
        """After any put/overwrite/delete sequence the key index and the
        sorted key list agree with a dict and ``sorted``."""
        harness, table, model = _memtable_after(operations)
        assert len(table) == len(model)
        assert harness.run(table.entries()) == _rows(model)
        for key in probes:
            if key not in model:
                assert harness.run(table.get(key)) is None
                assert table.seq_of(key) is None
        start, end = min(bounds), max(bounds)
        assert harness.run(table.range_scan(start, end)) == _rows(
            model, start, end)
        assert harness.run(table.range_scan(start, None)) == _rows(
            model, start)

    @_SETTINGS
    @given(
        keys=st.sets(keys_st, min_size=1, max_size=40),
        bounds=st.tuples(keys_st, keys_st),
    )
    def test_range_matches_model(self, keys, bounds):
        start, end = min(bounds), max(bounds)
        harness, table, _model = _memtable_after([(k, b"") for k in keys])
        expected = sorted(k for k in keys if start <= k < end)
        scanned = harness.run(table.range_scan(start, end))
        assert [k for k, _, _ in scanned] == expected


class TestEngineMatchesModel:
    """Randomized (seeded) engine-vs-dict equivalence, encrypted profile."""

    @_SETTINGS
    @given(
        operations=st.lists(
            st.tuples(
                st.sampled_from(["put", "delete", "get", "flush"]),
                st.integers(0, 25),
                st.integers(0, 6),
            ),
            max_size=60,
        )
    )
    def test_engine_equivalent_to_dict(self, operations):
        from tests.conftest import StorageHarness

        harness = StorageHarness(
            profile=TREATY_ENC,
            config=ClusterConfig(memtable_limit_bytes=2048, block_bytes=256),
        ).boot()
        model = {}

        def body():
            for op, key_index, value_index in operations:
                key = b"key-%03d" % key_index
                if op == "put":
                    value = b"value-%d" % value_index
                    seq = harness.engine.next_seq()
                    yield from harness.engine.log_commit(b"t", [(key, value, seq)])
                    yield from harness.engine.apply_writes([(key, value, seq)])
                    model[key] = value
                elif op == "delete":
                    seq = harness.engine.next_seq()
                    yield from harness.engine.log_commit(b"t", [(key, None, seq)])
                    yield from harness.engine.apply_writes([(key, None, seq)])
                    model.pop(key, None)
                elif op == "flush":
                    yield from harness.engine.flush()
                else:
                    value, _seq = yield from harness.engine.get_with_seq(key)
                    assert value == model.get(key), key
            # Final check: every key agrees, and scans match.
            for key, expected in model.items():
                value, _seq = yield from harness.engine.get_with_seq(key)
                assert value == expected
            rows = yield from harness.engine.scan(b"key-", b"key-\xff")
            assert rows == sorted(model.items())

        harness.run(body())
