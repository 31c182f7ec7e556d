"""A storage step's CPU cost is one core hold.

A MemTable insert charges the value's seal, its hash and the insert as
one ``CpuPool`` hold; a point read charges its op overhead and the
value's hash and open as one; a WAL entry's seal and hash, an SSTable
block's hash and open (and its seal and hash when built) are one hold
each.  No other fiber gets the core between them.  A failed integrity
check still charges the hash (and a read's op overhead) alone.
"""

import pytest

from repro.config import ClusterConfig, TREATY_ENC
from repro.crypto import KeyRing
from repro.errors import IntegrityError
from repro.storage import MemTable, SecureLog, SSTableReader, build_sstable
from repro.storage.format import iter_log_entries

from tests.conftest import ROOT_KEY, StorageHarness


def one_core():
    return StorageHarness(profile=TREATY_ENC,
                          config=ClusterConfig(cores_per_node=1))


def recorded_holds(monkeypatch, runtime):
    """The charges of every core hold ``runtime`` makes from now on."""
    holds = []
    consume = runtime.cpu.consume

    def recording(*charges):
        if any(charges):  # an all-zero charge takes no core
            holds.append(charges)
        return consume(*charges)

    monkeypatch.setattr(runtime.cpu, "consume", recording)
    return holds


def scaled(runtime, *charges):
    """Model seconds of ``charges`` on one core, as the pool adds them."""
    end = 0.0
    for seconds in charges:
        end += seconds / runtime.cpu.speed_factor
    return end


def ssd_read(runtime, nbytes):
    """Model seconds of a page-cache read: its syscall, then the device."""
    costs = runtime.costs
    return (scaled(runtime, costs.syscall_cost(runtime.in_enclave, nbytes))
            + costs.ssd_read_cost(nbytes, cached=True))


def race(harness, step, first_charge):
    """Run ``step`` with a rival fiber that queues for the one core
    halfway through ``step``'s first charge; returns ``(start, step's
    end, the rival's grant)``."""
    sim, runtime = harness.sim, harness.runtime
    log = {}

    def stepper():
        log["start"] = sim.now
        yield from step()
        log["end"] = sim.now

    def rival():
        yield sim.sleep(scaled(runtime, first_charge) / 2)
        log["rival"] = yield from runtime.compute(1e-6)

    sim.spawn(stepper())
    sim.spawn(rival())
    sim.run()
    return log["start"], log["end"], log["rival"]


# -- a MemTable insert ------------------------------------------------------------


def test_no_fiber_runs_between_a_puts_seal_hash_and_insert(monkeypatch):
    harness = one_core()
    runtime, costs = harness.runtime, harness.runtime.costs
    table = MemTable(runtime, KeyRing(ROOT_KEY))
    value = b"v" * 512
    charges = (costs.aead_cost(512), costs.hash_cost(512),
               costs.memtable_insert_cpu)
    holds = recorded_holds(monkeypatch, runtime)

    start, end, rival = race(
        harness, lambda: table.put(b"k", value, 1), charges[0])

    assert holds == [charges, (1e-6,)]
    assert end - start == pytest.approx(scaled(runtime, *charges), rel=1e-12)
    assert rival == end
    assert runtime.cpu.busy_seconds == pytest.approx(
        scaled(runtime, *charges) + scaled(runtime, 1e-6), rel=1e-12)
    assert harness.run(table.get(b"k")) == (value, 1)


# -- a point read -------------------------------------------------------------------


def test_no_fiber_runs_between_a_reads_overhead_hash_and_open(monkeypatch):
    harness = one_core().boot()
    runtime, costs = harness.runtime, harness.runtime.costs
    harness.put_all([(b"k", b"v" * 512)])
    stored = len(harness.engine.memtable.host_values[0])
    charges = (costs.op_base_cpu, costs.hash_cost(stored),
               costs.aead_cost(stored))
    busy = runtime.cpu.busy_seconds
    ops = runtime.crypto_ops
    holds = recorded_holds(monkeypatch, runtime)
    read = []

    def step():
        read.append((yield from harness.engine.get_with_seq(b"k")))

    start, end, rival = race(harness, step, charges[0])

    assert read == [(b"v" * 512, 1)]
    assert holds == [charges, (1e-6,)]
    assert end - start == pytest.approx(scaled(runtime, *charges), rel=1e-12)
    assert rival == end
    assert runtime.cpu.busy_seconds - busy == pytest.approx(
        scaled(runtime, *charges) + scaled(runtime, 1e-6), rel=1e-12)
    assert runtime.crypto_ops - ops == 2


def test_a_miss_pays_the_op_overhead_alone(monkeypatch):
    harness = one_core().boot()
    holds = recorded_holds(monkeypatch, harness.runtime)
    assert harness.run(harness.engine.get_with_seq(b"absent")) == (None, 0)
    assert holds == [(harness.runtime.costs.op_base_cpu,)]


# -- failed integrity checks: the hash alone, at the parent's instant --------------


def test_tampered_memtable_value_raises_after_overhead_and_hash(monkeypatch):
    harness = StorageHarness(profile=TREATY_ENC).boot()
    runtime, costs = harness.runtime, harness.runtime.costs
    harness.put_all([(b"k", b"v" * 512)])
    host_values = harness.engine.memtable.host_values
    host_values[0] = host_values[0][:-1] + bytes([host_values[0][-1] ^ 1])
    charges = (costs.op_base_cpu, costs.hash_cost(len(host_values[0])))
    ops = runtime.crypto_ops
    holds = recorded_holds(monkeypatch, runtime)

    def body():
        start = harness.sim.now
        with pytest.raises(IntegrityError, match="modified in host memory"):
            yield from harness.engine.get_with_seq(b"k")
        return harness.sim.now - start

    elapsed = harness.run(body())
    assert holds == [charges]
    assert elapsed == pytest.approx(scaled(runtime, *charges), rel=1e-12)
    assert runtime.crypto_ops - ops == 1


def test_tampered_sstable_block_raises_after_its_hash(monkeypatch):
    harness = StorageHarness(profile=TREATY_ENC)
    runtime, costs = harness.runtime, harness.runtime.costs
    entries = [(b"key-%04d" % i, b"v" * 32, i + 1) for i in range(50)]
    meta = harness.run(build_sstable(runtime, harness.disk, harness.keyring,
                                     "node0/sst-000001.sst", 0, entries, 256))
    harness.disk.tamper(meta.filename, 10)  # inside block 0
    reader = SSTableReader(runtime, harness.disk, harness.keyring, meta)
    footer = int.from_bytes(harness.disk.read(meta.filename)[-4:], "little")
    ops = runtime.crypto_ops
    holds = recorded_holds(monkeypatch, runtime)

    def body():
        start = harness.sim.now
        with pytest.raises(IntegrityError, match="block 0 modified on disk"):
            yield from reader.get(b"key-0000")
        return harness.sim.now - start

    elapsed = harness.run(body())
    block = reader._index[0][2]
    syscall = costs.syscall_cost
    assert holds == [
        (syscall(True, footer),),
        (costs.hash_cost(footer), costs.aead_cost(footer)),
        (syscall(True, block),), (costs.hash_cost(block),),
    ]
    assert elapsed == pytest.approx(
        ssd_read(runtime, footer)
        + scaled(runtime, costs.hash_cost(footer), costs.aead_cost(footer))
        + ssd_read(runtime, block) + scaled(runtime, costs.hash_cost(block)),
        rel=1e-12)
    assert runtime.crypto_ops - ops == 3


def test_tampered_wal_entry_raises_on_replay_after_its_hash(monkeypatch):
    harness = StorageHarness(profile=TREATY_ENC)
    runtime, costs = harness.runtime, harness.runtime.costs
    log = SecureLog(runtime, harness.disk, "node0/wal.log", KeyRing(ROOT_KEY))
    harness.run(log.append_many([b"first" * 20, b"second" * 20]))
    harness.disk.tamper(log.filename, harness.disk.size(log.filename) - 1)
    data = harness.disk.read(log.filename)
    first, second = [len(entry.payload) for entry in iter_log_entries(data)]
    ops = runtime.crypto_ops
    holds = recorded_holds(monkeypatch, runtime)

    def body():
        start = harness.sim.now
        with pytest.raises(IntegrityError, match="log chain broken"):
            yield from log.replay()
        return harness.sim.now - start

    elapsed = harness.run(body())
    assert holds == [
        (costs.syscall_cost(True, len(data)),),
        (costs.hash_cost(first), costs.aead_cost(first)),
        (costs.hash_cost(second),),
    ]
    assert elapsed == pytest.approx(
        ssd_read(runtime, len(data))
        + scaled(runtime, costs.hash_cost(first), costs.aead_cost(first))
        + scaled(runtime, costs.hash_cost(second)), rel=1e-12)
    assert runtime.crypto_ops - ops == 3


# -- the write side: a WAL append and an SSTable build ------------------------------


def test_wal_append_seals_and_hashes_each_entry_in_one_hold(monkeypatch):
    harness = StorageHarness(profile=TREATY_ENC)
    runtime, costs = harness.runtime, harness.runtime.costs
    log = SecureLog(runtime, harness.disk, "node0/wal.log", KeyRing(ROOT_KEY))
    payloads = [b"a" * 100, b"b" * 300]
    holds = recorded_holds(monkeypatch, runtime)
    harness.run(log.append_many(payloads))
    written = harness.disk.size(log.filename)
    assert holds == [
        (costs.aead_cost(100), costs.hash_cost(100)),
        (costs.aead_cost(300), costs.hash_cost(300)),
        (costs.syscall_cost(True, written),),
    ]


def test_sstable_build_seals_and_hashes_each_block_in_one_hold(monkeypatch):
    harness = StorageHarness(profile=TREATY_ENC)
    runtime, costs = harness.runtime, harness.runtime.costs
    entries = [(b"key-%04d" % i, b"v" * 32, i + 1) for i in range(20)]
    holds = recorded_holds(monkeypatch, runtime)
    meta = harness.run(build_sstable(runtime, harness.disk, harness.keyring,
                                     "node0/sst-000001.sst", 0, entries, 256))
    *blocks, footer, write = holds
    hash_of_seal = {costs.aead_cost(n): costs.hash_cost(n) for n in range(4096)}
    assert len(blocks) > 1
    for seal, hashed in blocks:  # a block's seal and hash, same plaintext
        assert hash_of_seal[seal] == hashed
    assert len(footer) == 1 and footer[0] in hash_of_seal
    assert write == (costs.syscall_cost(True, meta.file_bytes),)
