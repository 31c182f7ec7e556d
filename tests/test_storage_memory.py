"""How many copies of a table's bytes the storage paths hold at once.

A flush seals a MemTable's plaintext into a file, a compaction re-seals
its inputs into new tables, and the YCSB bulk load feeds the keyspace
through both.  The transient copies they make set the process's peak
memory, so these tests read the peak ``tracemalloc`` sees while each
step runs, against the bytes the step writes.
"""

import inspect
import tracemalloc

from repro.config import ClusterConfig, TREATY_ENC
from repro.core.cluster import TreatyCluster
from repro.workloads import ycsb
from repro.workloads.ycsb import YcsbConfig, bulk_load

from tests.conftest import StorageHarness

#: peak growth allowed per byte a flush or compaction writes: the
#: entries' plaintext (freed as each block is sealed), the sealed blocks
#: and the one file they are joined into, with room for the index.
COPIES = 2.5


class traced:
    """``with traced() as peak:`` traces allocations in the block;
    ``peak.bytes`` is then the most it held above its start."""

    def __enter__(self):
        self._started = not tracemalloc.is_tracing()
        if self._started:
            tracemalloc.start()
        self._base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        return self

    def __exit__(self, *exc):
        self.bytes = tracemalloc.get_traced_memory()[1] - self._base
        if self._started:
            tracemalloc.stop()


def values(first, count, size=1000):
    return [(b"key-%06d" % i, bytes([i % 251]) * size)
            for i in range(first, first + count)]


def test_flush_holds_one_copy_of_the_table():
    harness = StorageHarness().boot()
    harness.put_all(values(0, 2000))
    with traced() as peak:
        harness.run(harness.engine.flush())
    [meta] = harness.engine.levels[0]
    assert meta.entry_count == 2000
    assert peak.bytes <= COPIES * meta.file_bytes, (
        "flush peaked at %.2fx its table's %d bytes"
        % (peak.bytes / meta.file_bytes, meta.file_bytes))


def test_compaction_holds_one_copy_of_its_output():
    """Three L0 tables of disjoint keys merge into L1 tables of at most
    four MemTable limits each: several output tables, one build each."""
    config = ClusterConfig(memtable_limit_bytes=48 * 1024)
    harness = StorageHarness(config=config).boot()
    for table in range(3):
        harness.put_all(values(table * 150, 150))
        harness.run(harness.engine.flush())
    assert len(harness.engine.levels[0]) == 3
    with traced() as peak:
        harness.run(harness.engine.compact(0))
    outputs = harness.engine.levels[1]
    assert len(outputs) >= 2 and not harness.engine.levels[0]
    written = sum(meta.file_bytes for meta in outputs)
    assert peak.bytes <= COPIES * written, (
        "compaction peaked at %.2fx the %d bytes it wrote"
        % (peak.bytes / written, written))
    assert harness.get(b"key-000321") == bytes([321 % 251]) * 1000


def test_bulk_load_never_holds_every_value():
    """The values ``YcsbConfig.value`` made and that are still alive,
    counted at every chunk the load logs, are one chunk's.

    A block counts when it is at least a value's size: the ``(index,
    op)`` tuple ``value`` formats its seed from is freed into CPython's
    tuple free list, where tracemalloc still sees it, and whether one
    such tuple sits there at a log call depends on what ran before."""
    cluster = TreatyCluster(profile=TREATY_ENC, num_nodes=1).start()
    config = YcsbConfig(num_keys=10_000, value_size=100)
    lines, first = inspect.getsourcelines(YcsbConfig.value)
    value_lines = range(first, first + len(lines))
    engine = cluster.nodes[0].engine
    log_commit = engine.log_commit
    alive = []

    def counted(txn_id, writes):
        snapshot = tracemalloc.take_snapshot()
        alive.append(sum(
            1 for trace in snapshot.traces
            if trace.size >= config.value_size
            and trace.traceback[0].filename == ycsb.__file__
            and trace.traceback[0].lineno in value_lines))
        return log_commit(txn_id, writes)

    engine.log_commit = counted
    with traced():
        cluster.run(bulk_load(cluster, config), name="load")
    assert len(alive) == 20
    assert max(alive) <= 500, alive
    assert engine.current_seq() == 10_000
