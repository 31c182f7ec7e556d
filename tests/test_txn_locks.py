"""Tests for the key lock table."""

import pytest

from repro.errors import LockTimeout
from repro.sim import Simulator
from repro.txn import LockMode, LockTable


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def table(sim):
    return LockTable(sim)


def run(sim, gen):
    return sim.run_process(gen)


class TestGrants:
    def test_exclusive_grant_immediate(self, sim, table):
        run(sim, table.acquire(b"t1", b"k", LockMode.EXCLUSIVE))
        assert table.holds(b"t1", b"k", LockMode.EXCLUSIVE)

    def test_shared_locks_coexist(self, sim, table):
        run(sim, table.acquire(b"t1", b"k", LockMode.SHARED))
        run(sim, table.acquire(b"t2", b"k", LockMode.SHARED))
        assert table.holds(b"t1", b"k") and table.holds(b"t2", b"k")

    def test_exclusive_blocks_shared(self, sim, table):
        run(sim, table.acquire(b"t1", b"k", LockMode.EXCLUSIVE))
        with pytest.raises(LockTimeout):
            run(sim, table.acquire(b"t2", b"k", LockMode.SHARED, timeout=0.1))
        assert table.timeouts == 1

    def test_shared_blocks_exclusive(self, sim, table):
        run(sim, table.acquire(b"t1", b"k", LockMode.SHARED))
        with pytest.raises(LockTimeout):
            run(sim, table.acquire(b"t2", b"k", LockMode.EXCLUSIVE, timeout=0.1))

    def test_reentrant_acquire(self, sim, table):
        run(sim, table.acquire(b"t1", b"k", LockMode.EXCLUSIVE))
        run(sim, table.acquire(b"t1", b"k", LockMode.EXCLUSIVE))
        run(sim, table.acquire(b"t1", b"k", LockMode.SHARED))  # W covers R

    def test_upgrade_sole_reader(self, sim, table):
        run(sim, table.acquire(b"t1", b"k", LockMode.SHARED))
        run(sim, table.acquire(b"t1", b"k", LockMode.EXCLUSIVE))
        assert table.holds(b"t1", b"k", LockMode.EXCLUSIVE)

    def test_upgrade_waits_for_other_readers(self, sim, table):
        run(sim, table.acquire(b"t1", b"k", LockMode.SHARED))
        run(sim, table.acquire(b"t2", b"k", LockMode.SHARED))

        outcome = []

        def upgrader():
            yield from table.acquire(b"t1", b"k", LockMode.EXCLUSIVE, timeout=0.5)
            outcome.append(sim.now)

        def releaser():
            yield sim.timeout(0.1)
            table.release_all(b"t2")

        sim.process(upgrader())
        sim.process(releaser())
        sim.run()
        assert outcome == [0.1]
        assert table.holds(b"t1", b"k", LockMode.EXCLUSIVE)


class TestWaitingAndRelease:
    def test_fifo_handoff(self, sim, table):
        order = []

        def worker(txn, delay):
            yield sim.timeout(delay)
            yield from table.acquire(txn, b"k", LockMode.EXCLUSIVE, timeout=10)
            order.append(txn)
            yield sim.timeout(0.05)
            table.release_all(txn)

        for i, txn in enumerate((b"a", b"b", b"c")):
            sim.process(worker(txn, i * 0.001))
        sim.run()
        assert order == [b"a", b"b", b"c"]

    def test_release_wakes_multiple_readers(self, sim, table):
        run(sim, table.acquire(b"w", b"k", LockMode.EXCLUSIVE))
        granted = []

        def reader(txn):
            yield from table.acquire(txn, b"k", LockMode.SHARED, timeout=10)
            granted.append(txn)

        sim.process(reader(b"r1"))
        sim.process(reader(b"r2"))

        def releaser():
            yield sim.timeout(0.1)
            table.release_all(b"w")

        sim.process(releaser())
        sim.run()
        assert sorted(granted) == [b"r1", b"r2"]

    def test_release_all_frees_every_key(self, sim, table):
        for key in (b"a", b"b", b"c"):
            run(sim, table.acquire(b"t1", key, LockMode.EXCLUSIVE))
        assert table.total_locked_keys() == 3
        table.release_all(b"t1")
        assert table.total_locked_keys() == 0
        run(sim, table.acquire(b"t2", b"a", LockMode.EXCLUSIVE))

    def test_release_unknown_txn_is_noop(self, table):
        table.release_all(b"ghost")

    def test_timed_out_waiter_skipped_on_handoff(self, sim, table):
        run(sim, table.acquire(b"t1", b"k", LockMode.EXCLUSIVE))

        def impatient():
            try:
                yield from table.acquire(b"t2", b"k", LockMode.EXCLUSIVE, timeout=0.05)
            except LockTimeout:
                pass

        def patient():
            yield from table.acquire(b"t3", b"k", LockMode.EXCLUSIVE, timeout=10)
            return sim.now

        sim.process(impatient())
        patient_proc = sim.process(patient())

        def releaser():
            yield sim.timeout(0.2)
            table.release_all(b"t1")

        sim.process(releaser())
        sim.run()
        assert patient_proc.value == 0.2
        assert table.holds(b"t3", b"k", LockMode.EXCLUSIVE)

    def test_deadlock_resolved_by_timeout(self, sim, table):
        """Classic A->B, B->A deadlock: one side times out and aborts."""
        results = {}

        def txn(me, first, second):
            try:
                yield from table.acquire(me, first, LockMode.EXCLUSIVE, timeout=0.3)
                yield sim.timeout(0.01)
                yield from table.acquire(me, second, LockMode.EXCLUSIVE, timeout=0.3)
                results[me] = "ok"
            except LockTimeout:
                results[me] = "timeout"
                table.release_all(me)

        sim.process(txn(b"t1", b"a", b"b"))
        sim.process(txn(b"t2", b"b", b"a"))
        sim.run()
        assert "timeout" in results.values()
