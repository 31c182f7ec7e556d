"""Tests for simulation synchronization primitives and the CPU pool."""

import pytest

from repro.config import TREATY_ENC, ClusterConfig
from repro.sim import CpuPool, Gate, Resource, Semaphore, Simulator, Store
from repro.tee import NodeRuntime


@pytest.fixture
def sim():
    return Simulator()


class TestResource:
    def test_grants_up_to_capacity_immediately(self, sim):
        resource = Resource(sim, capacity=2)
        assert resource.request().triggered
        assert resource.request().triggered
        assert not resource.request().triggered

    def test_fifo_ordering_of_waiters(self, sim):
        resource = Resource(sim, capacity=1)
        order = []

        def worker(tag, hold_time):
            grant = resource.request()
            yield grant
            order.append(tag)
            yield sim.timeout(hold_time)
            resource.release()

        for tag in ("a", "b", "c"):
            sim.process(worker(tag, 1.0))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_release_without_request_rejected(self, sim):
        resource = Resource(sim, capacity=1)
        with pytest.raises(RuntimeError):
            resource.release()

    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)
        store.put("x")

        def body():
            item = yield store.get()
            return item

        assert sim.run_process(body()) == "x"

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)

        def producer():
            yield sim.timeout(2)
            store.put("late")

        def consumer():
            item = yield store.get()
            return (sim.now, item)

        sim.process(producer())
        assert sim.run_process(consumer()) == (2, "late")

    def test_fifo_order(self, sim):
        store = Store(sim)
        for i in range(5):
            store.put(i)

        def body():
            items = []
            for _ in range(5):
                items.append((yield store.get()))
            return items

        assert sim.run_process(body()) == [0, 1, 2, 3, 4]


class TestGate:
    def test_waiters_release_in_counter_order(self, sim):
        gate = Gate(sim)
        released = []

        def waiter(mark):
            yield gate.wait_for(mark)
            released.append((mark, sim.now))

        for mark in (3, 1, 2):
            sim.process(waiter(mark))

        def advancer():
            yield sim.timeout(1)
            gate.advance_to(1)
            yield sim.timeout(1)
            gate.advance_to(3)

        sim.process(advancer())
        sim.run()
        assert (1, 1) in released
        assert (2, 2) in released and (3, 2) in released

    def test_wait_for_already_passed_mark(self, sim):
        gate = Gate(sim, initial=10)
        assert gate.wait_for(5).triggered

    def test_advance_never_regresses(self, sim):
        gate = Gate(sim, initial=7)
        gate.advance_to(3)
        assert gate.value == 7


class TestSemaphore:
    def test_acquire_release(self, sim):
        sem = Semaphore(sim, value=1)
        assert sem.acquire().triggered
        second = sem.acquire()
        assert not second.triggered
        sem.release()
        sim.run()
        assert second.triggered


class TestCpuPool:
    def test_serializes_beyond_core_count(self, sim):
        cpu = CpuPool(sim, cores=2)
        finished = []

        def worker(tag):
            yield from cpu.consume(1.0)
            finished.append((tag, sim.now))

        for tag in range(4):
            sim.process(worker(tag))
        sim.run()
        times = sorted(t for _, t in finished)
        assert times == [1.0, 1.0, 2.0, 2.0]

    def test_one_core_is_granted_in_request_order(self, sim):
        # The run queue of the system's fibers (§VII-C): a fiber that
        # asks for a busy core waits its turn, and the wait is no syscall.
        runtime = NodeRuntime(sim, TREATY_ENC, ClusterConfig(cores_per_node=1))
        for hold in (CpuPool(sim, cores=1).consume, runtime.compute):
            granted = []

            def fiber(tag, asks_at):
                yield sim.sleep(asks_at)
                yield from hold(1.0)
                granted.append(tag)  # one core: done in the order granted

            # Spawned in reverse: only the order of the asks orders the grants.
            for tag, asks_at in (("C", 0.2), ("B", 0.1), ("A", 0.0)):
                sim.spawn(fiber(tag, asks_at))
            sim.run()
            assert granted == ["A", "B", "C"]
        assert runtime.syscalls == 0

    def test_speed_factor_scales_work(self, sim):
        cpu = CpuPool(sim, cores=1, speed_factor=0.5)

        def worker():
            yield from cpu.consume(1.0)
            return sim.now

        assert sim.run_process(worker()) == 2.0

    def test_zero_work_is_free(self, sim):
        cpu = CpuPool(sim, cores=1)

        def worker():
            yield from cpu.consume(0.0)
            return sim.now

        assert sim.run_process(worker()) == 0.0

    def test_utilization_accounting(self, sim):
        cpu = CpuPool(sim, cores=2)

        def worker():
            yield from cpu.consume(1.0)

        sim.process(worker())
        sim.process(worker())
        sim.run()
        assert cpu.utilization(elapsed=1.0) == pytest.approx(1.0)

    def test_validation(self, sim):
        with pytest.raises(ValueError):
            CpuPool(sim, cores=0)
        with pytest.raises(ValueError):
            CpuPool(sim, cores=1, speed_factor=0)


class TestQuorumOf:
    """Vote-counting composite: regression pins for the late-settle
    accounting fix (a straggler settling after the trigger must only be
    defused — counting it corrupted the quorum/backstop bookkeeping)."""

    def test_quorum_then_late_failure_stays_clean(self, sim):
        events = [sim.event() for _ in range(3)]
        quorum = sim.quorum_of(events, needed=2)
        events[0].succeed("a")
        events[1].succeed("b")
        sim.run()
        assert quorum.triggered and quorum.ok
        # The straggler fails *after* the trigger (a down peer's
        # NetworkError settling late): it must be defused — neither
        # failing the composite, nor re-firing it via the backstop,
        # nor surfacing an uncovered error at the simulator.
        events[2].fail(RuntimeError("late NetworkError settle"))
        sim.run()
        assert quorum.triggered and quorum.ok

    def test_failure_then_quorum_still_triggers(self, sim):
        events = [sim.event() for _ in range(3)]
        quorum = sim.quorum_of(events, needed=2)
        events[0].fail(RuntimeError("down peer fails fast"))
        sim.run()
        assert not quorum.triggered  # one failure is not quorum progress
        events[1].succeed("a")
        events[2].succeed("b")
        sim.run()
        assert quorum.triggered and quorum.ok

    def test_late_ok_settle_does_not_skew_accept_count(self, sim):
        accepted = []

        def accept(value):
            accepted.append(value)
            return True

        events = [sim.event() for _ in range(3)]
        quorum = sim.quorum_of(events, needed=2, accept=accept)
        events[0].succeed("a")
        events[1].succeed("b")
        sim.run()
        assert quorum.triggered
        events[2].succeed("c")  # post-quorum straggler: not consulted
        sim.run()
        assert accepted == ["a", "b"]

    def test_all_failed_backstop_fires_once(self, sim):
        events = [sim.event() for _ in range(2)]
        quorum = sim.quorum_of(events, needed=2)
        for event in events:
            event.fail(RuntimeError("unreachable"))
        sim.run()
        # Quorum unreachable: the all-settled backstop fires (ok), so
        # the caller can inspect per-event outcomes itself.
        assert quorum.triggered and quorum.ok
