"""Tests for the discrete-event simulation kernel."""

import ast
import gc
import random
import weakref
from heapq import heapify, heappop, heappush
from pathlib import Path

import pytest

from repro.sim import core
from repro.sim import (
    Event,
    SimulationError,
    Simulator,
    Timeout,
)


@pytest.fixture
def sim():
    return Simulator()


def test_timeout_advances_clock(sim):
    def body():
        yield sim.timeout(1.5)
        return sim.now

    assert sim.run_process(body()) == 1.5
    assert sim.now == 1.5


def test_timeouts_fire_in_order(sim):
    order = []

    def waiter(delay, tag):
        yield sim.timeout(delay)
        order.append(tag)

    sim.process(waiter(3.0, "c"))
    sim.process(waiter(1.0, "a"))
    sim.process(waiter(2.0, "b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_equal_time_ties_broken_by_schedule_order(sim):
    order = []

    def waiter(tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in ("first", "second", "third"):
        sim.process(waiter(tag))
    sim.run()
    assert order == ["first", "second", "third"]


def test_negative_timeout_rejected(sim):
    with pytest.raises(SimulationError):
        sim.timeout(-0.1)


def test_timeout_sets_every_event_slot(sim):
    """``Timeout.__init__`` sets the ``Event`` slots itself instead of
    calling ``Event.__init__``: a slot added to ``Event`` must be set
    there too."""
    timeout, event = sim.timeout(1.0, "v"), sim.event()
    for slot in Event.__slots__:
        expected = "v" if slot == "_value" else getattr(event, slot)
        assert getattr(timeout, slot) == expected, slot


def test_process_sets_every_event_slot(sim):
    """``Process.__init__`` sets the ``Event`` slots itself, too."""
    def body():
        yield sim.sleep(1.0)

    process, event = sim.process(body()), sim.event()
    for slot in Event.__slots__:
        assert getattr(process, slot) == getattr(event, slot), slot


def test_process_returns_value(sim):
    def child():
        yield sim.timeout(1)
        return 42

    def parent():
        result = yield sim.process(child())
        return result

    assert sim.run_process(parent()) == 42


def test_joining_finished_process_still_delivers(sim):
    def child():
        yield sim.timeout(1)
        return "done"

    def parent(proc):
        yield sim.timeout(5)  # child finished long ago
        value = yield proc
        return value

    child_proc = sim.process(child())
    assert sim.run_process(parent(child_proc)) == "done"


def test_event_succeed_delivers_value(sim):
    event = sim.event()

    def setter():
        yield sim.timeout(2)
        event.succeed("payload")

    def getter():
        value = yield event
        return (sim.now, value)

    sim.process(setter())
    assert sim.run_process(getter()) == (2, "payload")


def test_event_fail_raises_in_waiter(sim):
    event = sim.event()

    def setter():
        yield sim.timeout(1)
        event.fail(ValueError("boom"))

    def getter():
        try:
            yield event
        except ValueError as exc:
            return str(exc)

    sim.process(setter())
    assert sim.run_process(getter()) == "boom"


def test_unhandled_process_failure_surfaces(sim):
    def bad():
        yield sim.timeout(1)
        raise RuntimeError("unhandled")

    sim.process(bad())
    with pytest.raises(RuntimeError, match="unhandled"):
        sim.run()


def test_double_trigger_rejected(sim):
    event = sim.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_yield_from_composition(sim):
    def inner():
        yield sim.timeout(1)
        return 10

    def outer():
        a = yield from inner()
        b = yield from inner()
        return a + b

    assert sim.run_process(outer()) == 20
    assert sim.now == 2


def test_quorum_of_one_fires_at_the_first(sim):
    def body():
        fast = sim.timeout(1, value="fast")
        slow = sim.timeout(9, value="slow")
        settled = yield sim.quorum_of([fast, slow], 1)
        return sim.now, [event.value for event in settled if event.triggered]

    assert sim.run_process(body()) == (1, ["fast"])


def test_all_settled_waits_for_everything(sim):
    def body():
        events = [sim.timeout(d, value=d) for d in (3, 1, 2)]
        settled = yield sim.all_settled(events)
        return (sim.now, [event.value for event in settled])

    assert sim.run_process(body()) == (3, [3, 1, 2])


# -- the bounded composite: one wait, one cancellable deadline ----------------


def test_empty_composite_succeeds_at_once_and_arms_nothing(sim):
    def body():
        settled = yield sim.all_settled([], timeout=5.0)
        return settled

    composite = sim.all_settled([], timeout=5.0)
    assert composite.triggered and composite.value == []
    assert not sim._heap and list(sim._ready) == [composite]
    assert sim.run_process(body()) == []
    assert sim.now == 0.0 and not sim._heap


def test_bounded_composite_fires_at_its_deadline(sim):
    """The deadline succeeds the composite with its event list; the
    events still pending in it are untriggered."""
    def body():
        done = sim.timeout(1.0, value="done")
        never = sim.event()
        settled = yield sim.all_settled([done, never], timeout=2.5)
        return sim.now, [(event.triggered, event.value) for event in settled]

    assert sim.run_process(body()) == (2.5, [(True, "done"), (False, None)])


def test_composite_that_fires_first_cancels_its_deadline(sim):
    """No step runs the cancelled deadline, and ``run()`` leaves the
    clock at the last live entry, not at the deadline's instant."""
    steps = []
    step = sim.step
    sim.step = lambda: steps.append(step())
    log = []

    def body():
        grant = sim.event()
        sim.call_later(1.0, lambda: grant.succeed("granted"))
        settled = yield sim.all_settled([grant], timeout=4.0)
        log.append((sim.now, settled[0].value))

    sim.spawn(body())
    assert sim.run() == 1.0
    assert log == [(1.0, "granted")]
    # bootstrap, the grant's call, its dispatch, the composite's dispatch
    assert len(steps) == 4
    assert not sim._heap and sim._cancelled == 0


def test_composite_defuses_a_failed_inner_event(sim):
    """A failed inner event neither fails the composite nor crashes
    ``run()``: it is defused and counts only toward the backstop, late
    stragglers too."""
    def failer(delay):
        yield sim.sleep(delay)
        raise ValueError("inner")

    def body():
        early, late = sim.process(failer(1)), sim.process(failer(3))
        ok = sim.timeout(2, value="ok")
        settled = yield sim.quorum_of([early, ok, late], 1, timeout=5)
        return sim.now, [(event.triggered, event.ok) for event in settled]

    assert sim.run_process(body()) == (
        2, [(True, False), (True, True), (False, True)])
    sim.run()  # the late failure is defused, too
    assert sim.now == 3


@pytest.mark.parametrize("delay", [0.0, 1e-17])
def test_due_now_sleep_queues_the_process_itself(delay):
    """A sleep due now builds no ``Timeout``: the process itself joins
    the ready queue, behind what was readied before it."""
    sim, queued = Simulator(), []

    def body():
        yield sim.sleep(1.0)
        sim.event().succeed()
        wake = sim.sleep(delay)
        queued.append(list(sim._ready))
        yield wake

    process = sim.process(body())
    sim.run()
    (ready,) = queued
    assert len(ready) == 2 and ready[1] is process
    assert not any(isinstance(entry, Timeout) for entry in ready)


def test_run_until_stops_clock(sim):
    def forever():
        while True:
            yield sim.timeout(1)

    sim.process(forever())
    sim.run(until=10)
    assert sim.now == 10


def test_run_until_in_the_past_is_rejected(sim):
    sim.timeout(1.0)
    sim.timeout(5.0)
    sim.run(until=1.0)
    assert sim.now == 1.0
    with pytest.raises(SimulationError, match="earlier than the clock"):
        sim.run(until=0.5)
    assert sim.now == 1.0  # the clock never moves backwards
    assert sim.run() == 5.0


def test_run_until_keeps_clock_when_everything_drains(sim):
    sim.timeout(2.0)
    assert sim.run(until=10.0) == 2.0
    assert sim.now == 2.0


def test_deadlock_detected_by_run_process(sim):
    def stuck():
        yield sim.event()  # never triggered

    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_process(stuck())


def test_determinism_same_seed_same_history():
    def run_once():
        sim = Simulator()
        log = []

        def worker(tag, delay):
            for _ in range(3):
                yield sim.timeout(delay)
                log.append((round(sim.now, 6), tag))

        sim.process(worker("a", 0.5))
        sim.process(worker("b", 0.7))
        sim.run()
        return log

    assert run_once() == run_once()


# -- sleep and spawn: a fiber's own wait and exit build no event --------------


def test_sleep_outside_a_process_is_rejected(sim):
    with pytest.raises(SimulationError, match="outside a process"):
        sim.sleep(1.0)
    # a plain callback is not a process step either
    sim.timeout(0.5).add_callback(lambda event: sim.sleep(1.0))
    with pytest.raises(SimulationError, match="outside a process"):
        sim.run()


def test_negative_sleep_is_rejected(sim):
    def body():
        yield sim.sleep(-0.1)

    with pytest.raises(SimulationError, match="negative sleep"):
        sim.run_process(body())


@pytest.mark.parametrize("at, delay", [(0.0, 0.0), (1.0, 1e-17)])
def test_due_now_sleep_keeps_its_ready_position(at, delay):
    """A sleep due now (zero, or below the clock's resolution) runs
    between what was readied before it and what is readied after it,
    exactly like a due-now timeout."""
    def run(wait):
        sim, log = Simulator(), []
        first, second = sim.event(), sim.event()
        first.add_callback(lambda event: log.append("first"))
        second.add_callback(lambda event: log.append("second"))

        def sleeper():
            yield sim.sleep(at)
            first.succeed()
            yield wait(sim)(delay)
            log.append(("woke", sim.now))

        def other():
            yield sim.sleep(at)
            second.succeed()

        sim.process(sleeper())
        sim.process(other())
        sim.run()
        return log

    expected = ["first", ("woke", at), "second"]
    assert run(lambda sim: sim.sleep) == run(lambda sim: sim.timeout) == expected


def test_failing_spawned_fiber_surfaces_from_run(sim):
    def bad():
        yield sim.sleep(1)
        raise RuntimeError("unhandled")

    assert sim.spawn(bad()) is None
    with pytest.raises(RuntimeError, match="unhandled"):
        sim.run()


# -- the collector policy of run() ---------------------------------------------


def test_run_freezes_what_existed_before_it(sim):
    counts = []

    def body():
        counts.append(gc.get_freeze_count())
        yield sim.sleep(1)
        counts.append(gc.get_freeze_count())

    sim.spawn(body())
    sim.run()
    assert counts[0] > 0 and counts[1] > 0
    assert gc.get_freeze_count() == 0


def test_run_unfreezes_when_a_process_raises_out_of_it(sim):
    def bad():
        yield sim.sleep(1)
        assert gc.get_freeze_count() > 0
        raise RuntimeError("unhandled")

    sim.spawn(bad())
    with pytest.raises(RuntimeError, match="unhandled"):
        sim.run()
    assert gc.get_freeze_count() == 0


def test_a_cycle_dropped_during_a_run_is_reclaimed(sim):
    """A collection inside a run reclaims the run's own garbage; a cycle
    that existed before the run waits for a collection after it."""

    class Node:
        pass

    older = Node()
    older.self = older
    old_ref = weakref.ref(older)
    holder = [older]
    del older
    alive = []

    def body():
        node = Node()
        node.self = node
        new_ref = weakref.ref(node)
        del node
        holder.clear()
        yield sim.sleep(1)
        gc.collect()
        alive.append((old_ref() is not None, new_ref() is not None))

    sim.spawn(body())
    sim.run()
    assert alive == [(True, False)]
    gc.collect()
    assert old_ref() is None


@pytest.mark.parametrize("start, entries", [("spawn", 2), ("process", 3)])
def test_spawned_fiber_exits_without_an_entry(start, entries):
    """Bootstrap and one wake: a spawned fiber's finish adds no third
    entry, a joinable process's does (its dispatch)."""
    sim, steps = Simulator(), []
    original = sim.step
    sim.step = lambda: steps.append(original())

    def body():
        yield sim.sleep(1)
        return "done"

    getattr(sim, start)(body())
    sim.run()
    assert len(steps) == entries


# -- order equivalence: the ready queue against one heap ----------------------


class _IntoHeap:
    """Stands in for the ready queue: same-instant work joins the heap,
    except a spawned process's successful finish, which nobody awaits."""

    def __init__(self, sim):
        self.sim = sim

    def append(self, entry):
        if entry in self.sim.spawned and entry.ok:
            entry._callbacks = None  # dispatched, with no entry
            return
        heappush(self.sim._heap, (self.sim.now, next(self.sim._seq), entry))

    def __len__(self):
        return 0


class _HeapDeadline:
    """The reference's cancellable entry: cancelling takes it out of the
    heap at once, so the reference never holds a cancelled entry."""

    def __init__(self, sim, fn):
        self.sim, self.fn = sim, fn

    def __call__(self):
        fn, self.fn = self.fn, None
        fn()

    def cancel(self):
        if self.fn is None:
            return
        self.fn = None
        heap = self.sim._heap
        heap[:] = [entry for entry in heap if entry[2] is not self]
        heapify(heap)


class HeapOnlySimulator(Simulator):
    """The reference scheduler: one heap ordered by ``(when, seq)`` holds
    every entry — future timeouts, triggered events, process bootstraps,
    late callbacks — and the chooser picks among the first
    ``tie_window`` entries that share the head's timestamp.  A sleep is a
    timeout; a spawned process is a plain process whose successful
    finish queues no entry."""

    def __init__(self):
        super().__init__()
        self._ready = _IntoHeap(self)
        self.spawned = set()

    def sleep(self, delay):
        if self.current_process is None:
            raise SimulationError("sleep() outside a process step")
        return self.timeout(delay)

    def spawn(self, body, name=""):
        self.spawned.add(self.process(body, name))

    def deadline(self, delay, fn):
        handle = _HeapDeadline(self, fn)
        self.call_later(delay, handle)
        return handle

    def step(self):
        heap = self._heap
        window = getattr(self.chooser, "tie_window", 0)
        ties = [heappop(heap)]
        while len(ties) < window and heap and heap[0][0] == ties[0][0]:
            ties.append(heappop(heap))
        index = self.chooser.pick_ready(len(ties)) if len(ties) > 1 else 0
        when, _seq, entry = ties.pop(index)
        for tie in ties:
            heappush(heap, tie)
        self.now = when
        if not isinstance(entry, Event):
            entry()
            return
        entry._triggered = True
        callbacks, entry._callbacks = entry._callbacks or [], None
        if not entry._ok and not callbacks and not entry._defused:
            raise entry._value
        for callback in callbacks:
            callback(entry)


class ScriptedChooser:
    """A stub controlled scheduler: seeded (or scripted) tie picks."""

    def __init__(self, window, seed=None, picks=()):
        self.tie_window = window
        self.rng = random.Random(seed) if seed is not None else None
        self.picks = list(picks)
        self.counts = []

    def pick_ready(self, count):
        self.counts.append(count)
        if self.rng is not None:
            return self.rng.randrange(count)
        return self.picks.pop(0) if self.picks else 0


#: dyadic delays, so timeouts created at different instants meet on
#: exactly equal timestamps; 1e-17 is below the clock's resolution past 1.
DELAYS = (0.0, 0.0, 1e-17, 0.25, 0.5, 1.0)

#: deadlines also reach past the workers' last waits, so cancelled ones
#: pile up in the heap until a rebuild drops them.
DEADLINE_DELAYS = DELAYS + (2.0, 3.0)


def random_program(sim, seed, workers=6, steps=10):
    """Run a seeded program mixing every scheduling shape on ``sim``;
    returns the log of callbacks and resumes in the order they ran."""
    rng = random.Random(seed)
    log, shared, deadlines = [], [], []

    def note(*what):
        log.append((sim.now,) + what)

    def watch(event, tag):
        event.add_callback(lambda ev: note("callback", tag, ev.ok))

    def pause():
        """A fiber's own wait: mostly a sleep, sometimes a timeout."""
        delay = rng.choice(DELAYS)
        return sim.sleep(delay) if rng.random() < 0.75 else sim.timeout(delay)

    def child(tag, kind="child"):
        yield pause()
        note(kind, tag)
        return tag

    def worker(wid):
        for step in range(steps):
            tag, op = (wid, step), rng.randrange(10)
            try:
                if op == 0:  # zero, sub-resolution and equal-when waits
                    yield pause()
                elif op == 1:  # succeed before the waiter yields
                    event = sim.event()
                    watch(event, tag)
                    event.succeed(tag)
                    yield event
                elif op == 2:  # join a process, maybe after it finished
                    proc = sim.process(child(tag))
                    watch(proc, tag)
                    yield pause()
                    yield proc
                    watch(proc, tag)  # late: the process already dispatched
                elif op == 3:  # failed-then-defused, nobody waiting
                    event = sim.event()
                    event.fail(ValueError(repr(tag)))
                    event.defuse()
                    yield sim.sleep(0)
                    watch(event, tag)
                elif op == 4:  # a bounded wait on a shared event that
                    # other workers settle; its failure is re-raised
                    event = sim.event()
                    shared.append(event)
                    watch(event, tag)
                    yield sim.all_settled([event],
                                          timeout=rng.choice(DELAYS))
                    note("bounded", tag, event.triggered)
                    if event.triggered and not event.ok:
                        raise event.value
                elif op == 5:  # settle a shared event: succeed or fail
                    pending = [e for e in shared if not e.triggered]
                    if pending:
                        event = rng.choice(pending)
                        if rng.random() < 0.5:
                            event.succeed(tag)
                        else:
                            event.fail(ValueError(repr(tag)))
                    yield pause()
                elif op == 6:  # a quorum over fresh timeouts, maybe bounded
                    events = [sim.timeout(rng.choice(DELAYS), value=i)
                              for i in range(3)]
                    bound = (rng.choice(DEADLINE_DELAYS)
                             if rng.random() < 0.5 else None)
                    settled = yield sim.quorum_of(
                        events, rng.randrange(4),
                        accept=lambda value: value != 1, timeout=bound)
                    note("quorum", tag,
                         [event.value for event in settled if event.triggered])
                elif op == 7:  # spawned fibers: nobody joins them
                    for index in range(rng.randrange(1, 3)):
                        sim.spawn(child((wid, step, index), "spawned"))
                    yield pause()
                elif op == 8:  # heap callables, due now or later
                    sim.call_later(rng.choice(DELAYS),
                                   lambda tag=tag: note("later", tag))
                    yield pause()
                else:  # deadlines: most cancelled at once, some later
                    armed = [
                        sim.deadline(
                            rng.choice(DEADLINE_DELAYS),
                            lambda tag=(wid, step, index): note("deadline",
                                                                tag))
                        for index in range(rng.randrange(1, 80))
                    ]
                    deadlines.extend(armed)
                    for handle in armed:
                        if rng.random() < 0.8:
                            handle.cancel()
                    yield pause()
                    # maybe fired by now, maybe cancelled already
                    for handle in rng.sample(deadlines,
                                             min(len(deadlines), 8)):
                        handle.cancel()
                note("step", tag, op)
            except ValueError as exc:
                note("failed", tag, str(exc))

    for wid in range(workers):
        sim.process(worker(wid))
    sim.run(until=1.5)
    sim.run()
    return log


@pytest.mark.parametrize("seed", range(40))
def test_ready_queue_runs_entries_in_heap_order(seed):
    assert random_program(Simulator(), seed) == random_program(
        HeapOnlySimulator(), seed)


def test_random_programs_cover_every_shape(monkeypatch):
    rebuilds = []

    def counted_heapify(heap):
        rebuilds.append(len(heap))
        heapify(heap)

    monkeypatch.setattr(core, "heapify", counted_heapify)
    ops, kinds, bounded = set(), set(), set()
    for seed in range(40):
        for entry in random_program(Simulator(), seed):
            kinds.add(entry[1])
            if entry[1] == "step":
                ops.add(entry[3])
            elif entry[1] == "bounded":
                bounded.add(entry[3])
    assert ops == set(range(10))
    assert {"callback", "child", "spawned", "bounded", "quorum", "failed",
            "later", "deadline"} <= kinds
    assert bounded == {True, False}  # bounded waits settled and expired
    assert rebuilds  # cancelled deadlines were dropped in a rebuild


@pytest.mark.parametrize("window", [2, 3, 5])
@pytest.mark.parametrize("seed", range(8))
def test_chooser_picks_match_the_heap_only_scheduler(seed, window):
    ours = ScriptedChooser(window, seed=seed)
    reference = ScriptedChooser(window, seed=seed)
    sim, heap_only = Simulator(), HeapOnlySimulator()
    sim.chooser, heap_only.chooser = ours, reference
    assert random_program(sim, seed) == random_program(heap_only, seed)
    assert ours.counts == reference.counts
    assert max(ours.counts) == window


@pytest.mark.parametrize("seed", range(8))
def test_chooser_picking_zero_is_the_uncontrolled_order(seed):
    sim = Simulator()
    sim.chooser = ScriptedChooser(3)
    assert random_program(sim, seed) == random_program(Simulator(), seed)
    assert max(sim.chooser.counts) == 3


def test_chooser_pick_runs_kth_entry_in_heap_then_ready_order(sim):
    """At t=1 the heap holds timeouts A and B; A readies C and D.  The
    candidates are then [B, C, D]: pick 2 runs D, and the unchosen B and C
    keep their order."""
    log = []
    c, d = sim.event(), sim.event()
    c.add_callback(lambda event: log.append("C"))
    d.add_callback(lambda event: log.append("D"))

    def fire_a(event):
        log.append("A")
        c.succeed()
        d.succeed()

    sim.timeout(1.0).add_callback(fire_a)
    sim.timeout(1.0).add_callback(lambda event: log.append("B"))
    sim.chooser = ScriptedChooser(4, picks=[0, 2, 0])
    sim.run()
    assert log == ["A", "D", "B", "C"]
    assert sim.chooser.counts == [2, 3, 2]


@pytest.mark.parametrize("make", [Simulator, HeapOnlySimulator])
def test_call_later_takes_a_due_now_timeouts_place(make):
    """A zero or sub-resolution ``call_later`` runs where a due-now
    timeout would: in scheduling order with the other same-instant work;
    a future one runs at its instant, in scheduling order too."""
    sim, log = make(), []

    def mark(tag):
        return lambda *_event: log.append((sim.now, tag))

    def body():
        yield sim.sleep(1.0)
        sim.timeout(0).add_callback(mark("timeout-0"))
        sim.call_later(0, mark("later-0"))
        sim.timeout(1e-17).add_callback(mark("timeout-tiny"))
        sim.call_later(1e-17, mark("later-tiny"))
        sim.call_later(0.5, mark("later-0.5"))
        sim.timeout(0.5).add_callback(mark("timeout-0.5"))
        sim.event().succeed()
        sim.call_later(0, mark("later-last"))

    sim.spawn(body())
    sim.run()
    assert log == [(1.0, "timeout-0"), (1.0, "later-0"),
                   (1.0, "timeout-tiny"), (1.0, "later-tiny"),
                   (1.0, "later-last"),
                   (1.5, "later-0.5"), (1.5, "timeout-0.5")]


@pytest.mark.parametrize("make", [Simulator, HeapOnlySimulator])
def test_call_later_rejects_a_negative_delay(make):
    sim = make()
    with pytest.raises(SimulationError):
        sim.call_later(-1e-9, lambda: None)
    assert not sim._heap


# -- cancellable deadlines ----------------------------------------------------


def test_cancelled_deadline_never_runs_nor_moves_the_clock(sim):
    log = []
    sim.call_later(1.0, lambda: log.append(("live", sim.now)))
    later = sim.deadline(2.0, lambda: log.append("later"))
    due_now = sim.deadline(0.0, lambda: log.append("due now"))
    later.cancel()
    due_now.cancel()
    steps = []
    step = sim.step
    sim.step = lambda: steps.append(step())
    assert sim.run() == 1.0
    assert log == [("live", 1.0)]
    assert len(steps) == 1 and not sim._heap and not sim._ready


def test_cancelled_deadline_does_not_move_the_clock_under_run_until(sim):
    """The cancelled entry is not at the head when cancelled; it reaches
    it once the live entry before it ran, and is dropped there."""
    sim.call_later(1.0, lambda: None)
    sim.deadline(2.0, lambda: None).cancel()
    assert sim.run(until=3.0) == 1.0  # drained: the clock stays put
    sim.call_later(1.0, lambda: None)  # at 2.0
    sim.deadline(2.0, lambda: None).cancel()  # at 3.0
    sim.call_later(4.0, lambda: None)  # at 5.0
    assert sim.run(until=4.0) == 4.0
    assert [entry[0] for entry in sim._heap] == [5.0]


def test_cancelled_deadline_does_not_move_the_clock_under_run_process(sim):
    def body():
        sim.deadline(2.0, lambda: None).cancel()
        yield sim.event()  # never triggers

    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_process(body())
    assert sim.now == 0.0


def test_deadline_runs_once_and_late_cancels_are_no_ops(sim):
    log = []
    fired = sim.deadline(1.0, lambda: log.append(("fired", sim.now)))
    # a callable that cancels its own deadline (a settled wait) is fine
    selfish = sim.deadline(1.5, lambda: (selfish.cancel(), log.append("self")))
    twice = sim.deadline(1.0, lambda: log.append("twice"))
    twice.cancel()
    twice.cancel()
    assert sim._cancelled == 1
    sim.run()
    fired.cancel()
    fired.cancel()
    assert log == [("fired", 1.0), "self"]
    assert sim._cancelled == 0 and sim.now == 1.5


def test_deadline_rejects_a_negative_delay(sim):
    with pytest.raises(SimulationError):
        sim.deadline(-1e-9, lambda: None)
    assert not sim._heap


def test_chooser_never_sees_a_cancelled_deadline(sim):
    """Deadlines A-D and the callable E share t=1, and A (the head) and
    C (behind a live entry) are cancelled: the chooser is offered B, D
    and E.  E arms a due-now deadline and cancels it at once, so F runs
    alone after it."""
    log = []
    handles = [sim.deadline(1.0, lambda tag=tag: log.append(tag))
               for tag in "ABCD"]

    def at_one():
        log.append("E")
        sim.deadline(0.0, lambda: log.append("never")).cancel()
        sim.call_later(0.0, lambda: log.append("F"))

    sim.call_later(0.5, lambda: sim.call_later(0.5, at_one))
    handles[0].cancel()
    handles[2].cancel()
    sim.chooser = ScriptedChooser(5, picks=[1, 0, 0])
    sim.run()
    assert log == ["D", "B", "E", "F"]
    assert sim.chooser.counts == [3, 2]


def test_cancelled_deadlines_are_dropped_in_one_rebuild(monkeypatch, sim):
    """Past the floor, once the cancelled entries outnumber the live
    ones, one rebuild drops them; the live ones run in order after it."""
    rebuilds = []
    monkeypatch.setattr(core, "heapify",
                        lambda heap: (rebuilds.append(len(heap)),
                                      heapify(heap)))
    floor = core._MIN_CANCELLED_TO_COMPACT
    log = []
    live = [sim.deadline(1.0 + i, lambda i=i: log.append(i))
            for i in range(floor)]
    doomed = [sim.deadline(0.5 + i, lambda: log.append("cancelled"))
              for i in range(2 * floor)]
    majority = 3 * floor // 2 + 1  # of the 3 * floor entries
    for handle in doomed[1:floor + 1]:
        handle.cancel()  # as many as the floor: kept
    assert rebuilds == [] and sim._cancelled == floor
    for handle in doomed[floor + 1:majority]:
        handle.cancel()  # half the heap: kept
    assert rebuilds == [] and len(sim._heap) == 3 * floor
    doomed[majority].cancel()  # a majority: one rebuild drops them
    assert rebuilds == [3 * floor - majority] and sim._cancelled == 0
    doomed[0].cancel()  # the head: popped at once, no rebuild
    assert len(rebuilds) == 1 and len(sim._heap) == 3 * floor - majority - 1
    for handle in doomed[majority + 1:]:
        handle.cancel()
    live[-1].cancel()
    sim.run()
    assert log == list(range(floor - 1))


# -- the cheap idioms stay in use ---------------------------------------------


SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: (statement is a yield, method called) -> the fix.  A discarded
#: process handle is a kernel object nobody needs; a sleep that is not
#: yielded would wake its process later, in the middle of some other wait.
SLOW_IDIOMS = {
    (False, "process"): "<sim>.spawn(...) when nobody keeps the handle",
    (False, "sleep"): "a sleep must be yielded",
}

#: the fix for any ``timeout(...)`` call, yielded or not: a timeout event
#: stays on the heap after the wait it bounds has ended.
TIMEOUT_FIX = ("yield <sim>.sleep(d), or bound the wait with the "
               "composite's `timeout=`")


def _slow_idioms(tree):
    """(line, fix), by line, for every ``timeout(...)`` call and every
    expression statement in ``SLOW_IDIOMS``."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "timeout"):
            found.append((node.lineno, TIMEOUT_FIX))
        if not isinstance(node, ast.Expr):
            continue
        yielded = isinstance(node.value, ast.Yield)
        call = node.value.value if yielded else node.value
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute):
            fix = SLOW_IDIOMS.get((yielded, call.func.attr))
            if fix is not None:
                found.append((node.lineno, fix))
    return sorted(found)


def test_src_uses_sleep_and_spawn():
    offenders = [
        "%s:%d: %s" % (path.relative_to(SRC), line, fix)
        for path in sorted(SRC.rglob("*.py"))
        for line, fix in _slow_idioms(ast.parse(path.read_text()))
    ]
    assert offenders == []


def test_slow_idioms_are_recognised():
    source = (
        "def body(sim):\n"
        "    yield sim.timeout(1)\n"
        "    sim.process(body(sim))\n"
        "    sim.sleep(1)\n"
        "    yield sim.sleep(1)\n"
        "    bound = sim.timeout(1)\n"
        "    handle = sim.process(body(sim))\n"
        "    sim.spawn(body(sim))\n"
        "    yield sim.all_settled([handle], timeout=1)\n"
    )
    assert [line for line, _ in _slow_idioms(ast.parse(source))] == [
        2, 3, 4, 6]
