"""Tests for the discrete-event simulation kernel."""

import ast
import random
from heapq import heappop, heappush
from pathlib import Path

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Event,
    SimulationError,
    Simulator,
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


def test_any_of_returns_first(sim):
    def body():
        fast = sim.timeout(1, value="fast")
        slow = sim.timeout(9, value="slow")
        winner = yield AnyOf(sim, [fast, slow])
        return winner.value

    assert sim.run_process(body()) == "fast"


def test_all_of_waits_for_everything(sim):
    def body():
        events = [sim.timeout(d, value=d) for d in (3, 1, 2)]
        values = yield AllOf(sim, events)
        return (sim.now, sorted(values))

    assert sim.run_process(body()) == (3, [1, 2, 3])


def test_all_of_empty_triggers_immediately(sim):
    def body():
        values = yield sim.all_of([])
        return values

    assert sim.run_process(body()) == []


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


def random_program(sim, seed, workers=6, steps=10):
    """Run a seeded program mixing every scheduling shape on ``sim``;
    returns the log of callbacks and resumes in the order they ran."""
    rng = random.Random(seed)
    log, shared = [], []

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
            tag, op = (wid, step), rng.randrange(9)
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
                elif op == 4:  # wait on a shared event other workers settle
                    event = sim.event()
                    shared.append(event)
                    watch(event, tag)
                    yield sim.any_of([event, sim.timeout(rng.choice(DELAYS))])
                elif op == 5:  # settle a shared event: succeed or fail
                    pending = [e for e in shared if not e.triggered]
                    if pending:
                        event = rng.choice(pending)
                        if rng.random() < 0.5:
                            event.succeed(tag)
                        else:
                            event.fail(ValueError(repr(tag)))
                    yield pause()
                elif op == 6:  # AnyOf / QuorumOf over fresh timeouts
                    events = [sim.timeout(rng.choice(DELAYS), value=i)
                              for i in range(3)]
                    if rng.random() < 0.5:
                        first = yield sim.any_of(events)
                        note("any", tag, first.value)
                    else:
                        yield sim.quorum_of(events, rng.randrange(4),
                                            accept=lambda value: value != 1)
                elif op == 7:  # spawned fibers: nobody joins them
                    for index in range(rng.randrange(1, 3)):
                        sim.spawn(child((wid, step, index), "spawned"))
                    yield pause()
                else:  # heap callables, due now or later
                    sim.call_later(rng.choice(DELAYS),
                                   lambda tag=tag: note("later", tag))
                    yield pause()
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


def test_random_programs_cover_every_shape():
    ops, kinds = set(), set()
    for seed in range(40):
        for entry in random_program(Simulator(), seed):
            kinds.add(entry[1])
            if entry[1] == "step":
                ops.add(entry[3])
    assert ops == set(range(9))
    assert {"callback", "child", "spawned", "any", "failed",
            "later"} <= kinds


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


# -- the cheap idioms stay in use ---------------------------------------------


SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: (statement is a yield, method called) -> the fix.  The first two
#: build a kernel object nobody needs; a sleep that is not yielded would
#: wake its process later, in the middle of some other wait.
SLOW_IDIOMS = {
    (True, "timeout"): "yield <sim>.sleep(d), not a timeout",
    (False, "process"): "<sim>.spawn(...) when nobody keeps the handle",
    (False, "sleep"): "a sleep must be yielded",
}


def _slow_idioms(tree):
    """(line, fix) for every expression statement in ``SLOW_IDIOMS``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Expr):
            continue
        yielded = isinstance(node.value, ast.Yield)
        call = node.value.value if yielded else node.value
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute):
            fix = SLOW_IDIOMS.get((yielded, call.func.attr))
            if fix is not None:
                yield node.lineno, fix


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
        "    yield sim.any_of([sim.timeout(1)])\n"
        "    handle = sim.process(body(sim))\n"
        "    sim.spawn(body(sim))\n"
    )
    assert [line for line, _ in _slow_idioms(ast.parse(source))] == [2, 3, 4]
