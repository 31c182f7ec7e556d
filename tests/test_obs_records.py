"""Trace records read like the dicts they once were, and hold little.

A closed span and a point event are retained for the whole traced pass
(163 817 of them at seed 11 on ``ycsb-a-traced``), so what one costs is
pinned here next to what every consumer reads of it: its keys in order,
its values, its JSON text and the errors a missing key raises.
"""

import gc
import json
import tracemalloc

import pytest

from repro.obs import Tracer
from repro.sim import Simulator

SPAN = {
    "type": "span", "cat": "twopc", "name": "prepare",
    "t0": 0.25, "t1": 0.625, "node": "n1", "txn": "x1",
    "trace": "t-abc", "sid": 1, "parent": 7,
    "args": {"keys": 3, "outcome": "commit"},
}
SPAN_JSON = (
    '{"args": {"keys": 3, "outcome": "commit"}, "cat": "twopc", '
    '"name": "prepare", "node": "n1", "parent": 7, "sid": 1, '
    '"t0": 0.25, "t1": 0.625, "trace": "t-abc", "txn": "x1", '
    '"type": "span"}'
)
EVENT = {
    "type": "event", "cat": "counter", "name": "advance", "t": 0.5,
    "node": "n1", "txn": "x1", "trace": "t-abc",
    "args": {"log": 2, "value": 9},
}
EVENT_JSON = (
    '{"args": {"log": 2, "value": 9}, "cat": "counter", '
    '"name": "advance", "node": "n1", "t": 0.5, "trace": "t-abc", '
    '"txn": "x1", "type": "event"}'
)


@pytest.fixture
def scripted():
    """``(event, span)``: one fiber adopts a remote context, opens a span
    stamped in the past, emits an event, then closes the span twice —
    the second close's extra args must be ignored."""
    sim = Simulator()
    tracer = Tracer(sim)

    def body():
        tracer.adopt("t-abc", 7)
        yield sim.timeout(0.5)
        span = tracer.span("twopc", "prepare", node="n1", txn="x1",
                           at=0.25, keys=3)
        tracer.event("counter", "advance", node="n1", txn="x1",
                     log=2, value=9)
        yield sim.timeout(0.25)
        span.close(at=0.625, outcome="commit")
        span.close(outcome="abort")

    sim.process(body(), name="client")
    sim.run()
    event, span = tracer.records
    return event, span


def test_span_record_reads_as_its_dict(scripted):
    _event, span = scripted
    assert dict(span) == SPAN
    assert list(span) == list(SPAN)
    assert list(span.keys()) == list(SPAN)
    assert list(span.values()) == list(SPAN.values())
    assert list(span.items()) == list(SPAN.items())
    assert len(span) == len(SPAN)
    assert span == SPAN and SPAN == span
    assert json.dumps(dict(span), sort_keys=True) == SPAN_JSON


def test_event_record_reads_as_its_dict(scripted):
    event, _span = scripted
    assert dict(event) == EVENT
    assert list(event) == list(EVENT)
    assert list(event.items()) == list(EVENT.items())
    assert len(event) == len(EVENT)
    assert event == EVENT and EVENT == event
    assert json.dumps(dict(event), sort_keys=True) == EVENT_JSON


def test_records_compare_with_each_other(scripted):
    event, span = scripted
    assert event == event and span == span
    assert event != span
    assert span != dict(SPAN, t1=0.75)


def test_records_print_as_their_dicts(scripted):
    event, span = scripted
    assert repr(event) == "EventRecord(%r)" % EVENT
    assert repr(span) == "Span(%r)" % SPAN


def test_missing_keys_raise_key_error(scripted):
    event, span = scripted
    with pytest.raises(KeyError):
        event["t1"]
    for key in ("close", "tracer", "_stack"):
        with pytest.raises(KeyError):
            span[key]
        assert key not in span
        assert span.get(key) is None
    assert "t1" not in event and "t" in event
    assert "t0" in span and "t" not in span
    assert event.get("t1", "absent") == "absent"
    assert span.get("t1") == 0.625


def test_second_close_changes_nothing(scripted):
    _event, span = scripted
    assert span["t1"] == 0.625
    assert span["args"] == {"keys": 3, "outcome": "commit"}


PAIRS = 10_000
#: retained bytes per span+event pair, each with a one-key ``args``
#: (CPython 3.11): plain dicts held 1 164 B, slotted records hold 644 B.
MAX_BYTES_PER_PAIR = 850


def test_retained_records_stay_small():
    sim = Simulator()
    tracer = Tracer(sim)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _pair in range(PAIRS):
            span = tracer.span("twopc", "prepare", node="n1", txn="x1",
                               keys=3)
            tracer.event("counter", "advance", node="n1", txn="x1", log=2)
            span.close()
        del span
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(tracer.records) == 2 * PAIRS
    assert held / PAIRS <= MAX_BYTES_PER_PAIR, held / PAIRS
