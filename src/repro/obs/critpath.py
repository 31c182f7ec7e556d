"""Critical-path analysis over a transaction's cross-node span DAG.

Given the tracer's records and a trace id (the hex global transaction
id), this module rebuilds the transaction's span DAG, walks it backward
from the root span's end ("which child finished last?"), and attributes
every instant of the root interval to the category of the span that was
on the critical path at that instant.  The resulting segments exactly
tile the root interval, so the per-category breakdown sums to the
measured commit latency — the property the acceptance test pins.

Categories (the paper's §VIII decomposition):

* ``network``    — RPC exchanges: wire time, eRPC queues/doorbells,
  fiber resume delays (cat ``net``; gaps inside an rpc span between its
  crypto/handler children).
* ``crypto``     — AEAD seal/open passes (cat ``crypto``): the batch
  codec's one-pass frame sealing.
* ``counter-wait``  — time a transaction fiber spends *blocked on
  coverage*: the ``stabilize/wait`` and ``stabilize/group_round`` spans
  (cat ``stabilize``).  Under the async backends this is the promise
  wait — the cost the caller actually pays.
* ``counter-round`` — the rollback-protection protocol itself:
  ``counter/round`` driver execution and COUNTER_* handler processing
  on replicas (cat ``counter``, rpc handler spans named COUNTER_*).
  Round time off the critical path (a backgrounded CONFIRM leg, a
  driver round nobody is blocked on) does not appear here at all —
  the walk only attributes segments of the commit path.
* ``lock``       — contended lock waits (cat ``locks``).
* ``validate``   — distributed-OCC read-set validation + version
  pinning inside the prepare critical section (cat ``twopc``, name
  ``validate``).
* ``group_commit`` — the group-commit queue/window/WAL wait (cat
  ``storage``, name ``group_commit``).
* ``storage``    — WAL/Clog appends, flushes, compactions (other cat
  ``storage`` spans).
* ``tee``        — enclave transitions, EPC paging and message-buffer
  shielding, carved out of the containing span's own time using the
  ``cost`` argument on cat ``tee`` events.
* ``compute``    — everything else: protocol logic inside handler spans,
  2PC bookkeeping (cats ``twopc``/``node``/``rpc`` own time).
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import (
    Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple,
)

from .export import format_table
from .tracer import Record

__all__ = [
    "CATEGORIES",
    "COUNTER_CATEGORIES",
    "CriticalPath",
    "categorize",
    "trace_records",
    "trace_spans",
    "span_dag",
    "critical_path",
    "transaction_roots",
    "transaction_traces",
    "aggregate_critical_paths",
    "format_breakdown",
    "format_phase_table",
    "percentile",
]


#: presentation order of the latency categories.
CATEGORIES = (
    "network",
    "crypto",
    "counter-wait",
    "counter-round",
    "lock",
    "validate",
    "group_commit",
    "storage",
    "tee",
    "decision",
    "compute",
)

#: the categories that together make up "the counter's share" — used by
#: bench gates that compare against the pre-split single ``counter``
#: category.
COUNTER_CATEGORIES = ("counter-wait", "counter-round")


def categorize(span: Record) -> str:
    """Map one span record to its latency category."""
    cat = span["cat"]
    if cat == "crypto":
        return "crypto"
    if cat == "net":
        return "network"
    if cat == "rpc":
        # Server-side handler spans: counter echo processing is round
        # time; other handlers' own time is protocol compute.
        return (
            "counter-round"
            if span["name"].startswith("COUNTER_")
            else "compute"
        )
    if cat == "stabilize":
        return "counter-wait"
    if cat == "counter":
        return "counter-round"
    if cat == "storage":
        return "group_commit" if span["name"] == "group_commit" else "storage"
    if cat == "locks":
        return "lock"
    if cat == "twopc" and span["name"] in ("decision_wait", "complete"):
        # Non-blocking commit: the quorum-acknowledgement wait on the
        # replicated decision, and a completer's takeover drive.
        return "decision"
    if cat == "twopc" and span["name"] == "validate":
        # Distributed OCC: read-set validation + version pinning inside
        # the participant's prepare critical section.
        return "validate"
    return "compute"


def _by_trace(
    records: Iterable[Record]
) -> Mapping[Optional[str], Iterable[Record]]:
    """``records`` split by trace id, each trace's in emission order.

    A live tracer log (:class:`~repro.obs.tracer.TraceLog`, what
    ``Observability.records()`` hands out) carries this index and keeps
    it current on append, so any number of analysis calls cost no scan;
    for any other iterable (records loaded from JSONL, a captured
    exemplar) it is built here in one pass.  Every per-trace function
    below reads records through it, and because buckets keep emission
    order they see exactly the sequence a filter over the log would.
    """
    index = getattr(records, "by_trace", None)
    if index is None:
        index = defaultdict(list)
        for rec in records:
            index[rec.get("trace")].append(rec)
    return index


def trace_records(records: Iterable[Record], trace: str) -> List[Record]:
    """All records (spans and events) of ``trace``, in emission order."""
    return list(_by_trace(records).get(trace, ()))


def _spans(bucket: Iterable[Record]) -> List[Record]:
    return [rec for rec in bucket if rec["type"] == "span"]


def trace_spans(records: Iterable[Record], trace: str) -> List[Record]:
    """All span records belonging to ``trace``, in emission order."""
    return _spans(_by_trace(records).get(trace, ()))


def _find_root(spans: Sequence[Record]) -> Optional[Record]:
    """The trace's root: its ``twopc/txn`` span, else the longest span."""
    for span in spans:
        if span["cat"] == "twopc" and span["name"] == "txn":
            return span
    best = None
    for span in spans:
        if best is None or (
            (span["t1"] - span["t0"], -span["sid"])
            > (best["t1"] - best["t0"], -best["sid"])
        ):
            best = span
    return best


def _parents(spans: Sequence[Record], root: Record) -> Dict[int, int]:
    """Every span's parent within the trace: ``sid -> parent sid``.

    A span's parent is its recorded parent when that span is in the
    trace, else the root (a parent not recorded: still open when the
    analysis runs, or evicted from a ring); the root's is 0.  Parents
    open before their children, so the map is acyclic and every chain
    ends at the root.
    """
    root_sid = root["sid"]
    sids = {span["sid"] for span in spans}
    return {
        span["sid"]: (
            0 if span["sid"] == root_sid
            else span["parent"] if span["parent"] in sids
            else root_sid
        )
        for span in spans
    }


def span_dag(
    records: Iterable[Record], trace: str
) -> Tuple[Record, Dict[int, int]]:
    """The trace's span DAG: ``(root record, sid -> parent sid)``.

    Every span's parent chain terminates at the root (parent 0).
    """
    spans = trace_spans(records, trace)
    if not spans:
        raise ValueError("no spans recorded for trace %r" % trace)
    root = _find_root(spans)
    return root, _parents(spans, root)


class CriticalPath:
    """The critical path of one trace: tiling segments + breakdown."""

    def __init__(self, trace: str, root: Record,
                 segments: List[Tuple[float, float, str, int]],
                 span_count: int):
        self.trace = trace
        self.root = root
        #: ``(t0, t1, category, sid)`` segments tiling the root interval,
        #: in reverse-chronological discovery order.
        self.segments = segments
        self.span_count = span_count
        self.total = root["t1"] - root["t0"]
        breakdown = {category: 0.0 for category in CATEGORIES}
        for t0, t1, category, _sid in segments:
            breakdown[category] += t1 - t0
        self.breakdown = breakdown

    @property
    def outcome(self) -> Optional[str]:
        return (self.root.get("args") or {}).get("outcome")


def critical_path(records: Iterable[Record], trace: str) -> CriticalPath:
    """Compute the critical path of ``trace``; raises if it has no spans."""
    return _critical_path(trace, _by_trace(records).get(trace, ()))


def _critical_path(trace: str, bucket: Iterable[Record]) -> CriticalPath:
    """The critical path of ``trace`` from its own records alone."""
    spans = _spans(bucket)
    if not spans:
        raise ValueError("no spans recorded for trace %r" % trace)
    root = _find_root(spans)
    parents = _parents(spans, root)
    children: Dict[int, List[Record]] = {}
    for span in spans:
        if span["sid"] != root["sid"]:
            children.setdefault(parents[span["sid"]], []).append(span)

    segments: List[Tuple[float, float, str, int]] = []

    def walk(span: Record, lo: float, hi: float) -> None:
        """Attribute ``[lo, hi]`` of ``span``, descending into the child
        that finished last ("last finisher" backward sweep)."""
        own = categorize(span)
        # Largest end first; ties to the longer child, then higher sid.
        kids = sorted(
            children.get(span["sid"], ()),
            key=lambda c: (c["t1"], c["t1"] - c["t0"], c["sid"]),
        )
        cursor = hi
        while kids and cursor > lo:
            child = kids.pop()
            child_end = min(child["t1"], cursor)
            child_start = max(child["t0"], lo)
            if child_end <= child_start:
                continue
            if child_end < cursor:
                segments.append((child_end, cursor, own, span["sid"]))
            walk(child, child_start, child_end)
            cursor = child_start
        if cursor > lo:
            segments.append((lo, cursor, own, span["sid"]))

    walk(root, root["t0"], root["t1"])
    path = CriticalPath(trace, root, segments, len(spans))
    _carve_tee(path, bucket, {span["sid"]: span for span in spans})
    return path


def _carve_tee(path: CriticalPath, bucket: Iterable[Record],
               by_sid: Dict[int, Record]) -> None:
    """Move modelled TEE costs out of their containing segments.

    Cat ``tee`` events (world switches, EPC paging, message-buffer
    shielding) carry their charged cost; each event lands in exactly one
    critical-path segment (same trace: ``bucket`` is the trace's own
    records; same node, timestamp inside the segment) and its cost —
    capped at the segment's length — moves from the segment's category
    into ``tee``.  The total is preserved.  A ``network`` segment, an
    RPC's wait on its sender, also takes the receiver's events: the
    receiving node shields the request frame inside that wait.
    """
    events = [
        rec for rec in bucket
        if rec["type"] == "event" and rec["cat"] == "tee"
        and (rec.get("args") or {}).get("cost")
    ]
    if not events:
        return
    remaining = {
        index: t1 - t0
        for index, (t0, t1, _category, _sid) in enumerate(path.segments)
    }
    for event in events:
        t = event["t"]
        node = event.get("node")
        for index, (t0, t1, category, sid) in enumerate(path.segments):
            if category == "tee":
                continue
            if not (t0 <= t < t1 or (t == t1 == path.root["t1"])):
                continue
            span = by_sid.get(sid)
            if (span is not None and span.get("node") != node
                    and category != "network"):
                continue
            carve = min(
                float((event.get("args") or {}).get("cost", 0.0)),
                remaining[index],
            )
            if carve > 0.0:
                remaining[index] -= carve
                path.breakdown[category] -= carve
                path.breakdown["tee"] += carve
            break


def transaction_roots(records: Iterable[Record]) -> List[Record]:
    """Every ``twopc/txn`` root span that carries a trace id, in commit
    order — the one pass over a log that finds its transactions."""
    return [
        rec for rec in records
        if rec["type"] == "span" and rec["cat"] == "twopc"
        and rec["name"] == "txn" and rec.get("trace")
    ]


def transaction_traces(
    records: Iterable[Record], outcome: Optional[str] = None
) -> List[str]:
    """Trace ids with a ``twopc/txn`` root span, in commit order.

    ``outcome`` filters on the root span's recorded outcome
    ("commit"/"abort"); None keeps every distributed transaction.
    ``records`` may be a whole log or just its :func:`transaction_roots`.
    """
    traces: List[str] = []
    seen = set()
    for rec in transaction_roots(records):
        if outcome is not None and (rec.get("args") or {}).get(
                "outcome") != outcome:
            continue
        if rec["trace"] not in seen:
            seen.add(rec["trace"])
            traces.append(rec["trace"])
    return traces


def percentile(values: Sequence[float], p: float) -> float:
    """Interpolated percentile, ``p`` in [0, 100] (0.0 for no samples).

    Exact over the samples given.  Every reported percentile — the
    bench metrics, the baseline and the critical-path tables — comes
    from here, over samples a finished run has kept, so one run's
    sections agree to the digit.  The flight recorder cannot keep its
    samples and uses :class:`~repro.obs.recorder.P2Quantile` instead.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (p / 100.0) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] * (1 - fraction) + ordered[high] * fraction


def aggregate_critical_paths(
    records: Iterable[Record], traces: Optional[Sequence[str]] = None
) -> Dict[str, Any]:
    """Per-category latency samples across many transactions.

    Returns ``{"count", "categories": {cat: [seconds per txn]},
    "totals": [seconds per txn]}`` for the given traces (default: every
    committed distributed transaction in the records).
    """
    if traces is None:
        if iter(records) is records:
            records = list(records)  # one-shot iterator, read twice here
        traces = transaction_traces(records, outcome="commit")
    by_trace = _by_trace(records)
    categories: Dict[str, List[float]] = {
        category: [] for category in CATEGORIES
    }
    totals: List[float] = []
    for trace in traces:
        path = _critical_path(trace, by_trace.get(trace, ()))
        totals.append(path.total)
        for category in CATEGORIES:
            categories[category].append(path.breakdown[category])
    return {"count": len(totals), "categories": categories, "totals": totals}


# -- rendering -----------------------------------------------------------------

def format_breakdown(path: CriticalPath) -> str:
    """One transaction's critical path as a per-category table."""
    rows = []
    for category in CATEGORIES:
        seconds = path.breakdown[category]
        if seconds <= 0.0:
            continue
        rows.append((
            category,
            "%.6f" % (seconds * 1e3),
            "%5.1f%%" % (seconds / path.total * 100 if path.total else 0.0),
        ))
    rows.append(("total", "%.6f" % (path.total * 1e3), "100.0%"))
    title = "critical path: txn %s (%s, %d spans)" % (
        path.trace, path.outcome or "?", path.span_count
    )
    return format_table(title, ("category", "ms", "share"), rows)


def format_phase_table(aggregate: Dict[str, Any]) -> str:
    """The bench reports' "where does a millisecond go" p50/p99 table."""
    totals = aggregate["totals"]
    grand_total = sum(totals) or 1.0
    rows = []
    for category in CATEGORIES:
        samples = aggregate["categories"][category]
        if not any(samples):
            continue
        rows.append((
            category,
            "%.3f" % (percentile(samples, 50) * 1e3),
            "%.3f" % (percentile(samples, 99) * 1e3),
            "%5.1f%%" % (sum(samples) / grand_total * 100),
        ))
    rows.append((
        "total",
        "%.3f" % (percentile(totals, 50) * 1e3),
        "%.3f" % (percentile(totals, 99) * 1e3),
        "100.0%",
    ))
    title = ("critical path: where does a millisecond go "
             "(%d committed distributed txns)" % aggregate["count"])
    return format_table(title, ("category", "p50 ms", "p99 ms", "share"), rows)
