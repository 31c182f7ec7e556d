"""Trace and metrics exporters.

Three output formats:

* **JSONL** — one sorted-key JSON object per record, in emission order.
  Deterministic: the same seed produces byte-identical files.
* **Chrome trace-event JSON** — open with ``chrome://tracing`` (or
  Perfetto's legacy importer).  Spans become ``"X"`` complete events;
  point events become ``"i"`` instants.  ``pid`` is the node, ``tid`` is
  ``<category>/<lane>`` where lanes are assigned greedily so overlapping
  spans of one category never share a row (interval partitioning keeps
  the viewer's nesting rules satisfied).  Trace-context edges that cross
  nodes (a handler span adopted from a remote sender) additionally emit
  ``"s"``/``"f"`` flow events so the viewer draws the causal arrows of
  the transaction's span DAG.
* **fixed-width tables** — :func:`format_table`, the one text-table
  renderer (critical-path breakdowns, bench reports, CLI output), and
  :func:`summary_table`, a registry snapshot through it.
* **Prometheus text exposition** — renders a :class:`MetricsHub` in the
  ``text/plain; version=0.0.4`` format so the simulated cluster's
  metrics drop into real dashboards: counters as ``_total``, probes as
  gauges, histograms as cumulative ``_bucket{le=...}`` series
  with ``_sum``/``_count``, every sample labelled with its component.
"""

from __future__ import annotations

import json
from typing import Any, Dict, IO, Iterable, List, Optional, Sequence, Union

__all__ = [
    "to_jsonl",
    "write_jsonl",
    "chrome_trace",
    "write_chrome_trace",
    "load_chrome_trace",
    "format_table",
    "summary_table",
    "prometheus_text",
]

Record = Dict[str, Any]


def to_jsonl(records: Iterable[Record]) -> str:
    """Records as JSON-lines text (sorted keys: byte-stable per seed)."""
    lines = [json.dumps(rec, sort_keys=True, separators=(",", ":"))
             for rec in records]
    return "\n".join(lines) + ("\n" if lines else "")


def write_jsonl(records: Iterable[Record], path_or_fp: Union[str, IO]) -> None:
    text = to_jsonl(records)
    if hasattr(path_or_fp, "write"):
        path_or_fp.write(text)
    else:
        with open(path_or_fp, "w") as fp:
            fp.write(text)


# -- Chrome trace-event format -------------------------------------------------

def _us(seconds: float) -> float:
    """Simulated seconds -> trace-event microseconds."""
    return round(seconds * 1e6, 3)


def _assign_lanes(spans: List[Record]) -> Dict[int, int]:
    """Greedy interval partitioning per (node, category).

    Returns ``sid -> lane`` such that spans sharing a lane never
    overlap.  Deterministic: spans are processed in (t0, sid) order and
    take the lowest free lane.
    """
    lanes: Dict[int, int] = {}
    groups: Dict[Any, List[Record]] = {}
    for span in spans:
        groups.setdefault((span.get("node"), span["cat"]), []).append(span)
    for group in groups.values():
        group.sort(key=lambda s: (s["t0"], s["sid"]))
        lane_ends: List[float] = []
        for span in group:
            for lane, end in enumerate(lane_ends):
                if end <= span["t0"]:
                    lane_ends[lane] = span["t1"]
                    lanes[span["sid"]] = lane
                    break
            else:
                lanes[span["sid"]] = len(lane_ends)
                lane_ends.append(span["t1"])
    return lanes


def chrome_trace(records: Iterable[Record]) -> Dict[str, Any]:
    """Convert tracer records to a Chrome trace-event document."""
    records = list(records)
    spans = [rec for rec in records if rec["type"] == "span"]
    lanes = _assign_lanes(spans)
    events: List[Dict[str, Any]] = []
    seen_pids = []
    for rec in records:
        pid = rec.get("node") or "sim"
        if pid not in seen_pids:
            seen_pids.append(pid)
        args = dict(rec.get("args") or {})
        if rec.get("txn"):
            args["txn"] = rec["txn"]
        if rec["type"] == "span":
            events.append({
                "ph": "X",
                "name": rec["name"],
                "cat": rec["cat"],
                "pid": pid,
                "tid": "%s/%d" % (rec["cat"], lanes[rec["sid"]]),
                "ts": _us(rec["t0"]),
                "dur": _us(rec["t1"] - rec["t0"]),
                "args": args,
            })
        else:
            events.append({
                "ph": "i",
                "s": "t",
                "name": rec["name"],
                "cat": rec["cat"],
                "pid": pid,
                "tid": "%s/ev" % rec["cat"],
                "ts": _us(rec["t"]),
                "args": args,
            })
    events.extend(_flow_events(spans, lanes))
    metadata = [
        {"ph": "M", "name": "process_name", "pid": pid, "ts": 0,
         "args": {"name": pid}}
        for pid in seen_pids
    ]
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


def _flow_events(spans: List[Record],
                 lanes: Dict[int, int]) -> List[Dict[str, Any]]:
    """``"s"``/``"f"`` flow-event pairs along cross-node context edges.

    For every span whose trace-context parent lives on a *different*
    node (i.e. the edge the wire header carried), emit a flow start on
    the parent's track and a flow end (``"bp": "e"``: bind to the
    enclosing slice) on the child's.  The start timestamp is clamped
    into the parent's interval — the viewer refuses arrows that leave
    their slice.  Same-node parent/child nesting is already visible from
    the lane layout, so only cross-node edges get arrows.
    """
    by_sid = {span["sid"]: span for span in spans}
    flows: List[Dict[str, Any]] = []
    for span in spans:
        parent = by_sid.get(span["parent"])
        if parent is None or parent.get("node") == span.get("node"):
            continue
        ts = min(max(span["t0"], parent["t0"]), parent["t1"])
        flows.append({
            "ph": "s",
            "name": "ctx",
            "cat": "trace",
            "id": span["sid"],
            "pid": parent.get("node") or "sim",
            "tid": "%s/%d" % (parent["cat"], lanes[parent["sid"]]),
            "ts": _us(ts),
        })
        flows.append({
            "ph": "f",
            "bp": "e",
            "name": "ctx",
            "cat": "trace",
            "id": span["sid"],
            "pid": span.get("node") or "sim",
            "tid": "%s/%d" % (span["cat"], lanes[span["sid"]]),
            "ts": _us(span["t0"]),
        })
    return flows


def write_chrome_trace(records: Iterable[Record],
                       path_or_fp: Union[str, IO]) -> None:
    document = chrome_trace(records)
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    if hasattr(path_or_fp, "write"):
        path_or_fp.write(text)
    else:
        with open(path_or_fp, "w") as fp:
            fp.write(text)


def load_chrome_trace(path_or_fp: Union[str, IO]) -> List[Dict[str, Any]]:
    """Read back a trace file; returns the non-metadata trace events."""
    if hasattr(path_or_fp, "read"):
        document = json.load(path_or_fp)
    else:
        with open(path_or_fp) as fp:
            document = json.load(fp)
    return [event for event in document["traceEvents"] if event["ph"] != "M"]


# -- Prometheus text exposition ------------------------------------------------

def _prom_name(name: str) -> str:
    """``net.txq.depth.node1.req`` -> ``repro_net_txq_depth_node1_req``."""
    cleaned = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return "repro_" + cleaned


def _prom_value(value: Any) -> str:
    number = float(value)
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _prom_label(component: str) -> str:
    escaped = component.replace("\\", "\\\\").replace('"', '\\"')
    return '{component="%s"}' % escaped


def prometheus_text(hub) -> str:
    """Render a :class:`~repro.obs.registry.MetricsHub` as Prometheus
    text exposition (``text/plain; version=0.0.4``).

    One family per metric name, components as a label.  Counters get the
    ``_total`` suffix; probes (sampled at snapshot time) export as
    gauges; histograms become cumulative ``_bucket`` series
    plus ``_sum`` and ``_count``.  Deterministic: families and samples
    are emitted in sorted order.
    """
    counters: Dict[str, List[Any]] = {}
    gauges: Dict[str, List[Any]] = {}
    histograms: Dict[str, List[Any]] = {}
    for component in sorted(hub._registries):
        registry = hub._registries[component]
        for name, counter in registry._counters.items():
            counters.setdefault(name, []).append((component, counter.value))
        for name, fn in registry._probes.items():
            value = fn()
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                gauges.setdefault(name, []).append((component, value))
        for name, histogram in registry._histograms.items():
            histograms.setdefault(name, []).append((component, histogram))

    lines: List[str] = []
    for name in sorted(counters):
        family = _prom_name(name) + "_total"
        lines.append("# TYPE %s counter" % family)
        for component, value in counters[name]:
            lines.append("%s%s %s" % (family, _prom_label(component),
                                      _prom_value(value)))
    for name in sorted(gauges):
        family = _prom_name(name)
        lines.append("# TYPE %s gauge" % family)
        for component, value in gauges[name]:
            lines.append("%s%s %s" % (family, _prom_label(component),
                                      _prom_value(value)))
    for name in sorted(histograms):
        family = _prom_name(name)
        lines.append("# TYPE %s histogram" % family)
        for component, histogram in histograms[name]:
            escaped = component.replace("\\", "\\\\").replace('"', '\\"')
            cumulative = 0
            for edge, count in zip(histogram.edges, histogram.counts):
                cumulative += count
                lines.append(
                    '%s_bucket{component="%s",le="%s"} %d'
                    % (family, escaped, _prom_value(edge), cumulative)
                )
            lines.append(
                '%s_bucket{component="%s",le="+Inf"} %d'
                % (family, escaped, histogram.total)
            )
            lines.append("%s_sum%s %s" % (family, _prom_label(component),
                                          repr(float(histogram.sum))))
            lines.append("%s_count%s %d" % (family, _prom_label(component),
                                            histogram.total))
    return "\n".join(lines) + ("\n" if lines else "")


# -- plain-text summaries ------------------------------------------------------

def _format_value(value: Any) -> str:
    if isinstance(value, float):
        return "%.6g" % value
    return str(value)


#: widest metric/component name a summary table will render before
#: truncating with ``...`` — keeps one runaway probe name from blowing
#: up the whole column for every other row.
_NAME_CAP = 40


def _clip(name: str) -> str:
    if len(name) <= _NAME_CAP:
        return name
    return name[:_NAME_CAP - 3] + "..."


def summary_table(snapshot: Dict[str, Dict[str, Any]],
                  title: str = "metrics") -> str:
    """Render a :meth:`MetricsHub.snapshot` as a fixed-width table.

    Histograms are summarized to ``total/mean/max``; scalar metrics
    print as-is.  Component and metric names longer than ``_NAME_CAP``
    are truncated (with ``...``) instead of widening the columns; output
    stays byte-deterministic per seed.
    """
    rows: List[List[str]] = []
    for component in sorted(snapshot):
        for name, value in sorted(snapshot[component].items()):
            if isinstance(value, dict) and "counts" in value:
                rendered = "n=%d mean=%s max=%s" % (
                    value["total"],
                    _format_value(value["mean"]),
                    _format_value(value["max"] if value["max"] is not None else 0.0),
                )
            else:
                rendered = _format_value(value)
            rows.append([_clip(component), _clip(name), rendered])
    return format_table(title, ("component", "metric", "value"), rows)


def format_table(title: str, headers: Sequence[str],
                 rows: Iterable[Sequence[Any]]) -> str:
    """A ``=== title ===`` line, then headers, a rule and one line per
    row, every cell left-aligned in a column as wide as its widest cell
    and columns two spaces apart.  Cells render with ``str``."""
    cells = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = ["=== %s ===" % title,
             "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
             "  ".join("-" * w for w in widths)]
    for row in cells:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)
