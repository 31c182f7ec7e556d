#!/usr/bin/env python3
"""The refactoring oracle as one command: pinned digests of whole traces.

The simulator is deterministic, so a change that is meant to keep
behaviour must leave every trace record of a fixed-seed run
byte-identical.  This tool runs the fixed recipes, hashes what they
emit and compares with (or writes) a pinned JSON file:

* **protocol × backend**: a 3-node YCSB 50/50 run per ``protocol`` in
  {paper, optimized} × ``rollback_backend`` in {counter-sync,
  counter-async, lcm} (seed 11, 400 keys, 12 clients, 0.01 s warm-up +
  0.1 s; ``counter_shards=2`` for the async backends) — sha256 over
  ``json.dumps(dict(rec), sort_keys=True)`` of every trace record, in order;
* **distributed OCC**: the same recipe with ``optimistic=True`` on
  ``counter-async``, per protocol (the ``…/occ`` rows);
* **lease-expiry fallback**: the same recipe on the two promise-scheduled
  backends with every node's round drivers parked before the run, so
  every coverage promise outlives its lease and the waiter drives the
  round itself (the ``…/fallback`` rows, which also pin the number of
  sync fallbacks);
* **trace exports**: sha256 of the Chrome-trace and JSONL files of
  ``repro trace --workload demo|ycsb|tpcc --seed 7``;
* **CLI stdout**: sha256 of everything five short ``repro`` commands
  print (``ycsb``, ``tpcc``, ``report``, ``metrics export``, ``bench
  smoke`` — the ``cli/…`` rows), so a refactor of the bench harness or of
  the report formatting cannot move a printed number unnoticed;
* **model-checker ties**: every trace record of one small ``repro.mc``
  world whose controlled scheduler reorders same-instant entries
  (``tie_window=2``) under a scripted trace (the ``mc/tie`` row), so the
  simulator's chooser path is under the oracle too.

Usage: ``python tools/trace_digest.py [--write|--check] [--dump DIR]
FILE`` (default ``--check``; run with ``PYTHONHASHSEED=0``).  ``--check``
exits 1 and names every digest that moved; ``--dump DIR`` also writes
what each recipe hashed (one JSONL file per row, a ``.txt`` file per
stdout row).

``python tools/trace_digest.py --explain OLD_DIR NEW_DIR`` reads two such
dumps (say, of a parent and of a change) and says, for each row that
moved, *which records* moved: per ``(cat, name, node role)`` how many
records were removed and added, raw and per committed distributed
transaction, and the first record where the two runs part.  A record
counts as the same in both runs when it differs only in its timestamps
and span ids, so work that merely moved in time is neither added nor
removed.  The node role comes from the record's gid: ``coordinator``
when the record's node is the one that coordinates the transaction,
``participant`` otherwise (``recovery`` under a recovery trace id,
``-`` for a record of no transaction).  When both runs have the same
number of records, a "fields moved" table also counts, per ``(cat/name,
field)``, the index-aligned records that differ in that field — span
ids and timestamps included — so a change that only re-parents or
re-files records shows what it moved.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from collections import Counter

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.core.trusted_counter import BACKENDS  # noqa: E402

PROTOCOLS = ("paper", "optimized")
#: (backend, variant) per protocol; the row key is
#: ``protocol/backend[/variant]``.
RECIPES = (
    [(backend, "") for backend in BACKENDS]
    + [("counter-async", "occ")]
    + [(backend, "fallback") for backend, shape in BACKENDS.items()
       if shape.promises]
)
TRACE_WORKLOADS = ("demo", "ycsb", "tpcc")
#: row name -> ``repro`` argv whose whole stdout is hashed.
CLI_COMMANDS = {
    "cli/ycsb": ["ycsb", "--clients", "8", "--duration", "0.05"],
    "cli/tpcc": ["tpcc", "--clients", "4", "--duration", "0.05",
                 "--warehouses", "3"],
    "cli/report": ["report", "--workload", "ycsb", "--clients", "8",
                   "--duration", "0.05"],
    "cli/metrics-export": ["metrics", "export", "--workload", "ycsb"],
    "cli/bench-smoke": ["bench", "smoke"],
}
#: the ``mc/tie`` row's choice trace: option 1 at the 18th and 31st
#: choice points (all ties: the world enumerates no adversary actions or
#: crashes).  The 18th lands on commuting entries; the 31st reorders two
#: entries that do not commute and so changes the world.  The row
#: guards later changes to the chooser path; the evidence that the
#: chooser keeps the tie order is the seeded reference-scheduler tests in
#: ``tests/test_sim_core.py``.
MC_TIE_TRACE = [0] * 17 + [1] + [0] * 12 + [1]


def _dump_path(dump: str, key: str, suffix: str = ".jsonl") -> str:
    return os.path.join(dump, key.replace("/", "-") + suffix)


def records_digest(records, dump_to=None) -> dict:
    """sha256 over every trace record, in order (optionally dumped)."""
    digest = hashlib.sha256()
    lines = [json.dumps(dict(record), sort_keys=True) for record in records]
    for line in lines:
        digest.update(line.encode())
    if dump_to:
        with open(dump_to, "w") as fp:
            fp.writelines(line + "\n" for line in lines)
    return {"records": len(records), "sha256": digest.hexdigest()}


def protocol_backend_digest(
    protocol: str, backend: str, variant: str = "", dump_to=None
) -> dict:
    from repro.bench.harness import loaded, measure
    from repro.config import TREATY_FULL, ClusterConfig
    from repro.workloads import YcsbConfig

    config = ClusterConfig(
        tracing=True, seed=11, protocol=protocol, rollback_backend=backend,
        counter_shards=1 if backend == "counter-sync" else 2,
    )
    ycsb = YcsbConfig(
        read_proportion=0.5, num_keys=400, optimistic=variant == "occ"
    )
    cluster = loaded(TREATY_FULL, ycsb, config)
    if variant == "fallback":
        for node in cluster.nodes:
            node.pipeline.rollback.drivers_enabled = False
    measure(cluster, ycsb, 12, 0.1, "digest", warmup=0.01)
    entry = records_digest(cluster.obs.records(), dump_to)
    if variant == "fallback":
        entry["sync_fallbacks"] = sum(
            node.pipeline.rollback.sync_fallbacks
            for node in cluster.nodes
        )
    return entry


def mc_tie_digest(dump_to=None) -> dict:
    from repro.mc.harness import Scope, run_one

    result = run_one(
        Scope(tie_window=2, actions=(), crash_points=()), MC_TIE_TRACE,
        tracing=True, keep_cluster=True,
    )
    entry = records_digest(result.cluster.obs.records(), dump_to)
    entry["outcomes"] = result.outcomes
    return entry


def trace_export_digest(workload: str, dump_to=None) -> dict:
    from repro.cli import main

    with tempfile.TemporaryDirectory() as scratch:
        chrome = os.path.join(scratch, "trace.json")
        jsonl = os.path.join(scratch, "trace.jsonl")
        with contextlib.redirect_stdout(io.StringIO()):
            status = main([
                "trace", "--workload", workload, "--seed", "7",
                "--out", chrome, "--jsonl", jsonl,
            ])
        if status:
            raise SystemExit("repro trace --workload %s failed" % workload)
        digests = {}
        for name, path in (("chrome", chrome), ("jsonl", jsonl)):
            with open(path, "rb") as fp:
                digests[name] = hashlib.sha256(fp.read()).hexdigest()
        if dump_to:
            shutil.copyfile(jsonl, dump_to)
    return digests


def cli_stdout_digest(argv, dump_to=None) -> dict:
    from repro.cli import main

    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        status = main(list(argv))
    if status:
        raise SystemExit("repro %s failed" % " ".join(argv))
    text = captured.getvalue()
    if dump_to:
        with open(dump_to, "w") as fp:
            fp.write(text)
    return {
        "lines": text.count("\n"),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def compute(dump=None) -> dict:
    """Run every recipe, printing each digest as it is ready; with
    ``dump`` also write each recipe's records under that directory."""
    document: dict = {
        "protocol_backend": {}, "trace_export": {}, "stdout": {}, "mc": {},
    }
    if dump:
        os.makedirs(dump, exist_ok=True)

    def done(section: str, key: str, entry: dict) -> None:
        document[section][key] = entry
        print("%-36s %s" % (key, json.dumps(entry, sort_keys=True)),
              flush=True)

    for protocol in PROTOCOLS:
        for backend, variant in RECIPES:
            key = "/".join(filter(None, (protocol, backend, variant)))
            done("protocol_backend", key, protocol_backend_digest(
                protocol, backend, variant, dump and _dump_path(dump, key),
            ))
    for workload in TRACE_WORKLOADS:
        done("trace_export", workload, trace_export_digest(
            workload, dump and _dump_path(dump, "trace-" + workload)
        ))
    for name, argv in CLI_COMMANDS.items():
        done("stdout", name, cli_stdout_digest(
            argv, dump and _dump_path(dump, name, ".txt")
        ))
    done("mc", "mc/tie", mc_tie_digest(dump and _dump_path(dump, "mc/tie")))
    return document


# -- --explain: which records two dumps disagree on --------------------------

#: span ids: numbered in opening order, so one extra span renumbers every
#: later one; the first divergence is looked for without them.
ID_FIELDS = ("sid", "parent")
#: the fields that say when a record happened and which span ids it got,
#: not what it is; ``--explain`` matches records without them.
WHEN_FIELDS = ("t", "t0", "t1") + ID_FIELDS


def node_role(record: dict) -> str:
    """``coordinator``, ``participant``, ``recovery`` or ``-``: the part
    the record's node plays in the transaction its gid names."""
    gid = record.get("txn") or record.get("trace")
    if not gid:
        return "-"
    node_id = int.from_bytes(bytes.fromhex(gid)[:8], "little")
    if node_id >> 63:
        return "recovery"  # a recovery span DAG's synthetic trace id
    return "coordinator" if record.get("node") == "node%d" % node_id \
        else "participant"


def record_key(record: dict) -> tuple:
    return (record["cat"], record["name"], node_role(record))


def committed(records) -> int:
    """Committed distributed transactions: ``twopc/txn`` roots that
    closed with outcome commit."""
    return sum(
        1 for record in records
        if record["cat"] == "twopc" and record["name"] == "txn"
        and record.get("args", {}).get("outcome") == "commit"
    )


def phase_of(records, record: dict) -> str:
    """The innermost ``twopc`` phase span (not the ``txn`` root) of the
    record's transaction on the record's node that was open when the
    record started; ``-`` when none was."""
    gid = record.get("txn") or record.get("trace")
    start = record.get("t", record.get("t0"))
    best = None
    for other in records:
        if (
            other["cat"] == "twopc" and other.get("type") == "span"
            and other["name"] != "txn" and other.get("node") == record.get("node")
            and (other.get("txn") or other.get("trace")) == gid
            and other["t0"] <= start <= other["t1"]
            and (best is None or other["t0"] >= best["t0"])
        ):
            best = other
    return best["name"] if best is not None else "-"


def _first_difference(old: list, new: list, same=None):
    """Index of the first entry where two lists differ (None if equal);
    ``same(a, b)`` replaces ``==``."""
    for index, (a, b) in enumerate(zip(old, new)):
        if not (a == b if same is None else same(a, b)):
            return index
    return None if len(old) == len(new) else min(len(old), len(new))


def _same_but_ids(a: dict, b: dict) -> bool:
    return all(
        a.get(field) == b.get(field)
        for field in a.keys() | b.keys() if field not in ID_FIELDS
    )


def explain_records(old: list, new: list) -> dict:
    """What separates two runs' trace records.

    Returns ``first`` (index of the first record that differs other than
    in its span ids, None when none does), ``commits`` ``(old, new)`` and
    ``rows``: one ``(key, removed, added)`` per ``(cat, name, role)`` key
    with any, sorted by key.  A record is removed (added) when its content
    outside :data:`WHEN_FIELDS` has more copies in ``old`` (``new``).
    """
    keys = {}

    def content(record: dict) -> str:
        text = json.dumps(
            {k: v for k, v in record.items() if k not in WHEN_FIELDS},
            sort_keys=True,
        )
        keys.setdefault(text, record_key(record))
        return text

    before = Counter(content(record) for record in old)
    after = Counter(content(record) for record in new)
    tally: dict = {}
    for diff, column in ((before - after, 0), (after - before, 1)):
        for text, count in diff.items():
            tally.setdefault(keys[text], [0, 0])[column] += count
    return {
        "first": _first_difference(old, new, _same_but_ids),
        "commits": (committed(old), committed(new)),
        "rows": [(key, r, a) for key, (r, a) in sorted(tally.items())],
    }


def fields_moved(old: list, new: list) -> list:
    """``(cat/name, field, records)`` for every field in which
    index-aligned records of two equally long runs differ, timestamps and
    span ids included, sorted; a record counts under its old cat/name."""
    tally: Counter = Counter()
    for a, b in zip(old, new):
        for field in a.keys() | b.keys():
            if a.get(field) != b.get(field):
                tally["%s/%s" % (a["cat"], a["name"]), field] += 1
    return [(label, field, count)
            for (label, field), count in sorted(tally.items())]


def _per(count: int, commits: int) -> str:
    return "%.3f" % (count / commits) if commits else "-"


def _clip(text: str, width: int = 240) -> str:
    return text if len(text) <= width else text[: width - 3] + "..."


def explain_row(name: str, old_text: str, new_text: str) -> list:
    """The report lines for one dumped row that moved."""
    old_lines = old_text.splitlines()
    new_lines = new_text.splitlines()
    if not name.endswith(".jsonl"):
        # A stdout row: lines, not records.
        first = _first_difference(old_lines, new_lines)
        removed = sum((Counter(old_lines) - Counter(new_lines)).values())
        added = sum((Counter(new_lines) - Counter(old_lines)).values())
        out = ["%s: %d -> %d lines, %d removed, %d added"
               % (name, len(old_lines), len(new_lines), removed, added)]
        if first is not None:
            out.append("  first difference at line %d:" % (first + 1))
            for side, lines in (("old", old_lines), ("new", new_lines)):
                out.append("    %s: %s" % (side, _clip(
                    lines[first] if first < len(lines) else "<end>")))
        return out
    old = [json.loads(line) for line in old_lines]
    new = [json.loads(line) for line in new_lines]
    result = explain_records(old, new)
    (old_commits, new_commits), first = result["commits"], result["first"]
    out = ["%s: %d -> %d records, %d -> %d committed distributed txns"
           % (name, len(old), len(new), old_commits, new_commits)]
    if first is not None:
        out.append("  first divergence at record %d:" % first)
        for side, records, lines in (("old", old, old_lines),
                                     ("new", new, new_lines)):
            if first >= len(records):
                out.append("    %s: <end>" % side)
                continue
            record = records[first]
            cat, rec_name, role = record_key(record)
            out.append("    %s: %s/%s on %s (%s), txn %s, phase %s" % (
                side, cat, rec_name, record.get("node"), role,
                record.get("txn") or record.get("trace"),
                phase_of(records, record)))
            out.append("      " + _clip(lines[first]))
    out.append("  %-34s %-12s %8s %8s %11s %9s" % (
        "cat/name", "role", "removed", "added", "removed/txn", "added/txn"))
    rows = [("%s/%s" % (cat, rec_name), role, removed, added)
            for (cat, rec_name, role), removed, added in result["rows"]]
    rows.append(("total", "", sum(row[2] for row in rows),
                 sum(row[3] for row in rows)))
    for label, role, removed, added in rows:
        out.append("  %-34s %-12s %8d %8d %11s %9s" % (
            label, role, removed, added,
            _per(removed, old_commits), _per(added, new_commits)))
    if len(old) == len(new):
        # Equal counts: say what moved in place, re-parenting included.
        out.append("  fields moved, index-aligned:")
        out.append("  %-34s %-12s %8s" % ("cat/name", "field", "records"))
        for label, field, count in fields_moved(old, new):
            out.append("  %-34s %-12s %8d" % (label, field, count))
    return out


def explain(old_dir: str, new_dir: str) -> list:
    """Report lines for every dumped row that differs between two
    ``--dump`` directories (rows on one side only are named)."""
    names = sorted(set(os.listdir(old_dir)) | set(os.listdir(new_dir)))
    out = []
    moved = 0
    for name in names:
        paths = [os.path.join(d, name) for d in (old_dir, new_dir)]
        if not all(os.path.exists(path) for path in paths):
            side = "old" if os.path.exists(paths[0]) else "new"
            out.append("%s: only in the %s dump" % (name, side))
            moved += 1
            continue
        texts = []
        for path in paths:
            with open(path) as fp:
                texts.append(fp.read())
        if texts[0] != texts[1]:
            out.extend(explain_row(name, *texts))
            moved += 1
    out.append("%d of %d dumped rows moved" % (moved, len(names)))
    return out


def _flatten(document: dict) -> dict:
    return {
        "%s:%s:%s" % (section, key, field): value
        for section, entries in document.items()
        for key, entry in entries.items()
        for field, value in entry.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--write", action="store_true",
                      help="pin the digests of this checkout into FILE")
    mode.add_argument("--check", action="store_true",
                      help="compare this checkout with FILE (default)")
    mode.add_argument("--explain", nargs=2, metavar=("OLD_DIR", "NEW_DIR"),
                      help="say which records moved between two --dump "
                           "directories (runs no recipe)")
    parser.add_argument("--dump", metavar="DIR",
                        help="also write each recipe's records as JSONL "
                             "under DIR (for --explain)")
    parser.add_argument("file", nargs="?", help="the pinned digests (JSON)")
    args = parser.parse_args(argv)
    if args.explain:
        print("\n".join(explain(*args.explain)))
        return 0
    if args.file is None:
        parser.error("FILE is required unless --explain is given")

    document = compute(args.dump)
    if args.write:
        with open(args.file, "w") as fp:
            json.dump(document, fp, indent=2, sort_keys=True)
            fp.write("\n")
        print("wrote", args.file)
        return 0
    with open(args.file) as fp:
        pinned = _flatten(json.load(fp))
    current = _flatten(document)
    moved = sorted(
        key for key in pinned.keys() | current.keys()
        if pinned.get(key) != current.get(key)
    )
    for key in moved:
        print("MOVED %s: pinned %s, now %s"
              % (key, pinned.get(key), current.get(key)))
    print("trace digests:", "FAILED" if moved else "identical")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
