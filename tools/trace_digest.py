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
  ``json.dumps(rec, sort_keys=True)`` of every trace record, in order;
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
what each recipe hashed (one JSONL file per row), so ``diff -r`` over the
dumps of two checkouts shows *which records* moved.
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
    lines = [json.dumps(record, sort_keys=True) for record in records]
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
    parser.add_argument("--dump", metavar="DIR",
                        help="also write each recipe's records as JSONL "
                             "under DIR (diff two checkouts' dumps)")
    parser.add_argument("file", help="the pinned digests (JSON)")
    args = parser.parse_args(argv)

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
