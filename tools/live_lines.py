#!/usr/bin/env python3
"""Function-level liveness of ``src/repro``: what production runs reach.

Usage::

    python tools/live_lines.py record OUT -- (-m MOD | SCRIPT) [ARGS...]
    python tools/live_lines.py plan DIR | sh
    python tools/live_lines.py report DIR/prod.json --tests DIR/tests.json

``record`` runs the target in this process under ``sys.setprofile`` (and
``threading.setprofile``) and merges ``(file, first line)`` of every
``src/repro`` function it calls into OUT.  A function is keyed by its code
object's ``co_firstlineno``, which for a decorated function is the first
decorator's line.  Call events are enough for function granularity; line
events (``settrace``) would cost far more.  ``plan DIR`` prints one
``record`` line per entry of ``PRODUCTION`` into ``DIR/prod.json`` and one
for tier-1 into ``DIR/tests.json``.  On a 2-vCPU host the whole plan takes
about 35 minutes under the profiler, two thirds of it ``benchmarks/``; it
is a hand-run tool, not a CI job.  ``report`` walks ``src/repro`` with
``ast`` and prints every function, nested ones and methods included, as
``prod``, ``tests-only`` or ``never`` with ``file:line``, qualified name
and its own lines (those of nested functions count for the nested
function), then per-state totals.
"""

from __future__ import annotations

import argparse
import ast
import glob
import json
import os
import runpy
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src", "repro")

_PERF = ("ycsb-a-dist", "ycsb-c-snapshot", "ycsb-w-single", "ycsb-a-traced")
#: ``repro`` with the flags CI passes (bench, mc; budgets become run
#: caps), and every other subcommand as README and docs/ invoke it.
_REPRO = """\
bench baseline --check --out {dir}/baseline.json --report-dir {dir}/report
bench smoke
bench smoke --flight-recorder
bench smoke --read-mostly
bench smoke --net-batch --hist-out {dir}/hist.json
bench scale-out --nodes 3,5,7,9
bench sweep-window --windows 0,100,adaptive
mc explore --scope 2x3 --depth 1 --max-runs 200
mc explore --scope 2x3 --depth 2 --coordinator-only --no-restart --max-runs 200
mc explore --mutate no-abort-rebroadcast --expect-violation --out {dir}/mc.json
mc replay {dir}/mc.json
mc replay {dir}/mc.json --unmutated
info
demo
attacks
ycsb --clients 8 --duration 0.05
tpcc --clients 4 --duration 0.05
trace --workload demo --out {dir}/t.json --jsonl {dir}/t.jsonl
trace critical-path --workload demo
trace critical-path last --workload demo
report --workload ycsb --duration 0.1 --timeline-out {dir}/tl.jsonl \
--incidents-out {dir}/incidents.jsonl
metrics export --prom
"""
#: every production entry point, as ``record`` target argv (a glob for
#: scripts); ``{dir}`` is the plan's output directory.
PRODUCTION = (
    [["perf/bench.py", "--workload", name, "--trace", trace]
     for name in _PERF for trace in ("0", "1")]
    + [["benchmarks/bench_*.py"], ["examples/*.py"]]
    + [["-m", "repro"] + line.split()
       for line in _REPRO.splitlines()]
)


def record(out: str, target: list) -> int:
    """Run ``target`` in-process; merge the ``src/repro`` functions it
    called into ``out``; return its exit status."""
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    module = target[0] == "-m"
    # What ``python`` would put first for the target, then the sources.
    sys.path[0] = os.getcwd() if module else \
        os.path.dirname(os.path.abspath(target[0]))
    sys.path.insert(1, os.path.join(ROOT, "src"))
    sys.argv = target[1:] if module else list(target)
    sys.setprofile(hook)
    threading.setprofile(hook)
    status = 0
    try:
        if module:
            runpy.run_module(target[1], run_name="__main__", alter_sys=True)
        else:
            runpy.run_path(target[0], run_name="__main__")
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else int(bool(exc.code))
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    hits = load(out) if os.path.exists(out) else set()
    for code in seen:
        path = os.path.abspath(code.co_filename)
        if path.startswith(SRC + os.sep):
            hits.add((os.path.relpath(path, SRC), code.co_firstlineno))
    with open(out, "w") as fp:
        json.dump(sorted(hits), fp)
    return status


def load(path: str) -> set:
    with open(path) as fp:
        return {tuple(hit) for hit in json.load(fp)}


def functions(rel: str, source: str) -> list:
    """``(rel, key line, qualified name, own lines)`` of every def."""
    found = []

    def walk(node, prefix: str) -> int:
        """Lines under ``node`` that belong to defs found below it."""
        covered = 0
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = min([child.lineno]
                          + [d.lineno for d in child.decorator_list])
                span = child.end_lineno - key + 1
                entry = [rel, key, prefix + child.name, span]
                found.append(entry)
                entry[3] -= walk(child, prefix + child.name + ".")
                covered += span
            elif isinstance(child, ast.ClassDef):
                covered += walk(child, prefix + child.name + ".")
            else:
                covered += walk(child, prefix)
        return covered

    walk(ast.parse(source), "")
    return sorted(tuple(entry) for entry in found)


def classify(defs: list, prod: set, tests: set) -> list:
    """``(state, def)`` for each def: ``prod``, ``tests-only`` or ``never``."""
    return [("prod" if d[:2] in prod else
             "tests-only" if d[:2] in tests else "never", d) for d in defs]


def report(prod_paths: list, tests_path: str) -> None:
    prod = set().union(*(load(path) for path in prod_paths))
    defs = []
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"),
                                 recursive=True)):
        with open(path) as fp:
            defs += functions(os.path.relpath(path, SRC), fp.read())
    totals = {"prod": [0, 0], "tests-only": [0, 0], "never": [0, 0]}
    for state, (rel, line, name, size) in classify(defs, prod,
                                                    load(tests_path)):
        print("%-10s %-34s %-48s %5d" % (state, "%s:%d" % (rel, line),
                                         name, size))
        totals[state][0] += 1
        totals[state][1] += size
    for state, (count, size) in totals.items():
        print("total %-10s %5d functions %6d lines" % (state, count, size))


def plan(directory: str) -> None:
    me = "%s %s record" % (sys.executable, os.path.relpath(__file__, ROOT))
    print("mkdir -p %s && cd %s" % (directory, ROOT))
    for target in PRODUCTION:
        paths = sorted(glob.glob(os.path.join(ROOT, target[0])))
        for path in [os.path.relpath(p, ROOT) for p in paths] or target[:1]:
            argv = [path] + target[1:]
            print("%s %s/prod.json -- %s" % (me, directory, " ".join(
                arg.replace("{dir}", directory) for arg in argv)))
    print("%s %s/tests.json -- -m pytest -q -p no:cacheprovider tests"
          % (me, directory))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["record"] and "--" in argv:
        split = argv.index("--")
        return record(argv[1], argv[split + 1:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("plan").add_argument("dir")
    reporting = sub.add_parser("report")
    reporting.add_argument("prod", nargs="+")
    reporting.add_argument("--tests", required=True)
    args = parser.parse_args(argv)
    if args.command == "plan":
        plan(os.path.abspath(args.dir))
    else:
        report(args.prod, args.tests)
    return 0


if __name__ == "__main__":
    sys.exit(main())
