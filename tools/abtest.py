#!/usr/bin/env python3
"""A/B host-time test: REF against the working tree, in alternating pairs.

Usage::

    python tools/abtest.py HEAD~1
    python tools/abtest.py 64e7139 --workload ycsb-c-snapshot --pairs 10 --seed 5

REF is ``git archive``d into a temporary directory; the change is a copy
of this checkout's working tree (its tracked files, and its untracked
files that git does not ignore) beside it, at a path of equal length:
``host_peak_rss_mb`` on ``ycsb-w-single`` and ``ycsb-c-snapshot`` moved
with where a tree was placed, not with its code, when the working tree
itself ran.  Each pair runs ``perf/bench.py --trace 0`` once in each
tree, each in a fresh process, and who runs first alternates from pair
to pair.  Each tree reads and writes bytecode only in a cache
of its own (``PYTHONPYCACHEPREFIX``), which one untimed run per tree
warms before pair 1: a tree with a warm ``__pycache__`` beside one
without would skew ``setup_s`` and RSS.  Every run's host metrics are
printed as it finishes;
then one table gives, per ``BENCHMARK.json`` end-to-end metric:

* each side's median and [q1, q3];
* the change of the medians, relative to the base;
* the pairs the change won (ties count for neither side);
* the gain rule: ``better`` when the change wins at least nine tenths of
  the pairs and its median is better by more than the base's
  interquartile distance, ``worse`` when the same holds the other way,
  ``-`` otherwise.

Last come whether the model rows (every simulated-clock value, exact
for a seed) are bit-equal across all runs of both sides, the failed
transactions per side, and the runs that got less than 0.9 of a core.
Run it on an otherwise idle machine: pairs share it, not a run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: the share of pairs a side must win for the gain rule
WIN_SHARE = 0.9

Run = Dict[str, Any]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(base: Sequence[Run], change: Sequence[Run],
              end_to_end: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """One table row per end-to-end metric; ``base[i]`` and ``change[i]``
    are pair ``i``, each run a ``{"metrics": {name: value}}``."""
    rows = []
    for spec in end_to_end:
        name, sign = spec["name"], 1 if spec["better"] == "lower" else -1
        pairs = [(b["metrics"][name], c["metrics"][name])
                 for b, c in zip(base, change)]
        won = sum(1 for b, c in pairs if sign * (b - c) > 0)
        lost = sum(1 for b, c in pairs if sign * (c - b) > 0)
        base_q = quartiles([b for b, _ in pairs])
        change_q = quartiles([c for _, c in pairs])
        gain = sign * (base_q[1] - change_q[1])  # > 0: the change is better
        spread = base_q[2] - base_q[0]
        if won >= WIN_SHARE * len(pairs) and gain > spread:
            verdict = "better"
        elif lost >= WIN_SHARE * len(pairs) and -gain > spread:
            verdict = "worse"
        else:
            verdict = "-"
        rows.append({
            "metric": name, "base": base_q, "change": change_q,
            "delta": (change_q[1] - base_q[1]) / base_q[1]
            if base_q[1] else 0.0,
            "won": won, "lost": lost, "pairs": len(pairs),
            "verdict": verdict,
        })
    return rows


def model_bit_equal(runs: Sequence[Run]) -> bool:
    """Whether every run reports the very same model values."""
    return all(run["model"] == runs[0]["model"] for run in runs)


def format_rows(rows: Sequence[Dict[str, Any]]) -> List[str]:
    lines = ["%-18s %-34s %-34s %8s %7s  %s" % (
        "metric", "base median [q1, q3]", "change median [q1, q3]",
        "change", "won", "gain rule")]
    for row in rows:
        lines.append("%-18s %-34s %-34s %+7.1f%% %7s  %s" % (
            row["metric"],
            "%.6g [%.6g, %.6g]" % (row["base"][1], row["base"][0],
                                   row["base"][2]),
            "%.6g [%.6g, %.6g]" % (row["change"][1], row["change"][0],
                                   row["change"][2]),
            100.0 * row["delta"], "%d/%d" % (row["won"], row["pairs"]),
            row["verdict"]))
    return lines


def extract(ref: str, dest: str) -> None:
    """``git archive REF | tar -x -C dest``."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", ref],
                             stdout=subprocess.PIPE, check=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def working_files(root: str) -> List[str]:
    """The working tree's files under ``root``, relative to it: the
    tracked ones still present and the untracked ones not ignored."""
    listed = subprocess.run(
        ["git", "-C", root, "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"],
        stdout=subprocess.PIPE, check=True).stdout.decode()
    return sorted({path for path in listed.split("\0")
                   if path and os.path.isfile(os.path.join(root, path))})


def copy_working_tree(root: str, dest: str) -> None:
    """Copy :func:`working_files` of ``root`` into ``dest``."""
    for path in working_files(root):
        target = os.path.join(dest, path)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        shutil.copy2(os.path.join(root, path), target)


def layout(tmp: str) -> Dict[str, Tuple[str, str]]:
    """Each side's ``(tree, bytecode cache)`` under ``tmp``: the trees
    side by side at paths of equal length, each with its own cache."""
    return {side: (os.path.join(tmp, name), os.path.join(tmp, name + "-pyc"))
            for side, name in (("base", "base"), ("change", "work"))}


def run_env(cache: str) -> Dict[str, str]:
    """This process's environment, with bytecode read from and written to
    ``cache`` only."""
    env = dict(os.environ, PYTHONPYCACHEPREFIX=cache)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_once(tree: str, cache: str, workload: str, seed: int,
             seconds: float) -> Run:
    """One timed run of ``tree``'s ``perf/bench.py`` in a fresh process."""
    done = subprocess.run(
        [sys.executable, os.path.join(tree, "perf", "bench.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", "0"],
        cwd=tree, env=run_env(cache), stdout=subprocess.PIPE, text=True,
        check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2][len("detail: "):])
    return {
        "metrics": {name: entry["value"]
                    for name, entry in result["metrics"].items()},
        "failed": result["failed"],
        "model": detail["model"],
        "disturbed": detail["disturbed"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="the base commit (any git revision)")
    parser.add_argument("--workload", default="ycsb-a-dist")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        spec = json.load(fp)
    host_metrics = [row["name"] for row in spec["end_to_end"]
                    if not row["name"].startswith("model_")]
    base: List[Run] = []
    change: List[Run] = []
    with tempfile.TemporaryDirectory(prefix="abtest-") as tmp:
        trees = layout(tmp)
        os.mkdir(trees["base"][0])
        extract(args.ref, trees["base"][0])
        copy_working_tree(ROOT, trees["change"][0])
        print("abtest %s  seed %d  %d pairs  base %s, change: working tree"
              % (args.workload, args.seed, args.pairs, args.ref))
        for tree, cache in trees.values():  # warm-up, not timed
            run_once(tree, cache, args.workload, args.seed,
                     spec["run_seconds"])
        for pair in range(args.pairs):
            sides = [("base", base), ("change", change)]
            if pair % 2:
                sides.reverse()
            for side, runs in sides:
                runs.append(run_once(*trees[side], args.workload, args.seed,
                                     spec["run_seconds"]))
                print("  pair %d %-6s %s" % (pair + 1, side, "  ".join(
                    "%s %.6g" % (name, runs[-1]["metrics"][name])
                    for name in host_metrics)), flush=True)
    print()
    for line in format_rows(summarize(base, change, spec["end_to_end"])):
        print(line)
    print("model rows bit-equal across all %d runs: %s" % (
        2 * args.pairs, "yes" if model_bit_equal(base + change) else "NO"))
    print("failed: base %s, change %s" % (
        [run["failed"] for run in base], [run["failed"] for run in change]))
    disturbed = sum(run["disturbed"] for run in base + change)
    if disturbed:
        print("disturbed runs (< 0.9 of a core): %d" % disturbed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
