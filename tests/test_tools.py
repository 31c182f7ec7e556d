"""Table tests for the pure parts of the scripts under ``tools/``."""

import gc
import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name, module_name=None):
    spec = importlib.util.spec_from_file_location(
        module_name or name, TOOLS / ("%s.py" % name))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


abtest = _load("abtest")

HOST = {"name": "host_ms_per_txn", "better": "lower"}
TPS = {"name": "model_tps", "better": "higher"}
#: sorted: 9.8, 9.9, 10.0, 10.1, 10.2 -> q1 9.85, median 10.0, q3 10.15
BASE = [10.0, 10.2, 9.8, 10.1, 9.9]


def runs(values, metric="host_ms_per_txn"):
    return [{"metrics": {metric: value}} for value in values]


@pytest.mark.parametrize("change, won, lost, verdict", [
    # every pair won, medians 1.0 apart > the base's 0.3 IQR
    ([9.0, 9.1, 8.9, 9.05, 8.95], 5, 0, "better"),
    # every pair won, but by less than the base's own spread
    ([value - 0.1 for value in BASE], 5, 0, "-"),
    # 4 of 5 pairs is below nine tenths
    ([9.0, 9.1, 8.9, 9.05, 10.5], 4, 1, "-"),
    # the same rule the other way
    ([value + 1.0 for value in BASE], 0, 5, "worse"),
    # ties count for neither side
    (BASE, 0, 0, "-"),
])
def test_summarize_lower_is_better(change, won, lost, verdict):
    (row,) = abtest.summarize(runs(BASE), runs(change), [HOST])
    assert (row["won"], row["lost"], row["pairs"], row["verdict"]) == (
        won, lost, 5, verdict)
    assert row["base"] == pytest.approx((9.85, 10.0, 10.15))


def test_summarize_higher_is_better_and_delta():
    base = runs([100.0, 101.0, 99.0, 100.5, 99.5], "model_tps")
    change = runs([111.0, 112.0, 110.0, 111.5, 110.5], "model_tps")
    (row,) = abtest.summarize(base, change, [TPS])
    assert (row["won"], row["verdict"]) == (5, "better")
    assert row["delta"] == pytest.approx(0.11)
    (row,) = abtest.summarize(change, base, [TPS])
    assert (row["lost"], row["verdict"]) == (5, "worse")


def test_one_pair_is_its_own_quartiles():
    (row,) = abtest.summarize(runs([10.0]), runs([9.0]), [HOST])
    assert row["base"] == (10.0, 10.0, 10.0)
    assert (row["won"], row["verdict"]) == (1, "better")
    assert abtest.quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_model_rows_must_be_bit_equal():
    model = {"model_tps": 1480.0, "model_p50_ms": 3.72}
    same = [{"model": dict(model)} for _ in range(4)]
    assert abtest.model_bit_equal(same)
    moved = same + [{"model": dict(model, model_tps=1480.0000000000002)}]
    assert not abtest.model_bit_equal(moved)


def test_each_tree_runs_on_its_own_bytecode_cache(monkeypatch):
    """Both sides compile into a cache of their own, never into or from
    a tree's ``__pycache__``; nothing else in the environment changes."""
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", "/elsewhere")
    monkeypatch.setenv("ABTEST_PROBE", "kept")
    env = abtest.run_env("/tmp/x/base-pyc")
    assert env["PYTHONPYCACHEPREFIX"] == "/tmp/x/base-pyc"
    assert "PYTHONDONTWRITEBYTECODE" not in env
    assert env["ABTEST_PROBE"] == "kept"
    assert abtest.run_env("/tmp/x/change-pyc")["PYTHONPYCACHEPREFIX"] == (
        "/tmp/x/change-pyc")


def test_both_trees_sit_side_by_side_at_paths_of_equal_length():
    trees = abtest.layout("/tmp/abtest-x")
    (base, base_pyc), (change, change_pyc) = trees["base"], trees["change"]
    assert len(base) == len(change) and base != change
    assert {Path(path).parent for path in (base, change, base_pyc,
                                           change_pyc)} == {
        Path("/tmp/abtest-x")}
    assert base_pyc != change_pyc


def test_the_change_side_copies_what_git_would_see(tmp_path):
    """Tracked files and untracked ones git does not ignore are copied;
    ignored files and tracked files deleted from the tree are not."""
    import subprocess

    root, dest = tmp_path / "repo", tmp_path / "copy"
    (root / "src").mkdir(parents=True)
    for name, text in [(".gitignore", "*.pyc\n"), ("src/a.py", "a"),
                       ("src/gone.py", "g"), ("src/new.py", "n"),
                       ("src/a.pyc", "x")]:
        (root / name).write_text(text)
    subprocess.run(["git", "init", "-q", str(root)], check=True)
    subprocess.run(["git", "-C", str(root), "add", ".gitignore", "src/a.py",
                    "src/gone.py"], check=True)
    (root / "src" / "gone.py").unlink()
    assert abtest.working_files(str(root)) == [
        ".gitignore", "src/a.py", "src/new.py"]
    abtest.copy_working_tree(str(root), str(dest))
    assert sorted(str(path.relative_to(dest)) for path in dest.rglob("*")
                  if path.is_file()) == [".gitignore", "src/a.py",
                                         "src/new.py"]
    assert (dest / "src" / "new.py").read_text() == "n"


def test_table_has_one_line_per_metric():
    rows = abtest.summarize(runs(BASE), runs([9.0, 9.1, 8.9, 9.05, 8.95]),
                            [HOST])
    header, line = abtest.format_rows(rows)
    assert header.split()[0] == "metric"
    assert line.split()[0] == "host_ms_per_txn"
    assert "-10.0%" in line and "5/5" in line and line.endswith("better")


# -- live_lines: function keys and the prod / tests-only / never classifier --

live_lines = _load("live_lines")

LIVE_SOURCE = '''\
import functools


@functools.lru_cache()
def decorated():
    return 1


def outer():
    def inner():
        return 2

    return inner()


class Box:
    def method(self):
        return 3

    def only_tested(self):
        return 4


def never():
    return 5
'''


def test_functions_keyed_as_code_objects_are():
    """A decorated def is keyed by its decorator's line, as its code
    object's ``co_firstlineno`` is; a nested def's lines are its own."""
    defs = live_lines.functions("m.py", LIVE_SOURCE)
    assert [(line, name, size) for _, line, name, size in defs] == [
        (4, "decorated", 3), (9, "outer", 3), (10, "outer.inner", 2),
        (17, "Box.method", 2), (20, "Box.only_tested", 2), (24, "never", 2),
    ]
    space = {}
    exec(compile(LIVE_SOURCE, "m.py", "exec"), space)
    outer_code = space["outer"].__code__
    inner_code = next(const for const in outer_code.co_consts
                      if hasattr(const, "co_firstlineno"))
    firstlines = [
        space["decorated"].__wrapped__.__code__.co_firstlineno,
        outer_code.co_firstlineno, inner_code.co_firstlineno,
        space["Box"].method.__code__.co_firstlineno,
        space["Box"].only_tested.__code__.co_firstlineno,
        space["never"].__code__.co_firstlineno,
    ]
    assert firstlines == [line for _, line, _, _ in defs]


@pytest.mark.parametrize("prod, tests, states", [
    # production reaches all but two; tier-1 reaches one of those
    ({4, 9, 10, 17}, {4, 20}, ["prod", "prod", "prod", "prod",
                               "tests-only", "never"]),
    # a nested def is its own function: the outer one being live is not
    ({9}, {10}, ["never", "prod", "tests-only", "never", "never", "never"]),
    # production wins over tests; nothing called is never
    ({24}, {24}, ["never"] * 5 + ["prod"]),
])
def test_classify(prod, tests, states):
    defs = live_lines.functions("m.py", LIVE_SOURCE)
    classified = live_lines.classify(
        defs, {("m.py", line) for line in prod},
        {("m.py", line) for line in tests})
    assert [state for state, _ in classified] == states
    assert [d for _, d in classified] == defs


# -- trace_digest --explain: which records two dumps disagree on -------------

trace_digest = _load("trace_digest")


def gid(node_id, seq=1):
    return (node_id.to_bytes(8, "little") + seq.to_bytes(8, "little")).hex()


def event(name, node, txn, t, cat="twopc", **args):
    return {"args": args, "cat": cat, "name": name, "node": node, "t": t,
            "trace": txn, "txn": txn, "type": "event"}


def span(name, node, txn, t0, t1, sid, cat="twopc", **args):
    return {"args": args, "cat": cat, "name": name, "node": node,
            "parent": 0, "sid": sid, "t0": t0, "t1": t1, "trace": txn,
            "txn": txn, "type": "span"}


@pytest.mark.parametrize("record, role", [
    (event("commit_apply", "node1", gid(1), 0.0), "coordinator"),
    (event("commit_apply", "node2", gid(1), 0.0), "participant"),
    # a span with no txn of its own takes its trace's gid
    (dict(event("log_append", "node0", None, 0.0), trace=gid(0)),
     "coordinator"),
    (event("replay", "node2", gid((1 << 63) | 2), 0.0), "recovery"),
    (event("log_append", "node0", None, 0.0), "-"),
])
def test_node_role_comes_from_the_gid(record, role):
    assert trace_digest.node_role(record) == role


#: one committed transaction coordinated by node0, half on node1
OLD_RUN = [
    span("prepare", "node0", gid(0), 1.0, 2.0, 1),
    span("group_commit", "node1", gid(0), 2.1, 2.4, 2, cat="storage"),
    event("commit_apply", "node1", gid(0), 2.4),
    span("group_commit", "node0", gid(0), 2.5, 2.8, 3, cat="storage"),
    event("commit_apply", "node0", gid(0), 2.8),
    span("commit", "node0", gid(0), 2.05, 2.9, 4),
    span("txn", "node0", gid(0), 0.5, 2.9, 5, outcome="commit"),
]
#: the coordinator's own apply now runs beside delivery: the same
#: records earlier and in another order, plus one more committed txn
NEW_RUN = [
    OLD_RUN[0],
    span("group_commit", "node0", gid(0), 2.1, 2.4, 2, cat="storage"),
    event("commit_apply", "node0", gid(0), 2.4),
    span("group_commit", "node1", gid(0), 2.1, 2.4, 3, cat="storage"),
    event("commit_apply", "node1", gid(0), 2.4),
    span("commit", "node0", gid(0), 2.05, 2.45, 4),
    span("txn", "node0", gid(0), 0.5, 2.45, 5, outcome="commit"),
    event("commit_apply", "node2", gid(2, 7), 2.6),
    span("txn", "node2", gid(2, 7), 2.0, 2.6, 6, outcome="commit"),
]


def test_explain_records_names_what_moved_and_where():
    result = trace_digest.explain_records(OLD_RUN, NEW_RUN)
    assert result["first"] == 1
    assert result["commits"] == (1, 2)
    # Retimed and reordered records match; only the new txn's two
    # records are added.
    assert result["rows"] == [
        (("twopc", "commit_apply", "coordinator"), 0, 1),
        (("twopc", "txn", "coordinator"), 0, 1),
    ]
    assert trace_digest.explain_records(OLD_RUN, list(OLD_RUN)) == {
        "first": None, "commits": (1, 1), "rows": []}
    # A record lost at the end counts too.
    assert trace_digest.explain_records(OLD_RUN, OLD_RUN[:-1])["rows"] == [
        (("twopc", "txn", "coordinator"), 1, 0)]


@pytest.mark.parametrize("edit, expected", [
    # nothing moved
    ({}, []),
    # a re-parent: ids only, invisible to the removed/added table
    ({1: {"parent": 4}}, [("storage/group_commit", "parent", 1)]),
    # re-filed under no trace, and retimed
    ({2: {"trace": None}, 3: {"t0": 2.6, "t1": 2.7}},
     [("storage/group_commit", "t0", 1), ("storage/group_commit", "t1", 1),
      ("twopc/commit_apply", "trace", 1)]),
    # two records of one kind, one field each; a new field counts too
    ({1: {"parent": 4}, 3: {"parent": 4, "error": "x"}},
     [("storage/group_commit", "error", 1),
      ("storage/group_commit", "parent", 2)]),
])
def test_fields_moved_counts_index_aligned_differences(edit, expected):
    new = [dict(record, **edit.get(index, {}))
           for index, record in enumerate(OLD_RUN)]
    assert trace_digest.fields_moved(OLD_RUN, new) == expected


def test_explain_shows_a_reparent_only_row(tmp_path):
    reparented = [dict(record, parent=5) if record.get("sid") == 2
                  else record for record in OLD_RUN]
    old = _dump(tmp_path / "old", {"paper-lcm.jsonl": OLD_RUN})
    new = _dump(tmp_path / "new", {"paper-lcm.jsonl": reparented})
    lines = trace_digest.explain(old, new)
    assert lines[0] == ("paper-lcm.jsonl: 7 -> 7 records, "
                        "1 -> 1 committed distributed txns")
    assert "first divergence" not in "\n".join(lines)
    table = lines[lines.index("  fields moved, index-aligned:") + 1:-1]
    assert [line.split() for line in table] == [
        ["cat/name", "field", "records"],
        ["storage/group_commit", "parent", "1"],
    ]
    # unequal counts: the records do not align, so no such table
    lines = trace_digest.explain(old, _dump(tmp_path / "short", {
        "paper-lcm.jsonl": OLD_RUN[:-1]}))
    assert "  fields moved, index-aligned:" not in lines


def test_phase_is_the_innermost_open_twopc_span():
    # node0's group_commit at 2.5 lies in its commit span [2.05, 2.9]
    assert trace_digest.phase_of(OLD_RUN, OLD_RUN[3]) == "commit"
    assert trace_digest.phase_of(
        OLD_RUN, dict(OLD_RUN[3], t0=1.5)) == "prepare"
    # node1 has no phase spans of its own; another txn's record none
    assert trace_digest.phase_of(OLD_RUN, OLD_RUN[1]) == "-"
    assert trace_digest.phase_of(
        OLD_RUN, dict(OLD_RUN[3], trace=gid(2), txn=gid(2))) == "-"


def _dump(directory, rows):
    directory.mkdir()
    for name, lines in rows.items():
        (directory / name).write_text("".join(
            (line if isinstance(line, str) else json.dumps(
                line, sort_keys=True)) + "\n"
            for line in lines))
    return str(directory)


def test_explain_reports_each_moved_row(tmp_path):
    old = _dump(tmp_path / "old", {
        "paper-lcm.jsonl": OLD_RUN,
        "optimized-lcm.jsonl": OLD_RUN,
        "cli-ycsb.txt": ["tps 10", "p50 3.0", "p99 9.0"],
        "trace-demo.jsonl": OLD_RUN,
    })
    new = _dump(tmp_path / "new", {
        "paper-lcm.jsonl": NEW_RUN,
        "optimized-lcm.jsonl": OLD_RUN,
        "cli-ycsb.txt": ["tps 10", "p50 2.9", "p99 9.0", "done"],
    })
    lines = trace_digest.explain(old, new)
    heads = [line for line in lines if not line.startswith(" ")]
    assert heads == [
        "cli-ycsb.txt: 3 -> 4 lines, 1 removed, 2 added",
        "paper-lcm.jsonl: 7 -> 9 records, 1 -> 2 committed distributed txns",
        "trace-demo.jsonl: only in the old dump",
        "3 of 4 dumped rows moved",
    ]
    text = "\n".join(lines)
    assert "first difference at line 2:" in text
    assert "first divergence at record 1:" in text
    assert ("old: storage/group_commit on node1 (participant), txn %s, "
            "phase -" % gid(0)) in text
    assert ("new: storage/group_commit on node0 (coordinator), txn %s, "
            "phase commit" % gid(0)) in text
    row = next(line for line in lines
               if "twopc/commit_apply" in line).split()
    assert row == ["twopc/commit_apply", "coordinator", "0", "1",
                   "0.000", "0.500"]
    assert lines[lines.index("trace-demo.jsonl: only in the old dump")
                 - 1].split() == ["total", "0", "2", "0.000", "1.000"]


def test_explain_runs_no_recipe(tmp_path, capsys):
    old = _dump(tmp_path / "old", {"paper-lcm.jsonl": OLD_RUN})
    new = _dump(tmp_path / "new", {"paper-lcm.jsonl": OLD_RUN})
    assert trace_digest.main(["--explain", old, new]) == 0
    assert capsys.readouterr().out == "0 of 1 dumped rows moved\n"
    with pytest.raises(SystemExit):
        trace_digest.main([])  # --check needs FILE


# -- profile: the collector's passes, in every mode -----------------------------

_saved_path = list(sys.path)
profile = _load("profile", "tools_profile")  # not the stdlib's profile
sys.path[:] = _saved_path  # it puts src/ and perf/ first


@pytest.mark.parametrize("passes, seconds, collected, wall_s, lines", [
    # the PR-34 ycsb-a-traced shape: five full passes of nothing
    ([120, 10, 5], [0.04, 0.01, 0.57], [0, 0, 0], 5.5, [
        "collector: 135 passes, 0.620 s (11.3 % of 5.50 s wall), "
        "0 objects reclaimed",
        "  gen 0     120 passes     0.040 s          0 reclaimed",
        "  gen 1      10 passes     0.010 s          0 reclaimed",
        "  gen 2       5 passes     0.570 s          0 reclaimed",
    ]),
    # no pass at all, and a zero wall time does not divide by zero
    ([0, 0, 0], [0.0, 0.0, 0.0], [0, 0, 0], 0.0, [
        "collector: 0 passes, 0.000 s (0.0 % of 0.00 s wall), "
        "0 objects reclaimed",
        "  gen 0       0 passes     0.000 s          0 reclaimed",
        "  gen 1       0 passes     0.000 s          0 reclaimed",
        "  gen 2       0 passes     0.000 s          0 reclaimed",
    ]),
])
def test_format_collector(passes, seconds, collected, wall_s, lines):
    assert profile.format_collector(passes, seconds, collected,
                                    wall_s) == lines


def test_collector_passes_count_a_forced_pass():
    class Node:
        pass

    with profile.collector_passes() as counted:
        node = Node()
        node.self = node
        del node
        gc.collect()
    assert counted.passes[2] >= 1
    assert counted.collected[2] >= 1
    assert counted.seconds[2] > 0.0
    assert counted not in gc.callbacks


def test_charges_count_holds_by_site_and_back_to_back(monkeypatch):
    """``--charges``: one hold per nonzero charge, filed under the
    ``NodeRuntime`` method and its caller; a hold is back to back when
    the fiber's previous hold ended in the same kernel entry."""
    from types import SimpleNamespace

    from repro.config import ClusterConfig, TREATY_ENC
    from repro.sim import Simulator
    from repro.tee import NodeRuntime

    def run_pass(_workload, runtime, _seconds):
        def fiber():
            yield from runtime.syscall(64)
            yield from runtime.op_overhead()  # right after: back to back
            yield runtime.sim.sleep(1e-3)  # blocks
            yield from runtime.compute(1e-6, 0.0, 2e-6)  # one hold
            yield from runtime.compute(0.0)  # no hold

        runtime.sim.spawn(fiber())
        runtime.sim.spawn(fiber())  # its holds interleave with the first's
        runtime.sim.run()
        return "result"

    monkeypatch.setattr(profile, "workloads", SimpleNamespace(run_pass=run_pass))
    runtime = NodeRuntime(Simulator(), TREATY_ENC, ClusterConfig())
    result, holds, chained = profile.count_charges(None, runtime, 1.0)
    assert result == "result"
    sites = {site.split(" → ")[0]: (count, chained[site])
             for site, count in holds.items()}
    assert sites == {"syscall": (2, 0), "op_overhead": (2, 2),
                     "compute": (2, 0)}
    assert all(site.endswith("test_tools.py:fiber") for site in holds)


def _delivered(tag):
    return tag


def _noted(event):
    return event


def test_entries_name_what_each_kind_ran_for(monkeypatch):
    """``--entries``: each kernel entry is counted by kind and by whom it
    ran for; the heap left at the end is counted by kind, too."""
    from functools import partial
    from types import SimpleNamespace

    from repro.sim import Simulator

    def run_pass(_workload, sim, _seconds):
        def worker():
            yield sim.timeout(0.1)  # an event waking this worker
            yield sim.sleep(1.0)  # a sleep wake
            yield sim.sleep(1.0)
            yield sim.sleep(20.0)  # asleep past the pass

        sim.spawn(worker(), name="worker@node0")  # a bootstrap
        sim.call_later(0.5, partial(_delivered, 1))
        sim.deadline(0.5, partial(_delivered, 2))  # fires
        sim.deadline(0.6, partial(_delivered, 3)).cancel()  # never runs
        sim.timeout(0.25).add_callback(_noted)
        sim.timeout(0.75)  # nobody waits
        sim.call_later(10.0, partial(_delivered, 4))  # past the pass
        sim.deadline(12.0, partial(_delivered, 5)).cancel()  # left behind
        sim.deadline(14.0, partial(_delivered, 6))  # live past the pass
        sim.timeout(15.0).add_callback(_noted)  # pending past the pass
        sim.run(until=3.0)
        return SimpleNamespace(committed=2)

    monkeypatch.setattr(profile, "workloads", SimpleNamespace(run_pass=run_pass))
    result, counts, heap_left = profile.count_entries(None, Simulator(), 1.0)
    assert dict(counts) == {
        ("process bootstrap", "worker"): 1,
        ("event, live waiter", "worker"): 1,
        ("event, live waiter", "_noted"): 1,
        ("plain callable", "_delivered"): 2,
        ("event, no-op", "Timeout"): 1,
        ("sleep wake", "worker"): 2,
    }
    assert dict(heap_left) == {
        ("sleeping process", "worker"): 1,
        ("pending Timeout", "_noted"): 1,
        ("live deadline", "_delivered"): 1,
        ("cancelled deadline", ""): 1,
        ("plain callable", "_delivered"): 1,
    }
    assert [line.split() for line in profile.format_heap(heap_left)] == [
        ["heap", "at", "the", "end", "of", "the", "pass:", "5", "entries"],
        ["sleeping", "process", "1"], ["1", "worker"],
        ["pending", "Timeout", "1"], ["1", "_noted"],
        ["live", "deadline", "1"], ["1", "_delivered"],
        ["cancelled", "deadline", "1"],
        ["plain", "callable", "1"], ["1", "_delivered"],
    ]
    lines = profile.format_entries(counts, result.committed, top=1)
    assert [line.split() for line in lines] == [
        ["sleep", "wake", "1.0", "/txn", "25.0", "%"],
        ["1.0", "/txn", "worker"],
        ["process", "bootstrap", "0.5", "/txn", "12.5", "%"],
        ["0.5", "/txn", "worker"],
        ["event,", "live", "waiter", "1.0", "/txn", "25.0", "%"],
        ["0.5", "/txn", "worker"],
        ["event,", "no-op", "0.5", "/txn", "12.5", "%"],
        ["0.5", "/txn", "Timeout"],
        ["plain", "callable", "1.0", "/txn", "25.0", "%"],
        ["1.0", "/txn", "_delivered"],
    ]


def _allocate(count):
    return [bytes(256) for _ in range(count)]  # one block each


def test_memory_lists_retained_sites_largest_first():
    """``--memory``: what the pass still holds at its end is aggregated
    by allocating traceback, largest first; what it freed is not listed
    but counts in the peak."""
    allocate = _allocate

    def run_pass():
        scratch = allocate(4000)  # freed before the pass ends
        del scratch
        kept = allocate(3000)
        return kept, allocate(1000)

    result, rows, peak, _grown = profile.retained_sites(run_pass)
    assert [len(part) for part in result] == [3000, 1000]
    assert peak > 4000 * 256
    assert not profile.tracemalloc.is_tracing()
    line = (__file__, allocate.__code__.co_firstlineno + 1)
    mine = [row for row in rows if row[2][0] == line]
    # each site also holds its list: one block more
    assert [blocks for _size, blocks, _frames in mine] == [3001, 1001]
    assert mine[0][0] > 3000 * 256 > mine[1][0] > 1000 * 256
    # one site per traceback: the same line, told apart by its caller
    assert mine[0][2][0] == mine[1][2][0] and mine[0][2] != mine[1][2]
    assert [row[0] for row in rows] == sorted((row[0] for row in rows),
                                              reverse=True)
    header, first = profile.format_sites(mine, 1)
    assert header.split() == ["MiB", "blocks", "site", "(innermost", "frame",
                              "first)"]
    assert first.split()[:3] == ["%.2f" % (mine[0][0] / 2 ** 20), "3001",
                                 "tests/test_tools.py:%d" % mine[0][2][0][1]]


def test_memory_peaks_show_set_up_transients():
    """``--memory`` traces set-up too: its transient shows in set-up's
    peak, not in what set-up holds, and what set-up holds counts in the
    pass's peak but is not listed as the pass's."""
    def set_up():
        _allocate(8000)  # a transient, like a flush's copies
        return _allocate(2000)

    def run_pass(cluster):
        _allocate(1000)
        return len(cluster)

    cluster, setup_peak, setup_held, rss = profile.traced_set_up(set_up)
    held = 2000 * 256
    assert setup_peak > setup_held + 6000 * 256 and setup_held > held
    assert rss == profile.max_rss_mib()
    result, rows, pass_peak, _grown = profile.retained_sites(run_pass,
                                                            cluster)
    assert result == 2000
    assert setup_held <= pass_peak < setup_held + 2 * 1000 * 256
    line = (__file__, _allocate.__code__.co_firstlineno + 1)
    assert not [row for row in rows if row[2][0] == line]
    assert not profile.tracemalloc.is_tracing()


class _Kept:
    """A gc-tracked object a pass keeps."""


def test_memory_counts_live_object_growth_by_type():
    """``--memory`` counts what the pass keeps by type, from the
    collector's live objects: dicts freed mid-pass are not growth, and a
    dict reusing a freed one's block counts as a dict, not as its first
    allocation site."""
    def run_pass():
        scratch = [{"n": [n]} for n in range(2000)]
        del scratch
        return [_Kept() for _ in range(300)], [{"k": [n]} for n in range(50)]

    result, _rows, _peak, grown = profile.retained_sites(run_pass)
    assert [len(part) for part in result] == [300, 50]
    counts = dict(grown)
    assert counts[profile.type_name(_Kept)] == 300
    assert 50 <= counts["dict"] < 2000
    assert [count for _name, count in grown] == sorted(
        (count for _name, count in grown), reverse=True)
    lines = profile.format_growth(grown, top=1)
    assert lines[0] == ("live gc-tracked objects: %+d over the pass"
                        % sum(counts.values()))
    assert lines[1].split() == ["objects", "type"]
    assert lines[2].split() == ["+300", profile.type_name(_Kept)]
    assert len(lines) == 3


def test_memory_counts_retained_records_by_kind():
    """``--memory`` on a traced workload counts the retained records by
    ``(type, cat, name)``, most first, with those of no trace and the
    total per type."""
    from repro.obs import Tracer
    from repro.sim import Simulator

    tracer = Tracer(Simulator())
    for _frame in range(3):
        tracer.span("crypto", "seal_batch").close()
        tracer.event("tee", "msgbuf_shield")
    tracer.span("twopc", "txn", trace="t-1").close()
    tracer.event("tee", "msgbuf_shield", trace="t-1")

    kinds = profile.record_kinds(tracer.records)
    assert dict(kinds) == {
        ("span", "crypto", "seal_batch"): [3, 3],
        ("event", "tee", "msgbuf_shield"): [4, 3],
        ("span", "twopc", "txn"): [1, 0],
    }
    lines = profile.format_record_kinds(kinds, top=2)
    assert lines[0] == ("retained trace records: 8 (4 events, 4 spans), "
                        "6 with no trace")
    assert lines[1].split() == ["records", "no", "trace", "type",
                                "cat/name"]
    assert [line.split() for line in lines[2:]] == [
        ["4", "3", "event", "tee/msgbuf_shield"],
        ["3", "3", "span", "crypto/seal_batch"],
    ]
