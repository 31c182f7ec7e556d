"""Tests of the benchmark itself.

Run with ``python -m pytest perf -q`` (not part of tier-1: the smoke run
takes about a minute).
"""

import json
import os
import re
import subprocess
import sys

import pytest

import bench
import layers
import workloads
from spans import SpanRecorder, self_times, wrap_generator, wrap_sync


def test_self_time_is_duration_minus_child_spans():
    # (id, layer, name, start, end, parent): a root with two children,
    # one of which has a child of its own, and a second root
    spans = [
        (0, "sim", "step", 0, 100, -1),
        (1, "net", "enqueue", 10, 40, 0),
        (2, "crypto", "seal", 15, 35, 1),
        (3, "storage", "put", 50, 90, 0),
        (4, "sim", "step", 100, 130, -1),
    ]
    assert self_times(spans) == {0: 30, 1: 10, 2: 20, 3: 40, 4: 30}
    # every instant is some span's self time: the roots' durations add up
    assert sum(self_times(spans).values()) == 100 + 30


def test_recorder_aggregate_matches_self_times():
    recorder = SpanRecorder()
    recorder.on = True
    outer = recorder.register("sim", "outer")
    inner = recorder.register("crypto", "inner")
    wrapped_inner = wrap_sync(recorder, inner, lambda: sum(range(2000)))
    wrapped_outer = wrap_sync(
        recorder, outer, lambda: [wrapped_inner() for _ in range(3)])
    wrapped_outer()
    own = self_times(recorder.spans())
    aggregate = recorder.aggregate()
    assert aggregate[("crypto", "inner")]["count"] == 3
    assert aggregate[("sim", "outer")]["self_ns"] == own[0]
    assert aggregate[("crypto", "inner")]["self_ns"] == own[1] + own[2] + own[3]
    assert [parent for *_rest, parent in recorder.spans()] == [-1, 0, 0, 0]


def test_generator_wrapper_is_yield_from():
    def body(first):
        received = []
        try:
            received.append((yield first))
            received.append((yield "second"))
        except KeyError as exc:
            received.append(("caught", exc.args[0]))
            received.append((yield "after-throw"))
        return received

    def drive(make):
        gen = make("first")
        out = [next(gen), gen.send("a"), gen.throw(KeyError("boom"))]
        try:
            gen.send("b")
        except StopIteration as stop:
            out.append(stop.value)
        return out

    recorder = SpanRecorder()
    recorder.on = True
    wrapped = wrap_generator(recorder, recorder.register("txn", "body"), body)
    assert drive(wrapped) == drive(body)
    assert wrapped.__name__ == "body"
    assert len(recorder) == 4  # one span per resume
    # close() reaches the wrapped generator
    closed = []

    def closing():
        try:
            yield 1
        finally:
            closed.append(True)

    gen = wrap_generator(recorder, 0, closing)()
    next(gen)
    gen.close()
    assert closed == [True]


def test_instrumented_restores_every_attribute():
    from repro.crypto.aead import Aead
    from repro.sim.core import Simulator
    from repro.storage.memtable import MemTable

    before = (Aead.seal, Simulator.step, MemTable.put)
    with layers.instrumented(SpanRecorder(), [0]):
        assert (Aead.seal, Simulator.step, MemTable.put) != before
    assert (Aead.seal, Simulator.step, MemTable.put) == before


@pytest.mark.parametrize("samples, expected", [
    (19, 50.0), (100, 90.0), (199, 90.0), (200, 95.0), (296, 95.0),
    (999, 95.0), (1000, 99.0), (9_999, 99.0), (10_000, 99.9),
])
def test_tail_percentile_needs_ten_samples_beyond_it(samples, expected):
    assert workloads.tail_percentile(samples) == expected


def test_host_verdicts_use_the_bound():
    def side(median, q1, q3):
        return {"median": median, "q1": q1, "q3": q3}

    base = side(100.0, 99.0, 101.0)
    verdict = bench.host_verdict
    assert verdict("lower", 0.1, base, side(105.0, 104.0, 106.0)) == "same"
    assert verdict("lower", 0.1, base, side(115.0, 114.0, 116.0)) == "worse"
    assert verdict("lower", 0.1, base, side(85.0, 84.0, 86.0)) == "better"
    assert verdict("higher", 0.1, base, side(85.0, 84.0, 86.0)) == "worse"
    assert verdict("lower", 0.1, base, side(100.0, 90.0, 110.0)) == "unresolved"


def test_model_verdicts_are_exact():
    assert bench.model_verdict("higher", 1480.0, 1480.0) == "same"
    assert bench.model_verdict("higher", 1480.0, 1479.9) == "worse"
    assert bench.model_verdict("lower", 12.9, 12.8) == "better"
    slack = bench.FAILED_SHARE_SLACK
    assert bench.model_verdict("lower", 0.0, 0.004, slack) == "same"
    assert bench.model_verdict("lower", 0.0, 0.006, slack) == "worse"


def _suite_document(tps, host_ms):
    host = {metric: {"median": 1.0, "q1": 1.0, "q3": 1.0}
            for metric in bench.SUITE if not bench.on_model_clock(metric)}
    host["host_ms_per_txn"] = {
        "median": host_ms, "q1": host_ms * 0.99, "q3": host_ms * 1.01}
    model = dict.fromkeys(
        (metric for metric in bench.SUITE if bench.on_model_clock(metric)),
        1.0)
    model.update(model_tps=tps, model_p99_ms=None)
    return {"seed": 11, "seconds": 16.0, "workloads": {
        "ycsb-a-dist": {"correct": True, "model": model, "host": host}}}


def test_check_gates_the_model_exactly_and_the_host_by_its_bound(capsys):
    baseline = _suite_document(1500.0, 10.0)
    assert bench.check(_suite_document(1500.0, 10.5), baseline) == 0
    # a model change well inside model_tps's cross-seed bound is still worse
    assert bench.check(_suite_document(1450.0, 10.0), baseline) == 1
    assert bench.check(_suite_document(1500.0, 13.0), baseline) == 1
    rows = capsys.readouterr().out.splitlines()
    assert not any("model_p99_ms" in row for row in rows)  # None: no row
    assert sum("failed_share" in row for row in rows) == 3


def test_check_refuses_other_work_than_the_baselines():
    baseline = os.path.join(bench.HERE, "baseline.json")
    for other in (["--seed", "12"], ["--smoke"]):
        with pytest.raises(SystemExit) as refused:
            bench.main(other + ["--check", baseline])
        assert refused.value.code == 2


def _benchmark_json():
    with open(bench.BENCHMARK_JSON) as fp:
        return json.load(fp)


def test_benchmark_json_is_within_the_contract():
    spec = _benchmark_json()
    assert sorted(spec) == sorted(
        ["command", "paths", "run_seconds", "workloads", "end_to_end",
         "per_layer"])
    assert spec["paths"] == ["perf"]
    assert spec["command"] == ["python3", "perf/bench.py"]
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = ([row["name"] for row in spec["workloads"]]
             + [row["name"] for row in spec["end_to_end"]]
             + [row["name"] for row in spec["per_layer"]])
    assert len(set(names)) == len(names)
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for row in spec["end_to_end"] + spec["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", row["unit"]), row
        assert row["better"] in ("lower", "higher")
    for row in spec["end_to_end"]:
        assert 0 < row["bound"] <= 0.25
    for row in spec["workloads"]:
        assert len(row["why"]) <= 200 and "\n" not in row["why"]
    setup = [row for row in spec["end_to_end"] if row["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(r["bound"] for r in spec["end_to_end"])


def test_smoke_run_produces_every_named_metric():
    done = subprocess.run(
        [sys.executable, os.path.join(bench.HERE, "bench.py"), "--smoke"],
        stdout=subprocess.PIPE, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-4000:]
    with open(os.path.join(bench.OUT_DIR, "results.json")) as fp:
        results = json.load(fp)
    assert sorted(results["workloads"]) == sorted(workloads.WORKLOADS)
    for name, entry in results["workloads"].items():
        assert entry["correct"], name
        # every name of BENCHMARK.json and the suite's own four
        assert sorted(list(entry["host"]) + [
            metric for metric in entry["model"] if bench.on_model_clock(metric)
        ]) == sorted(bench.SUITE)
        assert sorted(entry["per_layer"]) == sorted(bench.PER_LAYER)
        for metric in bench.END_TO_END:  # the driver refuses a 0
            value = entry["model"][metric] if bench.on_model_clock(metric) \
                else entry["host"][metric]["median"]
            assert value > 0, (name, metric)
        assert os.path.exists(
            os.path.join(bench.OUT_DIR, "%s.spans.jsonl" % name))
    layer = {name: entry["per_layer"]
             for name, entry in results["workloads"].items()}
    # the separation the workloads were chosen for (at full size obs is
    # over half of ycsb-a-traced: its analysis grows with the run)
    assert layer["ycsb-a-traced"]["obs.host_share"] > 0.1
    for name in ("ycsb-a-dist", "ycsb-c-snapshot", "ycsb-w-single"):
        assert layer[name]["obs.host_share"] == 0
    assert layer["ycsb-c-snapshot"]["net.cluster_frames_per_txn"] == 0
    assert layer["ycsb-a-dist"]["counter.rounds_per_txn"] > 0
    assert layer["ycsb-a-dist"]["twopc.commit_mean_ms"] > 0
    assert layer["ycsb-w-single"]["net.cluster_frames_per_txn"] == 0
