"""Table tests for the pure parts of the scripts under ``tools/``."""

import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / ("%s.py" % name))
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


def test_table_has_one_line_per_metric():
    rows = abtest.summarize(runs(BASE), runs([9.0, 9.1, 8.9, 9.05, 8.95]),
                            [HOST])
    header, line = abtest.format_rows(rows)
    assert header.split()[0] == "metric"
    assert line.split()[0] == "host_ms_per_txn"
    assert "-10.0%" in line and "5/5" in line and line.endswith("better")
