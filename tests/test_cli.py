"""Tests for the command-line interface."""

import pytest

from repro import cli
from repro.cli import build_parser, main


class TestParser:
    def test_info_parses(self):
        args = build_parser().parse_args(["info"])
        assert args.command == "info"

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.profile == "Treaty w/ Enc w/ Stab"
        assert args.keys == 8

    def test_ycsb_options(self):
        args = build_parser().parse_args(
            ["ycsb", "--profile", "DS-RocksDB", "--reads", "0.8",
             "--clients", "4", "--duration", "0.1"]
        )
        assert args.reads == 0.8

    def test_unknown_profile_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "--profile", "NotAProfile"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_info_runs(self, capsys):
        assert main(["info"]) == 0
        output = capsys.readouterr().out
        assert "DS-RocksDB" in output
        assert "rote_latency_mean" in output

    def test_demo_runs(self, capsys):
        assert main(["demo", "--keys", "3", "--profile", "DS-RocksDB"]) == 0
        output = capsys.readouterr().out
        assert "read back" in output
        assert "value-0" in output

    def test_ycsb_runs_small(self, capsys):
        code = main(
            ["ycsb", "--profile", "DS-RocksDB", "--keys", "200",
             "--clients", "2", "--duration", "0.05"]
        )
        assert code == 0
        assert "throughput" in capsys.readouterr().out

    def test_tpcc_runs_small(self, capsys):
        code = main(
            ["tpcc", "--profile", "DS-RocksDB", "--warehouses", "2",
             "--clients", "2", "--duration", "0.05"]
        )
        assert code == 0
        assert "throughput" in capsys.readouterr().out


class TestReportCommand:
    def test_report_parses_with_defaults(self):
        args = build_parser().parse_args(["report"])
        assert args.workload == "ycsb"
        assert args.clients == 16
        assert not hasattr(args, "window")  # no --window: 5 ms windows
        assert args.timeline_out is None

    def test_metrics_export_parses(self):
        args = build_parser().parse_args(["metrics", "export", "--prom"])
        assert args.mode == "export"
        assert args.prom is True

    def test_bench_flight_recorder_flag(self):
        args = build_parser().parse_args(
            ["bench", "smoke", "--flight-recorder"])
        assert args.flight_recorder is True
        args = build_parser().parse_args(["bench", "smoke"])
        assert args.flight_recorder is False

    def test_report_runs_small(self, capsys, tmp_path):
        timeline = tmp_path / "timeline.jsonl"
        incidents = tmp_path / "incidents.jsonl"
        code = main(
            ["report", "--workload", "demo", "--clients", "4",
             "--duration", "0.02", "--seed", "3",
             "--timeline-out", str(timeline),
             "--incidents-out", str(incidents)]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "timeline" in output
        assert "ring" in output
        assert "commits" in output
        assert timeline.exists()
        first = timeline.read_text().splitlines()[0]
        assert '"window":0' in first
        assert incidents.exists()

    def test_metrics_export_prom_runs(self, capsys):
        code = main(
            ["metrics", "export", "--prom", "--workload", "demo",
             "--clients", "2", "--duration", "0.01", "--seed", "3"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "# TYPE repro_" in output
        assert "_total{component=" in output


# -- bench gates: each rule is a pure function from account dicts -------------

GREEN = {"violations": []}
RED = {"violations": ["I5: txn 7 stalled"]}


def _account(**overrides):
    """A synthetic ``bench.harness.account`` dict (the gated keys only)."""
    stats = {
        "throughput_tps": 1000.0, "p50_ms": 2.0, "frames_per_txn": 40.0,
        "cluster_frames_per_txn": 0.0, "monitor": GREEN,
    }
    stats.update(overrides)
    return stats


def _netbatch(frames, seals, monitor=GREEN):
    return {
        "off": _account(), "on": _account(monitor=monitor),
        "reduction": {"frames_per_txn": frames, "seals_per_txn": seals},
    }


LOCKING = _account(throughput_tps=500.0, p50_ms=4.0)

GATE_CASES = [
    # (rule, accounts, expected message or None when the gate passes)
    (cli.read_mostly_failures, (_account(), LOCKING), None),
    (cli.read_mostly_failures,
     (_account(cluster_frames_per_txn=0.6), LOCKING),
     "touched the cluster fabric (0.600 frames/txn)"),
    (cli.read_mostly_failures, (_account(p50_ms=4.0), LOCKING),
     "did not reduce YCSB-C p50 (4.000 ms >= 4.000 ms)"),
    (cli.read_mostly_failures, (_account(throughput_tps=500.0), LOCKING),
     "lost throughput (500 tps <= 500 tps)"),
    (cli.netbatch_failures, (_netbatch(0.2, 0.1),), None),
    (cli.netbatch_failures, (_netbatch(0.2, 0.0),),
     "batching did not reduce frames and seal ops per txn"),
    (cli.netbatch_failures, (_netbatch(0.2, 0.1, monitor=RED),),
     "MONITOR VIOLATION (batching on): I5: txn 7 stalled"),
    (cli.scaleout_failures,
     ([(3, _account()), (5, _account(frames_per_txn=60.0))],), None),
    (cli.scaleout_failures,
     ([(3, _account()), (6, _account(frames_per_txn=80.0))],),
     "frames per txn grew superlinearly"),
    (cli.scaleout_failures, ([(3, _account(monitor=RED))],),
     "MONITOR VIOLATION (3 nodes): I5: txn 7 stalled"),
    (cli.monitor_failures, ([("smoke", GREEN)],), None),
    (cli.monitor_failures, ([("smoke", RED)],),
     "MONITOR VIOLATION (smoke): I5: txn 7 stalled"),
]


class TestBenchGates:
    @pytest.mark.parametrize("rule,accounts,message", GATE_CASES)
    def test_rule(self, rule, accounts, message, capsys):
        status = cli._gate(rule(*accounts))
        stderr = capsys.readouterr().err
        if message is None:
            assert status == 0 and stderr == ""
        else:
            assert status == 1 and message in stderr

    def test_scale_out_gate_runs_green(self, capsys):
        code = main(["bench", "scale-out", "--nodes", "3,5",
                     "--clients", "4", "--duration", "0.03"])
        assert code == 0
        assert "growth       : nodes x1.67" in capsys.readouterr().out
