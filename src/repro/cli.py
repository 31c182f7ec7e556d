"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``info``   — print the environment profiles and cost-model constants.
* ``demo``   — run a few secure distributed transactions and print stats.
* ``ycsb``   — run a YCSB experiment (profile/read-mix/clients options).
* ``tpcc``   — run a TPC-C experiment.
* ``trace``  — run a workload with tracing on and write a Chrome trace;
  ``trace critical-path [txn]`` instead prints a transaction's
  critical-path latency breakdown (see docs/OBSERVABILITY.md).
* ``report`` — run a workload with the always-on flight recorder and
  print the timeline, incident, and tail-exemplar report.
* ``metrics``— export a workload run's metrics registry (``export
  --prom`` renders Prometheus text exposition).
* ``bench``  — durability-pipeline benchmarks: ``smoke`` (monitored
  full-pipeline run, the CI gate; ``--net-batch`` compares
  ``net_tx_batch_max=1`` with the default), ``sweep-window`` (group-commit window
  latency/throughput frontier), ``scale-out`` (cluster-size sweep
  under transport batching; see docs/NETWORK.md) and ``baseline``
  (write/check the BENCH_treaty.json performance baseline).
* ``attacks``— run the attack-detection demonstration.
* ``mc``     — model checker (see docs/MODELCHECK.md): ``mc explore``
  exhausts every distinguishable schedule of a small scope (crashes +
  network adversary) under the I1–I5 monitor; ``mc replay`` re-executes
  a saved counterexample bit-for-bit.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional

from .config import PROFILES, ClusterConfig, TREATY_FULL
from .bench.harness import loaded, measure
from .bench.metrics import MetricsCollector
from .core.trusted_counter import BACKENDS
from .obs import format_table
from .workloads import TpccScale, YcsbConfig


def _add_profile_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile",
        default="Treaty w/ Enc w/ Stab",
        choices=sorted(PROFILES),
        help="environment profile (which bar of the paper's figures)",
    )


def cmd_info(args: argparse.Namespace) -> int:
    print("Environment profiles:")
    for name, profile in sorted(PROFILES.items()):
        print(
            "  %-24s runtime=%-6s encryption=%-5s stabilization=%s"
            % (name, profile.runtime, profile.encryption, profile.stabilization)
        )
    print("\nCost model (CostModel defaults):")
    costs = ClusterConfig().costs
    for field in dataclasses.fields(costs):
        print("  %-32s %s" % (field.name, getattr(costs, field.name)))
    print("\nObservability (repro.obs; see docs/OBSERVABILITY.md):")
    print("  trace categories   twopc stabilize storage net rpc crypto"
          " locks tee node counter")
    print("  enclave metrics    tee.transitions tee.page_faults")
    print("                     (per node, in `repro demo` and bench reports)")
    print("  phase histograms   twopc.prepare_s twopc.decision_s"
          " twopc.commit_s stabilize.wait_s locks.wait_s")
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    from .core import TreatyCluster

    profile = PROFILES[args.profile]
    cluster = TreatyCluster(profile=profile).start()
    session = cluster.session(cluster.client_machine())

    def workload():
        txn = session.begin()
        for i in range(args.keys):
            yield from txn.put(b"demo-%04d" % i, b"value-%d" % i)
        yield from txn.commit()
        check = session.begin()
        value = yield from check.get(b"demo-0000")
        yield from check.commit()
        return value

    start = cluster.sim.now
    value = cluster.run(workload())
    print("profile      :", profile.name)
    print("read back    :", value)
    print("elapsed (sim): %.2f ms" % ((cluster.sim.now - start) * 1e3))
    coordinator = cluster.nodes[0].coordinator
    print("2PC commits  :", coordinator.distributed_commits)
    print("aborts       :", coordinator.aborts)
    print("enclave      :")
    for node in cluster.nodes:
        stats = node.runtime.enclave.stats()
        print(
            "  %-8s transitions=%-6d page_faults=%-8.3f resident=%d B"
            % (node.name, stats["transitions"], stats["page_faults"],
               stats["resident_bytes"])
        )
    return 0


def cmd_ycsb(args: argparse.Namespace) -> int:
    profile = PROFILES[args.profile]
    ycsb = YcsbConfig(read_proportion=args.reads, num_keys=args.keys)
    _print_metrics(measure(
        loaded(profile, ycsb), ycsb, args.clients, args.duration, profile.name
    ))
    return 0


def cmd_tpcc(args: argparse.Namespace) -> int:
    profile = PROFILES[args.profile]
    scale = TpccScale(warehouses=args.warehouses)
    _print_metrics(measure(
        loaded(profile, scale), scale, args.clients, args.duration,
        profile.name,
    ))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from .obs import write_chrome_trace, write_jsonl

    if args.mode == "critical-path" and args.from_jsonl:
        import json

        with open(args.from_jsonl) as fp:
            records = [json.loads(line) for line in fp if line.strip()]
        return _trace_critical_path(records, args.txn)

    profile = PROFILES[args.profile]
    config = ClusterConfig(tracing=True, seed=args.seed)
    if args.workload != "demo":
        # The workloads' own default warm-ups, not the quarter-window
        # rule: the pinned trace exports (tools/trace_digest.py) are
        # runs of this length.
        workload, warmup = (
            (TpccScale(warehouses=3), 0.5) if args.workload == "tpcc"
            else (YcsbConfig(read_proportion=0.5, num_keys=1_000), 0.2)
        )
        cluster = loaded(profile, workload, config)
        measure(cluster, workload, args.clients, args.duration,
                profile.name, warmup=warmup)
    else:  # demo: a few multi-shard transactions plus a crash/recovery
        from .core import TreatyCluster, crash_and_recover

        cluster = TreatyCluster(profile=profile, config=config).start()

        def body():
            for round_num in range(4):
                txn = cluster.session(cluster.client_machine()).begin()
                for i in range(6):
                    yield from txn.put(
                        b"trace-%d-%04d" % (round_num, i), b"v%d" % i
                    )
                yield from txn.commit()
            yield from crash_and_recover(cluster, 1)

        cluster.run(body())

    records = cluster.obs.records()
    if args.mode == "critical-path":
        return _trace_critical_path(records, args.txn)
    write_chrome_trace(records, args.out)
    if args.jsonl:
        write_jsonl(records, args.jsonl)
    categories = sorted({rec["cat"] for rec in records})
    spans = sum(1 for rec in records if rec["type"] == "span")
    print("workload     :", args.workload)
    print("profile      :", profile.name)
    print("sim time     : %.1f ms" % (cluster.sim.now * 1e3))
    print("records      : %d (%d spans, %d events)"
          % (len(records), spans, len(records) - spans))
    print("categories   :", " ".join(categories))
    print("trace        :", args.out)
    if args.jsonl:
        print("jsonl        :", args.jsonl)
    print()
    print(cluster.obs.summary(title="registry snapshot"))
    return 0


def _run_observed_workload(
    workload: str,
    clients: int,
    duration: float,
    seed: int,
):
    """One workload run with the full observability stack on.

    Shared by ``repro report`` and ``repro metrics export``: flight
    recorder (ring-buffered tracer + tail exemplars), time series, and
    incident detection, on TREATY_FULL.  Returns the finished cluster
    with its time series flushed.
    """
    config = ClusterConfig(
        seed=seed,
        flight_recorder=True,
        timeseries=True,
        incidents=True,
        tail_warmup=8,
    )
    if workload == "ycsb":
        ycsb = YcsbConfig(read_proportion=0.5, num_keys=1_000)
        cluster = loaded(TREATY_FULL, ycsb, config)
        # run_ycsb's default 0.2 s warm-up, not the quarter-window rule:
        # the pinned `report` / `metrics export` stdout digests are runs
        # of this length.
        measure(cluster, ycsb, clients, duration, "report", warmup=0.2)
    else:  # demo: a few multi-shard transactions
        from .core import TreatyCluster

        cluster = TreatyCluster(profile=TREATY_FULL, config=config).start()
        session = cluster.session(cluster.client_machine())

        def body():
            for round_num in range(16):
                txn = session.begin()
                for i in range(4):
                    yield from txn.put(
                        b"report-%d-%04d" % (round_num, i), b"v%d" % i
                    )
                yield from txn.commit()

        cluster.run(body())
    cluster.obs.timeseries.flush()
    return cluster


def cmd_report(args: argparse.Namespace) -> int:
    """Timeline + incidents + tail-exemplar report for one workload run."""
    cluster = _run_observed_workload(
        args.workload, args.clients, args.duration, args.seed
    )
    obs = cluster.obs
    timeseries, recorder, incidents = obs.timeseries, obs.recorder, obs.incidents

    flight = recorder.summary()
    timeline = timeseries.summary()
    print("workload     :", args.workload)
    print("sim time     : %.1f ms" % (cluster.sim.now * 1e3))
    print("commits      : %d   (p50 %.3f ms, p%g %.3f ms)"
          % (flight["commits"], flight["p50_ms"],
             flight["tail_quantile"] * 100, flight["tail_ms"]))
    print("timeline     : %d windows of %.1f ms  (tps mean %.0f, peak %.0f,"
          " %d stalled)"
          % (timeline["windows"], timeseries.window_s * 1e3,
             timeline.get("tps_mean", 0.0), timeline.get("tps_peak", 0.0),
             timeline.get("stalled_windows", 0)))
    print("ring         : %d spans retained, %d evicted"
          % (len(obs.records()), flight["ring_evicted"]))
    print()

    active = [w for w in timeseries.windows
              if w["commits"] or w["aborts"] or w["frames_per_s"] > 0.0]
    shown = active[-24:]
    rows = [(
        "%d" % w["window"],
        "%.1f" % w["t0_ms"],
        "%d" % w["commits"],
        "%d" % w["aborts"],
        "%.0f" % w["tps"],
        "%.0f" % w["frames_per_s"],
        "%.0f" % w["seal_ops_per_s"],
        "%.3f" % w["lock_wait_p50_ms"],
        "%.2f" % w["group_commit_occupancy"],
    ) for w in shown]
    title = "timeline (last %d of %d active windows)" % (len(shown),
                                                         len(active))
    print()
    print(format_table(
        title,
        ("win", "t0 ms", "commit", "abort", "tps", "frames/s",
         "seals/s", "lock p50", "gc occ"),
        rows,
    ))
    print()

    incident_counts = incidents.counts()
    if incident_counts:
        incidents.link_exemplars()
        print(_incidents_line(incident_counts))
        for incident in incidents.incidents[:12]:
            exemplar = incident.get("exemplar")
            suffix = (
                "  [exemplar %.3f ms, %s]"
                % (exemplar["latency_ms"], exemplar["dominant"])
                if exemplar else ""
            )
            print("  %9.3f ms  %-20s node=%s %s%s"
                  % (incident["t_ms"], incident["kind"],
                     incident["node"] or "-", incident["details"], suffix))
        if len(incidents.incidents) > 12:
            print("  ... %d more" % (len(incidents.incidents) - 12))
    else:
        print("incidents    : none")
    print()

    table = recorder.category_table()
    if table:
        rows = [(
            row["category"],
            "%d" % row["exemplars"],
            "%.3f" % (row["mean_latency_s"] * 1e3),
            "%.0f%%" % (row["mean_share"] * 100),
        ) for row in table]
        print()
        print(format_table(
            "tail exemplars by dominant category (%d captured)"
            % len(recorder.exemplars),
            ("category", "exemplars", "mean ms", "mean share"),
            rows,
        ))
        worst = max(recorder.exemplars, key=lambda e: e["latency_s"])
        breakdown = "  ".join(
            "%s=%.3fms" % (cat, s * 1e3)
            for cat, s in sorted(worst["breakdown"].items(),
                                 key=lambda kv: -kv[1])
        )
        print("worst        : %s  %.3f ms  (%s)"
              % (worst["trace"][:16], worst["latency_s"] * 1e3, breakdown))
    else:
        print("tail         : no exemplars captured "
              "(fewer than warmup commits, or no outliers)")

    if args.timeline_out:
        timeseries.write(args.timeline_out, csv=args.csv)
        print("timeline     written to %s" % args.timeline_out)
    if args.incidents_out:
        incidents.write(args.incidents_out)
        print("incidents    written to %s" % args.incidents_out)
    if args.exemplars_out:
        with open(args.exemplars_out, "w") as fp:
            fp.write(recorder.exemplars_jsonl())
        print("exemplars    written to %s" % args.exemplars_out)
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Export the metrics hub of one workload run (Prometheus or table)."""
    from .obs import prometheus_text, summary_table

    cluster = _run_observed_workload(
        args.workload, args.clients, args.duration, args.seed
    )
    if args.prom:
        text = prometheus_text(cluster.obs.hub)
    else:
        text = summary_table(cluster.obs.snapshot()) + "\n"
    if args.out:
        with open(args.out, "w") as fp:
            fp.write(text)
        print("metrics written to %s" % args.out)
    else:
        sys.stdout.write(text)
    return 0


def _trace_critical_path(records, txn: Optional[str]) -> int:
    """Print one txn's critical path, or the aggregate phase table."""
    from .obs import (
        aggregate_critical_paths,
        critical_path,
        format_breakdown,
        format_phase_table,
        transaction_roots,
        transaction_traces,
    )

    roots = transaction_roots(records)  # the one pass over the log
    traces = transaction_traces(roots)
    if not traces:
        print("no distributed transactions in the trace", file=sys.stderr)
        return 1
    if txn is None:
        committed = transaction_traces(roots, outcome="commit")
        print("distributed transactions : %d (%d committed)"
              % (len(traces), len(committed)))
        print()
        print(format_phase_table(
            aggregate_critical_paths(records, committed)))
        print()
        print("per-transaction breakdown: repro trace critical-path <txn>")
        preview = ", ".join(traces[:4])
        print("transaction ids (prefix ok, or 'last'): %s%s"
              % (preview, ", ..." if len(traces) > 4 else ""))
        return 0
    if txn == "last":
        matches = traces[-1:]
    else:
        matches = [t for t in traces if t == txn or t.startswith(txn)]
    if not matches:
        print("no distributed transaction matches %r" % txn, file=sys.stderr)
        print("known ids: %s" % ", ".join(traces), file=sys.stderr)
        return 1
    if len(matches) > 1:
        print("ambiguous id %r: %s" % (txn, ", ".join(matches)),
              file=sys.stderr)
        return 1
    path = critical_path(records, matches[0])
    print(format_breakdown(path))
    return 0


def cmd_attacks(args: argparse.Namespace) -> int:
    sys.path.insert(0, "examples")
    import importlib.util
    import os

    path = os.path.join(os.path.dirname(__file__), "..", "..", "examples",
                        "attack_detection.py")
    path = os.path.abspath(path)
    if not os.path.exists(path):
        print("examples/attack_detection.py not found", file=sys.stderr)
        return 1
    spec = importlib.util.spec_from_file_location("attack_detection", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    return 0


def cmd_mc(args: argparse.Namespace) -> int:
    if args.mode == "replay":
        if args.file is None:
            print("mc replay needs a counterexample file", file=sys.stderr)
            return 2
        return _mc_replay(args)
    return _mc_explore(args)


def _parse_budget(spec: Optional[str]) -> Optional[float]:
    """``"60s"`` / ``"60"`` -> seconds of wall-clock search budget."""
    if spec is None:
        return None
    return float(spec[:-1] if spec.endswith("s") else spec)


def _mc_counterexample_trace(document, path: str) -> None:
    """Replay a counterexample under the tracer, write a Chrome trace."""
    from .mc import replay_counterexample
    from .obs import write_chrome_trace

    _scope, result = replay_counterexample(
        document, tracing=True, keep_cluster=True
    )
    write_chrome_trace(result.cluster.obs.records(), path)
    print("chrome trace :", path)


def _mc_explore(args: argparse.Namespace) -> int:
    from .mc import explore, save_counterexample
    from .mc.harness import MUTATIONS, mutation_scope, parse_scope

    if args.mutate is not None and args.mutate not in MUTATIONS:
        print("unknown mutation %r (known: %s)"
              % (args.mutate, ", ".join(sorted(MUTATIONS))), file=sys.stderr)
        return 2
    if args.mutate is not None:
        # Focused scope in which the mutation's bug is reachable fast;
        # --scope is ignored (the mutation dictates the world).
        scope = mutation_scope(args.mutate)
    else:
        offsets = tuple(
            int(part) for part in args.crash_offsets.split(",") if part
        )
        overrides = {}
        if args.coordinator_only:
            from .mc import coordinator_crash_points

            overrides["actions"] = ()
            overrides["crash_points"] = coordinator_crash_points()
        if args.no_restart:
            overrides["no_restart"] = True
        scope = parse_scope(
            args.scope, max_crashes=args.max_crashes, crash_offsets=offsets,
            backend=args.backend,
            shards=1 if args.backend == "counter-sync" else 2,
            **overrides,
        )

    def progress(stats):
        if args.quiet or stats.runs % 200 != 0:
            return
        print("  ... depth %d: %d runs, %d states, %.0f%% pruned, %.0fs"
              % (stats.depth_reached, stats.runs, stats.states,
                 stats.prune_rate * 100, stats.elapsed_s))

    stats, counterexample = explore(
        scope,
        depth=args.depth,
        budget_s=_parse_budget(args.budget),
        max_runs=args.max_runs,
        mutation=args.mutate,
        progress=progress,
    )

    print("scope        : %dx%d (txns x nodes)%s"
          % (scope.txns, scope.nodes,
             ", mutation %s" % args.mutate if args.mutate else ""))
    print("actions      : %s; crashes: %d max over %d points"
          % (" ".join(scope.actions) or "(none)", scope.max_crashes,
             len(scope.crash_points)))
    print("runs         : %d (%.1f runs/s, %.1fs elapsed)"
          % (stats.runs, stats.runs_per_s, stats.elapsed_s))
    print("states       : %d distinct" % stats.states)
    print("pruned       : %d (%d sleep-set, %d visited-state) = %.1f%%"
          % (stats.pruned, stats.pruned_sleep, stats.pruned_visited,
             stats.prune_rate * 100))
    print("deepest trace: %d choice points" % stats.deepest_trace)
    for depth, exhausted in sorted(stats.depth_exhausted.items()):
        print("depth %-2d     : %s"
              % (depth, "exhausted" if exhausted else "budget-bounded"))

    if counterexample is None:
        print("violations   : none (every explored schedule green)")
        if args.expect_violation:
            print("FAIL: --expect-violation but none found", file=sys.stderr)
            return 1
        return 0

    print("violation    : %s" % stats.violation)
    print("trace        : %s (%d shrink runs)"
          % (counterexample["trace"], stats.shrink_runs))
    for choice in counterexample["choices"]:
        print("  [%d] %s -> %s"
              % (choice["index"], choice["label"],
                 choice["options"][choice["chosen"]]))
    save_counterexample(args.out, counterexample)
    print("saved        : %s (repro mc replay %s)" % (args.out, args.out))
    _mc_counterexample_trace(
        counterexample, args.out.rsplit(".", 1)[0] + ".trace.json"
    )
    if args.expect_violation:
        return 0
    return 1


def _mc_replay(args: argparse.Namespace) -> int:
    from .mc import load_counterexample, replay_counterexample

    document = load_counterexample(args.file)
    mutation = None if args.unmutated else "__from_document__"
    scope, result = replay_counterexample(
        document, mutation=mutation,
        tracing=bool(args.trace_out), keep_cluster=bool(args.trace_out),
    )
    print("trace        : %s" % document["trace"])
    print("mutation     : %s"
          % ("(disabled)" if args.unmutated else document.get("mutation")))
    print("outcomes     : %s" % result.outcomes)
    print("sim time     : %.3f s" % result.sim_time)
    for violation in result.violations:
        print("violation    : %s" % violation)
    if args.trace_out:
        from .obs import write_chrome_trace

        write_chrome_trace(result.cluster.obs.records(), args.trace_out)
        print("chrome trace :", args.trace_out)
    if args.unmutated:
        # Fix-validation workflow: the same schedule against the real
        # protocol must be green.
        print("replay       : %s" % ("green" if result.green else "STILL RED"))
        return 0 if result.green else 1
    expected = document.get("violations", [])
    if result.violations != expected:
        print("REPLAY DIVERGED from the recorded violations:", file=sys.stderr)
        print("  recorded: %s" % expected, file=sys.stderr)
        print("  replayed: %s" % result.violations, file=sys.stderr)
        return 1
    print("replay       : reproduced %d violation(s) bit-for-bit"
          % len(result.violations))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from .obs import MonitorViolation

    if args.mode == "smoke":
        run = (_bench_netbatch if args.net_batch
               else _bench_read_mostly if args.read_mostly else _bench_smoke)
    else:
        run = {"scale-out": _bench_scaleout, "baseline": _bench_baseline,
               "sweep-window": _bench_sweep_window}[args.mode]
    try:
        return run(args)
    except MonitorViolation as exc:  # the strict monitor raises mid-run
        print("MONITOR VIOLATION: %s" % exc, file=sys.stderr)
        return 1


def _incidents_line(counts: dict) -> str:
    return "incidents    : " + "  ".join(
        "%s=%d" % item for item in sorted(counts.items())
    )


def _print_timeline(timeline: dict, incidents: dict) -> None:
    """The time-series headline and incident counts of one run."""
    print("timeline     : %d windows, tps mean %.0f peak %.0f, %d stalled"
          % (timeline.get("windows", 0), timeline.get("tps_mean", 0.0),
             timeline.get("tps_peak", 0.0),
             timeline.get("stalled_windows", 0)))
    if incidents:
        print(_incidents_line(incidents))


# -- gate rules: pure functions from ``bench.harness.account`` dicts (and
# -- monitor verdicts) to failure lines; ``_gate`` turns them into an exit
# -- status.


def monitor_failures(verdicts) -> List[str]:
    """All gates: every ``(label, monitor summary)`` must be green."""
    return [
        "MONITOR VIOLATION (%s): %s" % (label, violation)
        for label, monitor in verdicts
        for violation in monitor.get("violations", ())
    ]


def read_mostly_failures(snap: dict, lock: dict) -> List[str]:
    """YCSB-C snapshot reads vs locking 2PC on the same seed."""
    failures = []
    if snap["cluster_frames_per_txn"] > 0.5:
        failures.append(
            "FAIL: read-only transactions touched the cluster fabric "
            "(%.3f frames/txn)" % snap["cluster_frames_per_txn"])
    if snap["p50_ms"] >= lock["p50_ms"]:
        failures.append(
            "FAIL: snapshot reads did not reduce YCSB-C p50 "
            "(%.3f ms >= %.3f ms)" % (snap["p50_ms"], lock["p50_ms"]))
    if snap["throughput_tps"] <= lock["throughput_tps"]:
        failures.append(
            "FAIL: snapshot reads lost throughput (%.0f tps <= %.0f tps)"
            % (snap["throughput_tps"], lock["throughput_tps"]))
    return failures


def netbatch_failures(results: dict) -> List[str]:
    """Coalescing must strictly reduce frames and seal ops per txn."""
    failures = monitor_failures(
        ("batching %s" % label, results[label]["monitor"])
        for label in ("off", "on")
    )
    reduction = results["reduction"]
    if reduction["frames_per_txn"] <= 0.0 or reduction["seals_per_txn"] <= 0.0:
        failures.append(
            "FAIL: batching did not reduce frames and seal ops per txn")
    return failures


def _scaleout_growth(results) -> tuple:
    """(node-count ratio, frames/txn ratio), smallest to largest cluster."""
    (first_nodes, first), (last_nodes, last) = results[0], results[-1]
    return (
        last_nodes / first_nodes,
        last["frames_per_txn"] / max(1e-9, first["frames_per_txn"]),
    )


def scaleout_failures(results) -> List[str]:
    """Frames per txn must grow by less than the node-count ratio."""
    failures = monitor_failures(
        ("%d nodes" % num_nodes, stats["monitor"])
        for num_nodes, stats in results
    )
    if len(results) >= 2:
        node_ratio, frame_ratio = _scaleout_growth(results)
        if frame_ratio >= node_ratio:
            failures.append(
                "FAIL: frames per txn grew superlinearly with cluster size")
    return failures


def _gate(failures: List[str]) -> int:
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


def _bench_baseline(args: argparse.Namespace) -> int:
    """Write or check the BENCH_treaty.json performance baseline."""
    from .bench.baseline import (
        BASELINE_PATH,
        check_baseline,
        format_baseline_deltas,
        load_baseline,
        run_baseline,
        write_baseline,
    )
    from .obs import format_phase_table

    document = run_baseline(
        num_clients=args.clients, duration=args.duration,
        backend=args.backend, shards=args.shards,
    )
    headline = document["metrics"]
    print("profile      :", document["meta"]["profile"])
    print("backend      : %s (%d counter shards)"
          % (document["meta"]["rollback_backend"],
             document["meta"]["counter_shards"]))
    print("throughput   : %.0f tps" % headline["throughput_tps"])
    print("p99 latency  : %.3f ms" % headline["p99_commit_latency_ms"])
    print("committed    : %d   aborted: %d"
          % (headline["committed"], headline["aborted"]))
    print("frames/txn   : %.2f   seals/txn: %.2f   counter rounds/txn: %.3f"
          % (headline["frames_per_txn"], headline["seal_ops_per_txn"],
             headline["counter_rounds_per_txn"]))
    _print_timeline(document["timeline"], document["timeline"]["incidents"])
    print()
    print(format_phase_table(document["_aggregate"]))
    print()
    print()
    print(_format_tail_table(document["tail"]))
    if args.report_dir:
        _write_report_artifacts(document, args.report_dir)
    if args.check:
        reference_path = args.baseline_file or BASELINE_PATH
        try:
            reference = load_baseline(reference_path)
        except OSError as exc:
            print("cannot read baseline %s: %s" % (reference_path, exc),
                  file=sys.stderr)
            return 1
        failures = check_baseline(
            document, reference, tolerance=args.tolerance
        )
        print()
        print(format_baseline_deltas(
            document, reference, tolerance=args.tolerance
        ))
        if args.out:
            write_baseline(document, args.out)
            print("\ncurrent numbers written to %s" % args.out)
        if failures:
            for failure in failures:
                print("BASELINE REGRESSION: %s" % failure, file=sys.stderr)
            return 1
        print("\nbaseline check PASSED against %s" % reference_path)
        return 0
    out = args.out or BASELINE_PATH
    write_baseline(document, out)
    print("\nbaseline written to %s" % out)
    return 0


def _format_tail_table(tail: dict) -> str:
    """The baseline's p99-vs-p50 critical-path tail comparison."""
    rows = []
    for category, entry in sorted(
        tail.get("categories", {}).items(),
        key=lambda kv: -kv[1]["tail_share"],
    ):
        rows.append((
            category,
            "%.1f%%" % (entry["share"] * 100),
            "%.1f%%" % (entry["tail_share"] * 100),
            "%+.1f pp" % entry["delta_pp"],
        ))
    title = ("critical-path tail breakdown (p99 %.3f ms = %.2fx p50, "
             "%d tail txns)"
             % (tail.get("p99_ms", 0.0), tail.get("amplification_x", 1.0),
                tail.get("txns", 0)))
    return format_table(title, ("category", "share", "tail share", "delta"),
                        rows)


def _write_report_artifacts(document: dict, report_dir: str) -> None:
    """Baseline-mode CI artifacts: timeline, incidents, exemplars."""
    import os

    os.makedirs(report_dir, exist_ok=True)
    timeseries = document["_timeseries"]
    timeseries.write(os.path.join(report_dir, "timeline.jsonl"))
    timeseries.write(os.path.join(report_dir, "timeline.csv"), csv=True)
    document["_incidents"].write(
        os.path.join(report_dir, "incidents.jsonl")
    )
    with open(os.path.join(report_dir, "exemplars.jsonl"), "w") as fp:
        fp.write(document["_recorder"].exemplars_jsonl())
    print("\nreport artifacts written to %s/" % report_dir.rstrip("/"))


def _bench_smoke(args: argparse.Namespace) -> int:
    """Short full-pipeline run under the strict monitor (CI gate)."""
    from .bench.harness import durability_smoke

    metrics = durability_smoke(
        num_clients=args.clients or 24, duration=args.duration or 0.2,
        flight_recorder=args.flight_recorder,
    )
    _print_metrics(metrics)
    if args.flight_recorder:
        flight = metrics.extra_info["flight"]
        recorder = flight["recorder"]
        print("flight rec.  : %d commits, p50 %.3f ms, p99 %.3f ms, "
              "%d exemplars, %d ring-evicted"
              % (recorder["commits"], recorder["p50_ms"],
                 recorder["tail_ms"], recorder["exemplars"],
                 recorder["ring_evicted"]))
        _print_timeline(flight["timeline"], flight["incidents"])
    monitor = metrics.extra_info["monitor"]
    durability = metrics.extra_info["obs"].get("durability", {})
    print("monitor      : %d events, %d violations"
          % (monitor["events_seen"], len(monitor["violations"])))
    if "rounds_per_committed_txn" in durability:
        print("counter rounds/committed txn : %.3f"
              % durability["rounds_per_committed_txn"])
    batch = durability.get("stabilize.batch_size")
    if batch:
        print("stabilize batch size         : mean %.2f  max %d"
              % (batch["mean"], batch["max"]))
    return _gate(monitor_failures([("smoke", monitor)]))


def _bench_read_mostly(args: argparse.Namespace) -> int:
    """Read-mostly fast-path gate (CI): snapshot reads must pay off.

    Runs YCSB-C twice on the same seed — coordinator-free snapshot
    reads on, then plain locking 2PC — and fails the build unless the
    snapshot run (a) kept the cluster fabric quiet (frames per
    committed transaction ≈ 0), (b) reduced p50 latency, and (c) did
    not lose throughput against the locking path.
    """
    from .bench.harness import ycsb_variant_run

    _, snap = ycsb_variant_run("c", True, args.clients, args.duration)
    _, lock = ycsb_variant_run("c", False, args.clients, args.duration)
    rows = []
    for label, stats in (("snapshot", snap), ("locking", lock)):
        rows.append((
            label,
            "%d" % stats["committed"],
            "%.0f" % stats["throughput_tps"],
            "%.3f" % stats["p50_ms"],
            "%.3f" % stats["cluster_frames_per_txn"],
        ))
    print()
    print(format_table(
        "read-mostly fast path (YCSB-C, Treaty full)",
        ("mode", "committed", "tput (tps)", "p50 ms", "cluster frames/txn"),
        rows,
    ))
    counters = snap["counters"]
    print("read-only   : %d local, %d upgraded, %d conflicts"
          % (counters["txn.readonly.local"],
             counters["txn.readonly.upgraded"],
             counters["txn.readonly.conflicts"]))
    failed = _gate(read_mostly_failures(snap, lock))
    if not failed:
        print("read-mostly gate PASSED: %.3f frames/txn, p50 %.3f ms "
              "vs locking %.3f ms"
              % (snap["cluster_frames_per_txn"], snap["p50_ms"],
                 lock["p50_ms"]))
    return failed


def _bench_netbatch(args: argparse.Namespace) -> int:
    """``net_tx_batch_max=1`` vs default comparison (CI gate for the win).

    Fails the build unless coalescing strictly reduces both delivered
    frames and AEAD seal operations per committed transaction, and the
    invariant monitor stays green in both runs.  ``--hist-out`` writes
    the default run's occupancy histogram as JSON (CI artifact).
    """
    import json

    from .bench.harness import netbatch_compare

    results = netbatch_compare(
        num_clients=args.clients,
        duration=args.duration,
        locality=0.0 if args.locality is None else args.locality,
    )
    rows = []
    for label in ("off", "on"):
        stats = results[label]
        rows.append((
            label,
            "%d" % stats["committed"],
            "%.0f" % stats["throughput_tps"],
            "%.1f" % stats["frames_per_txn"],
            "%.1f" % stats["seals_per_txn"],
            "%.2f" % stats["batch_occupancy"]["mean"],
        ))
    print()
    print(format_table(
        "transport batching comparison (YCSB 50/50, Treaty full)",
        ("batching", "committed", "tput (tps)", "frames/txn",
         "seals/txn", "occupancy"),
        rows,
    ))
    reduction = results["reduction"]
    print("reduction    : frames/txn %.1f%%  seals/txn %.1f%%"
          % (reduction["frames_per_txn"] * 100,
             reduction["seals_per_txn"] * 100))
    if args.hist_out:
        with open(args.hist_out, "w") as fh:
            json.dump(results["on"]["batch_occupancy"], fh, indent=2)
        print("occupancy histogram written to %s" % args.hist_out)
    return _gate(netbatch_failures(results))


def _bench_scaleout(args: argparse.Namespace) -> int:
    """Cluster-size sweep: per-txn frame/counter-round growth."""
    from .bench.harness import scaleout_sweep

    nodes = tuple(int(token) for token in args.nodes.split(","))
    locality = 0.9 if args.locality is None else args.locality
    results = scaleout_sweep(
        nodes=nodes,
        num_clients=args.clients,
        duration=args.duration,
        locality=locality,
    )
    rows = []
    for num_nodes, stats in results:
        rows.append((
            "%d" % num_nodes,
            "%d" % stats["committed"],
            "%.0f" % stats["throughput_tps"],
            "%.1f" % stats["frames_per_txn"],
            "%.1f" % stats["seals_per_txn"],
            "%.3f" % stats["counter_rounds_per_txn"],
        ))
    print()
    print(format_table(
        "scale-out sweep (partitioned YCSB, locality %.0f%%)"
        % (locality * 100),
        ("nodes", "committed", "tput (tps)", "frames/txn",
         "seals/txn", "rounds/txn"),
        rows,
    ))
    if len(results) >= 2:
        print("growth       : nodes x%.2f  frames/txn x%.2f"
              % _scaleout_growth(results))
    return _gate(scaleout_failures(results))


def _bench_sweep_window(args: argparse.Namespace) -> int:
    """Sweep the group-commit window; print the latency/throughput frontier."""
    from .bench.harness import sweep_group_commit_window

    windows: Optional[List[Optional[float]]] = None
    if args.windows:
        windows = [
            None if token == "adaptive" else float(token) * 1e-6
            for token in args.windows.split(",")
        ]
    results = sweep_group_commit_window(
        windows=windows, num_clients=args.clients, duration=args.duration,
    )
    rows = []
    for label, metrics in results:
        summary = metrics.summary()
        durability = metrics.extra_info["obs"].get("durability", {})
        batch = durability.get("group_commit.batch_size") or {}
        rows.append((
            label,
            "%.0f" % summary["throughput_tps"],
            "%.3f" % summary["mean_latency_ms"],
            "%.3f" % summary["p99_ms"],
            "%.2f" % batch.get("mean", 1.0),
            "%.3f" % durability.get("rounds_per_committed_txn", 0.0),
        ))
    print()
    print(format_table(
        "group-commit window sweep (YCSB 50/50, Treaty w/ Enc w/ Stab)",
        ("window", "tput (tps)", "mean (ms)", "p99 (ms)",
         "batch", "rounds/txn"),
        rows,
    ))
    return 0


def _print_metrics(metrics: MetricsCollector) -> None:
    summary = metrics.summary()
    print("profile      :", summary["name"])
    print("throughput   : %.0f tps" % summary["throughput_tps"])
    print("mean latency : %.2f ms" % summary["mean_latency_ms"])
    print("p99 latency  : %.2f ms" % summary["p99_ms"])
    print("committed    : %d   aborted: %d"
          % (summary["committed"], summary["aborted"]))
    if "obs" in metrics.extra_info:
        from .bench.reporting import format_phase_breakdown

        print(format_phase_breakdown(metrics.extra_info["obs"]))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Treaty: Secure Distributed Transactions (reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("info", help="profiles and cost model").set_defaults(
        func=cmd_info
    )

    demo = subparsers.add_parser("demo", help="a few secure transactions")
    _add_profile_argument(demo)
    demo.add_argument("--keys", type=int, default=8)
    demo.set_defaults(func=cmd_demo)

    ycsb = subparsers.add_parser("ycsb", help="run a YCSB experiment")
    _add_profile_argument(ycsb)
    ycsb.add_argument("--reads", type=float, default=0.5)
    ycsb.add_argument("--keys", type=int, default=10_000)
    ycsb.add_argument("--clients", type=int, default=24)
    ycsb.add_argument("--duration", type=float, default=0.3)
    ycsb.set_defaults(func=cmd_ycsb)

    tpcc = subparsers.add_parser("tpcc", help="run a TPC-C experiment")
    _add_profile_argument(tpcc)
    tpcc.add_argument("--warehouses", type=int, default=10)
    tpcc.add_argument("--clients", type=int, default=10)
    tpcc.add_argument("--duration", type=float, default=0.5)
    tpcc.set_defaults(func=cmd_tpcc)

    trace = subparsers.add_parser(
        "trace", help="run a workload under the tracer, write a Chrome trace"
    )
    _add_profile_argument(trace)
    trace.add_argument(
        "mode", nargs="?", default="record",
        choices=["record", "critical-path"],
        help="record: write trace files (default); critical-path: print "
             "a transaction's critical-path latency breakdown",
    )
    trace.add_argument(
        "txn", nargs="?", default=None,
        help="critical-path mode: transaction id (hex trace id, a unique "
             "prefix, or 'last'); omit for the aggregate p50/p99 table",
    )
    trace.add_argument(
        "--from-jsonl", default=None,
        help="critical-path mode: analyze a previously recorded --jsonl "
             "file instead of running a workload",
    )
    trace.add_argument(
        "--workload", default="ycsb", choices=["ycsb", "tpcc", "demo"]
    )
    trace.add_argument("--out", default="trace.json",
                       help="Chrome trace-event output path")
    trace.add_argument("--jsonl", default=None,
                       help="also write raw records as JSON lines")
    trace.add_argument("--clients", type=int, default=8)
    trace.add_argument("--duration", type=float, default=0.05,
                       help="measured window in simulated seconds; a "
                            "0.2 s (ycsb) / 0.5 s (tpcc) warm-up runs first")
    trace.add_argument("--seed", type=int, default=7)
    trace.set_defaults(func=cmd_trace)

    report = subparsers.add_parser(
        "report",
        help="run a workload with the flight recorder on; print the "
             "timeline, incidents, and tail-exemplar tables",
    )
    report.add_argument(
        "--workload", default="ycsb", choices=["ycsb", "demo"]
    )
    report.add_argument("--clients", type=int, default=16)
    report.add_argument("--duration", type=float, default=0.1,
                        help="measured window in simulated seconds; a "
                             "0.2 s warm-up runs first")
    report.add_argument("--seed", type=int, default=7)
    report.add_argument("--timeline-out", default=None,
                        help="write the per-window timeline (JSONL, or "
                             "CSV with --csv)")
    report.add_argument("--csv", action="store_true",
                        help="write --timeline-out as CSV instead of JSONL")
    report.add_argument("--incidents-out", default=None,
                        help="write the incident log as JSONL")
    report.add_argument("--exemplars-out", default=None,
                        help="write captured tail exemplars as JSONL")
    report.set_defaults(func=cmd_report)

    metrics = subparsers.add_parser(
        "metrics", help="export a workload run's metrics registry"
    )
    metrics.add_argument("mode", choices=["export"],
                         help="export: run a workload, dump the hub")
    metrics.add_argument(
        "--prom", action="store_true",
        help="Prometheus text exposition instead of the summary table",
    )
    metrics.add_argument("--out", default=None,
                         help="write to this path instead of stdout")
    metrics.add_argument(
        "--workload", default="demo", choices=["ycsb", "demo"]
    )
    metrics.add_argument("--clients", type=int, default=8)
    metrics.add_argument("--duration", type=float, default=0.05,
                         help="measured window in simulated seconds; a "
                              "0.2 s warm-up runs first")
    metrics.add_argument("--seed", type=int, default=7)
    metrics.set_defaults(func=cmd_metrics)

    bench = subparsers.add_parser(
        "bench",
        help="durability-pipeline benchmarks (smoke, sweep-window, scale-out)",
    )
    bench.add_argument(
        "mode", choices=["smoke", "sweep-window", "scale-out", "baseline"],
        help="smoke: monitored full-pipeline run (CI gate); "
             "sweep-window: group-commit window frontier; "
             "scale-out: cluster-size sweep under transport batching; "
             "baseline: write/check the BENCH_treaty.json baseline",
    )
    bench.add_argument("--clients", type=int, default=None,
                       help="concurrent YCSB clients")
    bench.add_argument("--duration", type=float, default=None,
                       help="simulated seconds of measured workload")
    bench.add_argument(
        "--windows", default=None,
        help="comma-separated window values in microseconds for "
             "sweep-window ('adaptive' selects the EWMA window), "
             "e.g. '0,50,100,adaptive'",
    )
    bench.add_argument(
        "--flight-recorder", action="store_true",
        help="smoke mode: run with the always-on observability stack "
             "(ring tracer + time series + incidents) and print its "
             "summaries — proves recording does not move the workload",
    )
    bench.add_argument(
        "--report-dir", default=None,
        help="baseline mode: also write timeline.jsonl / timeline.csv / "
             "incidents.jsonl / exemplars.jsonl into this directory "
             "(CI artifacts)",
    )
    bench.add_argument(
        "--net-batch", action="store_true",
        help="smoke mode: compare net_tx_batch_max=1 with the default "
             "and assert the frame/seal-op reduction (CI gate)",
    )
    bench.add_argument(
        "--read-mostly", action="store_true",
        help="smoke mode: gate the coordinator-free snapshot-read fast "
             "path — YCSB-C cluster frames/txn must stay ~0 and its "
             "p50/throughput must beat locking 2PC (CI gate)",
    )
    bench.add_argument(
        "--hist-out", default=None,
        help="with --net-batch: write the batch-occupancy histogram "
             "as JSON to this path (CI artifact)",
    )
    bench.add_argument(
        "--nodes", default="3,5,7,9",
        help="scale-out mode: comma-separated cluster sizes",
    )
    bench.add_argument(
        "--locality", type=float, default=None,
        help="fraction of transactions kept single-shard (partitioned "
             "workload; defaults: 0.0 for --net-batch, 0.9 for scale-out)",
    )
    bench.add_argument(
        "--check", action="store_true",
        help="baseline mode: compare against the checked-in "
             "BENCH_treaty.json and fail on a regression (CI gate)",
    )
    bench.add_argument(
        "--out", default=None,
        help="baseline mode: where to write the baseline JSON "
             "(default BENCH_treaty.json; with --check, only written "
             "when given explicitly)",
    )
    bench.add_argument(
        "--baseline-file", default=None,
        help="baseline mode with --check: reference file to compare "
             "against (default BENCH_treaty.json)",
    )
    bench.add_argument(
        "--tolerance", type=float, default=0.25,
        help="baseline mode with --check: allowed relative drift per "
             "gated metric",
    )
    bench.add_argument(
        "--backend", default=None,
        choices=list(BACKENDS),
        help="baseline mode: rollback-protection backend for the run "
             "(default counter-async — the bench frontier; the "
             "per-cluster default stays counter-sync)",
    )
    bench.add_argument(
        "--shards", type=int, default=None,
        help="baseline mode: independent counter groups "
             "(default 4 for the bench frontier)",
    )
    bench.set_defaults(func=cmd_bench)

    attacks = subparsers.add_parser(
        "attacks", help="attack-detection demonstration"
    )
    attacks.set_defaults(func=cmd_attacks)

    mc = subparsers.add_parser(
        "mc",
        help="model checker: exhaustive small-scope schedule search "
             "(docs/MODELCHECK.md)",
    )
    mc.add_argument(
        "mode", choices=["explore", "replay"],
        help="explore: iterative-deepening search over crash/adversary "
             "schedules; replay: re-execute a saved counterexample",
    )
    mc.add_argument(
        "file", nargs="?", default=None,
        help="replay mode: counterexample JSON written by explore",
    )
    mc.add_argument("--scope", default="2x3",
                    help="explore: '<txns>x<nodes>' world size")
    mc.add_argument("--depth", type=int, default=2,
                    help="explore: max perturbations per schedule "
                         "(iterative deepening 1..depth)")
    mc.add_argument("--budget", default=None,
                    help="explore: wall-clock budget, e.g. '60s'")
    mc.add_argument("--max-runs", type=int, default=None,
                    help="explore: stop after this many executed schedules")
    mc.add_argument("--max-crashes", type=int, default=1,
                    help="explore: crash injections per schedule")
    mc.add_argument("--crash-offsets", default="0",
                    help="explore: comma-separated victim offsets relative "
                         "to the node emitting a crash point (0 = the "
                         "emitter itself); '0,1,2' lets any node die at "
                         "any point")
    mc.add_argument("--coordinator-only", action="store_true",
                    help="explore: restrict crash points to the "
                         "coordinator's decision path (adversary actions "
                         "off) — the non-blocking-commit battery")
    mc.add_argument("--no-restart", action="store_true",
                    help="explore: crashed nodes stay dead; survivors must "
                         "converge via the completer protocol")
    mc.add_argument("--mutate", default=None,
                    help="explore: disable one recovery rule (its focused "
                         "scope replaces --scope); the checker must find a "
                         "counterexample")
    mc.add_argument("--backend", default="counter-sync",
                    choices=list(BACKENDS),
                    help="explore: rollback-protection backend for the "
                         "bounded worlds (coverage backends run with 2 "
                         "counter shards); ignored with --mutate")
    mc.add_argument("--out", default="mc-counterexample.json",
                    help="explore: where to write a found counterexample")
    mc.add_argument("--expect-violation", action="store_true",
                    help="explore: exit 0 iff a counterexample was found "
                         "(CI mutation smoke)")
    mc.add_argument("--quiet", action="store_true",
                    help="explore: suppress progress lines")
    mc.add_argument("--trace-out", default=None,
                    help="replay: also write a Chrome trace of the replay")
    mc.add_argument("--unmutated", action="store_true",
                    help="replay: run the trace against the unmutated "
                         "protocol (fix validation; exit 0 iff green)")
    mc.set_defaults(func=cmd_mc)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
