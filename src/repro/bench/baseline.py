"""Performance baseline: record headline numbers, gate regressions.

``repro bench baseline`` runs one deterministic distributed YCSB
workload on the full Treaty profile *with tracing enabled*, derives the
headline metrics —

* throughput (committed txns / measured second),
* p99 commit latency,
* delivered network frames per committed transaction,
* AEAD seal operations per committed transaction,
* trusted-counter rounds per committed transaction,
* the critical-path per-category p50/p99 breakdown
  (:mod:`repro.obs.critpath`),

— and writes them to ``BENCH_treaty.json``.  ``--check`` compares a
fresh run against the checked-in file with direction-aware tolerances
(throughput may not drop, cost counters may not grow, beyond
``tolerance``) and fails CI on a regression.  The run is seeded and the
simulator is deterministic, so a freshly written baseline always passes
its own check exactly.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from ..config import ClusterConfig, TREATY_FULL
from ..obs.critpath import CATEGORIES, aggregate_critical_paths, percentile
from ..obs.export import format_table
from ..workloads.ycsb import YcsbConfig
from .harness import account, bench_scale, loaded, measure

__all__ = [
    "BASELINE_PATH",
    "BASELINE_BACKEND",
    "BASELINE_SHARDS",
    "GATED_METRICS",
    "WORKLOAD_PROFILES",
    "WORKLOAD_GATED_METRICS",
    "run_baseline",
    "run_workload_profiles",
    "check_baseline",
    "format_baseline_deltas",
    "write_baseline",
    "load_baseline",
]

#: default location of the checked-in baseline (repo root).
BASELINE_PATH = "BENCH_treaty.json"

#: headline metrics the ``--check`` gate compares, with direction:
#: ``"min"`` — regression is the value *dropping* below (1 - tol) x ref;
#: ``"max"`` — regression is the value *growing* above (1 + tol) x ref.
GATED_METRICS = (
    ("throughput_tps", "min"),
    ("p99_commit_latency_ms", "max"),
    ("frames_per_txn", "max"),
    ("seal_ops_per_txn", "max"),
    ("counter_rounds_per_txn", "max"),
    # p99/p50 critical-path total: the tail may not detach from the
    # median (a convoy or a stalled background driver shows up here
    # before it moves the p99 absolute number past its band).
    ("tail_amplification_x", "max"),
)

#: default regression tolerance.  Same-seed runs reproduce exactly; the
#: slack absorbs intentional cross-PR behaviour drift without letting a
#: real regression (a dropped batch path, an extra counter round per
#: txn) through.
DEFAULT_TOLERANCE = 0.25


#: the backend/sharding the headline baseline is recorded under.  The
#: per-cluster *default* stays ``counter-sync`` (conservative); the
#: bench frontier runs the async coverage-promise backend over sharded
#: counter groups — the configuration the ROADMAP's "counter off the
#: critical path" gate targets.
BASELINE_BACKEND = "counter-async"
BASELINE_SHARDS = 4

#: read-mostly mixes recorded as per-workload baseline sections; each
#: pairs the snapshot-read/OCC run with a locking-2PC run on the same
#: seed so the section carries the measured gain.
WORKLOAD_PROFILES = ("ycsb-b", "ycsb-c")

#: gated metrics inside each per-workload section (same band semantics
#: as :data:`GATED_METRICS`, failure names prefixed with the workload).
WORKLOAD_GATED_METRICS = (
    ("throughput_tps", "min"),
    ("p50_ms", "max"),
    ("cluster_frames_per_txn", "max"),
)


def run_baseline(
    num_clients: Optional[int] = None,
    duration: Optional[float] = None,
    seed: int = 11,
    backend: Optional[str] = None,
    shards: Optional[int] = None,
) -> Dict[str, Any]:
    """One traced YCSB run on TREATY_FULL, then the read-mostly
    per-workload sections (:func:`run_workload_profiles`); returns the
    baseline document.
    """
    num_clients = num_clients or 24
    duration = duration or (0.2 if bench_scale() == "quick" else 0.6)
    backend = backend or BASELINE_BACKEND
    shards = shards if shards is not None else BASELINE_SHARDS
    config = ClusterConfig(
        tracing=True,
        seed=seed,
        rollback_backend=backend,
        counter_shards=shards,
        flight_recorder=True,
        timeseries=True,
        incidents=True,
    )
    ycsb = YcsbConfig(read_proportion=0.5, num_keys=2_000)
    cluster = loaded(TREATY_FULL, ycsb, config)
    metrics = measure(cluster, ycsb, num_clients, duration, "baseline")

    summary = metrics.summary()
    cost = account(cluster, metrics)
    records = cluster.obs.records()
    aggregate = aggregate_critical_paths(records)
    obs = cluster.obs
    obs.timeseries.flush()
    timeline = dict(obs.timeseries.summary())
    timeline["incidents"] = obs.incidents.counts()
    tail = _tail_breakdown(aggregate)

    critical_path: Dict[str, Any] = {
        "txns": aggregate["count"],
        "total_ms": {
            "p50": round(percentile(aggregate["totals"], 50) * 1e3, 6),
            "p99": round(percentile(aggregate["totals"], 99) * 1e3, 6),
        },
        "categories": {},
    }
    grand_total = sum(aggregate["totals"]) or 1.0
    for category in CATEGORIES:
        samples = aggregate["categories"][category]
        critical_path["categories"][category] = {
            "p50_ms": round(percentile(samples, 50) * 1e3, 6),
            "p99_ms": round(percentile(samples, 99) * 1e3, 6),
            "share": round(sum(samples) / grand_total, 6),
        }

    document = {
        "meta": {
            "profile": TREATY_FULL.name,
            "workload": "ycsb-50/50-distributed",
            "seed": seed,
            "clients": num_clients,
            "duration_s": duration,
            "scale": bench_scale(),
            "rollback_backend": backend,
            "counter_shards": shards,
        },
        "metrics": {
            "throughput_tps": round(summary["throughput_tps"], 3),
            "p99_commit_latency_ms": round(summary["p99_ms"], 6),
            "mean_commit_latency_ms": round(summary["mean_latency_ms"], 6),
            "committed": metrics.committed,
            "aborted": metrics.aborted,
            "frames_per_txn": round(cost["frames_per_txn"], 6),
            "seal_ops_per_txn": round(cost["seals_per_txn"], 6),
            "counter_rounds_per_txn": round(
                cost["counter_rounds_per_txn"], 6
            ),
            "tail_amplification_x": tail["amplification_x"],
        },
        "critical_path": critical_path,
        "timeline": timeline,
        "tail": tail,
        "_aggregate": aggregate,  # stripped before serialization
        "_timeseries": obs.timeseries,
        "_incidents": obs.incidents,
        "_recorder": obs.recorder,
        "workloads": run_workload_profiles(
            num_clients=num_clients, duration=duration, seed=seed
        ),
    }
    return document


def _tail_breakdown(aggregate: Dict[str, Any]) -> Dict[str, Any]:
    """p99-vs-p50 critical-path comparison: where the tail's time goes.

    Splits the per-transaction critical-path totals at their p99 and
    compares, per category, the tail transactions' share of time against
    the overall share — the section that answers "the p99 is 3x the p50;
    which phase is responsible".
    """
    totals = aggregate["totals"]
    if not totals:
        return {"txns": 0, "amplification_x": 1.0, "categories": {}}
    p50 = percentile(totals, 50)
    p99 = percentile(totals, 99)
    tail_index = [i for i, total in enumerate(totals) if total >= p99]
    tail_time = sum(totals[i] for i in tail_index) or 1.0
    all_time = sum(totals) or 1.0
    categories: Dict[str, Any] = {}
    for category in CATEGORIES:
        samples = aggregate["categories"][category]
        share_all = sum(samples) / all_time
        share_tail = sum(samples[i] for i in tail_index) / tail_time
        if share_all == 0.0 and share_tail == 0.0:
            continue
        categories[category] = {
            "share": round(share_all, 6),
            "tail_share": round(share_tail, 6),
            "delta_pp": round((share_tail - share_all) * 100, 3),
        }
    return {
        "txns": len(tail_index),
        "p50_ms": round(p50 * 1e3, 6),
        "p99_ms": round(p99 * 1e3, 6),
        "amplification_x": round(p99 / p50 if p50 else 1.0, 3),
        "categories": categories,
    }


def run_workload_profiles(
    num_clients: Optional[int] = None,
    duration: Optional[float] = None,
    seed: int = 11,
) -> Dict[str, Any]:
    """Per-workload baseline sections (read-mostly mixes).

    Each section runs the mix twice on the same seed — snapshot-read
    fast path on, then plain locking 2PC — and records the snapshot
    run's gated metrics plus the measured gain over locking.
    """
    from .harness import ycsb_variant_run

    sections: Dict[str, Any] = {}
    for name in WORKLOAD_PROFILES:
        variant = name.rsplit("-", 1)[-1]
        _, snap = ycsb_variant_run(
            variant, True, num_clients, duration, seed=seed
        )
        _, lock = ycsb_variant_run(
            variant, False, num_clients, duration, seed=seed
        )
        sections[name] = {
            "metrics": {
                "throughput_tps": round(snap["throughput_tps"], 3),
                "p50_ms": round(snap["p50_ms"], 6),
                "p99_ms": round(snap["p99_ms"], 6),
                "committed": snap["committed"],
                "aborted": snap["aborted"],
                "cluster_frames_per_txn": round(
                    snap["cluster_frames_per_txn"], 6
                ),
            },
            "counters": snap["counters"],
            "locking": {
                "throughput_tps": round(lock["throughput_tps"], 3),
                "p50_ms": round(lock["p50_ms"], 6),
                "p99_ms": round(lock["p99_ms"], 6),
                "committed": lock["committed"],
                "cluster_frames_per_txn": round(
                    lock["cluster_frames_per_txn"], 6
                ),
            },
            "gain": {
                "throughput_x": round(
                    snap["throughput_tps"]
                    / max(lock["throughput_tps"], 1e-9),
                    3,
                ),
                "p50_reduction": round(
                    1.0 - snap["p50_ms"] / max(lock["p50_ms"], 1e-9), 3
                ),
            },
        }
    return sections


def write_baseline(document: Dict[str, Any], path: str = BASELINE_PATH) -> None:
    serializable = {
        key: value for key, value in document.items()
        if not key.startswith("_")
    }
    with open(path, "w") as fp:
        json.dump(serializable, fp, indent=2, sort_keys=True)
        fp.write("\n")


def load_baseline(path: str = BASELINE_PATH) -> Dict[str, Any]:
    with open(path) as fp:
        return json.load(fp)


def format_baseline_deltas(
    current: Dict[str, Any],
    reference: Dict[str, Any],
    tolerance: float = DEFAULT_TOLERANCE,
) -> str:
    """Per-metric deltas table vs the reference, printed even on success.

    A passing ``--check`` that only says "PASSED" hides how much
    headroom is left; this table shows each gated metric's drift
    against its allowed band, plus critical-path category share drift
    (informational — share shifts are not gated).
    """
    rows = []
    for name, direction, cur, ref in _gated(current, reference):
        if ref is None:
            rows.append((name, "-", "%.3f" % cur, "-", direction, "n/a"))
            continue
        delta = (cur - ref) / ref if ref else 0.0
        regressed = _gate_one(name, cur, ref, direction, tolerance)
        rows.append((
            name,
            "%.3f" % ref,
            "%.3f" % cur,
            "%+.1f%%" % (delta * 100),
            "%s %.0f%%" % (direction, tolerance * 100),
            "FAIL" if regressed else "ok",
        ))
    lines = [format_table(
        "baseline deltas (tolerance %.0f%%)" % (tolerance * 100),
        ("metric", "baseline", "current", "delta", "gate", "status"),
        rows,
    )]

    ref_cats = reference.get("critical_path", {}).get("categories", {})
    cur_cats = current.get("critical_path", {}).get("categories", {})
    shared = [c for c in cur_cats if c in ref_cats]
    if shared:
        share_rows = []
        for category in shared:
            ref_share = float(ref_cats[category].get("share", 0.0))
            cur_share = float(cur_cats[category].get("share", 0.0))
            share_rows.append((
                category,
                "%.1f%%" % (ref_share * 100),
                "%.1f%%" % (cur_share * 100),
                "%+.1f pp" % ((cur_share - ref_share) * 100),
            ))
        lines.append(format_table(
            "critical-path share drift (informational)",
            ("category", "baseline", "current", "delta"),
            share_rows,
        ))
    # A blank line before the first table, two between tables.
    return "\n" + "\n\n\n".join(lines)


def _gated(current: Dict[str, Any], reference: Dict[str, Any]):
    """``(name, direction, current, reference or None)`` per gated
    metric: the headline ones, then each current workload's."""
    sections = [("", current["metrics"], reference["metrics"], GATED_METRICS)]
    reference_workloads = reference.get("workloads") or {}
    for workload, section in (current.get("workloads") or {}).items():
        ref_section = reference_workloads.get(workload) or {}
        sections.append((
            workload + ".", section["metrics"],
            ref_section.get("metrics", {}), WORKLOAD_GATED_METRICS,
        ))
    for prefix, cur, ref, gated in sections:
        for name, direction in gated:
            yield (
                prefix + name, direction, float(cur[name]),
                float(ref[name]) if name in ref else None,
            )


def _gate_one(
    name: str,
    cur: float,
    ref: float,
    direction: str,
    tolerance: float,
) -> Optional[str]:
    """The one direction-aware band check: the failure description, or
    None when ``cur`` is inside the band."""
    if direction == "min":
        floor = ref * (1.0 - tolerance)
        if cur < floor:
            return (
                "%s regressed: %.3f < %.3f (baseline %.3f - %.0f%%)"
                % (name, cur, floor, ref, tolerance * 100)
            )
        return None
    ceiling = ref * (1.0 + tolerance)
    # An absolute epsilon keeps near-zero baselines (e.g. a profile
    # without stabilization, or the snapshot path's ~0 frames/txn) from
    # gating on noise.
    if cur > ceiling and cur - ref > 1e-9:
        return (
            "%s regressed: %.3f > %.3f (baseline %.3f + %.0f%%)"
            % (name, cur, ceiling, ref, tolerance * 100)
        )
    return None


def check_baseline(
    current: Dict[str, Any],
    reference: Dict[str, Any],
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[str]:
    """Direction-aware regression check; returns failure descriptions.

    Workload-aware: per-workload sections present in both documents are
    gated on :data:`WORKLOAD_GATED_METRICS` in addition to the headline
    metrics; failure names carry the workload prefix.
    """
    failures = (
        _gate_one(name, cur, ref, direction, tolerance)
        for name, direction, cur, ref in _gated(current, reference)
        if ref is not None  # an older baseline, a new workload: no gate
    )
    return [failure for failure in failures if failure is not None]
