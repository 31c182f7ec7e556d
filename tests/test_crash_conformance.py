"""Randomized crash-point conformance sweep for both commit protocols.

Every seed builds a fresh cluster, drives a handful of concurrent
distributed transactions, and fail-stops one node at a seeded crash
point — one of the observable steps of the 2PC + stabilization
pipeline:

* ``twopc/prepare_target``  — prepare logged, piggybacked ACK about to
  leave the participant (its counter target is *not* yet stable);
* ``twopc/prepare_ack``     — ``paper`` protocol: prepare stabilized,
  ACK sent;
* ``stabilize/group_begin`` — the coordinator's group-wide echo round
  is in flight (targets chosen, nothing stable yet);
* ``twopc/decision``        — decision logged to the Clog, not stable;
* ``twopc/commit_apply``    — a participant applied the commit;
* ``stabilize/advance``     — a stable-counter gate moved.

The victim is the node that emitted the event or a seeded bystander.
After a settle period the victim recovers and the suite asserts the
conformance conditions:

* **atomicity** — each transaction's writes are all present or all
  absent across every shard, whatever the crash point;
* **durability** — a transaction whose commit() returned success is
  fully visible after recovery;
* **safety** — the strict I1–I5 invariant monitor stays green for the
  entire run (it raises at the violating instant);
* **quiescence** — at the end of the run no lock is held and no
  participant half is in doubt on a live node, and the monitor's I4/I5
  tail sweep passes.

The workload and these checks are :mod:`repro.mc.workload`'s, shared
with the model checker and the coordinator-death sweep.

Crash model: :meth:`TreatyCluster.crash_node` detaches the node's NIC
— nothing is sent or received afterwards (in-flight frames and zombie
fibers' sends are dropped at the NIC identity check).  A fiber already
past its last network wait may still complete its current local disk
write, which models device I/O that was submitted before the failure;
the first network interaction parks it forever.

Failing seeds can be exported for offline triage: set
``CRASH_CONFORMANCE_TRACE_DIR`` and each failure writes a Chrome-trace
JSON (``chrome://tracing`` / Perfetto) of the full run.  The seed count
defaults to one pass over every crash scenario; CI widens it with
``CRASH_CONFORMANCE_SEEDS=<count>`` or ``<start>:<stop>``
(:func:`tests.conftest.seed_range`).

``CRASH_CONFORMANCE_OCC=1`` reruns the whole sweep under distributed
OCC: every workload transaction executes lock-free and validates inside
the participants' PREPARE critical sections, so the same crash points
now land on validators mid-prepare (e.g. ``twopc/prepare_target`` fires
after validation, inside the prepare critical section).  I1–I5 and the
atomicity/durability audits must hold identically.
"""

import os

import pytest

from repro.config import PROTOCOLS, ClusterConfig, TREATY_FULL
from repro.core import TreatyCluster
from repro.core.trusted_counter import BACKENDS
from repro.mc import audit, drive, keys_on, read_owner, spread_txns
from repro.mc.faults import SCENARIOS, CrashInjector
from repro.obs import write_chrome_trace
from repro.sim.rng import SeededRng
from tests.conftest import seed_range

# Crash scenarios and the injector live in repro.mc.faults, shared with
# the model checker so both use one fault vocabulary.  SCENARIOS order
# is pinned there (seed % len(SCENARIOS) must keep its mapping).


def _backend_list():
    """Rollback-protection backends the sweep runs under.  CI narrows
    this to one backend per matrix job with
    ``CRASH_CONFORMANCE_BACKENDS=<name>[,<name>...]``."""
    spec = os.environ.get("CRASH_CONFORMANCE_BACKENDS", ",".join(BACKENDS))
    return [name.strip() for name in spec.split(",") if name.strip()]


def _occ_mode():
    """Whether the sweep drives distributed-OCC transactions."""
    return os.environ.get("CRASH_CONFORMANCE_OCC") == "1"


def _backend_config(seed, backend, protocol):
    """Sweep config: the coverage backends also run sharded so the
    sweep exercises per-shard frontiers and shard-aware recovery."""
    return ClusterConfig(
        seed=seed,
        tracing=True,
        monitor=True,
        protocol=protocol,
        rollback_backend=backend,
        counter_shards=1 if backend == "counter-sync" else 2,
    )


# -- the sweep -----------------------------------------------------------------


@pytest.mark.parametrize("backend", _backend_list())
@pytest.mark.parametrize("seed", seed_range("CRASH_CONFORMANCE_SEEDS", 12))
def test_crash_point_conformance(seed, backend):
    point, protocol = SCENARIOS[seed % len(SCENARIOS)]
    rng = SeededRng(seed, "crash-conformance")
    occurrence = rng.randint(1, 3)
    # Bias towards crashing the emitter; sometimes take down a bystander.
    victim_offset = rng.choice((0, 0, 0, 1, 2))

    # COORDINATOR_NO_RESTART=1: the crashed node stays dead for the rest
    # of the run — the sweep then asserts that the survivors converge on
    # their own through decision replication + the completer protocol.
    no_restart = os.environ.get("COORDINATOR_NO_RESTART") == "1"
    if no_restart and protocol == "paper":
        pytest.skip(
            "protocol='paper' is blocking 2PC by definition: survivors "
            "stay in doubt until the dead coordinator is restarted"
        )

    config = _backend_config(seed, backend, protocol)
    cluster = TreatyCluster(profile=TREATY_FULL, config=config).start()
    try:
        _run_one_seed(cluster, rng, point, occurrence, victim_offset,
                      no_restart=no_restart, occ=_occ_mode())
    except BaseException:
        trace_dir = os.environ.get("CRASH_CONFORMANCE_TRACE_DIR")
        if trace_dir:
            os.makedirs(trace_dir, exist_ok=True)
            records = cluster.obs.records()
            stem = "seed-%03d-%s" % (seed, backend)
            write_chrome_trace(
                records,
                os.path.join(trace_dir, stem + ".trace.json"),
            )
            _export_critical_paths(
                records,
                os.path.join(trace_dir, stem + ".critpath.txt"),
            )
            _export_incidents(
                records,
                os.path.join(trace_dir, stem + ".incidents.jsonl"),
            )
        raise


def _export_critical_paths(records, path):
    """Per-transaction critical paths for the failing seed's trace — the
    "where did the time go" view next to the raw Chrome trace.  Best
    effort: a half-recorded trace must never mask the real failure."""
    from repro.obs import critical_path, format_breakdown, transaction_traces

    sections = []
    for trace in transaction_traces(records):
        try:
            sections.append(format_breakdown(critical_path(records, trace)))
        except Exception as exc:  # noqa: BLE001 - diagnostic export only
            sections.append("trace %s: critical path unavailable (%s)"
                            % (trace, exc))
    with open(path, "w") as fp:
        fp.write("\n\n".join(sections) + "\n")


def _export_incidents(records, path):
    """Post-hoc incident log for the failing seed: the record-driven
    detectors (takeover, lease expiry, lock convoy) replayed over the
    saved trace.  Best effort, like the critical-path export."""
    from repro.obs import IncidentLog

    try:
        IncidentLog.from_records(records).write(path)
    except Exception as exc:  # noqa: BLE001 - diagnostic export only
        with open(path, "w") as fp:
            fp.write('{"error": "incident replay failed: %s"}\n' % exc)


def _run_one_seed(cluster, rng, point, occurrence, victim_offset,
                  no_restart=False, occ=False):
    sim = cluster.sim
    txns = spread_txns(cluster, 6, b"cc")
    outcomes = ["pending"] * len(txns)
    injector = CrashInjector(cluster, point, occurrence, victim_offset).arm()
    # Stagger starts so the N-th crash point lands on transactions in
    # different interleavings across seeds.
    starts = [index * rng.uniform(1e-4, 2e-3) for index in range(len(txns))]
    drive(cluster, txns, outcomes, give_up=4.0, starts=starts,
          optimistic=occ)
    # Past the prepare-vote timeout (2 s) plus resolution retries; a
    # transaction blocked on the crashed node parks, everything else
    # settles to a decision.
    sim.run(until=sim.now + 6.0)

    if injector.crashed is not None:
        # Without a restart, decision timeouts fire and a surviving
        # completer drives each in-doubt group to its replicated (or
        # presumed-abort) outcome; with one, re-aborts, re-driven commits
        # and prepared-txn resolution converge.
        if not no_restart:
            cluster.run(cluster.recover_node(injector.crashed),
                        name="recover")
        sim.run(until=sim.now + 6.0)

    # A shard that is dead forever (no_restart) is unservable: its half
    # is audited on the survivors only.
    dead = {injector.crashed} if no_restart else ()
    violations = audit(cluster, txns, outcomes, dropped=False, dead=dead)
    assert not violations, violations
    # The sweep is only meaningful if the seed actually produced work.
    assert any(outcome == "committed" for outcome in outcomes) or (
        injector.crashed is not None
    )


# -- coverage promises under crashes ------------------------------------------


class TestCoveragePromiseCrash:
    """Coordinator crashes with an unexpired coverage promise
    outstanding: the promise was registered (``counter/promise``), its
    lease has not expired, no round of the waiter's own is in flight —
    the canonical new failure mode of the async backends."""

    @pytest.mark.parametrize("backend", ["counter-async", "lcm"])
    def test_coordinator_crash_with_unexpired_promise(self, backend):
        config = _backend_config(77, backend, "optimized")
        cluster = TreatyCluster(profile=TREATY_FULL, config=config).start()
        rng = SeededRng(77, "promise-crash")
        # occurrence=1, offset=0: kill the emitter at its very first
        # registered promise, well inside the lease window.
        _run_one_seed(
            cluster, rng, ("counter", "promise"),
            occurrence=1, victim_offset=0,
        )

    @pytest.mark.parametrize("backend", ["counter-async", "lcm"])
    def test_bystander_crash_leaves_promise_resolvable(self, backend):
        """A *replica* (not the promise holder) dies while the promise
        is outstanding: with quorum 2-of-3 the round must still cover
        the targets without waiting for recovery."""
        config = _backend_config(78, backend, "optimized")
        cluster = TreatyCluster(profile=TREATY_FULL, config=config).start()
        rng = SeededRng(78, "promise-bystander")
        _run_one_seed(
            cluster, rng, ("counter", "promise"),
            occurrence=1, victim_offset=1,
        )


# -- recovery's own-half apply -------------------------------------------------


class TestRecoveryAppliesOnProtectedDecision:
    def test_own_half_waits_for_the_decision_entry(self):
        """``paper``: the coordinator logs COMMIT and dies before
        stabilizing the entry, its own half prepared.  Recovery finds
        the decision in the replayed Clog's *unstable* suffix; the own
        half may commit only once that entry is rollback-protected, and
        must say so (``commit_apply``) so the monitor can check I1."""
        config = ClusterConfig(
            seed=6, tracing=True, monitor=True, protocol="paper"
        )
        cluster = TreatyCluster(profile=TREATY_FULL, config=config).start()
        sim = cluster.sim
        (coord, pairs), = spread_txns(cluster, 1, b"cc")
        txn = cluster.nodes[coord].coordinator.begin()
        txn_hex = txn.gid.encode().hex()

        def body():
            for key, value in pairs:
                yield from txn.put(key, value)
            yield from txn.commit()

        injector = CrashInjector(
            cluster, ("twopc", "decision"), occurrence=1, victim_offset=0
        ).arm()
        sim.process(body(), name="own-half-txn")
        sim.run(until=sim.now + 1.0)
        assert injector.crashed == coord
        cluster.run(cluster.recover_node(coord), name="recover")
        sim.run(until=sim.now + 3.0)

        records = cluster.obs.records()
        name = cluster.nodes[coord].name
        decision = next(
            rec for rec in records
            if (rec["cat"], rec["name"]) == ("twopc", "decision")
            and rec["txn"] == txn_hex
        )
        assert decision["args"]["kind"] == "commit"
        log, counter = decision["args"]["log"], decision["args"]["counter"]
        events = [
            (rec["cat"], rec["name"]) for rec in records
            if rec["type"] == "event" and rec.get("node") == name and (
                (rec["name"] == "commit_apply" and rec.get("txn") == txn_hex)
                or (rec["name"] == "advance" and rec["args"]["log"] == log
                    and rec["args"]["value"] >= counter)
            )
        ]
        assert ("twopc", "commit_apply") in events, (
            "the coordinator's own half was resolved without a "
            "commit_apply event: the monitor never saw it"
        )
        assert events.index(("stabilize", "advance")) < events.index(
            ("twopc", "commit_apply")
        )
        for key, value in pairs:
            assert read_owner(cluster, key) == value
        cluster.obs.monitor.check_quiescent(now=sim.now)
        assert cluster.obs.monitor.green, cluster.obs.monitor.violations


# -- counter-round accounting: the tentpole's headline ------------------------


def _distributed_commit(cluster, tag):
    """One transaction spanning all shards; returns after commit()."""
    pairs = [
        (keys_on(cluster, i, 1, tag)[0], b"acct-" + tag)
        for i in range(cluster.num_nodes)
    ]

    def body():
        txn = cluster.nodes[0].coordinator.begin()
        for key, value in pairs:
            yield from txn.put(key, value)
        yield from txn.commit()

    cluster.run(body(), name="acct-txn")
    return pairs


def _total_rounds(cluster):
    return sum(node.counter_client.rounds_executed for node in cluster.nodes)


def _txn_events(cluster, cat, name):
    return [
        rec
        for rec in cluster.obs.records()
        if rec["type"] == "event" and rec["cat"] == cat and rec["name"] == name
    ]


class TestCounterRoundAccounting:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_commit_critical_path_shape(self, protocol):
        """Counter rounds on one distributed commit's critical path.

        ``optimized`` (headline: ≤1 group-wide round per distributed
        transaction): piggybacking folds every participant's prepare
        target and the Clog decision entry into a single echo-broadcast
        round; the apply-side targets ride a second, *background* round
        shared with the COMPLETE record.

        ``paper``: every participant stabilizes before ACKing, the
        decision gets its own round, and no group-round events appear
        in the trace.
        """
        config = ClusterConfig(tracing=True, monitor=True, protocol=protocol)
        cluster = TreatyCluster(profile=TREATY_FULL, config=config).start()
        cluster.sim.run(until=cluster.sim.now + 0.1)  # drain bootstrap
        before = _total_rounds(cluster)
        _distributed_commit(cluster, b"shape")
        critical = _total_rounds(cluster) - before
        targets = _txn_events(cluster, "twopc", "prepare_target")
        group_rounds = _txn_events(cluster, "stabilize", "group_begin")
        acks = _txn_events(cluster, "twopc", "prepare_ack")
        if protocol == "paper":
            assert critical >= 2, (
                "per-node path should pay one round per prepare plus "
                "the decision round, got %d" % critical
            )
            assert acks and not targets and not group_rounds
            return
        assert critical <= 1, (
            "piggybacked distributed commit used %d counter rounds on "
            "the critical path (expected <= 1)" % critical
        )
        # The deferred COMPLETE+apply round runs off the critical path.
        cluster.sim.run(until=cluster.sim.now + 0.5)
        assert _total_rounds(cluster) - before <= 2
        assert targets and group_rounds and not acks

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_distributed_commit_state(self, protocol, backend):
        """The protocol and backend change round accounting, never the
        outcome: every shard holds the committed value, monitor green."""
        config = _backend_config(2022, backend, protocol)
        cluster = TreatyCluster(profile=TREATY_FULL, config=config).start()
        pairs = _distributed_commit(cluster, b"pg-eq")
        assert [read_owner(cluster, key) for key, _ in pairs] == [
            value for _, value in pairs
        ]
        cluster.sim.run(until=cluster.sim.now + 0.5)
        monitor = cluster.obs.monitor
        monitor.check_quiescent(now=cluster.sim.now)
        assert monitor.green, monitor.violations

    def test_unknown_protocol_is_rejected(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            TreatyCluster(
                profile=TREATY_FULL, config=ClusterConfig(protocol="fast")
            )
