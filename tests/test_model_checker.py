"""Tests for :mod:`repro.mc`, the small-scope model checker.

Covers the four layers separately — adversary action enumeration, the
controlled-scheduler harness (determinism, crash/drop semantics), the
explorer (bounded exhaustive pass stays green, pruning works), and the
end-to-end mutation workflow (a disabled recovery rule yields a
minimized, replayable counterexample that is green once the rule is
restored) — plus monitor reset/reuse across repeated sim runs and the
crash-fault vocabulary shared with the conformance sweep.
"""

import inspect
import json
import os
import zlib

import pytest

from repro.config import ClusterConfig, TREATY_FULL
from repro.core import TreatyCluster
from repro.mc import (
    MUTATIONS,
    SCENARIOS,
    coordinator_crash_points,
    explore,
    load_counterexample,
    parse_scope,
    protocol_crash_points,
    replay_counterexample,
    run_one,
    save_counterexample,
    shrink_trace,
)
from repro.mc.digest import DiskCrcCache
from repro.mc.harness import Scope, mutation_scope
from repro.net.adversary import ENUMERATED_DELAY, NetworkAdversary
from repro.obs.monitor import InvariantMonitor


# -- adversary action enumeration ---------------------------------------------

class TestEnumerateActions:
    class _Frame:
        src, dst, meta, payload = "node0.rpc", "node1.rpc", {}, b"x"

    def test_deliver_first_and_order_pinned(self):
        adversary = NetworkAdversary()
        actions = adversary.enumerate_actions(self._Frame())
        assert [name for name, _ in actions] == [
            "deliver", "drop", "duplicate", "delay"
        ]

    def test_verdicts(self):
        frame = self._Frame()
        actions = dict(NetworkAdversary().enumerate_actions(frame))
        assert actions["deliver"] == [(frame, 0.0)]
        assert actions["drop"] == [(None, 0.0)]
        assert actions["duplicate"] == [(frame, 0.0), (frame, 0.0)]
        assert actions["delay"] == [(frame, ENUMERATED_DELAY)]

    def test_enumeration_is_pure(self):
        """Enumerating must not mutate counters; only apply_action does."""
        adversary = NetworkAdversary()
        adversary.enumerate_actions(self._Frame())
        assert (adversary.dropped, adversary.duplicated,
                adversary.delayed) == (0, 0, 0)

    def test_apply_action_counts(self):
        adversary = NetworkAdversary()
        frame = self._Frame()
        adversary.apply_action("drop", frame)
        adversary.apply_action("duplicate", frame)
        adversary.apply_action("delay", frame, 1e-3)
        assert (adversary.dropped, adversary.duplicated,
                adversary.delayed) == (1, 1, 1)

    def test_apply_unknown_action_raises(self):
        with pytest.raises(ValueError):
            NetworkAdversary().apply_action("mangle", self._Frame())


# -- the harness: one controlled run ------------------------------------------

class TestRunOne:
    @pytest.mark.parametrize("protocol", ["optimized", "paper"])
    def test_default_trace_is_green_and_commits(self, protocol):
        result = run_one(Scope(protocol=protocol), [])
        assert result.green, result.violations
        assert result.outcomes == ["committed", "committed"]
        assert result.committed == 2
        assert result.liveness_checked
        assert result.points, "no choice points recorded"

    def test_runs_are_deterministic(self):
        """Same trace, fresh world: identical choice-point sequence."""
        a = run_one(Scope(), [])
        b = run_one(Scope(), [])
        assert [p.label for p in a.points] == [p.label for p in b.points]
        assert [p.time for p in a.points] == [p.time for p in b.points]
        assert a.outcomes == b.outcomes

    def test_drop_disables_liveness_but_keeps_safety(self):
        result = run_one(Scope(), [1])  # drop the first eligible frame
        assert result.drops == 1
        assert not result.liveness_checked
        assert result.green, result.violations

    @pytest.mark.parametrize("protocol", ["optimized", "paper"])
    def test_crash_choice_crashes_and_recovers(self, protocol):
        scope = Scope(protocol=protocol, actions=())
        assert scope.crash_points == protocol_crash_points(protocol)
        base = run_one(scope, [])
        crash_index = next(
            p.index for p in base.points if p.kind == "crash"
        )
        trace = [0] * crash_index + [1]
        result = run_one(scope, trace)
        assert len(result.crashes) == 1
        assert result.green, result.violations
        assert result.liveness_checked

    def test_beyond_trace_choices_default_to_zero(self):
        """A trace is a finite perturbation prefix: padding with zeros
        changes nothing."""
        a = run_one(Scope(), [])
        b = run_one(Scope(), [0, 0, 0, 0])
        assert [p.chosen for p in a.points] == [p.chosen for p in b.points]

    def test_visited_cache_subsumes_sibling_runs(self):
        visited = {}
        first = run_one(Scope(), [], remaining_budget=2, visited=visited)
        assert first.new_states > 0
        again = run_one(Scope(), [], remaining_budget=1, visited=visited)
        assert again.new_states == 0
        assert again.suppressed > 0  # subsumed straight away


# -- the explorer -------------------------------------------------------------

class TestExplorer:
    def test_bounded_pass_stays_green(self):
        """A budget-bounded depth-2 slice of the real scope: no
        violations, visited-state pruning engaged, stats coherent."""
        stats, counterexample = explore(
            parse_scope("2x3"), depth=2, max_runs=40
        )
        assert counterexample is None
        assert stats.runs >= 40
        assert stats.states > 100
        assert stats.pruned_visited > 0
        assert 0.0 < stats.prune_rate <= 1.0
        assert stats.depth_exhausted.get(1) in (True, False)

    def test_coordinator_death_depth_two_stays_green(self):
        """Non-blocking commit under the bounded checker: every depth-2
        schedule that kills the emitter at a decision-path crash point
        and never restarts it stays green — decision replication plus
        the completer protocol converge on the survivors alone."""
        scope = Scope(
            actions=(),
            crash_points=coordinator_crash_points(),
            crash_offsets=(0,),
            max_crashes=1,
            no_restart=True,
        )
        stats, counterexample = explore(scope, depth=2, max_runs=30)
        assert counterexample is None
        assert stats.runs > 1

    def test_depth_one_tie_reorderings_stay_green(self):
        """The chooser's tie points under the explorer: single
        reorderings of same-instant entries keep every check green."""
        stats, counterexample = explore(
            Scope(tie_window=2), depth=1, max_runs=40
        )
        assert counterexample is None
        assert stats.runs >= 40
        root = run_one(Scope(tie_window=2), [])
        assert sum(1 for p in root.points if p.kind == "tie") > 100

    def test_depth_one_crash_only_scope_exhausts(self):
        scope = Scope(
            actions=(),
            crash_points=(("twopc", "prepare_target"),),
        )
        stats, counterexample = explore(scope, depth=1)
        assert counterexample is None
        assert stats.depth_exhausted[1] is True
        # one root + one run per crash-point occurrence
        assert stats.runs > 1


# -- mutations: seeded bugs must be found, shrunk, and replayable -------------

class TestMutationCounterexample:
    @pytest.fixture(scope="class")
    def found(self):
        stats, counterexample = explore(
            mutation_scope("no-abort-rebroadcast"),
            depth=2, mutation="no-abort-rebroadcast",
        )
        return stats, counterexample

    def test_counterexample_found_and_minimal(self, found):
        stats, counterexample = found
        assert counterexample is not None
        assert stats.violation
        # delta debugging leaves two necessary perturbations, under the
        # paper protocol (optimized converges via the completer
        # instead): node1 crashes at its own prepare point, so node0's
        # concurrent transaction loses node1's vote, and node0 crashes
        # as it logs that ABORT — a decided abort only the recovering
        # coordinator can re-broadcast.  (A crashed node's fibers park:
        # node1's own transaction never logs a decision after its crash.)
        nonzeros = [c for c in counterexample["trace"] if c]
        assert len(nonzeros) == 2
        assert [
            (choice["kind"], choice["label"])
            for choice in counterexample["choices"]
        ] == [
            ("crash", "twopc/prepare_ack@node1"),
            ("crash", "twopc/decision@node0"),
        ]
        assert counterexample["scope"]["protocol"] == "paper"

    def test_mutated_replay_reproduces(self, found):
        _stats, counterexample = found
        _scope, result = replay_counterexample(counterexample)
        assert result.violations == counterexample["violations"]

    def test_unmutated_replay_is_green(self, found):
        """The same schedule against the real protocol: the recovery
        rule the mutation disabled is what makes it converge."""
        _stats, counterexample = found
        _scope, result = replay_counterexample(counterexample, mutation=None)
        assert result.green, result.violations

    def test_document_roundtrip(self, found, tmp_path):
        _stats, counterexample = found
        path = str(tmp_path / "ce.json")
        save_counterexample(path, counterexample)
        loaded = load_counterexample(path)
        assert loaded == json.loads(json.dumps(counterexample))
        _scope, result = replay_counterexample(loaded)
        assert result.violations == counterexample["violations"]

    def test_load_rejects_other_json(self, tmp_path):
        path = str(tmp_path / "not-ce.json")
        with open(path, "w") as fp:
            json.dump({"format": "something-else"}, fp)
        with pytest.raises(ValueError):
            load_counterexample(path)

    def test_every_mutation_has_a_focused_scope(self):
        for name in MUTATIONS:
            scope = mutation_scope(name)
            assert isinstance(scope, Scope)
        with pytest.raises(ValueError):
            mutation_scope("no-such-mutation")

    def test_every_mutation_patches_a_live_seam(self):
        """A mutation stubs one generator method by name; a refactor
        that renames the seam must re-point the table, not silently
        leave a mutation that patches nothing the protocol calls."""
        for name, patch in MUTATIONS.items():
            owner, attr = patch.target
            original = getattr(owner, attr, None)
            assert inspect.isgeneratorfunction(original), (name, owner, attr)
            with patch():
                assert getattr(owner, attr).__doc__ == patch.__doc__
            assert getattr(owner, attr) is original

    def test_second_mutation_is_caught(self):
        """no-commit-redrive: coordinator dies between logging COMMIT
        and broadcasting it; without the redrive, participants' prepared
        halves stay in doubt."""
        stats, counterexample = explore(
            mutation_scope("no-commit-redrive"),
            depth=1, mutation="no-commit-redrive",
        )
        assert counterexample is not None
        assert [c["label"] for c in counterexample["choices"]] == [
            "twopc/decision@node0"
        ]
        assert counterexample["scope"]["protocol"] == "paper"
        assert any("in-doubt" in v or "quiescent" in v
                   for v in counterexample["violations"])
        _scope, result = replay_counterexample(counterexample, mutation=None)
        assert result.green, result.violations

    def test_shrink_requires_failing_trace(self):
        with pytest.raises(ValueError):
            shrink_trace(Scope(), [0, 0, 0])

    def test_ack_before_covered_is_caught(self):
        """A backend that acks without lease coverage violates I1 on the
        very first unperturbed run — the counterexample is the empty
        trace under the counter-async backend."""
        stats, counterexample = explore(
            mutation_scope("ack-before-covered"),
            depth=1, mutation="ack-before-covered",
        )
        assert counterexample is not None
        assert not [c for c in counterexample["trace"] if c]
        assert any("I1" in v or "I2" in v
                   for v in counterexample["violations"])
        _scope, result = replay_counterexample(counterexample, mutation=None)
        assert result.green, result.violations

    def test_reply_before_decision_quorum_is_caught(self):
        """A coordinator that acks the client before its commit decision
        is sealed on a quorum of attested participants violates I1/I2 on
        the very first unperturbed run — under replication the commit
        targets' counter round rides the decision round, so skipping it
        externalizes an uncovered commit.  The counterexample is the
        empty trace; the real protocol replays green."""
        stats, counterexample = explore(
            mutation_scope("reply-before-decision-quorum"),
            depth=1, mutation="reply-before-decision-quorum",
        )
        assert counterexample is not None
        assert not [c for c in counterexample["trace"] if c]
        assert any("I1" in v or "I2" in v
                   for v in counterexample["violations"])
        _scope, result = replay_counterexample(counterexample, mutation=None)
        assert result.green, result.violations


# -- coverage backends under the bounded checker ------------------------------

class TestBackendScopes:
    """The unperturbed world (and a crashed one) must stay green under
    every rollback-protection backend."""

    @pytest.mark.parametrize("backend", ["counter-async", "lcm"])
    def test_empty_trace_green(self, backend):
        result = run_one(Scope(backend=backend, shards=2), [])
        assert result.green, result.violations
        assert result.outcomes.count("committed") >= 1

    @pytest.mark.parametrize("backend", ["counter-async", "lcm"])
    def test_single_crash_worlds_green(self, backend):
        """First-choice crash world per backend: the coordinator dies at
        its first eligible crash point with promises outstanding."""
        scope = Scope(
            backend=backend, shards=2, actions=(), max_crashes=1,
        )
        result = run_one(scope, [1])
        assert result.green, result.violations


# -- real bugs the checker found: their schedules must stay green -------------

class TestFoundBugsStayGreen:
    """Minimal counterexamples of the recovery bugs the exhaustive
    passes found in this codebase (see docs/MODELCHECK.md).  Each
    trace wedged or corrupted the cluster before its fix; replaying them
    pins the fixes."""

    SCOPE = parse_scope("2x3", crash_offsets=(0, 1, 2), max_crashes=2)

    @pytest.mark.parametrize("name,trace", [
        # I3 gate regression: stale redriven target re-advertised a
        # stable view below the sealed confirmed value after a double
        # reboot (fix: seed counter gates from sealed confirmed state).
        ("gate-seeding", [0] * 7 + [1] + [0] * 38 + [1]),
        # resolve/redrive race applied one commit twice (fix: popping
        # the participant's active entry is the exactly-once guard).
        ("resolve-redrive-race", [0] * 7 + [2] + [0] * 22 + [2]),
        # replay-guard collision: two participants recovering at the
        # same boot epoch asked the coordinator about the same txn with
        # identical (node, txn, op) triples; the second genuine query
        # was dropped as a replay (fix: fold the asker's id into op).
        ("resolution-op-collision", [0] * 13 + [1] + [0] * 19 + [1]),
        # recovery orphan GC deleted the counter replica's sealed state
        # file, rolling confirmed counters to zero on the next boot
        # (fix: exempt *.sealed from the orphan sweep).
        ("sealed-state-gc", [0] * 32 + [1] + [0] * 19 + [1]),
    ])
    def test_counterexample_trace_is_green(self, name, trace):
        result = run_one(self.SCOPE, trace)
        assert result.green, (name, result.violations)

    def test_crashed_participant_with_dropped_resolve_stays_durable(self):
        """Found by CI's ``mc explore --scope 2x3 --depth 2``: node1
        crashes at twopc/prepare_target and its recovery's TXN_RESOLVE
        request to node0 is dropped.  The bare ``rpc.call`` had no
        timeout, so the resolve fiber parked forever and txn 0 committed
        without node1's write ever becoming visible (fix: the question
        goes through ``SecureRpc.gather`` and is re-asked every
        ``RESOLUTION_RETRY_INTERVAL``)."""
        _scope, result = replay_counterexample(load_counterexample(
            os.path.join(
                os.path.dirname(__file__), "data",
                "mc-durability-prepare-target-crash-resolve-drop.json",
            )
        ))
        assert result.green, result.violations


# -- visited-state digest -----------------------------------------------------

class TestDiskCrcCache:
    def test_fresh_equal_length_buffers_are_hashed_in_full(self):
        """One cache digests one run's disk after another's: each fresh
        buffer usually lands at the freed previous one's address, and a
        cache keyed by ``id()`` then returned the previous CRC."""
        cache = DiskCrcCache()
        for i in range(50):
            data = bytearray(b"%04d" % i * 64)
            assert cache.file_crc("node0", "wal", data) == zlib.crc32(data)
            del data

    def test_appended_suffix_continues_the_crc(self):
        cache = DiskCrcCache()
        data = bytearray(b"head")
        cache.file_crc("node0", "wal", data)
        data.extend(b"-tail")
        assert cache.file_crc("node0", "wal", data) == zlib.crc32(data)


# -- monitor reset / reuse ----------------------------------------------------

class TestMonitorReuse:
    def test_reset_clears_observed_state(self):
        monitor = InvariantMonitor(strict=False, liveness_timeout=5.0)
        monitor.on_record({
            "type": "event", "cat": "stabilize", "name": "advance",
            "t": 1.0, "node": "node0",
            "args": {"log": "node0/wal-000001.log", "value": 7},
        })
        assert monitor.stable and monitor.events_seen == 1
        monitor.reset()
        assert monitor.events_seen == 0
        assert not monitor.stable and not monitor.advance_views
        assert monitor.green
        # configuration survives a reset
        assert monitor.liveness_timeout == 5.0
        assert monitor.strict is False

    def test_reset_drops_stale_counter_views(self):
        """A fresh world's counters restart from 1; a monitor carrying
        the previous world's views would flag a phantom I3 regression."""
        monitor = InvariantMonitor(strict=True)
        record = {
            "type": "event", "cat": "stabilize", "name": "advance",
            "t": 1.0, "node": "node0",
            "args": {"log": "node0/wal-000001.log", "value": 5},
        }
        monitor.on_record(record)
        monitor.reset()
        low = dict(record, args={"log": "node0/wal-000001.log", "value": 1})
        monitor.on_record(low)  # must NOT raise after the reset
        assert monitor.green

    def test_sequential_worlds_do_not_leak(self):
        """Two full sim runs in one process: the second's monitor starts
        blank and both end green (the model checker's reuse pattern)."""
        summaries = []
        for _ in range(2):
            result = run_one(Scope(), [])
            assert result.green, result.violations
            summaries.append(result.monitor_summary)
        assert summaries[0]["events_seen"] == summaries[1]["events_seen"]

    def test_cluster_monitor_is_fresh_per_cluster(self):
        config = ClusterConfig(seed=2022, monitor=True)
        first = TreatyCluster(profile=TREATY_FULL, config=config).start()
        assert first.obs.monitor.green
        second = TreatyCluster(profile=TREATY_FULL, config=config).start()
        assert second.obs.monitor.events_seen <= first.obs.monitor.events_seen


# -- the shared crash-fault vocabulary ----------------------------------------

class TestFaultsExtraction:
    def test_scenario_order_is_pinned(self):
        """The conformance sweep maps ``seed % len(SCENARIOS)`` to a
        scenario, so the tuple's order and length are part of its
        contract with recorded seeds."""
        assert SCENARIOS[0] == (("twopc", "prepare_target"), "optimized")
        assert SCENARIOS[1] == (("stabilize", "group_begin"), "optimized")
        assert SCENARIOS[5] == (("twopc", "prepare_ack"), "paper")
        # New points are appended, never inserted: counter/promise
        # (coverage backends) then twopc/decision-quorum (non-blocking
        # commit) ride at the end.
        assert SCENARIOS[8] == (("counter", "promise"), "optimized")
        assert SCENARIOS[9] == (("twopc", "decision-quorum"), "optimized")
        assert len(SCENARIOS) == 10

    def test_protocol_filter_partitions_scenarios(self):
        optimized = protocol_crash_points("optimized")
        paper = protocol_crash_points("paper")
        assert len(optimized) + len(paper) == len(SCENARIOS)
        assert ("twopc", "prepare_target") in optimized
        assert ("twopc", "prepare_ack") not in optimized
        assert paper == (
            ("twopc", "prepare_ack"),
            ("twopc", "decision"),
            ("twopc", "commit_apply"),
        )
        assert Scope(protocol="paper").crash_points == paper
