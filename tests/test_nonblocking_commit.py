"""Liveness-under-coordinator-death battery for non-blocking commit.

The paper's 2PC (``protocol="paper"``) blocks when the coordinator
dies: prepared participants hold their locks until the coordinator's
enclave restarts and replays its Clog.  Under ``protocol="optimized"``
(the default) the coordinator seals its commit/abort decision into the piggybacked group
round and waits for a quorum of attested participants to hold the
decision slot *before* the client is acknowledged — so any surviving
participant whose decision watchdog fires can assume the completer
role and drive the group to its outcome without the coordinator ever
coming back.

This battery kills the coordinator at every ``optimized`` crash point
of the shared fault vocabulary (``repro.mc.faults.SCENARIOS``) and
**never restarts it**, then asserts on the survivors:

* any transaction whose commit decision reached a surviving slot is
  fully committed on every surviving shard (the completer spreads and
  applies it);
* any transaction with no surviving commit slot is fully absent
  (presumed abort via the completer's abort quorum) — all-or-nothing,
  never a partial write;
* a transaction whose ``commit()`` returned success is fully visible
  (durability: the quorum wait precedes the client ack);
* the strict I1–I5 monitor stays green, and no lock or in-doubt half
  is left on a survivor (``repro.mc.workload.audit``, the crash sweep's
  and the model checker's end-state audit too).

It runs two seeds per crash point; CI widens it with
``NONBLOCKING_SWEEP_SEEDS=<count>`` or ``<start>:<stop>``.

Plus two pins: a healthy run performs **zero** completer takeovers
(the watchdog must never fire under a live coordinator), and a
same-instant completer race between two survivors resolves to exactly
one set of apply effects per shard (the active-entry pop is the
exactly-once guard).
"""

import pytest

from repro.config import ClusterConfig, TREATY_FULL
from repro.core import TreatyCluster
from repro.core.client import ClientTxn
from repro.core.twopc import GlobalTxn
from repro.errors import TransactionAborted
from repro.mc import audit, drive, keys_on, read_owner, spread_txns
from repro.mc.faults import SCENARIOS, CrashInjector
from repro.net import NetworkAdversary
from repro.net.message import MsgType
from repro.sim.rng import SeededRng
from tests.conftest import carries, seed_range

COORDINATOR = 0


def _config(seed, backend):
    return ClusterConfig(
        seed=seed,
        tracing=True,
        monitor=True,
        rollback_backend=backend,
        counter_shards=1 if backend == "counter-sync" else 2,
        # Tight watchdog so takeovers fire well inside the settle window.
        decision_timeout_s=1.5,
    )


def _slot_committed(cluster, count, dead):
    """Indexes of the workload transactions whose COMMIT decision reached
    a surviving node's slot (``twopc/decision_replicated`` with
    kind=commit), from the trace.  The N-th transaction with a ``prepare``
    span is the N-th driven one: all share one coordinator, which
    serializes begins."""
    prepared, committed = [], set()
    for rec in cluster.obs.records():
        if rec.get("cat") != "twopc":
            continue
        txn = rec.get("txn")
        if rec["type"] == "span" and rec.get("name") == "prepare":
            if txn and txn not in prepared:
                prepared.append(txn)
        elif (rec["type"] == "event"
              and rec.get("name") == "decision_replicated"
              and rec.get("args", {}).get("kind") == "commit"
              and int(rec["node"][4:]) != dead):
            committed.add(txn)
    return [i for i, txn in enumerate(prepared[:count]) if txn in committed]


def _takeovers(cluster, exclude=()):
    return sum(
        node.participant.takeovers
        for i, node in enumerate(cluster.nodes) if i not in exclude
    )


# -- the sweep: coordinator dies at every crash point, stays dead -------------


@pytest.mark.parametrize("seed", seed_range("NONBLOCKING_SWEEP_SEEDS", 2))
@pytest.mark.parametrize("scenario", range(len(SCENARIOS)))
def test_coordinator_death_converges(scenario, seed):
    point, protocol = SCENARIOS[scenario]
    if protocol == "paper":
        pytest.skip(
            "protocol='paper' is blocking 2PC by definition: survivors "
            "cannot converge without the coordinator"
        )
    rng = SeededRng(seed * len(SCENARIOS) + scenario, "nonblocking")
    occurrence = rng.randint(1, 3)
    # counter/promise only fires under the coverage backends; everything
    # else sweeps the sync backend (the conformance matrix covers the
    # full backend cross product).
    backend = "counter-async" if point == ("counter", "promise") \
        else "counter-sync"

    cluster = TreatyCluster(
        profile=TREATY_FULL, config=_config(seed, backend)
    ).start()
    sim = cluster.sim
    txns = spread_txns(cluster, 4, b"nb", coordinator=COORDINATOR)
    outcomes = ["pending"] * len(txns)

    # victim= pins the kill to the coordinator no matter which node
    # emitted the matched event; permanent: nobody ever recovers it.
    injector = CrashInjector(
        cluster, point, occurrence, 0, victim=COORDINATOR, permanent=True,
    ).arm()
    drive(cluster, txns, outcomes, give_up=4.0)
    # Workload window (past the 2 s prepare-vote timeout), then a settle
    # window for decision watchdogs + completer rounds on the survivors.
    sim.run(until=sim.now + 6.0)
    sim.run(until=sim.now + 6.0)

    dead = injector.crashed
    # A commit decision that reached any surviving slot must win: the
    # completer protocol prefers a genuine COMMIT record over its
    # synthetic abort proposal, so the audit holds that transaction to
    # durability as if its commit() had returned.
    expected = list(outcomes)
    if dead is not None:
        for index in _slot_committed(cluster, len(txns), dead):
            expected[index] = "committed"
    violations = audit(cluster, txns, expected, dropped=False,
                       dead=() if dead is None else {dead})
    assert not violations, violations


# -- pin: a live coordinator never provokes a takeover ------------------------


class TestNoSpuriousTakeover:
    def test_healthy_run_has_zero_takeovers(self):
        """The decision watchdog must be disarmed by the normal commit
        path: a surviving coordinator's transactions complete without a
        single completer takeover (or decision query round)."""
        cluster = TreatyCluster(
            profile=TREATY_FULL,
            config=_config(7, "counter-sync"),
        ).start()
        txns = spread_txns(cluster, 4, b"nb", coordinator=COORDINATOR)
        outcomes = ["pending"] * len(txns)
        drive(cluster, txns, outcomes, give_up=4.0)
        # Well past decision_timeout_s (1.5) plus jitter: any armed
        # watchdog that survives its transaction would fire here.
        cluster.sim.run(until=cluster.sim.now + 8.0)

        assert outcomes == ["committed"] * len(txns)
        assert _takeovers(cluster) == 0
        assert sum(
            node.runtime.metrics.counter("completer.takeover").value
            for node in cluster.nodes
        ) == 0
        takeover_events = [
            rec for rec in cluster.obs.records()
            if rec["type"] == "event"
            and (rec.get("cat"), rec.get("name"))
            == ("twopc", "completer_takeover")
        ]
        assert not takeover_events


# -- pin: a lost slot write is re-sent, not waited on forever -----------------


@pytest.mark.parametrize("lost", ["record", "reply"])
@pytest.mark.parametrize("backend", ["counter-sync", "counter-async", "lcm"])
def test_lost_decision_record_is_resent(backend, lost):
    """The adversary drops the first frame to each peer that carries a
    DECISION_RECORD (``record``), or the first frame from each peer that
    answers one (``reply``).  Both peers then stay silent to the
    coordinator's quorum wait; it re-sends to them after one retry
    interval, so ``commit()`` returns well inside a second and no
    completer takes over."""
    cluster = TreatyCluster(
        profile=TREATY_FULL,
        config=ClusterConfig(
            seed=3, tracing=True, monitor=True, rollback_backend=backend,
        ),
    ).start()
    sim = cluster.sim
    requests = lost == "record"
    hit = set()

    def first_per_peer(frame):
        if frame.meta.get("is_request") != requests:
            return False
        if not carries(frame, MsgType.DECISION_RECORD):
            return False
        peer = frame.dst if requests else frame.src
        if peer in hit:
            return False
        hit.add(peer)
        return True

    adversary = NetworkAdversary()
    adversary.drop_matching(first_per_peer)
    cluster.fabric.adversary = adversary
    pairs = [
        (keys_on(cluster, i, 1, b"lost")[0], b"lost-val")
        for i in range(cluster.num_nodes)
    ]
    took = []

    def body():
        txn = cluster.nodes[COORDINATOR].coordinator.begin()
        for key, value in pairs:
            yield from txn.put(key, value)
        start = sim.now
        yield from txn.commit()
        took.append(sim.now - start)

    sim.process(body(), name="lost-record-client")
    # Past every decision watchdog (timeout + jitter): a commit left
    # hanging would show as a takeover here.
    sim.run(until=sim.now + 5.0)

    assert adversary.dropped == cluster.num_nodes - 1
    assert took and took[0] < 1.0, took
    assert _takeovers(cluster) == 0
    for key, expected in pairs:
        assert read_owner(cluster, key) == expected
    monitor = cluster.obs.monitor
    monitor.check_quiescent(now=sim.now)
    assert monitor.green, monitor.violations


# -- completer-driven client redirect -----------------------------------------


class TestClientRedirect:
    def test_client_learns_commit_from_survivors(self):
        """A client whose coordinator dies after the decision quorum
        (ack never sent) must not report a false abort: it polls the
        survivors' applied records (``_OP_STATUS``) and returns success
        once a completer has driven the commit home."""
        cluster = TreatyCluster(
            profile=TREATY_FULL,
            config=_config(13, "counter-sync"),
        ).start()
        sim = cluster.sim
        machine = cluster.client_machine()
        session = cluster.session(machine, coordinator=COORDINATOR)
        pairs = [
            (keys_on(cluster, i, 1, b"redir")[0], b"redir-val")
            for i in range(cluster.num_nodes)
        ]

        # Kill the coordinator the instant it counts its decision
        # replication quorum: survivors hold the commit slot, but the
        # client's COMMIT reply is never sent.
        injector = CrashInjector(
            cluster, ("twopc", "decision-quorum"), 1, 0,
            victim=COORDINATOR, permanent=True,
        ).arm()
        result = {}

        def body():
            txn = session.begin()
            for key, value in pairs:
                yield from txn.put(key, value)
            try:
                yield from txn.commit()
                result["outcome"] = "committed"
            except TransactionAborted as exc:
                result["outcome"] = "aborted: %s" % exc

        sim.process(body(), name="redirect-client")
        sim.run(until=sim.now + 12.0)

        assert injector.crashed == COORDINATOR
        assert result.get("outcome") == "committed"
        assert session.redirected == 1
        assert session.committed == 1 and session.aborted == 0
        # The learned outcome is real: writes visible on every survivor.
        for key, expected in pairs:
            if cluster.partitioner(key) != COORDINATOR:
                assert read_owner(cluster, key) == expected
        monitor = cluster.obs.monitor
        monitor.check_quiescent(now=sim.now)
        assert monitor.green, monitor.violations

    def test_lost_status_reply_moves_on_to_the_next_survivor(self):
        """As above, but the first survivor's answer to the first
        ``_OP_STATUS`` poll made after it applied the commit is dropped.
        That poll fails at its ``RESOLUTION_RETRY_INTERVAL`` deadline
        and the client asks the next survivor, which answers COMMITTED:
        the client returns success instead of waiting forever."""
        cluster = TreatyCluster(
            profile=TREATY_FULL,
            config=_config(13, "counter-sync"),
        ).start()
        sim = cluster.sim
        machine = cluster.client_machine()
        session = cluster.session(machine, coordinator=COORDINATOR)
        pairs = [
            (keys_on(cluster, i, 1, b"redir")[0], b"redir-val")
            for i in range(cluster.num_nodes)
        ]
        injector = CrashInjector(
            cluster, ("twopc", "decision-quorum"), 1, 0,
            victim=COORDINATOR, permanent=True,
        ).arm()
        survivors = [
            node for i, node in enumerate(cluster.nodes) if i != COORDINATOR
        ]
        first = survivors[0]
        polled, dropped = [], []

        def status_reply(frame):
            # After the crash, the only traffic to the client is status
            # polls and their answers.
            if injector.crashed is None or frame.dst != machine.name:
                return False
            polled.append(frame.src)
            if dropped or frame.src != first.front_address:
                return False
            if not first.participant.applied:
                return False
            dropped.append(frame)
            return True

        adversary = NetworkAdversary()
        adversary.drop_matching(status_reply)
        cluster.fabric.adversary = adversary
        result = {}

        def body():
            txn = session.begin()
            for key, value in pairs:
                yield from txn.put(key, value)
            try:
                yield from txn.commit()
                result["outcome"] = "committed"
            except TransactionAborted as exc:
                result["outcome"] = "aborted: %s" % exc

        sim.process(body(), name="redirect-client-lost-status")
        sim.run(until=sim.now + 12.0)

        assert injector.crashed == COORDINATOR
        assert adversary.dropped == 1
        assert result.get("outcome") == "committed"
        assert session.redirected == 1
        # The answer that counted came from the next survivor.
        assert polled[-1] == survivors[1].front_address
        assert machine.rpc.endpoint._pending == {}
        monitor = cluster.obs.monitor
        monitor.check_quiescent(now=sim.now)
        assert monitor.green, monitor.violations

    def test_unknown_outcome_still_aborts(self):
        """If the coordinator dies before any decision exists, the poll
        drains UNKNOWN until its deadline and the client sees the abort
        (presumed abort: the completers roll the transaction back)."""
        cluster = TreatyCluster(
            profile=TREATY_FULL,
            config=_config(17, "counter-sync"),
        ).start()
        sim = cluster.sim
        machine = cluster.client_machine()
        session = cluster.session(machine, coordinator=COORDINATOR)
        pairs = [
            (keys_on(cluster, i, 1, b"redab")[0], b"redab-val")
            for i in range(cluster.num_nodes)
        ]

        # Crash on the first prepare targeting: no decision was ever
        # formed, so no survivor can report COMMITTED.
        injector = CrashInjector(
            cluster, ("twopc", "prepare_target"), 1, 0,
            victim=COORDINATOR, permanent=True,
        ).arm()
        result = {}

        def body():
            txn = session.begin()
            try:
                for key, value in pairs:
                    yield from txn.put(key, value)
                yield from txn.commit()
                result["outcome"] = "committed"
            except TransactionAborted:
                result["outcome"] = "aborted"

        sim.process(body(), name="redirect-client-abort")
        sim.run(until=sim.now + 16.0)

        assert injector.crashed == COORDINATOR
        assert result.get("outcome") == "aborted"
        assert session.redirected == 0
        # No partial write survives anywhere.
        for key, _expected in pairs:
            if cluster.partitioner(key) != COORDINATOR:
                assert read_owner(cluster, key) is None


    def test_server_abort_quoting_the_phrase_is_not_a_dead_coordinator(
        self, monkeypatch
    ):
        """Only a lost coordinator (``CoordinatorUnreachable``, raised on
        the client's own NetworkError) starts the survivor poll: a FAIL
        the live coordinator sent is an answer, whatever its text says."""
        cluster = TreatyCluster(
            profile=TREATY_FULL, config=_config(19, "counter-sync"),
        ).start()
        session = cluster.session(
            cluster.client_machine(), coordinator=COORDINATOR
        )
        polls = []

        def server_commit(self):
            yield from self.rollback()
            raise TransactionAborted("peer said: coordinator unreachable")

        def learn_outcome(self):
            polls.append(self.gid)
            return 0
            yield

        monkeypatch.setattr(GlobalTxn, "commit", server_commit)
        monkeypatch.setattr(ClientTxn, "_learn_outcome", learn_outcome)

        def body():
            txn = session.begin()
            for node in range(cluster.num_nodes):
                key = keys_on(cluster, node, 1, b"phrase")[0]
                yield from txn.put(key, b"v")
            assert txn.gid and session.routes  # the poll's preconditions
            with pytest.raises(TransactionAborted, match="unreachable"):
                yield from txn.commit()

        cluster.run(body())
        assert polls == []
        assert (session.committed, session.aborted) == (0, 1)
        assert session.redirected == 0


# -- pin: same-instant completer race is exactly-once -------------------------


class TestCompleterRace:
    def test_simultaneous_takeovers_apply_once(self):
        """Both survivors time out in the same instant and race to
        complete the same in-doubt transaction.  Both count a takeover,
        but the apply/release effects happen exactly once per shard —
        the participant's active-entry pop is the exactly-once guard,
        and duplicate TXN_COMMIT drives are absorbed as ACKs."""
        cluster = TreatyCluster(
            profile=TREATY_FULL,
            # Long watchdog: the race below fires manually, before any
            # organic timeout could interleave a third completer.
            config=ClusterConfig(
                seed=11, tracing=True, monitor=True,
                decision_timeout_s=30.0,
            ),
        ).start()
        sim = cluster.sim
        txns = spread_txns(cluster, 1, b"nb", coordinator=COORDINATOR)
        outcomes = ["pending"]

        # Kill the coordinator right after it counts its first decision
        # replication ack: both survivors hold the commit slot, nobody
        # ever received TXN_COMMIT.
        injector = CrashInjector(
            cluster, ("twopc", "decision-quorum"), 1, 0,
            victim=COORDINATOR, permanent=True,
        ).arm()
        drive(cluster, txns, outcomes, give_up=4.0)
        sim.run(until=sim.now + 4.0)
        assert injector.crashed == COORDINATOR

        survivors = [
            i for i in range(cluster.num_nodes) if i != COORDINATOR
        ]
        in_doubt = set.intersection(*(
            set(cluster.nodes[i].participant.active) for i in survivors
        ))
        assert in_doubt, "no shared in-doubt transaction to race on"
        gid_bytes = sorted(in_doubt)[0]

        # The race: both completers enter at the same sim instant.
        for i in survivors:
            sim.process(
                cluster.nodes[i].participant.complete(gid_bytes),
                name="race-completer-%d" % i,
            )
        sim.run(until=sim.now + 4.0)

        assert _takeovers(cluster, exclude=(COORDINATOR,)) == 2
        # Exactly one application of the commit per surviving shard.
        applies = {}
        for rec in cluster.obs.records():
            if rec["type"] != "event" or rec.get("cat") != "twopc":
                continue
            if rec.get("name") not in ("commit_apply", "abort_apply"):
                continue
            if rec.get("txn") != gid_bytes.hex():
                continue
            applies.setdefault(rec["node"], []).append(rec["name"])
        for i in survivors:
            assert applies.get("node%d" % i) == ["commit_apply"], (
                "node%d applies: %s" % (i, applies.get("node%d" % i))
            )

        # Both halves visible, locks free, monitor green.
        violations = audit(cluster, txns, ["committed"], dropped=False,
                           dead={COORDINATOR})
        assert not violations, violations
