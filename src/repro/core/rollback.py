"""Coverage promises: the scheduler that decides when counter rounds run.

Treaty's stabilization contract is narrower than "every transaction runs
its own counter round": an entry must be *covered* by a stable counter
value before the client is acknowledged (acked ⇒ covered ⇒ stable before
externalized).  What a backend *is* — where waiters release, what becomes
of the CONFIRM leg, who schedules rounds — is one
:class:`~repro.core.trusted_counter.RoundShape` row per
``ClusterConfig.rollback_backend`` value in
:data:`~repro.core.trusted_counter.BACKENDS`; the round itself is
:meth:`CounterClient.run_round`.  This module holds the one piece of a
backend that is *not* round shape, and nothing else: the
:class:`PromiseScheduler` that decides *when* rounds run under the
promise-scheduled rows (``counter-async`` and ``lcm``).  The node's
:class:`~repro.core.pipeline.DurabilityPipeline` routes every
stabilization request through it there, and straight to the
:class:`CounterClient` — whose waiters start rounds on demand — under
``counter-sync``; both answer ``stabilize`` / ``stabilize_many`` /
``stable_value``.

*Coverage promises*: per-shard background driver fibers run batched
group rounds on their own cadence.  A transaction's ``stabilize_many``
registers its targets and resolves as soon as they are ≤ the shard's
stable frontier as advanced by an outstanding round — it never starts a
round of its own.  Each successful round renews a per-shard *lease*; a
promise that outlives the lease (driver dead, shard partitioned) falls
back to exactly one synchronous round driven by the waiter itself.

Safety: every backend advances the same per-log
:class:`~repro.sim.sync.Gate` frontiers and fires the same
``stabilize/advance`` trace events, which are the *only* stability
source for the I1–I5 monitor and the model checker — so the coverage
backends are checked end-to-end by the existing machinery.  The
``ack-before-covered`` mc mutation (``repro mc explore --mutate
ack-before-covered``) demonstrates the monitor catches a backend that
acks without coverage.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Sequence

from ..errors import FreshnessError, NetworkError
from ..sim.core import Event
from ..sim.sync import Semaphore
from ..tee.runtime import NodeRuntime
from .trusted_counter import (
    COUNTER_RETRY_BACKOFF,
    CounterClient,
    Target,
)

__all__ = ["PromiseScheduler"]

Gen = Generator[Event, Any, Any]

#: concurrent echo rounds in flight per shard (driver pipelining); 1
#: would serialize rounds like the on-demand driver.
COUNTER_MAX_INFLIGHT = 4
#: coverage-promise lease: a successful echo quorum renews the shard's
#: lease; a waiter whose promise outlives it runs one synchronous round
#: itself.
COUNTER_LEASE_S = 0.02


class PromiseScheduler:
    """Coverage promises: background per-shard drivers, lease-gated waits.

    Per shard, the scheduler keeps a persistent driver fiber woken by a
    :class:`Semaphore` (no polling — the sim stays quiescent when idle).
    The driver snapshots unclaimed pending targets, claims them, and
    spawns up to :data:`COUNTER_MAX_INFLIGHT` concurrent protocol rounds —
    pipelining removes the "wait for the previous round to finish"
    pickup latency that serializes the on-demand driver.  Rounds renew
    the shard lease on success.

    A waiter whose promise outlives ``max(lease_until, entry + lease)``
    runs :meth:`CounterClient.drive_until_stable` itself — exactly one
    synchronous fallback per expired promise — so a partitioned or dead
    driver degrades to on-demand rounds instead of hanging.
    """

    def __init__(self, runtime: NodeRuntime, client: CounterClient):
        self.runtime = runtime
        self.client = client
        self.tracer = runtime.tracer
        self.lease_s = COUNTER_LEASE_S
        shards = client.num_shards
        #: test hook: park the drivers to force the lease-expiry path.
        self.drivers_enabled = True
        self._dead = False
        self._wake = [Semaphore(runtime.sim) for _ in range(shards)]
        self._round_done = [Semaphore(runtime.sim) for _ in range(shards)]
        self._claimed: List[Dict[str, int]] = [{} for _ in range(shards)]
        self._inflight = [0] * shards
        #: per-shard lease expiry (sim time); renewed by each successful
        #: round.  Together with the client's boot ``epoch`` this stamps
        #: the shard's stable frontier: (epoch, lease_until, gates).
        self.lease_until = [0.0] * shards
        self.promises = 0
        self.covered = 0
        self.sync_fallbacks = 0
        metrics = runtime.metrics
        self._covered_metric = metrics.counter("counter.covered")
        self._lease_renewals = metrics.counter("counter.lease.renewals")
        self._lease_expiries = metrics.counter("counter.lease.expired")
        metrics.probe("counter.sync_fallbacks", lambda: self.sync_fallbacks)
        for shard in range(shards):
            runtime.sim.spawn(
                self._drive(shard), name="rollback-driver/%d" % shard
            )

    # -- the waiter side ----------------------------------------------------
    def stable_value(self, log_name: str) -> int:
        return self.client.stable_value(log_name)

    def stabilize(self, log_name: str, value: int) -> Gen:
        """Block until ``log_name``'s counter is stable at >= ``value``."""
        yield from self.stabilize_many([(log_name, value)])

    def stabilize_many(self, targets: Sequence[Target]) -> Gen:
        """Block until every ``(log, value)`` target is covered."""
        client = self.client
        needed = client.unstable(targets)
        if not needed:
            return
        by_shard: Dict[int, List[Target]] = {}
        for log_name, value in needed:
            shard = client.register(log_name, value)
            by_shard.setdefault(shard, []).append((log_name, value))
        self.promises += 1
        if self.tracer.enabled:
            self.tracer.event(
                "counter", "promise", node=client.replica.node_name,
                epoch=client.epoch, shards=sorted(by_shard),
                targets=len(needed),
                logs=sorted(log for log, _ in needed),
            )
        for shard in by_shard:
            self._wake[shard].release()
        # Rounds for every shard are in flight now; awaiting them in
        # shard order only affects when we *notice* coverage.
        for shard in sorted(by_shard):
            yield from self._await_coverage(shard, by_shard[shard])
        self.covered += len(needed)
        self._covered_metric.inc(len(needed))

    def _await_coverage(self, shard: int, targets: List[Target]) -> Gen:
        sim = self.runtime.sim
        client = self.client
        # A fresh promise gets a full lease of grace even if the shard
        # has never run a round (lease_until still 0 at boot).
        grace = sim.now + self.lease_s
        while True:
            waits = client.waits(targets)
            if not waits:
                return
            deadline = max(self.lease_until[shard], grace)
            if sim.now >= deadline:
                # The promise outlived the lease: the driver is dead,
                # parked, or the shard quorum is unreachable.  Run
                # exactly one synchronous fallback ourselves.
                self._lease_expiries.inc()
                self.sync_fallbacks += 1
                if self.tracer.enabled:
                    self.tracer.event(
                        "counter", "lease", node=client.replica.node_name,
                        epoch=client.epoch, shard=shard, state="expired",
                        targets=len(targets),
                    )
                yield from client.drive_until_stable(shard, targets)
                return
            yield sim.all_settled(waits, timeout=deadline - sim.now)

    # -- the driver side ----------------------------------------------------
    def _fresh_targets(self, shard: int) -> List[Target]:
        claimed = self._claimed[shard]
        return [
            (log_name, value)
            for log_name, value in self.client.pending_snapshot(shard)
            if value > claimed.get(log_name, 0)
        ]

    def _drive(self, shard: int) -> Gen:
        """Persistent driver fiber: claim fresh targets, pipeline rounds."""
        sim = self.runtime.sim
        while not self._dead:
            if not self.drivers_enabled:
                yield self._wake[shard].acquire()
                continue
            fresh = self._fresh_targets(shard)
            if not fresh:
                yield self._wake[shard].acquire()
                continue
            if self._inflight[shard] >= COUNTER_MAX_INFLIGHT:
                yield self._round_done[shard].acquire()
                continue
            claimed = self._claimed[shard]
            for log_name, value in fresh:
                claimed[log_name] = max(claimed.get(log_name, 0), value)
            self._inflight[shard] += 1
            sim.spawn(
                self._round(shard, fresh), name="rollback-round/%d" % shard
            )

    def _round(self, shard: int, targets: List[Target]) -> Gen:
        failed = False
        try:
            yield from self.client.run_round(targets, shard)
        except FreshnessError:
            # Quorum unreachable this round.  Back off before releasing
            # the claim so redrives pace at the retry cadence; do NOT
            # wake the driver — retries are pulled by new registrations
            # or by a waiter's lease-expiry fallback, which bounds a
            # partitioned shard's retry traffic.
            failed = True
            yield self.runtime.sim.sleep(COUNTER_RETRY_BACKOFF)
        except NetworkError:
            # NIC detached: this node crashed and we are a zombie.  Stop
            # driving — the recovered incarnation builds its own
            # scheduler.
            failed = True
            self._dead = True
        finally:
            self._inflight[shard] -= 1
            claimed = self._claimed[shard]
            for log_name, value in targets:
                if claimed.get(log_name, 0) <= value:
                    claimed.pop(log_name, None)
            self._round_done[shard].release()
            if not failed:
                # Renew the lease; pending may have been raised past our
                # claim meanwhile.
                self.lease_until[shard] = self.runtime.sim.now + self.lease_s
                self._lease_renewals.inc()
                self._wake[shard].release()
