"""The per-node durability pipeline (group commit + stabilization + counters).

:class:`DurabilityPipeline` is the node's *one* durability handle: the
storage engine, the transaction manager and both 2PC roles make a log
entry rollback-protected through it and through nothing else.  It owns
the :class:`~repro.txn.group_commit.GroupCommitter`, the configured
rollback-protection backend's scheduler and the
:class:`~repro.core.stabilization.FreshnessWitness`, holds the profile
gate (a pipeline without stabilization is a no-op that advances no
simulated time) and the wait histogram, and schedules the layers as
one pipeline, so a layer never hands the next one request per
transaction:

1. the counter protocol is *vectored* — one echo-broadcast round carries
   ``(log, value)`` targets for every pending log, so WAL batches and
   2PC decision entries stabilize together;
2. the group-commit leader stabilizes its batch with a *single* request
   covering the batch's highest WAL counter; followers share one wait
   (one event) instead of N gate waits;
3. the group-commit window is adaptive: the leader waits a bounded
   multiple of the observed submit arrival gap before draining
   (``group_commit_window``).

The invariants: a transaction is acknowledged only after
its WAL entry's counter is stable, 2PC decision entries are stabilized
before participants act, and the monitor's I1–I4 checks learn
stability exclusively from counter-advance events.

The pipeline composes with the transport's doorbell batching
(``docs/NETWORK.md``): each vectored echo round is a same-instant
fan-out of UPDATE/CONFIRM messages to every counter peer, issued via
:meth:`SecureRpc.broadcast`, so the eRPC layer coalesces a round's
messages per destination into one sealed frame.  Group commit amortizes
*rounds per transaction*; transport batching amortizes *frames and seal
operations per round* — the two multiply.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, Sequence, Tuple

from ..config import ClusterConfig
from ..sim.core import Event
from ..tee.runtime import NodeRuntime
from ..txn.group_commit import GroupCommitter
from .rollback import PromiseScheduler
from .stabilization import FreshnessWitness
from .trusted_counter import CounterClient

__all__ = ["DurabilityPipeline"]

Gen = Generator[Event, Any, Any]


class DurabilityPipeline:
    """One node's unified durability scheduler.

    Construction order mirrors the dependency chain: the pipeline puts
    the backend's round scheduler over an existing
    :class:`CounterClient`, and :meth:`attach_engine` later binds the
    node's storage engine with a pipeline-aware :class:`GroupCommitter`.
    A pipeline built without a counter client (lower-layer unit tests)
    or under a profile without stabilization is *disabled*: every
    stabilization entry point returns at once.
    """

    def __init__(
        self,
        runtime: NodeRuntime,
        counter_client: Optional[CounterClient],
        config: ClusterConfig,
    ):
        self.runtime = runtime
        self.counter_client = counter_client
        self.config = config
        self.tracer = runtime.tracer
        #: what every stabilization request routes through: the counter
        #: client itself when its waiters start rounds on demand, the
        #: coverage-promise scheduler over it when the backend's
        #: :class:`~repro.core.trusted_counter.RoundShape` says so.
        self.rollback = counter_client
        if counter_client is not None and counter_client.shape.promises:
            self.rollback = PromiseScheduler(runtime, counter_client)
        #: whether stabilization actually runs under this profile.
        self.enabled = (
            runtime.profile.stabilization and self.rollback is not None
        )
        #: stable-sequence frontier for coordinator-free snapshot reads
        #: — fed by the group committer's WAL
        #: watermarks, queried by read-only transaction commits.
        self.witness = FreshnessWitness(runtime, self)
        self.committer: Optional[GroupCommitter] = None

    def attach_engine(self, engine) -> GroupCommitter:
        """Build the engine's group committer, bound to this pipeline."""
        self.committer = GroupCommitter(
            self.runtime,
            engine,
            self,
            max_group=self.config.group_commit_max,
            window=self.config.group_commit_window,
        )
        return self.committer

    # -- stabilization entry points ------------------------------------------
    def _wait(self, log: str, counter: int, protect: Gen) -> Gen:
        """Run one backend wait under its span and the wait histogram."""
        start = self.runtime.now
        span = self.tracer.span(
            "stabilize", "wait", node=self.runtime.name or None,
            log=log, counter=counter,
        )
        try:
            yield from protect
        finally:
            # A NetworkError out of a detached NIC (zombie fiber after a
            # crash) must not leak the span.
            span.close()
        self.runtime.metrics.histogram("stabilize.wait_s").observe(
            self.runtime.now - start
        )

    def stabilize(self, log_name: str, counter: int) -> Gen:
        """Block until the entry is stable (Figure 2, steps 5–8)."""
        if not self.enabled or counter <= 0:
            return
        yield from self._wait(
            log_name, counter, self.rollback.stabilize(log_name, counter)
        )

    def stabilize_many(self, targets: Sequence[Tuple[str, int]]) -> Gen:
        """Block until every ``(log, counter)`` target is stable.

        The targets are registered together, so the counter service's
        round driver covers them with a single echo-broadcast execution;
        the caller pays one wait for the whole set.
        """
        if not self.enabled:
            return
        targets = [(log, counter) for log, counter in targets if counter > 0]
        if not targets:
            return
        yield from self._wait(
            ",".join(log for log, _ in targets),
            max(counter for _, counter in targets),
            self.rollback.stabilize_many(targets),
        )

    def stabilize_group(
        self,
        targets: Sequence[Tuple[str, int]],
        txn: Optional[str] = None,
        phase: str = "decision",
    ) -> Gen:
        """Stabilize a *group-wide* target set in one request.

        The cross-node half of the pipeline: a coordinator calls this
        with the prepare targets its participants piggybacked on their
        PREPARE-ACKs plus its own Clog decision target, so one vectored
        echo-broadcast round covers the whole distributed transaction.
        Log names are globally unique, so any node's counter client can
        stabilize any node's log; the targets merge with whatever local
        group-commit batch is already pending a round.

        ``phase`` labels round provenance in traces ("decision" for the
        pre-COMMIT round, "complete" for the background apply/COMPLETE
        round).
        """
        if not self.enabled:
            return
        targets = [(log, counter) for log, counter in targets if counter > 0]
        if not targets:
            return
        self.tracer.event(
            "stabilize", "group_begin", node=self.runtime.name or None,
            txn=txn, phase=phase, targets=len(targets),
            logs=sorted(log for log, _ in targets),
        )
        span = self.tracer.span(
            "stabilize", "group_round", node=self.runtime.name or None,
            txn=txn, phase=phase, targets=len(targets),
        )
        try:
            yield from self.stabilize_many(targets)
        finally:
            span.close()
        metrics = self.runtime.metrics
        metrics.counter("stabilize.group_rounds").inc()
        metrics.histogram(
            "stabilize.group_size", edges=(1, 2, 4, 8, 16, 32)
        ).observe(len(targets))

    def background(self, log_name: str, counter: int) -> None:
        """Fire-and-forget stabilization (commit records, GC edits)."""
        if not self.enabled or counter <= 0:
            return
        self.runtime.sim.spawn(
            self.stabilize(log_name, counter),
            name="stabilize-bg/%s" % log_name,
        )
