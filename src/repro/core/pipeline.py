"""The per-node durability pipeline (group commit + stabilization + counters).

:class:`DurabilityPipeline` owns the
:class:`~repro.txn.group_commit.GroupCommitter`, the
:class:`~repro.core.stabilization.Stabilizer` and the
:class:`~repro.core.trusted_counter.CounterClient` and schedules them as
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
from .rollback import RollbackProtection, make_backend
from .stabilization import FreshnessWitness, Stabilizer
from .trusted_counter import CounterClient

__all__ = ["DurabilityPipeline"]

Gen = Generator[Event, Any, Any]


class DurabilityPipeline:
    """One node's unified durability scheduler.

    Construction order mirrors the dependency chain: the pipeline wraps
    an existing :class:`CounterClient` with a :class:`Stabilizer`, and
    :meth:`attach_engine` later binds the node's storage engine with a
    pipeline-aware :class:`GroupCommitter`.
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
        #: the rollback-protection backend (sync round / coverage
        #: promises / LCM echo) every stabilization request routes
        #: through — see :mod:`repro.core.rollback`.
        self.rollback: Optional[RollbackProtection] = make_backend(
            runtime, counter_client, config
        )
        self.stabilizer = Stabilizer(
            runtime, counter_client, backend=self.rollback
        )
        #: stable-sequence frontier for coordinator-free snapshot reads
        #: — fed by the group committer's WAL
        #: watermarks, queried by read-only transaction commits.
        self.witness = FreshnessWitness(runtime, self.stabilizer)
        self.committer: Optional[GroupCommitter] = None

    @property
    def enabled(self) -> bool:
        """Whether stabilization actually runs under this profile."""
        return self.stabilizer.enabled

    def attach_engine(self, engine) -> GroupCommitter:
        """Build the engine's group committer, bound to this pipeline."""
        self.committer = GroupCommitter(
            self.runtime,
            engine,
            max_group=self.config.group_commit_max,
            window=self.config.group_commit_window,
            window_cap=self.config.group_commit_window_cap,
            pipeline=self,
        )
        return self.committer

    # -- stabilization entry points ------------------------------------------
    def stabilize(self, log_name: str, counter: int) -> Gen:
        """Wait until ``(log, counter)`` is rollback-protected."""
        yield from self.stabilizer(log_name, counter)

    def stabilize_many(self, targets: Sequence[Tuple[str, int]]) -> Gen:
        """Wait until every target is rollback-protected (one request)."""
        yield from self.stabilizer.many(targets)

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
        self.runtime.tracer.event(
            "stabilize", "group_begin", node=self.runtime.name or None,
            txn=txn, phase=phase, targets=len(targets),
            logs=sorted(log for log, _ in targets),
        )
        span = self.runtime.tracer.span(
            "stabilize", "group_round", node=self.runtime.name or None,
            txn=txn, phase=phase, targets=len(targets),
        )
        try:
            yield from self.stabilizer.many(targets)
        finally:
            span.close()
        metrics = self.runtime.metrics
        metrics.counter("stabilize.group_rounds").inc()
        metrics.histogram(
            "stabilize.group_size", edges=(1, 2, 4, 8, 16, 32)
        ).observe(len(targets))

    def decision_round(
        self,
        targets: Sequence[Tuple[str, int]],
        txn: Optional[str] = None,
        phase: str = "decision",
        enqueue=None,
    ) -> Gen:
        """One group round that doubles as decision replication.

        ``enqueue`` (if given) is called synchronously *before* the
        counter round's first frames are enqueued, so the transport's
        doorbell window coalesces the DECISION_RECORD broadcast and the
        round's COUNTER frames to each peer into the same sealed frames
        — replicating the decision adds no frames on an idle window.
        Returns whatever ``enqueue`` returned (the broadcast events);
        the stabilization itself still covers ``targets`` exactly as
        :meth:`stabilize_group` would.
        """
        events = enqueue() if enqueue is not None else None
        yield from self.stabilize_group(targets, txn=txn, phase=phase)
        return events

    def background(self, log_name: str, counter: int) -> None:
        """Fire-and-forget stabilization (commit records, GC edits)."""
        self.stabilizer.background(log_name, counter)

    def mean_wait(self) -> float:
        return self.stabilizer.mean_wait()
