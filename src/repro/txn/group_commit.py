"""Leader-based group commit (§VII-B).

"We allow group commits for Txs to flush bigger data blocks to the
persistent storage and optimize the SSD throughput.  Each group elects a
leader that merges their and all followers' Txs buffers into a larger
buffer.  The leader then writes this buffer into WAL and MemTable."

A commit request enters the queue; whichever fiber finds no active
leader becomes the leader, waits out the commit window (adaptive by
default: a bounded multiple of the observed submit arrival gap, so a
burst is collected without penalizing an idle node), drains up to
``max_group`` requests (its own included), performs optional OCC
validation, assigns sequence numbers, writes one batched WAL record set,
applies everything to the MemTable and wakes each follower with its
outcome.  Validation + sequence assignment + MemTable application happen
inside the leader's critical section, which is what makes OCC validation
atomic.

The committer is built by (and bound to) the node's
:class:`~repro.core.pipeline.DurabilityPipeline`: under stabilization the
leader also submits the batch's stabilization as *one* request — every
member that asked to wait for rollback protection shares a single event
driven by one counter wait on the batch's highest WAL counter, instead
of N per-transaction gate waits racing the round driver.  The shared
wait runs in a background fiber so the leader can drain the next batch
while the ~2 ms counter round is in flight.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional, Tuple

from ..errors import ConflictError, TransactionAborted
from ..sim.core import Event
from ..storage.engine import LSMEngine
from ..tee.runtime import NodeRuntime

__all__ = ["CommitRequest", "GroupCommitter", "GROUP_COMMIT_WINDOW_CAP"]

Gen = Generator[Event, Any, Any]

# Validation callback: runs inside the leader's critical section, raises
# ConflictError to veto the commit.  It is a generator (it may read the
# engine to compare versions).
Validator = Callable[[], Generator[Event, Any, None]]

#: upper bound on the adaptive group-commit window.
GROUP_COMMIT_WINDOW_CAP = 4.0e-4
#: smoothing factor for the submit inter-arrival EWMA.
_GAP_ALPHA = 0.2
#: the adaptive window waits this multiple of the mean arrival gap.
_GAP_MULTIPLE = 4.0
#: smoothing factor for the observed batch-stabilization-wait EWMA.
_STAB_ALPHA = 0.2
#: the adaptive window is also floored at this fraction of the observed
#: stabilization wait: when rollback protection costs ~2 ms anyway,
#: holding the batch open a little longer is nearly free and each extra
#: member amortizes one more counter round (ROADMAP: feed observed
#: ``stabilize.wait_s`` into the EWMA, not just arrival gaps).
_STAB_FRACTION = 0.1

#: bucket edges for the ``group_commit.batch_size`` histogram.
_BATCH_BUCKETS = (1, 2, 4, 8, 16, 32, 64)


class CommitRequest:
    """One transaction's commit submission."""

    __slots__ = ("txn_id", "writes", "validator", "outcome", "wait_stable")

    def __init__(
        self,
        txn_id: bytes,
        writes: List[Tuple[bytes, Optional[bytes]]],
        validator: Optional[Validator],
        outcome: Event,
        wait_stable: bool = False,
    ):
        self.txn_id = txn_id
        self.writes = writes
        self.validator = validator
        self.outcome = outcome
        self.wait_stable = wait_stable


class GroupCommitter:
    """Batches commit requests into single WAL writes."""

    def __init__(
        self,
        runtime: NodeRuntime,
        engine: LSMEngine,
        pipeline,
        max_group: int = 16,
        window: Optional[float] = 0.0,
    ):
        self.runtime = runtime
        self.engine = engine
        #: the owning DurabilityPipeline.
        self.pipeline = pipeline
        self.max_group = max_group
        #: ``None`` = adaptive; ``0.0`` = immediate drain; >0 fixed wait.
        self.window = window
        self._queue: List[CommitRequest] = []
        self._leader_active = False
        self._last_submit: Optional[float] = None
        self._gap_ewma: Optional[float] = None
        self._stab_ewma: Optional[float] = None
        self.groups_formed = 0
        self.committed = 0
        self._batch_hist = runtime.metrics.histogram(
            "group_commit.batch_size", edges=_BATCH_BUCKETS
        )
        #: batch occupancy = admitted / max_group, one observation per
        #: batch: how full groups run under the current window policy.
        self._occupancy_hist = runtime.metrics.histogram(
            "group_commit.occupancy",
            edges=(0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0),
        )
        runtime.metrics.probe(
            "group_commit.queue_depth", lambda: len(self._queue)
        )

    # -- window -------------------------------------------------------------
    def _observe_arrival(self) -> None:
        now = self.runtime.now
        if self._last_submit is not None:
            gap = now - self._last_submit
            if self._gap_ewma is None:
                self._gap_ewma = gap
            else:
                self._gap_ewma += _GAP_ALPHA * (gap - self._gap_ewma)
        self._last_submit = now

    def window_delay(self) -> float:
        """How long the new leader should wait for followers to join."""
        if len(self._queue) >= self.max_group:
            return 0.0
        if self.window is not None:
            return self.window
        if self._gap_ewma is None:
            # No arrival history yet: drain immediately (idle node).
            return 0.0
        delay = self._gap_ewma * _GAP_MULTIPLE
        if self._stab_ewma is not None:
            delay = max(delay, self._stab_ewma * _STAB_FRACTION)
        return min(GROUP_COMMIT_WINDOW_CAP, delay)

    # -- submission ---------------------------------------------------------
    def submit(
        self,
        txn_id: bytes,
        writes: List[Tuple[bytes, Optional[bytes]]],
        validator: Optional[Validator] = None,
        wait_stable: bool = False,
    ) -> Gen:
        """Commit ``writes`` durably.

        Returns ``(counter, log_name, stable_event)``: the WAL counter
        value, the WAL's log name, and — iff ``wait_stable`` was set and
        the pipeline runs stabilization — the batch's shared
        stabilization event (``None`` otherwise: there is nothing to
        wait for).  The outcome fires as
        soon as the batch's WAL write is durable, so callers can release
        locks *before* waiting out rollback protection (§VIII-C).

        Raises :class:`ConflictError` if the validator vetoes.
        """
        self._observe_arrival()
        # Covers queue wait + window + WAL write up to the outcome — the
        # "group-commit wait" slice of the critical-path breakdown.
        span = self.runtime.tracer.span(
            "storage", "group_commit", node=self.runtime.name or None,
        )
        try:
            outcome = self.runtime.sim.event()
            self._queue.append(
                CommitRequest(txn_id, writes, validator, outcome, wait_stable)
            )
            if not self._leader_active:
                self._leader_active = True
                # This fiber becomes the leader and drives the batch;
                # "defer logging (yield) at commit" lets more requests join.
                yield self.runtime.sim.sleep(self.window_delay())
                yield from self._lead()
            result = yield outcome
        except BaseException as exc:
            span.close(error=type(exc).__name__)
            raise
        span.close()
        return result

    def _lead(self) -> Gen:
        try:
            while self._queue:
                batch = self._queue[: self.max_group]
                del self._queue[: len(batch)]
                yield from self._process(batch)
                self.groups_formed += 1
        finally:
            self._leader_active = False

    def _process(self, batch: List[CommitRequest]) -> Gen:
        # Validate -> sequence -> apply, one request at a time, so each
        # validation observes the writes of earlier batch members (an
        # OCC transaction must conflict with a same-batch writer too).
        admitted: List[CommitRequest] = []
        records = []
        for request in batch:
            if request.validator is not None:
                try:
                    yield from request.validator()
                except TransactionAborted as conflict:
                    if not request.outcome.triggered:
                        request.outcome.fail(conflict)
                        # The submitter may not be waiting yet (the
                        # leader's own request fails before it yields);
                        # it picks the failure up at its `yield`.
                        request.outcome.defuse()
                    continue
            writes = [
                (key, value, self.engine.next_seq())
                for key, value in request.writes
            ]
            yield from self.engine.apply_writes(writes)
            admitted.append(request)
            records.append((request.txn_id, writes))
        if not admitted:
            return
        # One batched WAL write for the whole group; durability order
        # equals apply order because WAL appends are sequential, so a
        # crash can never persist a later batch without this one.
        counters = yield from self.engine.log_commits(records)
        log_name = self.engine.wal_log_name
        self._batch_hist.observe(len(admitted))
        self._occupancy_hist.observe(len(admitted) / self.max_group)
        # Seqs were assigned in batch order before the WAL counters,
        # and batches are serialized by the leader critical section,
        # so this watermark is monotone in both coordinates — the
        # freshness witness for coordinator-free snapshot reads.
        seqs = [seq for _, writes in records for _, _, seq in writes]
        if seqs:
            self.pipeline.witness.record(
                log_name, max(counters), max(seqs)
            )
        stable_event = None
        if self.pipeline.enabled:
            top = max(
                (counter for request, counter in zip(admitted, counters)
                 if request.wait_stable),
                default=0,
            )
            if top > 0:
                stable_event = self.runtime.sim.event()
                self._spawn_batch_stabilize(log_name, top, stable_event)
        for request, counter in zip(admitted, counters):
            self.committed += 1
            if not request.outcome.triggered:
                request.outcome.succeed((
                    counter,
                    log_name,
                    stable_event if request.wait_stable else None,
                ))

    def _spawn_batch_stabilize(
        self, log_name: str, counter: int, stable_event: Event
    ) -> None:
        """One stabilization request for the whole batch, off the
        leader's critical path (the next batch must not queue behind the
        ~2 ms counter round)."""

        def run() -> Gen:
            start = self.runtime.now
            try:
                yield from self.pipeline.stabilize(log_name, counter)
            except BaseException as exc:  # noqa: BLE001 - modelled fault
                stable_event.fail(exc)
                stable_event.defuse()
                return
            wait = self.runtime.now - start
            if self._stab_ewma is None:
                self._stab_ewma = wait
            else:
                self._stab_ewma += _STAB_ALPHA * (wait - self._stab_ewma)
            stable_event.succeed(True)

        self.runtime.sim.spawn(
            run(), name="gc-stabilize/%s" % log_name
        )
