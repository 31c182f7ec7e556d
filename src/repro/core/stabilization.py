"""Stabilization protocol glue (§VI).

The stabilization protocol has three legs — collective attestation
(:mod:`repro.core.cas`), crash-consistent logs
(:mod:`repro.storage.log`), and distributed rollback protection
(:mod:`repro.core.trusted_counter`).  This module provides the
:class:`Stabilizer` callable those layers share: it is what the engine,
transaction manager and 2PC roles invoke to make a log entry
rollback-protected, and it centralizes the profile gate and statistics.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, Optional, Sequence, Tuple

from ..sim.core import Event
from ..tee.runtime import NodeRuntime
from .rollback import RollbackProtection
from .trusted_counter import CounterClient

__all__ = ["Stabilizer", "FreshnessWitness"]

Gen = Generator[Event, Any, Any]


class Stabilizer:
    """Makes ``(log, counter)`` pairs rollback-protected via the
    configured :class:`~repro.core.rollback.RollbackProtection` backend;
    a no-op under profiles without stabilization."""

    def __init__(
        self,
        runtime: NodeRuntime,
        counter_client: Optional[CounterClient],
        backend: Optional[RollbackProtection] = None,
    ):
        self.runtime = runtime
        self.counter_client = counter_client
        #: how stabilization is established (sync round, coverage
        #: promise, LCM echo).  Callers that construct a bare Stabilizer
        #: without a backend get the original synchronous client path.
        self.backend = backend
        self.tracer = runtime.tracer
        self.waits = 0
        self.total_wait_time = 0.0

    @property
    def enabled(self) -> bool:
        return (
            self.runtime.profile.stabilization and self.counter_client is not None
        )

    def __call__(self, log_name: str, counter: int) -> Gen:
        """Block until the entry is stable (Figure 2, steps 5–8)."""
        if not self.enabled or counter <= 0:
            return
        start = self.runtime.now
        span = self.tracer.span(
            "stabilize", "wait", node=self.runtime.name or None,
            log=log_name, counter=counter,
        )
        try:
            if self.backend is not None:
                yield from self.backend.stabilize(log_name, counter)
            else:
                yield from self.counter_client.stabilize(log_name, counter)
        finally:
            # A NetworkError out of a detached NIC (zombie fiber after a
            # crash) must not leak the span.
            span.close()
        self.waits += 1
        self.total_wait_time += self.runtime.now - start
        self.runtime.metrics.histogram("stabilize.wait_s").observe(
            self.runtime.now - start
        )

    def many(self, targets: Sequence[Tuple[str, int]]) -> Gen:
        """Block until every ``(log, counter)`` target is stable.

        The targets are registered together, so the counter service's
        round driver covers them with a single echo-broadcast execution;
        the caller pays one wait for the whole set (the group-commit
        leader's batch stabilization).
        """
        if not self.enabled:
            return
        targets = [(log, counter) for log, counter in targets if counter > 0]
        if not targets:
            return
        start = self.runtime.now
        span = self.tracer.span(
            "stabilize", "wait", node=self.runtime.name or None,
            log=",".join(log for log, _ in targets),
            counter=max(counter for _, counter in targets),
        )
        try:
            if self.backend is not None:
                yield from self.backend.stabilize_many(targets)
            else:
                yield from self.counter_client.stabilize_many(targets)
        finally:
            span.close()
        self.waits += 1
        self.total_wait_time += self.runtime.now - start
        self.runtime.metrics.histogram("stabilize.wait_s").observe(
            self.runtime.now - start
        )

    def background(self, log_name: str, counter: int) -> None:
        """Fire-and-forget stabilization (commit records, GC edits)."""
        if not self.enabled or counter <= 0:
            return
        self.runtime.sim.process(
            self(log_name, counter), name="stabilize-bg/%s" % log_name
        )

    def mean_wait(self) -> float:
        if self.waits == 0:
            return 0.0
        return self.total_wait_time / self.waits


class FreshnessWitness:
    """Maps the stabilized counter frontier to a storage sequence frontier.

    Coordinator-free snapshot reads need a local
    proof that everything a read observed is *rollback-protected*: a seq
    the snapshot exposed must never disappear in a rollback attack, or a
    committed read-only transaction could have returned state that the
    cluster later denies.  The group committer assigns storage sequence
    numbers in batch order inside its leader critical section, *before*
    writing the batch's WAL record — so ``(log, counter, max_seq)``
    watermarks recorded at ``log_commits`` time are monotone in both
    coordinates.  The stabilized counter frontier (the per-log echo
    ``Gate`` value) then induces a **stable sequence frontier**: every
    seq ≤ :meth:`stable_seq` sits under a WAL counter the quorum has
    echoed.

    A read-only commit with ``max(read seqs) ≤ stable_seq()`` is fresh —
    it proves itself without any coordinator round.  A stale one calls
    :meth:`wait_cover`, which *joins* the covering stabilization round
    (the same vectored round in-flight commits already pay for) rather
    than starting a dedicated one.
    """

    def __init__(self, runtime: NodeRuntime, stabilizer: Stabilizer):
        self.runtime = runtime
        self.stabilizer = stabilizer
        #: pending watermarks, monotone in (counter, max_seq) per log.
        self._marks: Deque[Tuple[str, int, int]] = deque()
        #: seqs ≤ floor need no witness: recovery replays only the
        #: stable WAL prefix, and bulk loads bypass the WAL entirely.
        self._floor = 0
        self._new_mark: Optional[Event] = None

    @property
    def enabled(self) -> bool:
        return self.stabilizer.enabled

    # -- producer side (group committer) -------------------------------------
    def record(self, log_name: str, counter: int, max_seq: int) -> None:
        """Watermark: seqs ≤ ``max_seq`` are covered once ``(log_name,
        counter)`` stabilizes.  Called by the group-commit leader right
        after ``log_commits``."""
        if not self.enabled:
            self._floor = max(self._floor, max_seq)
            return
        self._marks.append((log_name, counter, max_seq))
        if self._new_mark is not None:
            event, self._new_mark = self._new_mark, None
            event.succeed(None)

    def advance_floor(self, seq: int) -> None:
        """Declare seqs ≤ ``seq`` stable without a witness (recovery
        replays only the stable prefix; bulk loads bypass the WAL)."""
        self._floor = max(self._floor, seq)

    # -- consumer side (read-only snapshot commits) --------------------------
    def _stable_value(self, log_name: str) -> int:
        backend = self.stabilizer.backend
        if backend is not None:
            return backend.stable_value(log_name)
        return self.stabilizer.counter_client.stable_value(log_name)

    def stable_seq(self) -> int:
        """The stable sequence frontier: highest seq proven covered."""
        while self._marks:
            log_name, counter, max_seq = self._marks[0]
            if self._stable_value(log_name) < counter:
                break
            self._floor = max(self._floor, max_seq)
            self._marks.popleft()
        return self._floor

    def covers(self, seq: int) -> bool:
        """True iff ``seq`` is inside the proven-fresh window."""
        if not self.enabled:
            return True
        return seq <= self.stable_seq()

    def wait_cover(self, seq: int) -> Gen:
        """Block until the frontier covers ``seq``.

        Joins the stabilization round of the first watermark at or above
        ``seq``; if the covering batch has applied but not yet logged its
        WAL record, waits for its watermark to appear first.
        """
        while not self.covers(seq):
            target = None
            for log_name, counter, max_seq in self._marks:
                if max_seq >= seq:
                    target = (log_name, counter)
                    break
            if target is not None:
                yield from self.stabilizer(*target)
                continue
            # The covering commit applied its writes but has not reached
            # log_commits yet — wait for the next watermark and re-check.
            if self._new_mark is None:
                self._new_mark = self.runtime.sim.event()
            yield self._new_mark
