"""The stable-sequence frontier behind coordinator-free snapshot reads.

The stabilization protocol (§VI) has three legs — collective attestation
(:mod:`repro.core.cas`), crash-consistent logs
(:mod:`repro.storage.log`) and distributed rollback protection
(:mod:`repro.core.trusted_counter`, :mod:`repro.core.rollback`) — and
one handle every layer reaches them through, the node's
:class:`~repro.core.pipeline.DurabilityPipeline`.  What is left here is
the :class:`FreshnessWitness`: the pipeline's map from the stabilized
counter frontier to the storage sequence numbers it covers.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, Optional, Tuple

from ..sim.core import Event
from ..tee.runtime import NodeRuntime

__all__ = ["FreshnessWitness"]

Gen = Generator[Event, Any, Any]


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

    def __init__(self, runtime: NodeRuntime, pipeline):
        self.runtime = runtime
        #: the owning DurabilityPipeline (profile gate, backend, waits).
        self.pipeline = pipeline
        #: pending watermarks, monotone in (counter, max_seq) per log.
        self._marks: Deque[Tuple[str, int, int]] = deque()
        #: seqs ≤ floor need no witness: recovery replays only the
        #: stable WAL prefix, and bulk loads bypass the WAL entirely.
        self._floor = 0
        self._new_mark: Optional[Event] = None

    # -- producer side (group committer) -------------------------------------
    def record(self, log_name: str, counter: int, max_seq: int) -> None:
        """Watermark: seqs ≤ ``max_seq`` are covered once ``(log_name,
        counter)`` stabilizes.  Called by the group-commit leader right
        after ``log_commits``."""
        if not self.pipeline.enabled:
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
    def stable_seq(self) -> int:
        """The stable sequence frontier: highest seq proven covered."""
        while self._marks:
            log_name, counter, max_seq = self._marks[0]
            if self.pipeline.rollback.stable_value(log_name) < counter:
                break
            self._floor = max(self._floor, max_seq)
            self._marks.popleft()
        return self._floor

    def covers(self, seq: int) -> bool:
        """True iff ``seq`` is inside the proven-fresh window."""
        if not self.pipeline.enabled:
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
                yield from self.pipeline.stabilize(*target)
                continue
            # The covering commit applied its writes but has not reached
            # log_commits yet — wait for the next watermark and re-check.
            if self._new_mark is None:
                self._new_mark = self.runtime.sim.event()
            yield self._new_mark
