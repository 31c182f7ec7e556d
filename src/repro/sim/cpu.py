"""CPU modelling: per-node core pools with a speed factor.

Each Treaty node in the paper runs on an 8-core (16 HT) i9-9900K; work
executed inside the enclave is slower than native because of memory
encryption and (under pressure) EPC paging.  A :class:`CpuPool` charges
CPU seconds against a fixed number of cores, so that saturation — the
knee in the paper's client-scaling curves — emerges naturally.
"""

from __future__ import annotations

from typing import Any, Generator

from .core import Event, Simulator
from .sync import Resource

__all__ = ["CpuPool"]


class CpuPool:
    """A pool of identical cores consumed by simulation processes."""

    def __init__(self, sim: Simulator, cores: int, speed_factor: float = 1.0):
        if cores < 1:
            raise ValueError("cores must be >= 1")
        if speed_factor <= 0:
            raise ValueError("speed_factor must be positive")
        self.sim = sim
        self.cores = cores
        self.speed_factor = speed_factor
        self._resource = Resource(sim, capacity=cores)
        self.busy_seconds = 0.0  # accumulated utilization for reporting

    def consume(self, *charges: float) -> Generator[Event, Any, float]:
        """Occupy one core for the sum of ``charges`` seconds of work, each
        scaled by the speed factor, in one hold.

        Usage inside a process: ``yield from cpu.consume(cost)``.  The
        fiber keeps its core across the charges: no other fiber runs on
        it between them.  The hold ends where back-to-back holds of the
        same charges would on a free core (the scaled charges are added
        to the start left to right).  Returns the instant the core was
        granted, from which a caller stamps its charges' sub-instants.
        """
        if min(charges) < 0:
            raise ValueError("negative CPU time: %r" % (charges,))
        sim = self.sim
        if not any(charges):
            return sim.now
        resource = self._resource
        if not resource.try_acquire():
            yield resource.request()
        factor = self.speed_factor
        start = end = sim.now
        for seconds in charges:
            end += seconds / factor
        try:
            yield sim.sleep(end - start)
            for seconds in charges:
                self.busy_seconds += seconds / factor
        finally:
            resource.release()
        return start

    def utilization(self, elapsed: float) -> float:
        """Average core utilization over ``elapsed`` simulated seconds."""
        if elapsed <= 0:
            return 0.0
        return self.busy_seconds / (elapsed * self.cores)
