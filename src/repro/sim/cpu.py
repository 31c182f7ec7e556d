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

    def consume(self, seconds: float) -> Generator[Event, Any, None]:
        """Occupy one core for ``seconds`` of work (scaled by speed factor).

        Usage inside a process: ``yield from cpu.consume(cost)``.
        """
        if seconds < 0:
            raise ValueError("negative CPU time: %r" % (seconds,))
        if seconds == 0:
            return
        scaled = seconds / self.speed_factor
        resource = self._resource
        if resource.in_use < resource.capacity:
            # Fast path: a core is free — skip the grant event entirely.
            resource.in_use += 1
        else:
            yield resource.request()
        try:
            yield self.sim.sleep(scaled)
            self.busy_seconds += scaled
        finally:
            resource.release()

    def utilization(self, elapsed: float) -> float:
        """Average core utilization over ``elapsed`` simulated seconds."""
        if elapsed <= 0:
            return 0.0
        return self.busy_seconds / (elapsed * self.cores)
