"""SGX hardware monotonic counters — the rejected baseline (§III).

The paper lists three reasons these cannot back Treaty's stabilization:
increments take up to ~250 ms, counters wear out after days of high-rate
use, and they are private per CPU so they cannot protect a distributed
group.  We implement them faithfully so the ablation benchmark
(`bench_ablation_counters`) can show the gap against the ROTE-style
service that Treaty actually uses.
"""

from __future__ import annotations

from typing import Any, Generator

from ..config import CostModel
from ..errors import StorageError
from ..sim.core import Event, Simulator

__all__ = ["HardwareMonotonicCounter"]

#: Writes after which the counter's backing NVRAM is considered worn out.
#: (ROTE §2: "at high rate, counters wear out after a couple of days";
#: scaled down so tests can exercise the failure mode.)
DEFAULT_WEAR_LIMIT = 1_000_000


class HardwareMonotonicCounter:
    """A per-CPU monotonic counter with slow, wearing increments."""

    def __init__(
        self,
        sim: Simulator,
        costs: CostModel,
        wear_limit: int = DEFAULT_WEAR_LIMIT,
    ):
        self.sim = sim
        self.costs = costs
        self.value = 0
        self.writes = 0
        self.wear_limit = wear_limit

    def increment(self) -> Generator[Event, Any, int]:
        """Increment and return the new value (blocks ~100 ms simulated)."""
        if self.writes >= self.wear_limit:
            raise StorageError("monotonic counter worn out (NVRAM exhausted)")
        yield self.sim.sleep(self.costs.sgx_counter_increment)
        self.writes += 1
        self.value += 1
        return self.value
