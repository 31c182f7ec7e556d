"""Memory regions: enclave (EPC-limited) vs untrusted host memory.

Treaty splits its in-memory state deliberately (§VII-D): keys and
transaction metadata stay in the enclave; values, network message buffers
and caches live encrypted in host memory to relieve EPC pressure.  These
region objects do the byte accounting that drives the EPC paging model.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["Allocation", "MemoryRegion", "EnclaveMemory", "HostMemory"]


class Allocation:
    """A live allocation inside a region; ``free()`` returns the bytes."""

    __slots__ = ("region", "nbytes", "_freed")

    def __init__(self, region: "MemoryRegion", nbytes: int):
        self.region = region
        self.nbytes = nbytes
        self._freed = False

    def free(self) -> None:
        if not self._freed:
            self._freed = True
            self.region._release(self.nbytes)


class MemoryRegion:
    """Byte-accounted memory area with optional soft pressure threshold."""

    def __init__(self, name: str, soft_limit: Optional[int] = None):
        self.name = name
        self.soft_limit = soft_limit
        self.used = 0
        self.peak = 0

    def allocate(self, nbytes: int) -> Allocation:
        if nbytes < 0:
            raise ValueError("negative allocation")
        self.used += nbytes
        if self.used > self.peak:
            self.peak = self.used
        return Allocation(self, nbytes)

    def _release(self, nbytes: int) -> None:
        self.used -= nbytes

    @property
    def over_limit_bytes(self) -> int:
        """How far the working set exceeds the soft limit (0 if within)."""
        if self.soft_limit is None:
            return 0
        return max(0, self.used - self.soft_limit)

    def pressure(self) -> float:
        """Fraction of the working set that does not fit (0.0 — ~1.0).

        This is the probability that touching a random resident page
        requires an EPC page-in, which is how the enclave charges paging.
        """
        if self.soft_limit is None or self.used <= self.soft_limit:
            return 0.0
        return self.over_limit_bytes / self.used


class EnclaveMemory(MemoryRegion):
    """The EPC-backed enclave heap (94 MiB usable on SGXv1)."""

    def __init__(self, epc_bytes: int):
        super().__init__("enclave", soft_limit=epc_bytes)


class HostMemory(MemoryRegion):
    """Untrusted host memory (unbounded for our purposes)."""

    def __init__(self):
        super().__init__("host", soft_limit=None)
