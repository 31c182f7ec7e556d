"""Mempool allocator for transaction buffers (§VII-D).

The paper implements "a scalable memory allocator for host and enclave
memory that relies on a mempool", assigning threads to heaps by a hash of
their id and recycling unused memory.  We reproduce that structure: size
classes, per-heap free lists, recycling statistics.  The allocator is
functional bookkeeping; its performance effect is that recycled buffers
do not grow the mapped working set (and hence do not add EPC pressure).
"""

from __future__ import annotations

from typing import Dict, List

from .regions import Allocation, MemoryRegion

__all__ = ["MempoolAllocator", "PooledBuffer"]

# Power-of-two size classes from 64 B to 8 MiB, like a slab allocator.
_MIN_CLASS = 64
_MAX_CLASS = 8 * 1024 * 1024


def _size_class(nbytes: int) -> int:
    """The smallest power of two >= ``nbytes``, at least ``_MIN_CLASS``."""
    if nbytes <= _MIN_CLASS:
        return _MIN_CLASS
    return 1 << (nbytes - 1).bit_length()


class PooledBuffer:
    """A buffer leased from a :class:`MempoolAllocator`."""

    __slots__ = ("allocator", "heap_id", "size_class", "requested", "_released")

    def __init__(self, allocator, heap_id, size_class, requested):
        self.allocator = allocator
        self.heap_id = heap_id
        self.size_class = size_class
        self.requested = requested
        self._released = False

    def release(self) -> None:
        """Return the buffer to its heap's free list for recycling."""
        if not self._released:
            self._released = True
            self.allocator._recycle(self)


class MempoolAllocator:
    """Size-classed pooling allocator over a :class:`MemoryRegion`.

    ``heaps`` mirrors the paper's thread-to-heap hashing: callers pass a
    thread/fiber id and the allocator picks ``hash(id) % heaps``.
    """

    def __init__(self, region: MemoryRegion, heaps: int = 8):
        if heaps < 1:
            raise ValueError("heaps must be >= 1")
        self.region = region
        self.heaps = heaps
        self._free: Dict[int, Dict[int, List[Allocation]]] = {
            h: {} for h in range(heaps)
        }
        self.alloc_count = 0
        self.recycle_hits = 0

    def _heap_of(self, thread_id: int) -> int:
        return hash(thread_id) % self.heaps

    def alloc(self, nbytes: int, thread_id: int = 0) -> PooledBuffer:
        if nbytes > _MAX_CLASS:
            raise ValueError("allocation beyond the largest mempool class")
        heap = self._heap_of(thread_id)
        size = _size_class(nbytes)
        self.alloc_count += 1
        free_list = self._free[heap].get(size)
        if free_list:
            free_list.pop()  # reuse a previously mapped slab
            self.recycle_hits += 1
        else:
            self.region.allocate(size)  # stays mapped for the pool's lifetime
        return PooledBuffer(self, heap, size, nbytes)

    def _recycle(self, buffer: PooledBuffer) -> None:
        placeholder = Allocation(self.region, 0)
        self._free[buffer.heap_id].setdefault(buffer.size_class, []).append(
            placeholder
        )

    def recycle_rate(self) -> float:
        if self.alloc_count == 0:
            return 0.0
        return self.recycle_hits / self.alloc_count
