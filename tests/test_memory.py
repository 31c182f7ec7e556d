"""Tests for memory regions, EPC pressure and the mempool allocator."""

import pytest

from repro.memory import (
    EnclaveMemory,
    HostMemory,
    MempoolAllocator,
    MemoryRegion,
)
from repro.memory.allocator import _size_class


class TestRegions:
    def test_allocation_accounting(self):
        region = MemoryRegion("r")
        alloc = region.allocate(100)
        assert region.used == 100
        alloc.free()
        assert region.used == 0
        assert region.peak == 100

    def test_double_free_is_idempotent(self):
        region = MemoryRegion("r")
        alloc = region.allocate(10)
        alloc.free()
        alloc.free()
        assert region.used == 0

    def test_negative_allocation_rejected(self):
        with pytest.raises(ValueError):
            MemoryRegion("r").allocate(-1)

    def test_pressure_zero_within_limit(self):
        enclave = EnclaveMemory(epc_bytes=1000)
        enclave.allocate(999)
        assert enclave.pressure() == 0.0

    def test_pressure_grows_beyond_limit(self):
        enclave = EnclaveMemory(epc_bytes=1000)
        enclave.allocate(2000)
        assert enclave.pressure() == pytest.approx(0.5)
        assert enclave.over_limit_bytes == 1000

    def test_host_memory_never_pressured(self):
        host = HostMemory()
        host.allocate(10**12)
        assert host.pressure() == 0.0


class TestMempoolAllocator:
    def test_recycles_buffers(self):
        region = MemoryRegion("host")
        pool = MempoolAllocator(region, heaps=1)
        first = pool.alloc(100, thread_id=1)
        first.release()
        pool.alloc(100, thread_id=1)
        # Second allocation reuses the slab: mapped bytes did not grow.
        assert pool.recycle_hits == 1
        assert region.total_allocated == 128  # one 128 B size class

    def test_size_classes_power_of_two(self):
        region = MemoryRegion("host")
        pool = MempoolAllocator(region, heaps=1)
        buffer = pool.alloc(65)
        assert buffer.size_class == 128
        assert pool.alloc(64).size_class == 64

    def test_size_class_matches_the_doubling_loop(self):
        def doubling(nbytes):
            size = 64
            while size < nbytes:
                size *= 2
            return size

        sizes = list(range(0, 4200)) + [
            (1 << shift) + delta for shift in range(12, 24) for delta in (-1, 0, 1)
        ]
        assert [_size_class(n) for n in sizes] == [doubling(n) for n in sizes]

    def test_distinct_heaps_do_not_share_free_lists(self):
        region = MemoryRegion("host")
        pool = MempoolAllocator(region, heaps=2)
        thread_a, thread_b = 0, 1
        assert pool._heap_of(thread_a) != pool._heap_of(thread_b)
        pool.alloc(100, thread_id=thread_a).release()
        pool.alloc(100, thread_id=thread_b)
        assert pool.recycle_hits == 0

    def test_recycle_rate(self):
        region = MemoryRegion("host")
        pool = MempoolAllocator(region, heaps=1)
        for _ in range(10):
            pool.alloc(50).release()
        assert pool.recycle_rate() == pytest.approx(0.9)

    def test_oversized_allocation_rejected(self):
        pool = MempoolAllocator(MemoryRegion("host"))
        with pytest.raises(ValueError):
            pool.alloc(64 * 1024 * 1024)

    def test_double_release_is_idempotent(self):
        region = MemoryRegion("host")
        pool = MempoolAllocator(region, heaps=1)
        buffer = pool.alloc(100)
        buffer.release()
        buffer.release()
        pool.alloc(100)
        pool.alloc(100)
        # Only one recycled slab must exist despite the double release.
        assert pool.recycle_hits == 1
