"""Tests for memory regions and EPC pressure."""

import pytest

from repro.memory import EnclaveMemory, HostMemory, MemoryRegion


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

