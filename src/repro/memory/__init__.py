"""Memory regions: enclave (EPC-limited) vs untrusted host memory.

A buffer's bytes return to its region when it is released; allocator
work is not charged (DESIGN.md §2).
"""

from .regions import Allocation, EnclaveMemory, HostMemory, MemoryRegion

__all__ = ["Allocation", "EnclaveMemory", "HostMemory", "MemoryRegion"]
