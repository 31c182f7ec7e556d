"""Per-node execution runtime: the single place where costs are charged.

Every Treaty component (storage engine, transaction layer, network
library, 2PC) performs its work through a :class:`NodeRuntime`, which

* scales CPU work by the enclave slowdown when running under SCONE,
* charges syscalls at the native or async-SCONE rate,
* charges AEAD/hash time only when the profile enables encryption,
* converts EPC over-subscription into paging time,
* models SSD access as an async syscall plus device latency.

Keeping all charging here means an :class:`~repro.config.EnvProfile`
swap is the *only* difference between "DS-RocksDB" and "Treaty w/ Enc
w/ Stab" — exactly how the paper isolates its overheads.
"""

from __future__ import annotations

import struct
from typing import Any, Generator

from ..config import ClusterConfig, CostModel, EnvProfile
from ..memory.regions import HostMemory
from ..obs.registry import MetricsRegistry
from ..obs.tracer import tracer_of
from ..sim.core import Event, Simulator
from ..sim.cpu import CpuPool
from .enclave import Enclave

__all__ = ["NodeRuntime"]

Gen = Generator[Event, Any, None]


class NodeRuntime:
    """Cost-charging execution context for one node."""

    def __init__(self, sim: Simulator, profile: EnvProfile,
                 config: ClusterConfig, name: str = "", epoch: int = 0):
        self.sim = sim
        self.profile = profile
        #: the profile is frozen: its two hot-path switches are read once.
        self.in_enclave = profile.in_enclave
        self.encryption = profile.encryption
        self.config = config
        #: owning node's name; labels trace records ("" for anonymous
        #: runtimes such as client machines and unit-test harnesses).
        self.name = name
        #: boot epoch of the incarnation this runtime serves (a runtime
        #: is rebuilt on every boot); makes :meth:`iv` restart-safe.
        self.epoch = epoch
        self.costs: CostModel = config.costs
        factor = self.costs.enclave_speed_factor if self.in_enclave else 1.0
        self.cpu = CpuPool(sim, config.cores_per_node, speed_factor=factor)
        self.enclave = Enclave(self.costs)
        self.host_memory = HostMemory()
        self.tracer = tracer_of(sim)
        self.metrics = MetricsRegistry()
        self.metrics.probe("runtime.syscalls", lambda: self.syscalls)
        self.metrics.probe("runtime.crypto_ops", lambda: self.crypto_ops)
        self.metrics.probe("runtime.io_bytes_written",
                           lambda: self.io_bytes_written)
        self.metrics.probe("tee.transitions",
                           lambda: self.enclave.transitions)
        self.metrics.probe("tee.page_faults",
                           lambda: round(self.enclave.page_faults, 3))
        # Statistics for reports / ablations.
        self.syscalls = 0
        self.crypto_ops = 0
        self.io_bytes_written = 0
        #: gauge of client requests currently being handled on this node
        #: (drives the SCONE fiber-resume delay under load, §VII-C).
        self.active_requests = 0
        #: set when the full storage engine is loaded into this enclave:
        #: SPEICHER-style LSM state plus SCONE runtime exceed the EPC, and
        #: under that pressure the SCONE scheduler's wake-up latency for
        #: fibers blocked on I/O degrades with load.  The storage-less
        #: protocol benchmark (Figure 4) fits in the EPC and is exempt —
        #: which is exactly why the paper measures only ~2x there but
        #: 9-15x for the full system.
        self.heavy_enclave = False

    def iv(self, counter: int) -> bytes:
        """12-byte AEAD IV, unique per key for one (boot epoch, counter).

        A counter alone restarts with the node — and recovery re-issues
        the counters of a discarded unstable suffix for new data — so
        every per-node sealer prefixes the epoch.
        """
        return struct.pack("<IQ", self.epoch, counter)

    def fiber_resume_delay(self) -> float:
        """Scheduling delay before a blocked enclave fiber runs again."""
        if not self.in_enclave or not self.heavy_enclave:
            return 0.0
        load = min(self.active_requests, self.costs.scone_resume_load_cap)
        return load * self.costs.scone_fiber_resume_quantum

    # -- basic CPU ---------------------------------------------------------
    def compute(self, seconds: float) -> Gen:
        """Charge ``seconds`` of CPU work (enclave-scaled via the pool)."""
        yield from self.cpu.consume(seconds)

    def touch_enclave(self, nbytes: int) -> Gen:
        """Charge paging for touching enclave-resident data under pressure."""
        cost = self.enclave.touch_cost(nbytes) if self.in_enclave else 0.0
        if cost > 0.0:
            self.tracer.event("tee", "epc_paging", node=self.name or None,
                              bytes=nbytes, cost=round(cost, 9))
            yield from self.cpu.consume(cost)

    # -- syscalls ------------------------------------------------------------
    def syscall(self, nbytes: int = 0) -> Gen:
        """One syscall moving ``nbytes`` through the kernel boundary."""
        self.syscalls += 1
        yield from self.cpu.consume(
            self.costs.syscall_cost(self.in_enclave, nbytes)
        )

    def world_switch(self) -> Gen:
        """A full enclave exit/enter (only on naive OCALL paths)."""
        if self.in_enclave:
            cost = self.enclave.transition_cost()
            self.tracer.event("tee", "world_switch", node=self.name or None,
                              cost=round(cost, 9))
            yield from self.cpu.consume(cost)

    def msgbuf_shield(self, nbytes: int) -> Gen:
        """Stage message-buffer bytes between enclave and host hugepages.

        Only charged under SCONE: the DMA-able buffers live in host
        memory (§VII-A) so the enclave copies payloads across the
        boundary instead of paging EPC.
        """
        if self.in_enclave and nbytes > 0:
            cost = (
                self.costs.scone_net_handling
                + nbytes * self.costs.scone_msgbuf_copy_per_byte
            )
            self.tracer.event("tee", "msgbuf_shield", node=self.name or None,
                              bytes=nbytes, cost=round(cost, 9))
            yield from self.cpu.consume(cost)

    # -- cryptography ----------------------------------------------------------
    def seal_cost(self, nbytes: int) -> Gen:
        """Charge one AEAD seal/open if the profile encrypts."""
        if self.encryption:
            self.crypto_ops += 1
            yield from self.cpu.consume(self.costs.aead_cost(nbytes))

    def hash_cost(self, nbytes: int) -> Gen:
        """Charge one integrity hash if the profile encrypts."""
        if self.encryption:
            self.crypto_ops += 1
            yield from self.cpu.consume(self.costs.hash_cost(nbytes))

    # -- storage I/O -------------------------------------------------------------
    @property
    def _spdk(self) -> bool:
        return self.config.storage_io == "spdk"

    def ssd_write(self, nbytes: int) -> Gen:
        """Write ``nbytes`` to the SSD.

        Syscall mode: async-syscall CPU, then device time off-core.
        SPDK mode: cheap userspace submission, same device time.
        """
        self.io_bytes_written += nbytes
        if self._spdk:
            yield from self.cpu.consume(self.costs.spdk_submit_cpu)
        else:
            yield from self.syscall(nbytes)
        yield self.sim.sleep(self.costs.ssd_write_cost(nbytes))

    def ssd_read(self, nbytes: int, cached: bool = True) -> Gen:
        """Read ``nbytes``.

        Syscall mode hits the kernel page cache (§V-A: "the database
        fits entirely in the kernel page cache"); SPDK bypasses the
        kernel entirely, so every read pays the device (§V-A's reason
        for not using it here).
        """
        if self._spdk:
            yield from self.cpu.consume(self.costs.spdk_submit_cpu)
            yield self.sim.sleep(self.costs.ssd_read_cost(nbytes, cached=False))
        else:
            yield from self.syscall(nbytes)
            yield self.sim.sleep(self.costs.ssd_read_cost(nbytes, cached=cached))

    # -- convenience ----------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.sim.now

    def op_overhead(self) -> Gen:
        """Fixed request-handling bookkeeping per KV operation."""
        yield from self.cpu.consume(self.costs.op_base_cpu)

    def copy(self, nbytes: int) -> Gen:
        """Charge a memory copy of ``nbytes``."""
        if nbytes > 0:
            yield from self.cpu.consume(nbytes * self.costs.copy_per_byte)
