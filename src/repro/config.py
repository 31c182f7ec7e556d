"""Environment profiles and the calibrated cost model.

The paper evaluates points in a three-axis space — runtime (native vs
SCONE/SGX), encryption (on/off) and stabilization (on/off).  An
:class:`EnvProfile` names one point; :class:`CostModel` holds every
latency/bandwidth constant the simulation charges, with the sources used
for calibration noted inline.

All times are in seconds of *simulated* time.  Absolute values matter
less than ratios: EXPERIMENTS.md compares relative overheads against the
paper, which is also how the paper reports its results.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

__all__ = [
    "Runtime",
    "EnvProfile",
    "CostModel",
    "ClusterConfig",
    "PROFILES",
    "PROTOCOLS",
    "DS_ROCKSDB",
    "NATIVE_TREATY",
    "NATIVE_TREATY_ENC",
    "TREATY_NO_ENC",
    "TREATY_ENC",
    "TREATY_FULL",
]


class Runtime:
    """Execution runtime for a node's software stack."""

    NATIVE = "native"
    SCONE = "scone"  # SGX enclave via the SCONE libOS


@dataclass(frozen=True)
class EnvProfile:
    """One evaluated system configuration (a bar in the paper's figures)."""

    name: str
    runtime: str = Runtime.NATIVE
    encryption: bool = False
    stabilization: bool = False

    @property
    def in_enclave(self) -> bool:
        return self.runtime == Runtime.SCONE

    def describe(self) -> str:
        parts = ["SCONE" if self.in_enclave else "native"]
        parts.append("w/ Enc" if self.encryption else "w/o Enc")
        if self.stabilization:
            parts.append("w/ Stab")
        return " ".join(parts)


# The six systems of Figures 6/7 (single-node) and the distributed
# baselines of Figures 3/5.  DS-RocksDB and Native Treaty share a profile
# shape (native, no crypto) but are kept distinct for reporting.
DS_ROCKSDB = EnvProfile("DS-RocksDB")
NATIVE_TREATY = EnvProfile("Native Treaty")
NATIVE_TREATY_ENC = EnvProfile("Native Treaty w/ Enc", encryption=True)
TREATY_NO_ENC = EnvProfile("Treaty w/o Enc", runtime=Runtime.SCONE)
TREATY_ENC = EnvProfile("Treaty w/ Enc", runtime=Runtime.SCONE, encryption=True)
TREATY_FULL = EnvProfile(
    "Treaty w/ Enc w/ Stab",
    runtime=Runtime.SCONE,
    encryption=True,
    stabilization=True,
)

PROFILES: Dict[str, EnvProfile] = {
    profile.name: profile
    for profile in (
        DS_ROCKSDB,
        NATIVE_TREATY,
        NATIVE_TREATY_ENC,
        TREATY_NO_ENC,
        TREATY_ENC,
        TREATY_FULL,
    )
}


@dataclass(frozen=True)
class CostModel:
    """Every latency / bandwidth constant charged by the simulation.

    Calibration anchors (paper §VIII): standalone secure 2PC ≈ 2× native;
    encryption ≤ 1.4× on top of SCONE; distributed Txs 6–15× vs
    DS-RocksDB; single-node 2–5×; recovery 1.5× / 2×; ROTE counter ≈ 2 ms.
    """

    # --- CPU ---------------------------------------------------------------
    cpu_ghz: float = 3.6  # i9-9900K base clock (testbed, §VIII-A)
    #: multiplicative slowdown of CPU work inside the enclave (MEE +
    #: SCONE shielding); SPEICHER reports 1.1–1.4x for compute phases.
    enclave_speed_factor: float = 0.78
    #: request-handler bookkeeping per KV operation (parse, dispatch).
    op_base_cpu: float = 1.2e-6
    #: the enclave skip-list insert (SPEICHER's MemTable) + record
    #: bookkeeping per MemTable write.
    memtable_insert_cpu: float = 0.5e-6
    #: per-record CPU during log replay at recovery (parse, validate,
    #: rebuild in-memory indexes); small entries make this dominate,
    #: which is exactly the paper's worst case for Table I.
    recovery_record_cpu: float = 2.5e-6
    #: per-byte cost of moving/copying a payload through the stack.
    copy_per_byte: float = 0.12e-9

    # --- syscalls / enclave transitions --------------------------------------
    syscall_native: float = 0.9e-6  # getpid-style + ctx switch amortized
    #: per-byte kernel copy on the native syscall path.
    syscall_native_per_byte: float = 0.1e-9
    #: SCONE async syscall: no world switch but queueing + helper thread.
    syscall_scone: float = 3.2e-6
    #: the two extra shielded copies (enclave<->host<->kernel, §IV-B#2),
    #: per byte per copy.
    syscall_scone_per_byte: float = 2.0e-9
    #: full enclave world switch (EENTER/EEXIT + TLB flush), used by
    #: naive OCALL paths that Treaty engineers away (e.g. rdtsc removal).
    world_switch: float = 4.0e-6

    # --- EPC paging ---------------------------------------------------------
    epc_bytes: int = 94 * 1024 * 1024  # SGXv1 usable EPC (§II-B)
    page_bytes: int = 4096
    #: cost of evicting+loading one EPC page (encrypt, integrity, exit).
    epc_page_fault: float = 11.0e-6

    # --- cryptography ---------------------------------------------------------
    #: AEAD (AES-GCM-like) throughput, per byte, native.
    encrypt_per_byte: float = 0.45e-9
    #: fixed per-operation cost (key schedule, IV handling, tag finalize).
    encrypt_setup: float = 0.4e-6
    #: SHA-256 hashing per byte (SSTable footers, log chains).
    hash_per_byte: float = 0.30e-9
    hash_setup: float = 0.15e-6
    #: signature create/verify (attestation; simulated ECDSA).
    signature_op: float = 45.0e-6

    # --- cluster fabric (40 GbE QSFP+, §VIII-A) ------------------------------
    net_bandwidth: float = 40e9 / 8  # bytes/second
    net_propagation: float = 2.0e-6  # one-way wire+switch latency
    net_mtu: int = 1460  # payload bytes per Ethernet frame
    #: per-frame NIC/driver/RPC-layer cost with kernel-bypass polling
    #: (eRPC/DPDK).  Calibrated so eRPC trails iPerf-TCP by ~20–30 % at
    #: small/medium sizes and matches it at >= MTU (Figure 8).
    nic_frame_cost: float = 0.9e-6
    #: per-packet kernel network-stack cost (TCP/UDP path, native).
    kernel_packet_cost: float = 1.4e-6
    #: TCP benefits from segmentation offload: per-packet kernel work is
    #: discounted for bulk sends ("TCP/IP stack processing is frequently
    #: offloaded to the network controller", §VIII-E).
    tcp_offload_factor: float = 0.35
    #: UDP gets no offload and pays per-datagram socket work; iPerf-UDP
    #: "performs poorly" across the board (§VIII-E).
    udp_packet_factor: float = 3.0
    #: SCONE shield copy for eRPC message buffers kept in host memory,
    #: per byte (staging between enclave and the DMA-able hugepages).
    scone_msgbuf_copy_per_byte: float = 1.2e-9
    #: fixed per-message overhead of the shielded network path under
    #: SCONE (async-syscall queue interaction, shield checks) beyond the
    #: byte copies.
    scone_net_handling: float = 3.0e-6
    #: SCONE fiber-scheduling delay per *resume* of an enclave fiber that
    #: blocked on a cluster RPC, per concurrently open request (§VII-C
    #: motivates Treaty's userland scheduler with exactly this
    #: starvation/latency problem; it mitigates but does not remove it).
    #: This is the dominant term behind the paper's distributed-vs-
    #: single-node amplification: remote operations block mid-handler and
    #: pay the resume delay, local operations never do.
    scone_fiber_resume_quantum: float = 120e-6
    #: cap on the load counted toward the resume delay.
    scone_resume_load_cap: int = 64
    #: fixed wake-up latency for the fiber serving a newly arrived client
    #: request under SCONE with the storage engine loaded (same §VII-C
    #: scheduler path as the resume delay, but load-independent: the
    #: serving fiber was idle, not queued behind active peers).
    scone_request_dispatch: float = 100e-6

    # --- client access network (1 GbE secondary NIC) --------------------------
    client_bandwidth: float = 1e9 / 8
    client_propagation: float = 50.0e-6

    # --- storage (NVMe SSD via async syscalls, §V-A) ---------------------------
    ssd_write_latency: float = 28.0e-6
    ssd_read_latency: float = 80.0e-6
    ssd_bandwidth: float = 2.0e9  # bytes/second
    #: the paper notes reads hit the kernel page cache; charge RAM speed.
    page_cache_read_per_byte: float = 0.02e-9
    page_cache_hit_latency: float = 1.5e-6
    #: SPDK userspace driver: no syscalls, but every read goes to the
    #: device (no kernel page cache) — §V-A's reason for *not* using it.
    spdk_submit_cpu: float = 0.7e-6

    # --- trusted counters -------------------------------------------------------
    #: ROTE-style distributed counter stabilization latency (§VI: ~2 ms).
    rote_latency_mean: float = 2.0e-3
    rote_latency_jitter: float = 0.4e-3
    #: SGX hardware monotonic counter increment (§III: 60–250 ms).
    sgx_counter_increment: float = 0.10
    #: IAS round trip for remote attestation (§IV: "high latency").
    ias_round_trip: float = 0.35

    # --- derived helpers ---------------------------------------------------------
    def cycles(self, count: float) -> float:
        """Convert a cycle count to seconds at the modelled clock."""
        return count / (self.cpu_ghz * 1e9)

    def syscall_cost(self, in_enclave: bool, nbytes: int = 0) -> float:
        """Cost of one syscall moving ``nbytes`` of payload."""
        if in_enclave:
            return self.syscall_scone + nbytes * self.syscall_scone_per_byte * 2
        return self.syscall_native + nbytes * self.syscall_native_per_byte

    def aead_cost(self, nbytes: int) -> float:
        """Cost of one seal/open of an ``nbytes`` payload."""
        return self.encrypt_setup + nbytes * self.encrypt_per_byte

    def hash_cost(self, nbytes: int) -> float:
        return self.hash_setup + nbytes * self.hash_per_byte

    def ssd_write_cost(self, nbytes: int) -> float:
        return self.ssd_write_latency + nbytes / self.ssd_bandwidth

    def ssd_read_cost(self, nbytes: int, cached: bool = True) -> float:
        if cached:
            return self.page_cache_hit_latency + nbytes * self.page_cache_read_per_byte
        return self.ssd_read_latency + nbytes / self.ssd_bandwidth

    def wire_time(self, nbytes: int) -> float:
        """Serialization time of ``nbytes`` on the cluster fabric."""
        return nbytes / self.net_bandwidth

    def with_overrides(self, **kwargs) -> "CostModel":
        """A copy of this model with selected constants replaced."""
        return replace(self, **kwargs)


#: selectable values of ``ClusterConfig.protocol``.
PROTOCOLS = ("paper", "optimized")


@dataclass(frozen=True)
class ClusterConfig:
    """Static deployment parameters (mirrors the paper's testbed)."""

    cores_per_node: int = 8
    memtable_limit_bytes: int = 8 * 1024 * 1024
    #: rollback-protection backend — a key of
    #: ``repro.core.trusted_counter.BACKENDS``, whose row says where
    #: waiters release, what becomes of the CONFIRM leg and who
    #: schedules rounds: ``"counter-sync"`` (§VI as written, both legs
    #: on the commit path), ``"counter-async"`` (coverage promises,
    #: release at echo quorum, CONFIRM in the background) or ``"lcm"``
    #: (the echo *is* the commit, no CONFIRM leg).
    rollback_backend: str = "counter-sync"
    #: independent counter groups ("shards") keyed by log-name hash.
    #: Each shard runs its own round pipeline, so disjoint logs stop
    #: serializing through one quorum round.  1 = a single group.
    counter_shards: int = 1
    #: the commit protocol, one of :data:`PROTOCOLS`.
    #: ``"paper"`` is §V as published: each participant stabilizes its
    #: own prepare entry before PREPARE-ACK, the coordinator stabilizes
    #: only its decision entry, and 2PC blocks on a dead coordinator
    #: (participants stay in doubt until it, or its recovery, resolves
    #: them).
    #: ``"optimized"`` adds two mechanisms.  *Piggybacking*: participants
    #: return their prepare-record target in the PREPARE-ACK and the
    #: coordinator folds every prepare target plus its own Clog decision
    #: target into one group-wide echo-broadcast round before
    #: instructing COMMIT (apply-side targets ride the COMMIT/ACK leg
    #: symmetrically).  *Non-blocking commit* (Fides/TFCommit-style
    #: transfer of commit): the coordinator broadcasts its decision
    #: record to every participant in the same instant as that round
    #: (transport batching seals both into one frame) and waits for a
    #: majority quorum of acknowledgements *before* answering the
    #: client; a participant that holds a replicated decision — or times
    #: out waiting on a dead coordinator — assumes the completer role
    #: and drives COMMIT/abort application, fencing and lock release for
    #: the whole group itself.
    protocol: str = "optimized"
    #: how long a prepared participant waits for the coordinator's
    #: decision before starting completer takeover (plus a deterministic
    #: per-node jitter so simultaneous timeouts de-synchronize).  Kept
    #: above the prepare vote timeout so a slow-but-alive coordinator
    #: never races its own participants.
    decision_timeout_s: float = 3.0
    #: doorbell batching (eRPC TxBurst-style): concurrent small messages
    #: to the same destination coalesce into one multi-message frame —
    #: one NIC/driver charge, one propagation and one header per batch,
    #: and, with encryption, one AEAD pass over the whole batch.  This
    #: is the upper bound on messages coalesced into one frame; 1 = no
    #: coalescing (one message and one AEAD pass per frame).
    net_tx_batch_max: int = 16
    group_commit_max: int = 16  # transactions merged per group commit
    #: how long a group-commit leader waits for followers to join before
    #: draining the batch.  ``None`` = adaptive (bounded wait keyed off
    #: the observed submit arrival gaps); ``0.0`` = immediate drain
    #: (yield once, take whatever joined); a positive value fixes
    #: the window.
    group_commit_window: Optional[float] = None
    #: bounded-liveness horizon for the invariant monitor (I5): absent
    #: crashes, every prepare must reach a decision within this many
    #: simulated seconds.  Generous by design — it exists to catch stuck
    #: fibers, not slow ones (vote timeout + counter retries can
    #: legitimately take seconds under injected faults).
    monitor_liveness_timeout_s: float = 30.0
    block_bytes: int = 4096  # SSTable block size
    #: "lsm" = full persistent engine; "null" = in-memory stub used to
    #: isolate the 2PC protocol's overheads (Figure 4).
    storage_engine: str = "lsm"
    #: storage I/O mechanism: "syscall" (SCONE async syscalls + kernel
    #: page cache — Treaty's choice, §V-A) or "spdk" (SPEICHER's
    #: userspace direct I/O: no syscalls, but no page cache either).
    storage_io: str = "syscall"
    #: retain structured trace records (repro.obs) for export; off by
    #: default so hot paths stay on the null-tracer fast path.
    tracing: bool = False
    #: run the online 2PC invariant monitor (repro.obs.monitor) against
    #: the live event stream.  ``None`` defers to the process-wide
    #: default (``repro.obs.enable_monitor_by_default``, which the test
    #: suite turns on); True/False force it for this cluster.
    monitor: Optional[bool] = None
    #: always-on flight recorder (repro.obs.recorder): bounded trace
    #: ring + streaming tail estimate + p99 outlier exemplars.  Safe to
    #: leave on — memory is capped by ``repro.obs.TRACE_RING_SPANS``.
    flight_recorder: bool = False
    #: windowed time-series recorder (repro.obs.timeseries): per-window
    #: tps / abort / frame / seal rates and queue gauges.
    timeseries: bool = False
    #: structured incident detection (repro.obs.incidents): takeovers,
    #: lease-expiry fallbacks, OCC retry storms, lock convoys, stalls.
    incidents: bool = False
    #: commits observed before exemplar capture arms (lets the streaming
    #: estimate settle so early txns aren't all "outliers").
    tail_warmup: int = 32
    seed: int = 2022
    costs: CostModel = field(default_factory=CostModel)

    @property
    def optimized(self) -> bool:
        """Whether ``protocol`` adds piggybacking and non-blocking commit
        to the paper's 2PC."""
        return self.protocol == "optimized"
