"""A Treaty node: the full per-node stack of Figure 1.

Assembles the trusted components (Tx layer, lock manager, Tx KV engine,
counter enclave) inside the node's enclave runtime, and the untrusted
components (disk, NICs) outside it.  Nodes can :meth:`crash` (volatile
state lost, disk kept) and :meth:`recover` (local re-attestation via the
LAS, log replay, freshness checks, prepared-transaction resolution).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Optional

from ..config import ClusterConfig, EnvProfile
from ..errors import FreshnessError
from ..net.erpc import ErpcEndpoint
from ..net.message import MsgType, TxMessage
from ..net.secure_rpc import SecureRpc
from ..net.simnet import Fabric
from ..sim.core import Event, Simulator
from ..storage.disk import Disk
from ..storage.engine import LSMEngine
from ..storage.log import SecureLog
from ..storage.manifest import ManifestEdit
from ..tee.attestation import PlatformQuotingEnclave
from ..tee.runtime import NodeRuntime
from ..tee.sgx import SealingKey
from ..txn.locks import LockMode
from ..txn.manager import TransactionManager
from ..txn.types import TxnStatus
from .cas import (
    ConfigurationService,
    LocalAttestationService,
    NodeCredentials,
    TREATY_MEASUREMENT,
)
from .client import FrontEnd
from .ids import GlobalTxnId
from .pipeline import DurabilityPipeline
from .trusted_counter import CounterClient, CounterReplica
from .twopc import (
    ClogRecord,
    Coordinator,
    DecisionLedger,
    Participant,
    deliver,
    fold_clog,
    replication,
)

__all__ = ["TreatyNode"]

Gen = Generator[Event, Any, Any]


class TreatyNode:
    """One server of the cluster, with crash/recover lifecycle."""

    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        name: str,
        numeric_id: int,
        profile: EnvProfile,
        config: ClusterConfig,
        platform_secret: bytes,
        addresses: Dict[int, str],
        partitioner: Callable[[bytes], int],
    ):
        self.sim = sim
        self.fabric = fabric
        self.name = name
        self.numeric_id = numeric_id
        self.profile = profile
        self.config = config
        self.platform_secret = platform_secret
        self.addresses = addresses
        self.partitioner = partitioner
        #: persistent state — survives crashes.
        self.disk = Disk(name)
        self.qe = PlatformQuotingEnclave(name, platform_secret)
        self.las: Optional[LocalAttestationService] = None
        self.boot_count = 0
        self.cluster_address = name
        self.front_address = name + ".front"
        self.is_up = False
        # Volatile components (built at start/recover).
        self.runtime: Optional[NodeRuntime] = None
        self.engine: Optional[LSMEngine] = None
        self.manager: Optional[TransactionManager] = None
        self.coordinator: Optional[Coordinator] = None
        self.participant: Optional[Participant] = None
        self.frontend: Optional[FrontEnd] = None
        self.counter_client: Optional[CounterClient] = None
        self.pipeline: Optional[DurabilityPipeline] = None
        self.ledger: Optional[DecisionLedger] = None
        self.clog: Optional[SecureLog] = None

    # -- attestation ----------------------------------------------------------
    def _attest(self, cas: ConfigurationService) -> Gen:
        """LAS-signed quote, verified by the CAS (no IAS round trip)."""
        if self.las is None:
            raise RuntimeError("node %s has no deployed LAS" % self.name)
        quote = yield from self.las.quote_local_enclave(
            TREATY_MEASUREMENT, self.name.encode()
        )
        credentials = yield from cas.attest_instance(self.name, quote)
        return credentials

    # -- construction ------------------------------------------------------------
    def _build(self, credentials: NodeCredentials) -> None:
        self.boot_count += 1
        self.runtime = NodeRuntime(
            self.sim, self.profile, self.config, name=self.name,
            epoch=self.boot_count,
        )
        if self.sim.obs is not None:
            # Re-registering after recovery replaces the dead runtime's
            # registry in the hub.
            self.sim.obs.hub.add(self.name, self.runtime.metrics)
        self.keyring = credentials.keyring()
        cluster_nic = self.fabric.attach(
            self.cluster_address,
            self.config.costs.net_bandwidth,
            self.config.costs.net_propagation,
        )
        front_nic = self.fabric.attach(
            self.front_address,
            self.config.costs.client_bandwidth,
            self.config.costs.client_propagation,
        )
        self.cluster_endpoint = ErpcEndpoint(self.runtime, self.fabric, cluster_nic)
        self.front_endpoint = ErpcEndpoint(self.runtime, self.fabric, front_nic)
        self.cluster_rpc = SecureRpc(
            self.runtime, self.cluster_endpoint, self.keyring,
            self.numeric_id, epoch=self.boot_count,
        )
        self.front_rpc = SecureRpc(
            self.runtime, self.front_endpoint, self.keyring,
            self.numeric_id, epoch=self.boot_count, channel=1,
        )
        sealing = SealingKey(
            self.platform_secret, TREATY_MEASUREMENT, epoch=self.boot_count
        )
        self.replica = CounterReplica(
            self.runtime, self.cluster_rpc, self.disk, sealing, self.name
        )
        self.counter_client = CounterClient(
            self.runtime,
            self.cluster_rpc,
            self.replica,
            credentials.counter_peers,
            self.numeric_id,
            epoch=self.boot_count,
        )
        # Rebuilt on every boot, round scheduler included: a recovered
        # incarnation gets fresh per-shard drivers and leases while the
        # crashed incarnation's zombie fibers die on their detached NIC.
        self.pipeline = DurabilityPipeline(
            self.runtime, self.counter_client, self.config
        )
        # Decision slots are enclave memory: volatile, rebuilt each
        # boot.  A crash forgets them — the quorum of *surviving*
        # holders is what keeps a replicated decision alive, the same
        # trust shape as the counter protocol's echo memory.  Shared
        # between the node's Coordinator and Participant roles so the
        # coordinator's own slot counts toward the quorum.
        self.ledger = DecisionLedger(len(self.addresses))
        self.ledger.install_metrics(self.runtime.metrics)
        if self.config.storage_engine == "null":
            from ..storage.nullengine import NullStorageEngine

            self.engine = NullStorageEngine(self.runtime, name=self.name)
        else:
            self.runtime.heavy_enclave = True
            self.engine = LSMEngine(
                self.runtime,
                self.disk,
                self.keyring,
                self.config,
                name=self.name,
                # None, not a no-op: without stabilization the engine's
                # GC waits out a grace period instead.
                stabilize=(
                    self.pipeline.stabilize if self.pipeline.enabled else None
                ),
            )
        self.manager = TransactionManager(
            self.runtime, self.engine, self.config, self.pipeline,
            name=self.name,
        )

    def _wire_roles(self) -> None:
        self.participant = Participant(
            self.runtime,
            self.manager,
            self.cluster_rpc,
            self.numeric_id,
            self.addresses,
            self.pipeline,
            self.ledger,
        )
        self.coordinator = Coordinator(
            self.runtime,
            self.manager,
            self.cluster_rpc,
            self.clog,
            self.numeric_id,
            self.addresses,
            self.partitioner,
            self.pipeline,
            self.ledger,
            self.participant,
            epoch=self.boot_count,
        )
        self.frontend = FrontEnd(
            self.runtime, self.coordinator, self.manager, self.front_rpc,
            self.participant,
        )

    @property
    def clog_path(self) -> str:
        return "%s/clog-000001.log" % self.name

    # -- lifecycle -----------------------------------------------------------------
    def start(self, cas: ConfigurationService) -> Gen:
        """First boot: attest, initialize an empty engine, wire the roles."""
        credentials = yield from self._attest(cas)
        self._build(credentials)
        if self.config.storage_engine == "null":
            from ..storage.nullengine import NullLog

            self.clog = NullLog(self.runtime, self.clog_path)
        else:
            yield from self.engine.bootstrap()
            self.pipeline.witness.advance_floor(self.engine.current_seq())
            self.clog = SecureLog(
                self.runtime, self.disk, self.clog_path, self.keyring,
                log_name=self.clog_path,
            )
            yield from self.engine.manifest.record(
                ManifestEdit.new_log("clog", self.clog_path)
            )
        self._wire_roles()
        self.is_up = True

    def crash(self) -> None:
        """Fail-stop: lose everything volatile, keep the disk (§III)."""
        if self.sim.tracer is not None:
            self.sim.tracer.event(
                "node", "crash", node=self.name, node_id=self.numeric_id
            )
        self.fabric.detach(self.cluster_address)
        self.fabric.detach(self.front_address)
        self.is_up = False

    # -- recovery (§VI) ----------------------------------------------------------------
    def recover(self, cas: ConfigurationService) -> Gen:
        """Rebuild from the untrusted disk, verifying integrity+freshness."""
        if self.is_up:
            # Recovery implies a restart: tear down volatile state first.
            self.crash()
        credentials = yield from self._attest(cas)
        self._build(credentials)

        # Root span of the recovery's span DAG: the synthetic trace id
        # (high bit set — can never collide with a transaction's id)
        # groups log replay, fencing, and every resolution/redrive fiber
        # spawned below, across every node they touch.
        recovery_trace = GlobalTxnId(
            (1 << 63) | self.numeric_id, self.boot_count
        ).encode().hex()
        recovery_span = None
        if self.sim.tracer is not None and self.sim.tracer.enabled:
            recovery_span = self.sim.tracer.span(
                "node", "recover", node=self.name, trace=recovery_trace,
                parent=0, epoch=self.boot_count,
            )

        read_stable_many = None
        if self.profile.stabilization:
            read_stable_many = self.counter_client.read_stable_many
        state, prepared_ids, stable = yield from self.engine.recover(
            read_stable_many
        )
        # Recovery replays only the stable WAL prefix: every seq the
        # recovered snapshot exposes is already rollback-protected.
        self.pipeline.witness.advance_floor(self.engine.current_seq())

        # Clog: replay the 2PC state (§VI "Lastly, Clog is replayed").
        clog_path = state.live_clogs[-1] if state.live_clogs else self.clog_path
        self.clog = SecureLog(
            self.runtime, self.disk, clog_path, self.keyring, log_name=clog_path
        )
        # Clog: like the MANIFEST, the full authenticated chain is
        # replayed (an unstable suffix can only contain undecided or
        # unacknowledged protocol state, which recovery handles the same
        # either way); freshness is still enforced against the counter.
        if read_stable_many is not None:
            if clog_path not in stable:  # no MANIFEST edit names it yet
                stable.update((yield from read_stable_many([clog_path])))
            clog_stable = stable[clog_path]
            if self.clog.on_disk_max_counter() < clog_stable:
                raise FreshnessError(
                    "Clog rolled back: %d on disk, %d stable"
                    % (self.clog.on_disk_max_counter(), clog_stable)
                )
        clog_entries = yield from self.clog.replay()
        self.clog.reset_from_replay(clog_entries)
        self._wire_roles()

        # Fence the pre-crash epoch: peers abort this coordinator's
        # never-prepared transaction halves (nothing on any disk records
        # them, so Clog replay below cannot resolve them — without the
        # fence their locks would be held forever).
        self.sim.spawn(self._fence_peers(), name="fence@%s" % self.name)

        # Rebuild coordinator decisions from the Clog: what it last
        # recorded per transaction, and which commits it recorded COMPLETE.
        records, completed, decisions = fold_clog(clog_entries)
        self.coordinator.decisions.update(decisions)

        # Warm the fresh decision ledger with one vectored query burst
        # before any resolve fiber runs: completer fallbacks then start
        # from learned slots instead of cold query rounds.
        if replication(self.runtime) and prepared_ids:
            yield from self.participant.learn_decisions(sorted(prepared_ids))

        # Re-adopt prepared participant-local transactions (§VI: "each
        # node will re-initialize all prepared Txs that are not yet
        # committed").
        for txn_id in prepared_ids:
            writes = self.engine.prepared_txns[txn_id]
            yield from self._adopt_prepared(txn_id, writes)

        # One fiber per transaction left to finish.  A half of another
        # node's transaction asks that coordinator how it ended.  This
        # node's own transactions re-run what the Clog says — undecided
        # ones abort (their decision was never protected, so no client
        # saw success), decided ones are re-driven so participants that
        # crashed mid-commit converge ("if a node has already committed
        # the Tx, this message is ignored") — and that fiber applies the
        # own half if it came back prepared, COMPLETE or not.
        redriven = 0
        for key in dict.fromkeys([*records, *prepared_ids]):
            gid = GlobalTxnId.decode(key)
            if gid.node_id != self.numeric_id:
                self.sim.spawn(
                    self.participant.resolve(key),
                    name="resolve@%s" % self.name,
                )
            elif key not in completed or key in self.participant.active:
                # Presumed abort: the Clog decided nothing it does not name.
                record = records.get(key) or ClogRecord(
                    ClogRecord.PREPARE, gid, []
                )
                self.sim.spawn(
                    self.coordinator.replay(record, key in completed),
                    name="replay@%s" % self.name,
                )
                redriven += (
                    record.kind == ClogRecord.COMMIT and key not in completed
                )
        self.is_up = True
        if self.sim.tracer is not None:
            self.sim.tracer.event(
                "node", "recover_done", node=self.name,
                prepared=sorted(txn_id.hex() for txn_id in prepared_ids),
                redriven=redriven,
            )
        if recovery_span is not None:
            recovery_span.close(
                prepared=len(prepared_ids), redriven=redriven
            )
        return state

    # -- recovery helpers ---------------------------------------------------------
    def _adopt_prepared(self, txn_id: bytes, writes) -> Gen:
        txn = self.manager.begin_pessimistic(txn_id=txn_id)
        for key, value, _seq in writes:
            yield from self.manager.locks.acquire(
                txn_id, key, LockMode.EXCLUSIVE, timeout=10.0
            )
            txn.buffer.record(key, value)
        txn.status = TxnStatus.PREPARED
        self.participant.active[txn_id] = txn

    def _fence_peers(self) -> Gen:
        """Tell every peer this node's pre-crash epoch is dead.

        Best effort with bounded retries: a peer that is itself down
        lost the orphaned volatile state the fence targets anyway, so
        there is nothing to fence once it recovers.
        """
        if self.sim.tracer is not None:
            self.sim.tracer.event(
                "twopc", "fence", node=self.name, epoch=self.boot_count
            )
        yield from deliver(
            self.cluster_rpc, self.addresses, self.participant.peers,
            lambda: TxMessage(
                MsgType.TXN_FENCE, self.numeric_id, self.boot_count,
                self.participant.op_id(),
            ),
            rounds=10,
        )
