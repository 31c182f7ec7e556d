"""A Treaty node: the full per-node stack of Figure 1.

Assembles the trusted components (Tx layer, lock manager, Tx KV engine,
counter enclave) inside the node's enclave runtime, and the untrusted
components (disk, NICs) outside it.  Nodes can :meth:`crash` (volatile
state lost, disk kept) and :meth:`recover` (local re-attestation via the
LAS, log replay, freshness checks, prepared-transaction resolution).
"""

from __future__ import annotations

import itertools
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
from .rollback import DecisionLedger
from .trusted_counter import CounterClient, CounterReplica
from .twopc import (
    RESOLUTION_RETRY_INTERVAL,
    ClogRecord,
    Coordinator,
    Participant,
    deliver,
    fold_clog,
    pace,
    replication,
)

__all__ = ["TreatyNode"]

Gen = Generator[Event, Any, Any]

_RESOLUTION_OP_BASE = 1 << 60


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
        self._clog_seq = 1
        self.cluster_address = name
        self.front_address = name + ".front"
        self.is_up = False
        self._resolution_ops = itertools.count(1)
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
            self.config.counter_quorum,
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
        self.ledger = DecisionLedger(self.config.num_nodes)
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
            self._resolution_op_id,
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
        return "%s/clog-%06d.log" % (self.name, self._clog_seq)

    def rotate_clog(self) -> Gen:
        """Garbage-collect the coordinator log (§V-A / §VII-B).

        "The Clog is deleted as long as there are no unstable entries
        and does not contain any unfinished prepared transaction entry."
        Unresolved protocol state (undecided prepares, commits whose
        completion is unrecorded) is carried into the fresh Clog; the
        old file is deleted once the MANIFEST edits recording the
        rotation are stabilized.
        """
        if self.config.storage_engine == "null":
            return
        old_clog = self.clog
        # Which 2PC state must survive into the new log: undecided
        # prepares and commits whose completion is unrecorded.  Decided
        # ABORTs are dropped here, though recovery would redrive them.
        entries = yield from old_clog.replay()
        prepares, undone_commits, _aborts, _decisions = fold_clog(entries)

        self._clog_seq += 1
        new_clog = SecureLog(
            self.runtime, self.disk, self.clog_path, self.keyring,
            log_name=self.clog_path,
        )
        for record in list(prepares.values()) + list(undone_commits.values()):
            yield from new_clog.append(record.encode())
        yield from self.engine.manifest.record(
            ManifestEdit.new_log("clog", new_clog.filename)
        )
        counter = yield from self.engine.manifest.record(
            ManifestEdit.del_log("clog", old_clog.filename)
        )
        self.clog = new_clog
        if self.coordinator is not None:
            self.coordinator.clog = new_clog

        old_filename = old_clog.filename

        def gc():
            if self.pipeline.enabled:
                yield from self.pipeline.stabilize(
                    self.engine.manifest_log_name, counter
                )
                yield from self.pipeline.stabilize(
                    new_clog.log_name, new_clog.last_counter
                )
            else:
                yield self.sim.sleep(0.05)
            self.disk.delete(old_filename)

        self.sim.spawn(gc(), name="clog-gc@%s" % self.name)

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

        resolver = None
        if self.profile.stabilization:
            # Import here: repro.core.recovery imports the cluster module
            # (for the attack helpers), which imports this one.
            from .recovery import StableCounterResolver

            resolver = StableCounterResolver(self.counter_client)

        state, prepared_ids = yield from self.engine.recover(resolver)
        # Recovery replays only the stable WAL prefix: every seq the
        # recovered snapshot exposes is already rollback-protected.
        self.pipeline.witness.advance_floor(self.engine.current_seq())

        # Clog: replay the 2PC state (§VI "Lastly, Clog is replayed").
        clog_path = state.live_clogs[-1] if state.live_clogs else self.clog_path
        stem = clog_path.rsplit("/", 1)[1]
        if stem.startswith("clog-"):
            self._clog_seq = max(self._clog_seq, int(stem[5:11]))
        self.clog = SecureLog(
            self.runtime, self.disk, clog_path, self.keyring, log_name=clog_path
        )
        # Clog: like the MANIFEST, the full authenticated chain is
        # replayed (an unstable suffix can only contain undecided or
        # unacknowledged protocol state, which recovery handles the same
        # either way); freshness is still enforced against the counter.
        if resolver is not None:
            clog_stable = yield from resolver(clog_path)
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

        # Rebuild coordinator decisions; find unresolved prepares and
        # commits whose completion was never recorded.
        seen_prepares, incomplete_commits, decided_aborts, decisions = (
            fold_clog(clog_entries)
        )
        self.coordinator.decisions.update(decisions)

        # Warm the fresh decision ledger with one vectored query burst
        # before any resolve fiber runs: completer fallbacks then start
        # from learned slots instead of cold query rounds.
        if replication(self.runtime) and prepared_ids:
            from .recovery import DecisionResolver

            yield from DecisionResolver(self.participant).prefetch(
                sorted(prepared_ids)
            )

        # Re-adopt prepared participant-local transactions (§VI: "each
        # node will re-initialize all prepared Txs that are not yet
        # committed") and resolve them with their coordinators.
        for txn_id in prepared_ids:
            writes = self.engine.prepared_txns[txn_id]
            yield from self._adopt_prepared(txn_id, writes)
            self.sim.spawn(
                self._resolve_prepared(txn_id), name="resolve@%s" % self.name
            )

        # Coordinator half: undecided transactions are presumed aborted
        # (their decision was never stable, so no client saw success);
        # decided-commit transactions are re-driven so participants that
        # crashed mid-commit converge ("if a node has already committed
        # the Tx, this message is ignored").
        for key, record in seen_prepares.items():
            self.sim.spawn(
                self._abort_undecided(record), name="re-abort@%s" % self.name
            )
        for key, record in incomplete_commits.items():
            self.sim.spawn(
                self._redrive_commit(record), name="re-commit@%s" % self.name
            )
        for key, record in decided_aborts.items():
            self.sim.spawn(
                self._redrive_abort(record), name="re-abort@%s" % self.name
            )
        self.is_up = True
        if self.sim.tracer is not None:
            self.sim.tracer.event(
                "node", "recover_done", node=self.name,
                prepared=sorted(txn_id.hex() for txn_id in prepared_ids),
                redriven=len(incomplete_commits),
            )
        if recovery_span is not None:
            recovery_span.close(
                prepared=len(prepared_ids), redriven=len(incomplete_commits)
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

    def _resolution_op_id(self) -> int:
        # The replay guard dedups on (node, txn, op) where node/txn name
        # the *coordinator's* transaction — but resolution op ids are
        # allocated by the *asking* node.  Two recovered participants at
        # the same boot epoch asking about the same transaction would
        # otherwise mint identical triples, and the coordinator would
        # drop the second genuine query as a replay (leaving that
        # participant's prepared half, and its locks, parked forever).
        # Folding the asker's id into the op makes the triple unique.
        return (
            _RESOLUTION_OP_BASE
            | (self.numeric_id << 50)
            | (self.boot_count << 40)
            | next(self._resolution_ops)
        )

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
                self._resolution_op_id(),
            ),
            rounds=10,
        )

    def _resolve_prepared(self, txn_id: bytes) -> Gen:
        """Learn how a recovered prepared half was decided; apply it."""
        gid = GlobalTxnId.decode(txn_id)
        replicated = replication(self.runtime)
        own = gid.node_id == self.numeric_id
        if own and replicated:
            # This node's own Clog decision is necessary but no longer
            # sufficient: a COMMIT whose replication round never reached
            # quorum may have been superseded by a completer abort
            # quorum while this node was down.  The completer state
            # machine re-derives the final outcome from the slot quorum
            # (the redrive fiber re-confirms the decision and drives the
            # group in parallel).
            yield from self.participant.complete(txn_id)
            return
        if own:
            # Ask this node's coordinator role, which answers only once
            # the decision entry is protected — it may sit in the
            # replayed Clog's unstable suffix.
            kind = yield from self.coordinator.resolve(txn_id)
        else:
            # The coordinator may be down, or the question or its answer
            # lost.  Without decision replication its answer is the only
            # safe way to decide, so ask until it comes; with
            # replication a quorum of peers holds the decision, so once
            # the decision timeout elapses hand the transaction to the
            # completer state machine instead of blocking on a dead
            # coordinator.
            deadline = self.sim.now + self.config.decision_timeout_s
            while True:
                round_start = self.sim.now
                (reply,) = yield from self.cluster_rpc.gather(
                    [(
                        self.addresses[gid.node_id],
                        TxMessage(
                            MsgType.TXN_RESOLVE, gid.node_id, gid.local_seq,
                            self._resolution_op_id(),
                        ),
                    )],
                    timeout=RESOLUTION_RETRY_INTERVAL,
                )
                if reply is not None:
                    break
                if replicated and self.sim.now >= deadline:
                    yield from self.participant.complete(txn_id)
                    return
                yield from pace(self.sim, round_start)
            kind = (
                ClogRecord.COMMIT if reply.body == b"commit"
                else ClogRecord.ABORT
            )
        targets = yield from self.participant.apply(txn_id, kind)
        if targets is None:
            # A coordinator redrive resolved this transaction while the
            # query was in flight (the coordinator can recover and
            # re-broadcast concurrently with our retries).
            return
        if self.sim.tracer is not None:
            self.sim.tracer.event(
                "twopc", "prepared_resolved", node=self.name,
                txn=txn_id.hex(),
                outcome="commit" if kind == ClogRecord.COMMIT else "abort",
            )
        yield from self.pipeline.stabilize_group(
            targets, txn=txn_id.hex(), phase="resolve-apply"
        )

    def _abort_undecided(self, record: ClogRecord) -> Gen:
        counter = yield from self.coordinator.log_clog(
            ClogRecord(ClogRecord.ABORT, record.gid, record.participants)
        )
        self.pipeline.background(self.clog.log_name, counter)
        yield from self.participant.instruct(
            ClogRecord.ABORT, record.gid, record.participants
        )

    def _redrive_abort(self, record: ClogRecord) -> Gen:
        """Re-instruct participants of a decided-abort transaction.

        Aborts log no COMPLETE record (presumed abort), so recovery
        re-broadcasts every one: the pre-crash coordinator may have
        logged the ABORT decision but died before any participant heard
        it, and their prepared halves (with their locks) would wait
        forever.  Participants that already aborted — or never heard of
        the transaction — acknowledge and ignore the duplicate.
        """
        yield from self.participant.instruct(
            ClogRecord.ABORT, record.gid, record.participants
        )

    def _redrive_commit(self, record: ClogRecord) -> Gen:
        """Re-run a decided commit from its Clog entry: protect, deliver.

        Participants that already committed ignore the message; ones
        that recovered with the transaction still prepared commit it.
        The decision entry may sit in the replayed Clog's unstable
        suffix (the pre-crash coordinator logged it but died before
        stabilizing), so it is protected again before any participant
        is told to commit — together with any piggybacked prepare
        targets the pre-crash coordinator collected but never saw
        stabilized (a participant may hold its matching prepare record
        in *its* unstable WAL suffix, waiting on exactly this round).

        Under decision replication protecting also *re-confirms* the
        decision quorum: while this coordinator was down a completer
        abort quorum may have formed (a COMMIT entry whose replication
        round never reached quorum is unobservable — no client saw it
        succeed), in which case the cluster already converged on abort
        and the redrive logs a superseding ABORT and follows.
        """
        key = record.gid.encode()
        _kind, counter, targets = self.coordinator.decisions[key]
        kind = yield from self.coordinator.protect(
            ClogRecord.COMMIT, record.gid, record.participants,
            list(targets), counter, phase="redrive",
        )
        # Apply-side targets piggybacked on the re-driven COMMIT ACKs
        # still deserve stabilization (off the critical path).
        apply_targets = yield from self.participant.instruct(
            kind, record.gid, record.participants
        )
        yield from self.pipeline.stabilize_group(
            apply_targets, txn=key.hex(), phase="redrive-apply"
        )
