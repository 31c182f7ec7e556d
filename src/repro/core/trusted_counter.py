"""Asynchronous trusted counter service (ROTE-style echo broadcast, §VI).

"TREATY's trusted counter service implements an echo broadcast protocol
with an extra confirmation message in the end.  A sender-enclave (SE)
sends the counter update to all enclaves of the protection group.
Receiver-enclaves (REs) send back an echo-message which they store along
with the counter value in the protected memory.  Once the SE receives
echo-messages from the quorum (q) it starts a second round.  Upon
receiving back the echo, each RE verifies that the received counter value
matches the one it keeps in memory and replies with a (N)ACK.  After
receiving q ACKs, the enclave seals its own state together with the
counter value to the persistent storage."

Implementation notes:

* Every node hosts a :class:`CounterReplica` (a counter enclave).  The
  writing node's own replica participates locally (no network hop).
* Protocol messages carry a *vector* of ``(log_name, value)`` targets,
  so one echo-broadcast round stabilizes entries of many logs at once
  (WAL batches and Clog decisions share a round) — the ROTE/LCM-style
  amortization the durability pipeline is built on.
* Stabilization requests are *batched*: while a round is in flight,
  later requests raise the pending high-water marks, so a burst of
  transactions shares one protocol execution — this is what keeps the
  ~2 ms ROTE latency off the throughput path.  A single round driver
  per shard serves every log of that shard.
* Replica processing is charged ~``rote_latency_mean / 2`` per round so
  the end-to-end stabilization latency reproduces ROTE's measured ~2 ms.
  The charge is per *message*, not per target: a vectored round costs
  the same as a single-log round, which is exactly the amortization.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from ..errors import FreshnessError, NetworkError
from ..net.message import MsgType, TxMessage
from ..net.secure_rpc import SecureRpc
from ..sim.core import Event
from ..sim.rng import SeededRng
from ..sim.sync import Gate
from ..storage.disk import Disk
from ..storage.format import Reader, Writer
from ..tee.runtime import NodeRuntime
from ..tee.sgx import SealingKey

__all__ = [
    "CounterReplica",
    "CounterClient",
    "encode_counter_vector",
    "decode_counter_vector",
    "shard_of",
]

Gen = Generator[Event, Any, Any]

#: one stabilization target: a log and the counter value to protect.
Target = Tuple[str, int]

#: bucket edges for the ``stabilize.batch_size`` histogram (targets per
#: vectored round).
BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)

#: how long one counter round waits for stragglers beyond the quorum; a
#: crashed group member must not wedge the protocol (§VI).
COUNTER_ROUND_TIMEOUT = 0.05
#: backoff between counter-round retries when the quorum is unreachable.
COUNTER_RETRY_BACKOFF = 0.1
#: retries before a stabilization request gives up (FreshnessError).
COUNTER_MAX_RETRIES = 100


def shard_of(log_name: str, num_shards: int) -> int:
    """Route a log to its counter group by name hash.

    The mapping must be deterministic and stable across restarts and
    recovery — it depends only on the log's (globally unique) name and
    the configured shard count, never on boot state.
    """
    if num_shards <= 1:
        return 0
    return zlib.crc32(log_name.encode()) % num_shards


def encode_counter_vector(targets: Sequence[Target]) -> bytes:
    """Wire format of one protocol round: a vector of (log, value)."""
    writer = Writer().u32(len(targets))
    for log_name, value in targets:
        writer.blob(log_name.encode()).u64(value)
    return writer.getvalue()


def decode_counter_vector(data: bytes) -> List[Target]:
    reader = Reader(data)
    count = reader.u32()
    return [(reader.blob().decode(), reader.u64()) for _ in range(count)]


class CounterReplica:
    """The counter enclave running on one protection-group member."""

    SEALED_FILE = "counter.sealed"

    def __init__(
        self,
        runtime: NodeRuntime,
        rpc: SecureRpc,
        disk: Disk,
        sealing_key: SealingKey,
        node_name: str,
        rng: Optional[SeededRng] = None,
    ):
        self.runtime = runtime
        self.rpc = rpc
        self.disk = disk
        self.sealing_key = sealing_key
        self.node_name = node_name
        self.rng = rng or SeededRng(0, node_name, "counter-replica")
        self.tracer = runtime.tracer
        backend = runtime.config.rollback_backend
        #: async/lcm backends release waiters at echo quorum, so a
        #: recovery read must report the freshest *echoed* value too —
        #: an acked entry may be rollback-protected by echoes alone.
        #: Safe: targets are registered only after the entry is durable
        #: on the writer's disk, so an echoed value never exceeds an
        #: honest writer's on-disk state, and reporting it can only make
        #: the freshness check stricter.
        self.report_echoed = backend != "counter-sync"
        #: LCM mode: the echo *is* the commit — round 1 persists the
        #: value, there is no CONFIRM leg.
        self.echo_commit = backend == "lcm"
        #: tentative (echoed) and confirmed counter values per log.
        self.echoed: Dict[str, int] = {}
        self.confirmed: Dict[str, int] = {}
        self.updates_processed = 0
        rpc.register(MsgType.COUNTER_UPDATE, self._on_update)
        rpc.register(MsgType.COUNTER_CONFIRM, self._on_confirm)
        rpc.register(MsgType.RECOVERY_QUERY, self._on_read)
        self._load_sealed_state()

    # -- persistence --------------------------------------------------------
    def _sealed_path(self) -> str:
        return "%s/%s" % (self.node_name, self.SEALED_FILE)

    def _load_sealed_state(self) -> None:
        if not self.disk.exists(self._sealed_path()):
            return
        plain = self.sealing_key.unseal(self.disk.read(self._sealed_path()))
        reader = Reader(plain)
        count = reader.u32()
        for _ in range(count):
            log_name = reader.blob().decode()
            value = reader.u64()
            self.confirmed[log_name] = value
        self.echoed.update(self.confirmed)

    def seal_state(self) -> Gen:
        """Seal the confirmed counters to untrusted persistent storage."""
        writer = Writer().u32(len(self.confirmed))
        for log_name, value in sorted(self.confirmed.items()):
            writer.blob(log_name.encode()).u64(value)
        sealed = self.sealing_key.seal(writer.getvalue())
        self.disk.write(self._sealed_path(), sealed)
        yield from self.runtime.ssd_write(len(sealed))

    # -- protocol handlers -----------------------------------------------------
    def _processing_delay(self) -> float:
        mean = self.runtime.costs.rote_latency_mean / 2.0
        jitter = self.runtime.costs.rote_latency_jitter / 2.0
        return max(0.0, self.rng.gauss(mean, jitter))

    def _on_update(self, message: TxMessage, src: str) -> Gen:
        """Round 1: store the tentative values, reply with an echo.

        One processing delay covers the whole vector — the enclave
        transition and protected-memory update dominate, not the
        per-target bookkeeping.
        """
        yield self.runtime.sim.timeout(self._processing_delay())
        targets = decode_counter_vector(message.body)
        self.updates_processed += 1
        echoes = []
        for log_name, value in targets:
            if value > self.echoed.get(log_name, 0):
                self.echoed[log_name] = value
            echoes.append((log_name, self.echoed[log_name]))
        if self.echo_commit:
            # LCM mode: round 1 is the whole protocol.  Persist the
            # echoed values so rollback protection survives a full-group
            # restart, exactly as the CONFIRM leg's seal would.
            advanced = False
            for log_name, value in targets:
                if value > self.confirmed.get(log_name, 0):
                    self.confirmed[log_name] = value
                    advanced = True
                    self.tracer.event(
                        "counter", "confirm", node=self.node_name,
                        replica=self.node_name, log=log_name, value=value,
                    )
            if advanced:
                yield from self.seal_state()
        return message.reply(MsgType.ACK, encode_counter_vector(echoes))

    def _on_confirm(self, message: TxMessage, src: str) -> Gen:
        """Round 2: verify every value matches a stored echo, then ACK.

        A single target we never echoed poisons the whole round (NACK) —
        a Byzantine-suspicious SE must not smuggle an unechoed value in
        next to legitimate ones.
        """
        yield self.runtime.sim.timeout(self._processing_delay())
        targets = decode_counter_vector(message.body)
        for log_name, value in targets:
            if self.echoed.get(log_name, 0) < value:
                return message.reply(MsgType.FAIL)
        advanced = False
        for log_name, value in targets:
            if value > self.confirmed.get(log_name, 0):
                self.confirmed[log_name] = value
                advanced = True
                self.tracer.event(
                    "counter", "confirm", node=self.node_name,
                    replica=self.node_name, log=log_name, value=value,
                )
        if advanced:
            # One seal covers every confirmed target of the round.
            yield from self.seal_state()
        return message.reply(MsgType.ACK)

    def _on_read(self, message: TxMessage, src: str) -> Gen:
        """Recovery: report the freshest values this replica knows."""
        yield from self.runtime.op_overhead()
        queried = decode_counter_vector(message.body)
        if self.report_echoed:
            values = [
                (
                    log_name,
                    max(
                        self.echoed.get(log_name, 0),
                        self.confirmed.get(log_name, 0),
                    ),
                )
                for log_name, _ in queried
            ]
        else:
            values = [
                (log_name, self.confirmed.get(log_name, 0))
                for log_name, _ in queried
            ]
        return message.reply(
            MsgType.RECOVERY_REPLY, encode_counter_vector(values)
        )

    # -- local fast path (the SE's own replica) -----------------------------------
    def local_echo(self, targets: Sequence[Target]) -> None:
        for log_name, value in targets:
            if value > self.echoed.get(log_name, 0):
                self.echoed[log_name] = value

    def local_confirm(self, targets: Sequence[Target]) -> Gen:
        advanced = False
        for log_name, value in targets:
            if value > self.confirmed.get(log_name, 0):
                self.confirmed[log_name] = value
                advanced = True
                self.tracer.event(
                    "counter", "confirm", node=self.node_name,
                    replica=self.node_name, log=log_name, value=value,
                )
        if advanced:
            yield from self.seal_state()


class CounterClient:
    """The sender-enclave side: stabilizes log counters via the group.

    The client keeps one pending high-water mark per log and a round
    driver that snapshots *every* log's pending target into one vectored
    protocol execution.  Waiters block on per-log :class:`Gate`\\ s, so a
    round that stabilizes ``{wal: 7, clog: 3}`` wakes WAL and Clog
    waiters together.
    """

    def __init__(
        self,
        runtime: NodeRuntime,
        rpc: SecureRpc,
        replica: CounterReplica,
        peers: List[str],
        quorum: int,
        node_numeric_id: int,
        epoch: int = 0,
    ):
        self.runtime = runtime
        self.rpc = rpc
        self.replica = replica
        self.peers = peers  # other group members' addresses
        self.quorum = quorum
        self.node_numeric_id = node_numeric_id
        self.tracer = runtime.tracer
        #: boot epoch: distinguishes operation ids across restarts so the
        #: peers' replay guards do not reject a recovered node's traffic.
        self.epoch = epoch
        #: independent counter groups, routed by log-name hash.  Each
        #: shard keeps its own pending marks, round driver and trace
        #: context, so disjoint logs stop serializing through one round.
        self.num_shards = max(1, runtime.config.counter_shards)
        self._gates: Dict[str, Gate] = {}
        self._pending_target: List[Dict[str, int]] = [
            {} for _ in range(self.num_shards)
        ]
        #: per-shard driver flags.
        self._driver_active = [False] * self.num_shards
        #: trace context of the first registrant since the last round —
        #: the round span attaches there, so a transaction's counter
        #: round joins its cross-node DAG (shared rounds are attributed
        #: to the registrant that triggered them).
        self._round_ctx: List[Optional[Tuple[Optional[str], int]]] = [
            None
        ] * self.num_shards
        self._op_seq = 0
        self.rounds_executed = 0
        runtime.metrics.probe(
            "counter.rounds_executed", lambda: self.rounds_executed
        )
        for shard in range(self.num_shards):
            runtime.metrics.probe(
                "counter.pending.%d" % shard,
                lambda s=shard: len(self._pending_target[s]),
            )
        self._batch_hist = runtime.metrics.histogram(
            "stabilize.batch_size", edges=BATCH_SIZE_BUCKETS
        )

    def _gate(self, log_name: str) -> Gate:
        if log_name not in self._gates:
            gate = Gate(self.runtime.sim)
            # A locally confirmed value is quorum-stable by construction
            # (the source only confirms after a quorum of echoes), so the
            # gate must never start below it.  This matters after a
            # restart: the replica reloads sealed confirmed values, and a
            # redriven round with a stale (lower) target would otherwise
            # re-advertise a stable view this node already surpassed.
            confirmed = self.replica.confirmed.get(log_name, 0)
            if confirmed > 0:
                gate.advance_to(confirmed)
            self._gates[log_name] = gate
        return self._gates[log_name]

    def stable_value(self, log_name: str) -> int:
        """The highest value known stable (locally observed)."""
        return self._gate(log_name).value

    def shard_of(self, log_name: str) -> int:
        """The counter group that serves ``log_name``."""
        return shard_of(log_name, self.num_shards)

    def _next_op(self) -> int:
        self._op_seq += 1
        return self._op_seq

    # -- stabilization ----------------------------------------------------------
    def _register(
        self, log_name: str, value: int, spawn_driver: bool = True
    ) -> int:
        """Raise the pending high-water mark; optionally ensure a driver.

        Returns the target's shard.  ``spawn_driver=False`` is the
        passive registration the async backends use: they run their own
        per-shard driver fibers and only need the mark recorded.
        """
        shard = self.shard_of(log_name)
        pending = self._pending_target[shard]
        pending[log_name] = max(pending.get(log_name, 0), value)
        if self.tracer.enabled and self._round_ctx[shard] is None:
            context = self.tracer.current_context()
            if context[0] is not None or context[1]:
                self._round_ctx[shard] = context
        if not spawn_driver:
            return shard
        if not self._driver_active[shard]:
            self._driver_active[shard] = True
            self.runtime.sim.process(
                self._drive_vectored_rounds(shard),
                name="counter-se/vector.%d" % shard,
            )
        return shard

    def stabilize(self, log_name: str, value: int) -> Gen:
        """Block until ``log_name``'s counter is stable at >= ``value``."""
        gate = self._gate(log_name)
        if gate.value >= value:
            return
        self._register(log_name, value)
        yield gate.wait_for(value)

    def stabilize_many(self, targets: Sequence[Target]) -> Gen:
        """Block until every ``(log, value)`` target is stable.

        One request registers all targets before the round driver's next
        snapshot, so they share a single echo-broadcast execution — this
        is what the group-commit leader calls to stabilize its batch's
        WAL counter alongside any pending Clog decisions.
        """
        waits = []
        for log_name, value in targets:
            gate = self._gate(log_name)
            if gate.value >= value:
                continue
            self._register(log_name, value)
            waits.append(gate.wait_for(value))
        if waits:
            yield self.runtime.sim.all_of(waits)

    # -- round drivers ----------------------------------------------------------
    def _pending_snapshot(self, shard: int = 0) -> List[Target]:
        """Every log of ``shard`` whose pending target is not yet stable,
        sorted for deterministic wire payloads."""
        return sorted(
            (log_name, target)
            for log_name, target in self._pending_target[shard].items()
            if target > self._gate(log_name).value
        )

    def _advance(self, targets: Sequence[Target]) -> None:
        for log_name, value in targets:
            gate = self._gate(log_name)
            if value > gate.value:
                gate.advance_to(value)
                # The monitor learns stability from this event alone —
                # it fires only after a genuine quorum confirm.
                self.tracer.event(
                    "stabilize", "advance", node=self.replica.node_name,
                    log=log_name, value=value,
                )

    def _drive_vectored_rounds(self, shard: int = 0) -> Gen:
        """The round driver: one round covers every pending log of the
        shard."""
        retries = 0
        try:
            while True:
                targets = self._pending_snapshot(shard)
                if not targets:
                    break
                try:
                    yield from self._run_protocol(targets, shard=shard)
                except FreshnessError:
                    retries += 1
                    if retries > COUNTER_MAX_RETRIES:
                        raise
                    yield self.runtime.sim.timeout(COUNTER_RETRY_BACKOFF)
                    continue
                retries = 0
                self._advance(targets)
        finally:
            self._driver_active[shard] = False

    def _broadcast(self, msg_type: int, targets: Sequence[Target]) -> Gen:
        """Send one round to all peers; returns the number of ACKs.

        Returns as soon as the *quorum* has answered (the local replica
        counts as one vote, so ``quorum - 1`` remote ACKs complete it):
        the round's latency is the fastest quorum-completing peer, not
        the slowest straggler.  Straggler echoes keep arriving in the
        background and only freshen replica state.  If the quorum is
        unreachable the wait falls back to every reply settling, bounded
        by ``round_timeout`` — a crashed peer must not wedge the round.
        """
        body = encode_counter_vector(targets)
        # One broadcast enqueues every peer in the same instant, so each
        # peer's echo message coalesces into the same transport batch as
        # concurrent 2PC traffic headed its way.  A crashed peer fails
        # its event immediately, which simply counts as a missing ACK.
        events = self.rpc.broadcast(
            [
                (
                    peer,
                    TxMessage(
                        msg_type, self.node_numeric_id, self.epoch,
                        self._next_op(), body,
                    ),
                )
                for peer in self.peers
            ],
            express=True,  # dedicated counter-service enclave thread
        )
        acks = 1  # the local replica always participates
        if events:
            yield self.runtime.sim.any_of(
                [
                    self.runtime.sim.quorum_of(
                        events,
                        max(0, self.quorum - acks),
                        accept=lambda reply: reply.msg_type == MsgType.ACK,
                    ),
                    self.runtime.sim.timeout(COUNTER_ROUND_TIMEOUT),
                ]
            )
            for event in events:
                if event.triggered and event.ok:
                    reply = event.value
                    if reply.msg_type == MsgType.ACK:
                        acks += 1
        return acks

    def _run_protocol(
        self,
        targets: Sequence[Target],
        shard: int = 0,
        confirm: bool = True,
        release_at_echo: bool = False,
        background_confirm: bool = False,
    ) -> Gen:
        """One echo-broadcast execution stabilizing a target vector.

        ``release_at_echo`` advances the stable frontier as soon as the
        echo quorum is reached — the value is then held in a quorum's
        protected memory, which is the rollback-protection point the
        async backends ack on.  ``background_confirm`` detaches the
        CONFIRM leg into its own fiber so the caller (and the shard's
        round pipeline) is not serialized behind it; ``confirm=False``
        drops the leg entirely (LCM mode — the echo is the commit).
        """
        self.rounds_executed += 1
        self._batch_hist.observe(len(targets))
        # Attach the round to the context captured at registration time
        # (falling back to the driver fiber's inherited context), so the
        # UPDATE/CONFIRM fan-out below — and the replicas' handler spans
        # on the other side of the wire — join that transaction's DAG.
        context, self._round_ctx[shard] = self._round_ctx[shard], None
        if context is not None:
            span = self.tracer.span(
                "counter", "round", node=self.replica.node_name,
                trace=context[0], parent=context[1], targets=len(targets),
            )
        else:
            span = self.tracer.span(
                "counter", "round", node=self.replica.node_name,
                targets=len(targets),
            )
        error = None
        try:
            # Round 1: update + echoes.
            self.replica.local_echo(targets)
            acks = yield from self._broadcast(MsgType.COUNTER_UPDATE, targets)
            if acks < self.quorum:
                raise FreshnessError(
                    "counter group unavailable: %d/%d echoes for %d targets"
                    % (acks, self.quorum, len(targets))
                )
            if release_at_echo:
                # Echo quorum: the values sit in a quorum's protected
                # memory — rollback-protected for fail-stop + rollback
                # adversaries (recovery reads report echoed values under
                # these backends).  Waiters release here.
                self._advance(targets)
            if not confirm:
                # LCM mode: seal our own echoed state and stop.
                yield from self.replica.local_confirm(targets)
            elif background_confirm:
                self.runtime.sim.process(
                    self._confirm_leg(targets),
                    name="counter-confirm/%d" % shard,
                )
            else:
                yield from self._confirm_leg(targets, strict=True)
        except FreshnessError:
            error = "freshness"
            raise
        except NetworkError:
            error = "network"
            raise
        finally:
            # try/finally: a NetworkError out of a zombie driver's
            # broadcast (NIC detached mid-round) must not leak the span.
            if error:
                span.close(error=error)
            else:
                span.close()

    def _confirm_leg(self, targets: Sequence[Target], strict: bool = False) -> Gen:
        """Round 2: confirmation + local seal.

        ``strict`` raises on a missing quorum (the synchronous protocol);
        otherwise a failed background confirm is dropped — the echo
        quorum already rollback-protects the values, the CONFIRM only
        freshens the replicas' sealed state.
        """
        try:
            acks = yield from self._broadcast(MsgType.COUNTER_CONFIRM, targets)
        except NetworkError:
            if strict:
                raise
            return
        if acks < self.quorum:
            if strict:
                raise FreshnessError(
                    "counter group unavailable: %d/%d confirms for %d targets"
                    % (acks, self.quorum, len(targets))
                )
            return
        # Seal own state with the stabilized values (end of protocol).
        yield from self.replica.local_confirm(targets)

    def drive_until_stable(
        self,
        targets: Sequence[Target],
        shard: int = 0,
        confirm: bool = True,
        release_at_echo: bool = False,
        background_confirm: bool = False,
    ) -> Gen:
        """Run protocol rounds (with freshness retries) until every
        target is stable — the synchronous fallback the async backends
        use when a coverage promise outlives its lease."""
        retries = 0
        while True:
            remaining = [
                (log_name, value)
                for log_name, value in targets
                if value > self._gate(log_name).value
            ]
            if not remaining:
                return
            try:
                yield from self._run_protocol(
                    remaining, shard=shard, confirm=confirm,
                    release_at_echo=release_at_echo,
                    background_confirm=background_confirm,
                )
            except FreshnessError:
                retries += 1
                if retries > COUNTER_MAX_RETRIES:
                    raise
                yield self.runtime.sim.timeout(COUNTER_RETRY_BACKOFF)
                continue
            retries = 0
            self._advance(remaining)

    # -- recovery reads -------------------------------------------------------------
    def read_stable_many(self, log_names: Sequence[str]) -> Gen:
        """Quorum-read the freshest stable values for many logs at once.

        Used at recovery: "only log entries with counter value [up to]
        the trusted service's value can be recovered".  One query round
        covers every live WAL and Clog instead of a round per log.
        Returns ``{log_name: value}``.
        """
        log_names = list(log_names)
        body = encode_counter_vector([(name, 0) for name in log_names])
        events = self.rpc.broadcast(
            [
                (
                    peer,
                    TxMessage(
                        MsgType.RECOVERY_QUERY,
                        self.node_numeric_id,
                        self.epoch,
                        self._next_op(),
                        body,
                    ),
                )
                for peer in self.peers
            ],
            express=True,
        )
        freshest = {
            name: self.replica.confirmed.get(name, 0) for name in log_names
        }
        responders = 1  # the local replica always answers
        if events:
            yield self.runtime.sim.any_of(
                [
                    self.runtime.sim.all_settled(events),
                    self.runtime.sim.timeout(COUNTER_ROUND_TIMEOUT),
                ]
            )
        for event in events:
            if event.triggered and event.ok:
                reply = event.value
                if reply.msg_type == MsgType.RECOVERY_REPLY:
                    responders += 1
                    for log_name, value in decode_counter_vector(reply.body):
                        if value > freshest.get(log_name, 0):
                            freshest[log_name] = value
        if responders < self.quorum:
            raise FreshnessError("cannot reach counter quorum for recovery")
        self._advance(sorted(freshest.items()))
        return freshest

    def read_stable(self, log_name: str) -> Gen:
        """Quorum-read the freshest stable value for one log."""
        values = yield from self.read_stable_many([log_name])
        return values[log_name]
