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
* A rollback-protection backend (``ClusterConfig.rollback_backend``) is
  a *row of data*, not a class: :data:`BACKENDS` maps each name to the
  :class:`RoundShape` its rounds take, and replica and client read
  their row once, at construction.
"""

from __future__ import annotations

import zlib
from typing import (
    Any, Dict, Generator, List, NamedTuple, Optional, Sequence, Tuple,
)

from ..errors import FreshnessError, NetworkError
from ..net.message import MsgType, TxMessage
from ..net.secure_rpc import SecureRpc, replies
from ..sim.core import Event
from ..sim.rng import SeededRng
from ..sim.sync import Gate
from ..storage.disk import Disk
from ..storage.format import Reader, Writer
from ..tee.runtime import NodeRuntime
from ..tee.sgx import SealingKey

__all__ = [
    "BACKENDS",
    "RoundShape",
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

#: the deadline of every counter request; a crashed or silent group
#: member must not wedge the protocol (§VI).
COUNTER_ROUND_TIMEOUT = 0.05
#: backoff between counter-round retries when the quorum is unreachable.
COUNTER_RETRY_BACKOFF = 0.1
#: retries before a stabilization request gives up (FreshnessError).
COUNTER_MAX_RETRIES = 100


class RoundShape(NamedTuple):
    """What a rollback-protection backend *is*: the three facts in which
    one echo-broadcast round differs from another."""

    #: waiters release at the echo quorum — the values then sit in a
    #: quorum's protected memory, the rollback-protection point for
    #: fail-stop + rollback adversaries — instead of the CONFIRM quorum.
    release_at_echo: bool
    #: the CONFIRM leg: ``"strict"`` (on the round's critical path; a
    #: missing quorum fails the round), ``"background"`` (detached into
    #: its own fiber; it only freshens the replicas' sealed state, so a
    #: failed one is dropped) or ``"none"`` (the echo *is* the commit:
    #: replicas seal when they echo).
    confirm: str
    #: rounds are scheduled by coverage promises — per-shard background
    #: drivers, leases, a sync fallback (:mod:`repro.core.rollback`) —
    #: instead of on demand by the first waiter.
    promises: bool


#: ``ClusterConfig.rollback_backend`` → the shape of its rounds.
#:
#: ``counter-sync``: §VI as written.  Both legs — UPDATE/echo quorum,
#: CONFIRM/ack quorum, seal — sit on the commit critical path and only
#: then are waiters released.  ``counter-async``: waiters release at the
#: echo quorum and the CONFIRM leg completes off the critical path.
#: ``lcm``: LCM-style (Brandenburger et al., PAPERS.md) — one broadcast,
#: one quorum, one seal per replica, no CONFIRM leg at all.
BACKENDS: Dict[str, RoundShape] = {
    #                 release_at_echo, confirm, promises
    "counter-sync": RoundShape(False, "strict", False),
    "counter-async": RoundShape(True, "background", True),
    "lcm": RoundShape(True, "none", True),
}


def round_shape(config) -> RoundShape:
    """The configured backend's row (``ValueError`` for an unknown name)."""
    try:
        return BACKENDS[config.rollback_backend]
    except KeyError:
        raise ValueError(
            "unknown rollback_backend %r (expected one of %s)"
            % (config.rollback_backend, ", ".join(BACKENDS))
        ) from None


def majority(members: int) -> int:
    """The smallest quorum of ``members`` any two of which intersect."""
    return members // 2 + 1


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
        #: the configured backend's round shape (:data:`BACKENDS`).
        self.shape = round_shape(runtime.config)
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

    def echo(self, targets: Sequence[Target]) -> None:
        """Store the tentative values in protected memory."""
        echoed = self.echoed
        for log_name, value in targets:
            if value > echoed.get(log_name, 0):
                echoed[log_name] = value

    def confirm(self, targets: Sequence[Target]) -> Gen:
        """Advance the confirmed values and persist them.

        One seal covers every confirmed target of the round; a round
        that advances nothing charges none (and yields no event).
        """
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

    def _on_update(self, message: TxMessage, src: str) -> Gen:
        """Round 1: store the tentative values, reply with an echo.

        One processing delay covers the whole vector — the enclave
        transition and protected-memory update dominate, not the
        per-target bookkeeping.
        """
        yield self.runtime.sim.sleep(self._processing_delay())
        targets = decode_counter_vector(message.body)
        self.updates_processed += 1
        self.echo(targets)
        echoes = [(log_name, self.echoed[log_name]) for log_name, _ in targets]
        if self.shape.confirm == "none":
            # Round 1 is the whole protocol.  Persist the echoed values
            # so rollback protection survives a full-group restart,
            # exactly as the CONFIRM leg's seal would.
            yield from self.confirm(targets)
        return message.reply(MsgType.ACK, encode_counter_vector(echoes))

    def _on_confirm(self, message: TxMessage, src: str) -> Gen:
        """Round 2: verify every value matches a stored echo, then ACK.

        A single target we never echoed poisons the whole round (NACK) —
        a Byzantine-suspicious SE must not smuggle an unechoed value in
        next to legitimate ones.
        """
        yield self.runtime.sim.sleep(self._processing_delay())
        targets = decode_counter_vector(message.body)
        for log_name, value in targets:
            if self.echoed.get(log_name, 0) < value:
                return message.reply(MsgType.FAIL)
        yield from self.confirm(targets)
        return message.reply(MsgType.ACK)

    def _on_read(self, message: TxMessage, src: str) -> Gen:
        """Recovery: report the freshest values this replica knows.

        Backends that release waiters at echo quorum must report the
        freshest *echoed* value too — an acked entry may be
        rollback-protected by echoes alone.  Safe: targets are
        registered only after the entry is durable on the writer's disk,
        so an echoed value never exceeds an honest writer's on-disk
        state, and reporting it can only make the freshness check
        stricter.
        """
        yield from self.runtime.op_overhead()
        reports = (
            (self.echoed, self.confirmed) if self.shape.release_at_echo
            else (self.confirmed,)
        )
        return message.reply(
            MsgType.RECOVERY_REPLY,
            encode_counter_vector([
                (log_name, max(seen.get(log_name, 0) for seen in reports))
                for log_name, _ in decode_counter_vector(message.body)
            ]),
        )


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
        node_numeric_id: int,
        epoch: int = 0,
    ):
        self.runtime = runtime
        self.rpc = rpc
        self.replica = replica
        self.peers = peers  # other group members' addresses
        #: a majority of the group, so that a round's write quorum and
        #: recovery's read quorum (:meth:`read_stable_many`) intersect.
        self.quorum = majority(len(peers) + 1)
        self.node_numeric_id = node_numeric_id
        self.tracer = runtime.tracer
        #: the shape of every round this client runs — its replica's.
        self.shape = replica.shape
        #: boot epoch: distinguishes operation ids across restarts so the
        #: peers' replay guards do not reject a recovered node's traffic.
        self.epoch = epoch
        #: round pipelines over the one replica group, routed by
        #: log-name hash.  Each shard keeps its own pending marks, round
        #: driver and trace context, so disjoint logs stop serializing
        #: through one round.
        self.num_shards = max(1, runtime.config.counter_shards)
        self._gates: Dict[str, Gate] = {}
        self._pending_target: List[Dict[str, int]] = [
            {} for _ in range(self.num_shards)
        ]
        #: per-shard on-demand driver flags.
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
    def unstable(self, targets: Sequence[Target]) -> List[Target]:
        """The targets above their log's stable frontier, in order."""
        return [
            (log_name, value)
            for log_name, value in targets
            if value > self._gate(log_name).value
        ]

    def waits(self, targets: Sequence[Target]) -> List[Event]:
        """One gate wait per target that is not stable yet."""
        return [
            self._gate(log_name).wait_for(value)
            for log_name, value in self.unstable(targets)
        ]

    def register(self, log_name: str, value: int) -> int:
        """Raise the log's pending high-water mark; returns its shard.

        Passive: whoever schedules rounds — :meth:`_request`'s on-demand
        driver or the coverage-promise scheduler's — finds the mark in
        its next :meth:`pending_snapshot`.
        """
        shard = self.shard_of(log_name)
        pending = self._pending_target[shard]
        pending[log_name] = max(pending.get(log_name, 0), value)
        if self.tracer.enabled and self._round_ctx[shard] is None:
            context = self.tracer.current_context()
            if context[0] is not None or context[1]:
                self._round_ctx[shard] = context
        return shard

    def _request(self, log_name: str, value: int) -> None:
        """Register a target and make sure its shard has a round driver."""
        shard = self.register(log_name, value)
        if not self._driver_active[shard]:
            self._driver_active[shard] = True
            self.runtime.sim.spawn(
                self._drive(shard), name="counter-se/vector.%d" % shard
            )

    def stabilize(self, log_name: str, value: int) -> Gen:
        """Block until ``log_name``'s counter is stable at >= ``value``."""
        gate = self._gate(log_name)
        if gate.value >= value:
            return
        self._request(log_name, value)
        yield gate.wait_for(value)

    def stabilize_many(self, targets: Sequence[Target]) -> Gen:
        """Block until every ``(log, value)`` target is stable.

        One request registers all targets before the round driver's next
        snapshot, so they share a single echo-broadcast execution — this
        is what the group-commit leader calls to stabilize its batch's
        WAL counter alongside any pending Clog decisions.
        """
        needed = self.unstable(targets)
        for log_name, value in needed:
            self._request(log_name, value)
        if needed:
            yield self.runtime.sim.all_of(self.waits(needed))

    # -- round drivers ----------------------------------------------------------
    def pending_snapshot(self, shard: int = 0) -> List[Target]:
        """Every log of ``shard`` whose pending target is not yet stable,
        sorted for deterministic wire payloads."""
        return sorted(self.unstable(self._pending_target[shard].items()))

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

    def drive_until_stable(
        self, shard: int, targets: Optional[Sequence[Target]] = None
    ) -> Gen:
        """*The* retry loop: run rounds (backing off on an unreachable
        quorum) until nothing is left to stabilize.

        "Nothing" is every pending mark of ``shard`` — the on-demand
        driver, one round covering every pending log — or, given
        ``targets``, exactly those: the synchronous fallback of a
        coverage promise that outlived its lease.
        """
        retries = 0
        while True:
            remaining = (
                self.pending_snapshot(shard) if targets is None
                else self.unstable(targets)
            )
            if not remaining:
                return
            try:
                yield from self.run_round(remaining, shard)
            except FreshnessError:
                retries += 1
                if retries > COUNTER_MAX_RETRIES:
                    raise
                yield self.runtime.sim.sleep(COUNTER_RETRY_BACKOFF)
                continue
            retries = 0

    def _drive(self, shard: int) -> Gen:
        """The on-demand round driver of one shard."""
        try:
            yield from self.drive_until_stable(shard)
        finally:
            self._driver_active[shard] = False

    def _requests(
        self, msg_type: int, targets: Sequence[Target]
    ) -> List[Tuple[str, TxMessage]]:
        """One vector for every peer: a round's ``(peer, message)`` pairs."""
        body = encode_counter_vector(targets)
        return [
            (peer, TxMessage(
                msg_type, self.node_numeric_id, self.epoch, self._next_op(),
                body,
            ))
            for peer in self.peers
        ]

    def _broadcast(self, msg_type: int, targets: Sequence[Target]) -> Gen:
        """Send one round to all peers; returns the number of ACKs.

        One broadcast enqueues every peer in the same instant, so each
        peer's message coalesces into the same transport batch as
        concurrent 2PC traffic headed its way.  Returns as soon as the
        *quorum* has answered (the local replica counts as one vote, so
        ``quorum - 1`` remote ACKs complete it): the round's latency is
        the fastest quorum-completing peer, not the slowest straggler.
        Straggler echoes keep arriving in the background and only
        freshen replica state.  If the quorum is unreachable the wait
        ends once every request has settled (at its deadline, at worst).
        """
        events = self.rpc.broadcast(
            self._requests(msg_type, targets),
            express=True,  # dedicated counter-service enclave thread
            timeout=COUNTER_ROUND_TIMEOUT,
        )
        if events:
            yield self.runtime.sim.quorum_of(
                events, self.quorum - 1,
                accept=lambda reply: reply.msg_type == MsgType.ACK,
            )
        # The local replica always participates.
        return 1 + sum(
            1 for reply in replies(events)
            if reply is not None and reply.msg_type == MsgType.ACK
        )

    def run_round(self, targets: Sequence[Target], shard: int = 0) -> Gen:
        """One echo-broadcast execution stabilizing a target vector, in
        the configured :class:`RoundShape`."""
        self.rounds_executed += 1
        self._batch_hist.observe(len(targets))
        # Attach the round to the context captured at registration time
        # (falling back to the driver fiber's inherited context), so the
        # UPDATE/CONFIRM fan-out below — and the replicas' handler spans
        # on the other side of the wire — join that transaction's DAG.
        trace, parent = self._round_ctx[shard] or (None, None)
        self._round_ctx[shard] = None
        span = self.tracer.span(
            "counter", "round", node=self.replica.node_name,
            trace=trace, parent=parent, targets=len(targets),
        )
        error = None
        try:
            # Round 1: update + echoes.
            self.replica.echo(targets)
            acks = yield from self._broadcast(MsgType.COUNTER_UPDATE, targets)
            if acks < self.quorum:
                raise FreshnessError(
                    "counter group unavailable: %d/%d echoes for %d targets"
                    % (acks, self.quorum, len(targets))
                )
            if self.shape.release_at_echo:
                self._advance(targets)
            if self.shape.confirm == "background":
                # Detached, so neither the caller nor the shard's round
                # pipeline is serialized behind the leg.
                self.runtime.sim.spawn(
                    self._confirm_leg(targets),
                    name="counter-confirm/%d" % shard,
                )
            else:
                yield from self._confirm_leg(targets)
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
        if not self.shape.release_at_echo:
            # Record order is behaviour: a CONFIRM-quorum release lands
            # after the round span closes, an echo-quorum one inside it.
            self._advance(targets)

    def _confirm_leg(self, targets: Sequence[Target]) -> Gen:
        """Round 2 — unless the shape has none — then the local seal.

        A strict leg raises on a missing quorum (the synchronous
        protocol); a failed background leg is dropped — the echo quorum
        already rollback-protects the values, the CONFIRM only freshens
        the replicas' sealed state.
        """
        strict = self.shape.confirm == "strict"
        if self.shape.confirm != "none":
            try:
                acks = yield from self._broadcast(
                    MsgType.COUNTER_CONFIRM, targets
                )
            except NetworkError:
                if strict:
                    raise
                return
            if acks < self.quorum:
                if strict:
                    raise FreshnessError(
                        "counter group unavailable: %d/%d confirms for %d "
                        "targets" % (acks, self.quorum, len(targets))
                    )
                return
        # Seal own state with the stabilized values (end of protocol).
        yield from self.replica.confirm(targets)

    # -- recovery reads -------------------------------------------------------------
    def read_stable_many(self, log_names: Sequence[str]) -> Gen:
        """Quorum-read the freshest stable values for many logs at once.

        Used at recovery: "only log entries with counter value [up to]
        the trusted service's value can be recovered".  One query round
        covers every live WAL and Clog instead of a round per log.
        Returns ``{log_name: value}``.
        """
        log_names = list(log_names)
        answers = yield from self.rpc.gather(
            self._requests(
                MsgType.RECOVERY_QUERY, [(name, 0) for name in log_names]
            ),
            COUNTER_ROUND_TIMEOUT, express=True,
        )
        freshest = {
            name: self.replica.confirmed.get(name, 0) for name in log_names
        }
        responders = 1  # the local replica always answers
        for reply in answers:
            if reply is not None and reply.msg_type == MsgType.RECOVERY_REPLY:
                responders += 1
                for log_name, value in decode_counter_vector(reply.body):
                    if value > freshest.get(log_name, 0):
                        freshest[log_name] = value
        if responders < self.quorum:
            raise FreshnessError("cannot reach counter quorum for recovery")
        self._advance(sorted(freshest.items()))
        return freshest
