"""Treaty's secure channel: TxMessages over eRPC with at-most-once delivery.

This is the layer §VII-A describes: every 2PC message is sealed with the
cluster network key into the ``IV || pad || metadata || data || MAC``
layout before it enters the untrusted host memory and NIC, and every
received request passes the replay guard so that a duplicated or
re-injected packet can never double-execute an operation.

A :class:`SecureRpc` is its eRPC endpoint's batch codec: the endpoint
hands it every coalesced batch and ONE AEAD pass (single IV,
length-prefixed concatenation, single MAC) protects all of it.  The
batch AAD binds the sender and a per-sender batch sequence number, and a
batch-level replay-guard entry rejects a replayed frame as a unit —
drop/duplicate/delay of a coalesced frame affects the whole batch
atomically.  Per-message ``(node, txn, op)`` replay checks still run on
the receiving side, unchanged.

When the environment profile disables encryption ("Treaty w/o Enc",
native baselines), messages travel as plaintext encodings — functionally
observable by the adversary, which is exactly what that configuration
trades away — and no crypto cost is charged.
"""

from __future__ import annotations

import itertools
import struct
from typing import Any, Callable, Generator, List, Optional, Sequence, Tuple

from ..crypto.keys import KeyRing
from ..errors import ReplayError
from ..obs.registry import SIZE_BUCKETS_BYTES
from ..sim.core import Event
from ..tee.runtime import NodeRuntime
from .erpc import ErpcEndpoint
from .message import (
    MsgType,
    ReplayGuard,
    TxMessage,
    batch_wire_size,
    pack_parts,
    peek_context,
    seal_batch,
    unpack_parts,
    unseal_batch,
    wire_size,
)

__all__ = ["SecureRpc", "replies"]

# Handler signature: (TxMessage, src_address) -> generator -> TxMessage.
SecureHandler = Callable[[TxMessage, str], Generator[Event, Any, TxMessage]]

#: AAD for sealed batches; the sender id and batch sequence number are
#: packed in so a batch replayed under a different identity fails the MAC.
_AAD_BATCH = b"treaty-batch-v1"

#: replay-guard txn-id sentinel for batch-level sequence entries.  Real
#: transaction ids are non-negative, so batch entries can never collide
#: with per-message ``(node, txn, op)`` triples.
_BATCH_TXN_SENTINEL = -1


def _parts_context(parts: Sequence[bytes]) -> Tuple[Optional[str], int]:
    """``(trace, parent sid)`` of a batch's first context-carrying part,
    else ``(None, 0)``: the one context a whole frame is filed under."""
    for part in parts:
        context = peek_context(part)
        if context[0] is not None:
            return context
    return None, 0


def replies(events: Sequence[Event]) -> List[Optional[TxMessage]]:
    """The reply each request event carries: ``None`` for a request that
    failed (crash, deadline) or is still pending."""
    return [event.value if event.ok else None for event in events]


class SecureRpc:
    """Secure transaction messaging bound to one node's eRPC endpoint."""

    def __init__(
        self,
        runtime: NodeRuntime,
        endpoint: ErpcEndpoint,
        keyring: KeyRing,
        node_numeric_id: int,
        epoch: int = 0,
        channel: int = 0,
    ):
        self.runtime = runtime
        self.endpoint = endpoint
        self.node_numeric_id = node_numeric_id
        #: boot epoch folded into batch sequence numbers so a recovered
        #: node's fresh batches can never collide with (and be rejected
        #: as replays of) its pre-crash ones.
        self.epoch = epoch
        self._aead = keyring.network_aead()
        #: the profile is frozen, so this is read once.
        self._encrypted = runtime.encryption
        #: IV prefix: which endpoint sealed.  ``channel`` tells apart the
        #: endpoints one node runs under one id (cluster = 0, front = 1).
        self._iv_sealer = struct.pack(
            "<I", (channel << 31) | (node_numeric_id & 0x7FFFFFFF)
        )
        self.replay_guard = ReplayGuard()
        self._batch_seq = itertools.count(1)
        self.messages_sealed = 0
        #: actual AEAD passes (seal or open): one per coalesced batch,
        #: not one per message.
        self.seal_ops = 0
        self.auth_failures = 0
        self.tracer = runtime.tracer
        # Shared across this runtime's RPC endpoints (cluster + front).
        self._sealed_counter = runtime.metrics.counter("net.messages_sealed")
        self._seal_ops_counter = runtime.metrics.counter("net.seal_ops")
        self._auth_fail_counter = runtime.metrics.counter("net.auth_failures")
        self._wire_hist = runtime.metrics.histogram(
            "net.wire_bytes", SIZE_BUCKETS_BYTES
        )
        endpoint.batch_codec = self

    # -- encoding -----------------------------------------------------------
    def _encode_part(self, message: TxMessage) -> Tuple[bytes, int]:
        """Encode one plaintext part; :meth:`encode_batch` seals it per frame.

        The returned size is the message's *standalone* wire size (what
        it would cost unbatched) — the endpoint uses it as the baseline
        for the frames-saved accounting, and :meth:`encode_batch` replaces it
        with the true coalesced size at seal time.
        """
        if self._encrypted:
            self.messages_sealed += 1
            self._sealed_counter.inc()
        wire = message.encode()
        nbytes = wire_size(len(message.body), self._encrypted)
        self._wire_hist.observe(nbytes)
        return wire, nbytes

    # -- batch codec: one AEAD pass per coalesced frame ------------------------
    def encode_batch(self, parts: Sequence[bytes]):
        """One AEAD pass over the whole batch; returns (blob, nbytes, meta)."""
        tracer = self.tracer
        if tracer.enabled:
            # The flusher fiber works for the frame's first message that
            # carries a context: its seal span, the shielding charge and
            # any adversary verdict chain under that message's rpc span.
            # A frame with none (a batch of replies) records no trace.
            tracer.adopt(*_parts_context(parts))
        if not self._encrypted:
            blob = pack_parts(parts)
            return blob, len(blob), {}
            yield  # pragma: no cover - keeps this a generator
        batch_id = (self.epoch << 40) | next(self._batch_seq)
        aad = _AAD_BATCH + struct.pack(
            "<QQ", self.node_numeric_id & 0xFFFFFFFFFFFFFFFF, batch_id
        )
        if tracer.enabled:
            span = tracer.span(
                "crypto", "seal_batch", node=self.runtime.name or None,
                seal_ops=1, parts=len(parts),
            )
        # The IV names the sealer (every endpoint shares the network key)
        # and reuses the batch id, which is unique per endpoint and boot.
        iv = self._iv_sealer + struct.pack("<Q", batch_id)
        blob = seal_batch(self._aead, iv, parts, aad)
        self.seal_ops += 1
        self._seal_ops_counter.inc()
        yield from self.runtime.seal_cost(len(blob))
        if tracer.enabled:
            span.close(bytes=len(blob))
        return blob, len(blob), {
            "batch_src": self.node_numeric_id,
            "batch_id": batch_id,
        }

    def decode_batch(self, payload: bytes, src: str, meta: dict):
        """Unseal + batch-replay-check; ``None`` drops the batch as a unit."""
        if not self._encrypted:
            return unpack_parts(payload)
            yield  # pragma: no cover - keeps this a generator
        tracer = self.tracer
        if tracer.enabled:
            span = tracer.span(
                "crypto", "open_batch", node=self.runtime.name or None,
                seal_ops=1, bytes=len(payload),
            )
        yield from self.runtime.seal_cost(len(payload))
        aad = _AAD_BATCH + struct.pack(
            "<QQ", meta.get("batch_src", 0) & 0xFFFFFFFFFFFFFFFF,
            meta.get("batch_id", 0),
        )
        try:
            parts = unseal_batch(self._aead, payload, aad)
        except Exception:
            if tracer.enabled:
                span.close(error="auth_failure")
            self.auth_failures += 1
            self._auth_fail_counter.inc()
            tracer.event(
                "net", "auth_failure", node=self.runtime.name or None, src=src,
            )
            raise
        else:
            # Only after decryption do we know which message the pass
            # served: the span joins the sender's rpc span, as the seal
            # span did on the sending node.
            if tracer.enabled:
                span.trace, span.parent = _parts_context(parts)
                span.close(parts=len(parts))
        finally:
            # The pass is made whether or not the MAC verifies.
            self.seal_ops += 1
            self._seal_ops_counter.inc()
        # Batch-level at-most-once: the (sender, batch sequence) pair is
        # recorded in the same replay guard as per-message triples, so a
        # duplicated/replayed frame is rejected before any sub-message
        # dispatches — atomically, as the adversary delivered it.
        try:
            self.replay_guard.check_key(
                (meta.get("batch_src", 0), _BATCH_TXN_SENTINEL,
                 meta.get("batch_id", 0))
            )
        except ReplayError:
            return None
        return parts

    # -- client side -------------------------------------------------------------
    def enqueue(
        self, dst: str, message: TxMessage, express: bool = False,
        timeout: Optional[float] = None,
    ) -> Event:
        """Seal and enqueue a request; the event fires with the reply TxMessage.

        Like eRPC's ``enqueue_request``, this returns immediately so a
        coordinator can batch requests to all participants before
        yielding (Figure 2, steps 1–2).

        ``express`` marks traffic served by a dedicated enclave thread
        (the asynchronous trusted-counter service, §VI) that skips the
        shared fiber scheduler's resume delay.  ``timeout`` is the
        request's deadline (:meth:`ErpcEndpoint.enqueue_request`).
        """
        outcome = self.runtime.sim.event()
        self.runtime.sim.spawn(
            self._exchange(dst, message, outcome, express, timeout),
            name="securerpc@%d" % self.node_numeric_id,
        )
        return outcome

    def broadcast(
        self,
        pairs: Sequence[Tuple[str, TxMessage]],
        express: bool = False,
        timeout: Optional[float] = None,
    ) -> List[Event]:
        """Enqueue one message per destination in the same instant.

        This is the group-round fan-out primitive used by the 2PC
        coordinator (PREPARE/COMMIT/COMPLETE) and the trusted-counter
        echo rounds: because every destination is enqueued before the
        caller yields, each destination's traffic lands in the same
        doorbell window and coalesces with any concurrent rounds headed
        the same way.  Returns one outcome event per destination, in
        input order, defused: a straggler failing after its round stopped
        waiting (at a quorum) is no error.
        """
        events = [
            self.enqueue(dst, message, express, timeout)
            for dst, message in pairs
        ]
        for event in events:
            event.defuse()
        return events

    def gather(
        self,
        pairs: Sequence[Tuple[str, TxMessage]],
        timeout: Optional[float] = None,
        express: bool = False,
    ) -> Generator[Event, Any, List[Optional[TxMessage]]]:
        """:meth:`broadcast`, then wait for every request to settle;
        returns :func:`replies`, in input order.

        A destination whose request failed (its NIC is detached: the
        transport fails the continuation at once) or stayed silent past
        its ``timeout`` deadline yields ``None``: to a fan-out round a
        crashed or slow peer is a missing answer, not an error.
        """
        if not pairs:
            return []
        events = self.broadcast(pairs, express, timeout)
        yield self.runtime.sim.all_settled(events)
        return replies(events)

    def call(
        self, dst: str, message: TxMessage, timeout: Optional[float] = None
    ) -> Generator[Event, Any, TxMessage]:
        """Send one request and wait for its verified reply (NetworkError,
        RequestTimeout past ``timeout``, if none comes)."""
        reply = yield self.enqueue(dst, message, timeout=timeout)
        return reply

    def _exchange(
        self, dst: str, message: TxMessage, outcome: Event,
        express: bool = False, timeout: Optional[float] = None,
    ):
        tracing = self.tracer.enabled
        if tracing:
            span = self.tracer.span(
                "net", "rpc", node=self.runtime.name or None,
                dst=dst, msg_type=message.msg_type,
            )
            # Stamp this fiber's trace context into the sealed metadata:
            # the receiving fiber adopts it, chaining its handler span
            # under this rpc span — the cross-node edge of the
            # transaction's DAG.
            if span.trace is not None:
                message = message.with_trace(
                    span.trace, span.sid, self.node_numeric_id
                )
        nbytes = 0
        try:
            # The batch codec seals the coalesced frame in one AEAD
            # pass and charges its cost once, on both directions.
            wire, nbytes = self._encode_part(message)
            reply = yield self.endpoint.enqueue_request(
                dst, message.msg_type, wire, nbytes, timeout
            )
            # Under SCONE, the fiber that blocked on this RPC waits for
            # the userland scheduler to run it again; the delay grows
            # with the number of concurrently served requests (§VII-C).
            if not express:
                resume_delay = self.runtime.fiber_resume_delay()
                if resume_delay > 0.0:
                    yield self.runtime.sim.sleep(resume_delay)
            decoded = TxMessage.decode(reply.payload)
        except Exception as exc:  # noqa: BLE001 - propagate to the waiter
            if tracing:
                span.close(bytes=nbytes, error=type(exc).__name__)
            if not outcome.triggered:
                outcome.fail(exc)
            return
        if tracing:
            span.close(bytes=nbytes)
        if not outcome.triggered:
            outcome.succeed(decoded)

    # -- server side ----------------------------------------------------------------
    def register(self, msg_type: int, handler: SecureHandler) -> None:
        """Install a verified-message handler for ``msg_type`` requests."""

        def wrapped(payload: bytes, src: str):
            # The batch codec already verified/decrypted the frame and
            # charged its one AEAD cost; parts are plaintext.
            try:
                message = TxMessage.decode(payload)
            except Exception:
                self.auth_failures += 1
                self._auth_fail_counter.inc()
                self.tracer.event(
                    "net", "auth_failure", node=self.runtime.name or None,
                    src=src,
                )
                raise
            # At-most-once: ACK-type messages are exempt (§VII-A), every
            # state-changing request is checked.
            if message.msg_type not in (MsgType.ACK, MsgType.FAIL):
                try:
                    self.replay_guard.check(message)
                except ReplayError:
                    # A replayed request is *not* re-executed and *not*
                    # answered: the genuine execution's reply (matched by
                    # request id) is the only response the sender sees —
                    # and the replayed context is never adopted, so a
                    # replayed frame cannot graft spans into a live trace.
                    return None, 0
            # Adopt the sender's trace context (verified: it traveled
            # inside the MAC'd metadata) so this handler fiber's spans
            # join the transaction's cross-node DAG.
            handler_span = None
            if self.tracer.enabled and message.trace is not None:
                self.tracer.adopt(message.trace, message.trace_parent)
                handler_span = self.tracer.span(
                    "rpc",
                    MsgType.NAMES.get(message.msg_type, str(message.msg_type)),
                    node=self.runtime.name or None,
                    src=src, origin=message.trace_origin,
                )
            try:
                reply = yield from handler(message, src)
            finally:
                if handler_span is not None:
                    handler_span.close()
            return self._encode_part(reply)

        self.endpoint.register_handler(msg_type, wrapped)
