"""eRPC-style asynchronous RPC over the simulated fabric (§II-D, §VII-A).

The paper builds its 2PC on eRPC with a DPDK transport: userspace
polling, no syscalls on the data path, message buffers in (untrusted)
host hugepages.  This module reproduces those semantics:

* :meth:`ErpcEndpoint.enqueue_request` enqueues the request and returns
  immediately with a *continuation event* — matching eRPC's
  ``enqueue_request`` + continuation-function model (Figure 2: "TxBurst
  and yield", "poll for replies and/or yield");
* per-frame NIC/driver cost is charged instead of syscall cost (the
  kernel-bypass win), and when running under SCONE the message buffers
  deliberately live in host memory so no EPC paging is triggered — the
  design §VII-A calls out;
* request handlers run as freshly spawned fibers on the destination node
  (``ExecuteTxnReqHandler`` in Figure 2);
* a request may carry a **deadline**: a continuation still pending then
  fails (:class:`~repro.errors.RequestTimeout`), as one whose
  destination crashed does at once;
* **transport batching**: concurrent messages to the same destination
  are coalesced per TX queue during a short doorbell window (eRPC's
  TxBurst), so a 2PC fan-out storm or a counter echo round pays one
  header, one per-frame NIC charge and one propagation per destination
  instead of one per message.  The RX side unbatches and dispatches
  each sub-message as its own fiber.  ``net_tx_batch_max=1`` is the
  no-coalescing point of the same path: one sub-message per frame.

The event-based continuation is exactly how the coordinator batches
requests to many participants before yielding.
"""

from __future__ import annotations

import itertools
from collections import deque
from functools import partial
from typing import Any, Callable, Deque, Dict, Generator, List, Optional, Set, Tuple

from ..errors import NetworkError, RequestTimeout
from ..sim.core import Event, Simulator
from ..tee.runtime import NodeRuntime
from .simnet import Fabric, Frame, Nic

__all__ = ["ErpcEndpoint", "RpcReply", "BATCH_OCCUPANCY_BUCKETS"]

# A request handler receives (payload, src_address) and returns the reply
# payload and its size in bytes: both via a generator so it can do work.
Handler = Callable[[Any, str], Generator[Event, Any, Tuple[Any, int]]]

#: eRPC per-message header bytes on the wire (approximation of eRPC's
#: packet header; constant across all systems so it does not skew ratios).
#: A coalesced batch carries ONE header regardless of how many
#: sub-messages it holds — that is part of the batching win.
HEADER_BYTES = 16

#: the doorbell window: how long a destination's TX queue waits for more
#: messages to join before sealing the batch.  Calibrated to the NIC
#: doorbell write-back (~2 us), well under the 2PC vote timeout and the
#: counter round timeout.
TX_BATCH_WINDOW = 2.0e-6

#: bucket edges for the batch-occupancy histogram (messages per frame).
BATCH_OCCUPANCY_BUCKETS = (1, 2, 4, 8, 16, 32, 64)


class RpcReply:
    """Reply payload + size delivered to a request's continuation."""

    __slots__ = ("payload", "nbytes", "src")

    def __init__(self, payload: Any, nbytes: int, src: str):
        self.payload = payload
        self.nbytes = nbytes
        self.src = src


class _SubMsg:
    """One message queued for coalescing into a batch frame."""

    __slots__ = ("req_type", "payload", "nbytes", "req_id")

    def __init__(self, req_type: int, payload: Any, nbytes: int, req_id: int):
        self.req_type = req_type
        self.payload = payload
        self.nbytes = nbytes
        self.req_id = req_id

    def meta(self) -> Dict[str, Any]:
        return {
            "req_id": self.req_id,
            "req_type": self.req_type,
            "nbytes": self.nbytes,
        }


class ErpcEndpoint:
    """One node's RPC engine bound to a NIC."""

    def __init__(
        self,
        runtime: NodeRuntime,
        fabric: Fabric,
        nic: Nic,
    ):
        self.runtime = runtime
        self.sim: Simulator = runtime.sim
        self.fabric = fabric
        self.nic = nic
        self._handlers: Dict[int, Handler] = {}
        #: req_id -> (destination address, continuation event).  The
        #: destination is kept so continuations can be failed fast when
        #: that destination's NIC detaches (node crash).
        self._pending: Dict[int, Tuple[str, Event]] = {}
        self._req_seq = itertools.count(1)
        self.requests_sent = 0
        self.requests_served = 0
        # -- transport batching -------------------------------------------
        self.batch_max = max(1, runtime.config.net_tx_batch_max)
        #: optional secure batch codec (a SecureRpc installs itself): seals a
        #: whole batch in one AEAD pass and unseals/replay-checks it on
        #: receive.  Without a codec the batch travels as a payload list.
        self.batch_codec: Optional[Any] = None
        #: per-(destination, direction) coalescing queues.  Requests and
        #: responses are queued separately so a batch frame carries one
        #: truthful top-level ``is_request`` flag (adversary rules and
        #: trace predicates key on it).
        self._tx_queues: Dict[Tuple[str, bool], Deque[_SubMsg]] = {}
        self._flushers: Set[Tuple[str, bool]] = set()
        self.batches_sent = 0
        metrics = runtime.metrics
        self._occupancy_hist = metrics.histogram(
            "net.batch_occupancy", BATCH_OCCUPANCY_BUCKETS
        )
        self._frames_saved_counter = metrics.counter("net.frames_saved")
        self._batches_counter = metrics.counter("net.batches_sent")
        fabric.on_detach(self._on_peer_detach)

    # -- wiring -------------------------------------------------------------
    def register_handler(self, req_type: int, handler: Handler) -> None:
        """Install the request handler invoked for ``req_type`` messages."""
        self._handlers[req_type] = handler
        self.start()

    def start(self) -> None:
        """Start receiving: the NIC hands every frame, those already
        waiting in its inbox first, to :meth:`_on_frame` (idempotent)."""
        if self.nic.on_frame is None:
            self.nic.set_receiver(self._on_frame)

    # -- client side -----------------------------------------------------------
    def enqueue_request(
        self, dst: str, req_type: int, payload: Any, nbytes: int,
        timeout: Optional[float] = None,
    ) -> Event:
        """Enqueue a request; the returned event fires with an :class:`RpcReply`.

        Mirrors Figure 2 steps 1–2: enqueue, and let the caller
        yield/poll; the message buffer is the per-byte host-memory copy
        each frame's core hold charges (``NodeRuntime.msgbuf_shield``),
        not an allocation.  With a ``timeout`` the event fails with
        :class:`RequestTimeout` if no reply has arrived ``timeout``
        seconds from now.
        """
        self.start()
        req_id = next(self._req_seq)
        continuation = self.sim.event()
        if timeout is not None:
            self.sim.call_later(timeout, partial(self._expire, req_id))
        self._pending[req_id] = (dst, continuation)
        self.requests_sent += 1
        self._enqueue_tx(
            dst, _SubMsg(req_type, payload, nbytes, req_id), is_request=True
        )
        return continuation

    # -- unanswered requests ----------------------------------------------------
    def _expire(self, req_id: int) -> None:
        """A request's deadline: fail it if it is still pending.  A
        crashed node's endpoint expires nothing — its fibers park."""
        if self.fabric._nics.get(self.nic.address) is self.nic:
            self._fail(req_id, RequestTimeout("no reply in time"))

    def _on_peer_detach(self, address: str) -> None:
        """Fail continuations of requests whose destination just crashed.

        Without this, a coordinator fiber waiting on a crashed
        participant's reply blocks forever and its ``_pending`` entry
        (plus the associated msgbuf) leaks.  Our *own* address detaching
        means this node crashed: its fibers are zombies that must park,
        not be woken with errors.
        """
        if address == self.nic.address:
            return
        exc = NetworkError("destination %r crashed" % address)
        for req_id in [
            req_id for req_id, entry in self._pending.items()
            if entry[0] == address
        ]:
            self._fail(req_id, exc)

    def _fail(self, req_id: Any, exc: BaseException) -> None:
        """Fail a pending request's continuation and forget the request.
        Defused, so an un-awaited continuation (fire-and-forget caller)
        does not crash the simulator; an awaiting fiber still gets the
        exception thrown into it."""
        entry = self._pending.pop(req_id, None)
        if entry is not None and not entry[1].triggered:
            entry[1].fail(exc)
            entry[1].defuse()

    # -- data path ----------------------------------------------------------------
    def _tx_cpu_cost(self, wire_bytes: int) -> float:
        """Userspace driver cost: per-frame poll/burst work plus the copy."""
        frames = self.fabric.frames_for(wire_bytes)
        costs = self.runtime.costs
        return frames * costs.nic_frame_cost + wire_bytes * costs.copy_per_byte

    # -- TX batching --------------------------------------------------------------
    def _enqueue_tx(self, dst: str, sub: _SubMsg, is_request: bool) -> None:
        """Append to the destination's TX queue; arm its flusher fiber."""
        key = (dst, is_request)
        queue = self._tx_queues.get(key)
        if queue is None:
            queue = self._tx_queues[key] = deque()
            # Per-destination depth gauge, sampled only at snapshot time
            # (a probe costs nothing on the enqueue path).
            self.runtime.metrics.probe(
                "net.txq.depth.%s.%s" % (dst, "req" if is_request else "rsp"),
                lambda q=queue: len(q),
            )
        queue.append(sub)
        if key not in self._flushers:
            self._flushers.add(key)
            self.sim.spawn(
                self._flush_loop(dst, is_request),
                name="erpc-txq@%s->%s" % (self.nic.address, dst),
            )

    def _flush_loop(self, dst: str, is_request: bool):
        """Drain one destination's TX queue, one batch frame at a time.

        The doorbell window lets concurrent senders join the batch; a
        full batch (``net_tx_batch_max``) is sealed immediately.
        """
        key = (dst, is_request)
        queue = self._tx_queues[key]
        try:
            while queue:
                if len(queue) < self.batch_max:
                    yield self.sim.sleep(TX_BATCH_WINDOW)
                batch: List[_SubMsg] = []
                while queue and len(batch) < self.batch_max:
                    batch.append(queue.popleft())
                yield from self._transmit_batch(dst, batch, is_request)
        finally:
            self._flushers.discard(key)

    def _transmit_batch(self, dst: str, batch: List[_SubMsg], is_request: bool):
        """Seal (optionally), charge and transmit one coalesced frame.

        The frame's CPU work — the batch seal, the message-buffer
        shielding and the driver — is one core hold: the flusher fiber
        keeps its core from the first charge to the last.
        """
        runtime = self.runtime
        codec = self.batch_codec
        parts = [sub.payload for sub in batch]
        if codec is not None:
            payload, payload_nbytes, meta_extra, seal_s = codec.encode_batch(parts)
        else:
            payload, meta_extra, seal_s = parts, {}, 0.0
            payload_nbytes = sum(sub.nbytes for sub in batch)
        wire_bytes = payload_nbytes + HEADER_BYTES
        shield_s = runtime.msgbuf_shield(wire_bytes)
        start = yield from runtime.compute(
            seal_s, shield_s, self._tx_cpu_cost(wire_bytes)
        )
        if runtime.tracer.enabled:
            sealed = start + seal_s / runtime.cpu.speed_factor
            if codec is not None:
                codec.trace_seal(start, sealed, payload_nbytes, len(batch))
            runtime.trace_shield(wire_bytes, shield_s, sealed)
        frame = Frame(
            src=self.nic.address,
            dst=dst,
            wire_bytes=wire_bytes,
            payload=payload,
            kind="erpc",
            meta=dict(
                meta_extra,
                batch=[sub.meta() for sub in batch],
                count=len(batch),
                is_request=is_request,
                req_type=batch[0].req_type,
            ),
        )
        self.batches_sent += 1
        self._batches_counter.inc()
        self._occupancy_hist.observe(len(batch))
        baseline_frames = sum(
            self.fabric.frames_for(sub.nbytes + HEADER_BYTES) for sub in batch
        )
        saved = baseline_frames - self.fabric.frames_for(wire_bytes)
        if saved > 0:
            self._frames_saved_counter.inc(saved)
        yield from self.nic.transmit(frame)
        if is_request and dst not in self.fabric._nics:
            # The destination is already gone: the fabric's delivery will
            # drop the frame, so fail the batch's continuations now
            # instead of letting retry loops leak pending entries.
            exc = NetworkError("destination %r unreachable" % dst)
            for sub in batch:
                self._fail(sub.req_id, exc)

    # -- RX ----------------------------------------------------------------------
    def _on_frame(self, frame: Frame) -> None:
        """RxBurst, dispatch (Figure 2 step 4), at the frame's arrival.

        Per-frame processing runs in a spawned fiber so that, like real
        eRPC with multiple server threads, message handling can spread
        across the node's cores instead of serializing behind one event
        loop.
        """
        self.sim.spawn(
            self._dispatch(frame), name="erpc-rx@%s" % self.nic.address
        )

    def _dispatch(self, frame: Frame):
        """Receive one frame: its shielding, driver and AEAD open are one
        core hold, then the batch is unsealed and its messages served."""
        runtime = self.runtime
        meta = frame.meta
        subs = meta.get("batch")
        # A frame that is not an eRPC batch is charged and then ignored
        # (hardened endpoint): it has nothing to open.
        codec = None if subs is None else self.batch_codec
        wire_bytes = frame.wire_bytes
        shield_s = runtime.msgbuf_shield(wire_bytes)
        driver_s = self._tx_cpu_cost(wire_bytes)
        open_s = 0.0 if codec is None else codec.open_seconds(frame.payload)
        start = yield from runtime.compute(shield_s, driver_s, open_s)
        tracing = runtime.tracer.enabled
        if codec is None:
            parts = None if subs is None else frame.payload
        else:
            opened = None
            if tracing:
                speed = runtime.cpu.speed_factor
                opened = start + shield_s / speed + driver_s / speed
            parts = self._open(codec, frame, opened)
        if tracing:
            # Recorded once the frame is unsealed, so receive-side
            # shielding joins the trace its open pass serves.
            trace = None
            if codec is not None and parts is not None:
                trace = codec.frame_context(parts)[0]
            runtime.trace_shield(wire_bytes, shield_s, start, trace)
        if parts is None:
            return
        is_request = meta.get("is_request", False)
        for sub_meta, part in zip(subs, parts):
            if is_request:
                self.sim.spawn(
                    self._serve_one(
                        sub_meta["req_type"], part, frame.src, sub_meta["req_id"]
                    ),
                    name="erpc-rx@%s" % self.nic.address,
                )
            else:
                self._complete(
                    sub_meta["req_id"], part, sub_meta.get("nbytes", 0), frame.src
                )

    def _open(self, codec: Any, frame: Frame, opened: Optional[float]):
        """Unseal a batch frame; ``None`` drops it: a replayed batch, or a
        corrupted *response* batch, which fails every waiting
        continuation (the senders see the integrity error).  A corrupted
        request surfaces at the receiving node."""
        try:
            return codec.decode_batch(frame.payload, frame.src, frame.meta, opened)
        except Exception as exc:  # noqa: BLE001 - modelled tampering
            if frame.meta.get("is_request", False):
                raise
            for sub_meta in frame.meta["batch"]:
                self._fail(sub_meta.get("req_id"), exc)
            return None

    def _complete(
        self, req_id: Any, payload: Any, nbytes: int, src: str
    ) -> None:
        entry = self._pending.pop(req_id, None)
        if entry is not None and not entry[1].triggered:
            entry[1].succeed(RpcReply(payload, nbytes, src))
        # else: stale/duplicated response — dropped, at-most-once.

    def _serve_one(self, req_type: int, payload: Any, src: str, req_id: int):
        """Run the registered handler and enqueue the response."""
        handler = self._handlers.get(req_type)
        if handler is None:
            return  # unknown request type: ignore (hardened endpoint)
        self.requests_served += 1
        reply_payload, reply_bytes = yield from handler(payload, src)
        if reply_payload is None:
            return  # handler chose not to respond (e.g. replayed request)
        self._enqueue_tx(
            src,
            _SubMsg(req_type, reply_payload, reply_bytes, req_id),
            is_request=False,
        )
