"""Simulated network fabric: NICs, links, frames, adversary interposition.

The testbed (§VIII-A) connects Treaty nodes over a 40 GbE QSFP+ switch
and clients over a secondary 1 Gb/s NIC.  A :class:`Fabric` routes
messages between :class:`Nic` endpoints; each NIC serializes its egress
at its link bandwidth and then the message propagates to the destination
NIC (one heap callable per frame, no fiber and no event).  Everything an adversary
may do to the untrusted network — drop, delay, reorder, duplicate,
tamper (§III) — is implemented by installing an
:class:`~repro.net.adversary.NetworkAdversary` on the fabric.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional

from ..errors import NetworkError
from ..obs.registry import MetricsRegistry
from ..sim.core import Event, Simulator
from ..sim.sync import Resource, Store

__all__ = ["Frame", "Nic", "Fabric"]


class Frame:
    """One message in flight (sized for cost modelling).

    ``payload`` is the application object; ``wire_bytes`` is what the link
    serializes (header + payload + any crypto framing).  ``kind`` is
    "msg" for datagram-like, "stream" for TCP-like traffic.
    """

    __slots__ = ("src", "dst", "wire_bytes", "payload", "kind", "meta")

    def __init__(
        self,
        src: str,
        dst: str,
        wire_bytes: int,
        payload: Any,
        kind: str = "msg",
        meta: Optional[Dict[str, Any]] = None,
    ):
        self.src = src
        self.dst = dst
        self.wire_bytes = wire_bytes
        self.payload = payload
        self.kind = kind
        self.meta = {} if meta is None else meta

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Frame %s %s->%s %dB>" % (
            self.kind, self.src, self.dst, self.wire_bytes)


class Nic:
    """A network endpoint with an egress link and an inbox.

    Arriving frames go to ``on_frame`` once :meth:`set_receiver` installed
    one (the eRPC endpoint's RX dispatch, called at the arrival instant),
    otherwise into ``inbox`` for :meth:`receive` (the socket stacks).
    """

    def __init__(
        self,
        fabric: "Fabric",
        address: str,
        bandwidth: float,
        propagation: float,
    ):
        self.fabric = fabric
        self.address = address
        self.bandwidth = bandwidth
        self.propagation = propagation
        self.inbox: Store = Store(fabric.sim)
        self.on_frame: Optional[Callable[[Frame], None]] = None
        self._egress = Resource(fabric.sim, capacity=1)
        self.tx_bytes = 0
        self.rx_bytes = 0
        #: per-NIC frame counters; benchmarks difference the cluster
        #: NICs over a run to pin "zero coordinator rounds" claims.
        self.tx_frames = 0
        self.rx_frames = 0

    def transmit(self, frame: Frame) -> Generator[Event, Any, None]:
        """Serialize ``frame`` onto the link, then hand it to the fabric.

        The caller (a fiber) blocks for the serialization time — wire
        occupancy is what saturates links in Figure 8 — but not for the
        propagation delay.  A free link is taken at once, with no grant
        event; frames queued behind a busy one go out in FIFO order.
        """
        egress = self._egress
        if not egress.try_acquire():
            yield egress.request()
        try:
            yield self.fabric.sim.sleep(frame.wire_bytes / self.bandwidth)
        finally:
            egress.release()
        if self.fabric._nics.get(self.address) is not self:
            # Fail-stop: this NIC was detached (node crash).  Fibers of
            # the crashed node keep running until they block forever,
            # but nothing they transmit may reach the network — an
            # identity check, so a recovered node's *fresh* NIC is
            # unaffected while stale pre-crash NICs stay dead.
            self.fabric.dropped_frames += 1
            return
        self.tx_bytes += frame.wire_bytes
        self.tx_frames += 1
        self.fabric.tx_bytes_total += frame.wire_bytes
        self.fabric.route(frame, self.propagation)

    def receive(self) -> Event:
        """Event that fires with the next inbound frame."""
        return self.inbox.get()

    def set_receiver(self, receiver: Callable[[Frame], None]) -> None:
        """Hand every arriving frame to ``receiver`` from now on, starting
        with the frames that reached the inbox before (in arrival order):
        a recovering node's NIC is attached before its endpoint starts."""
        self.on_frame = receiver
        for frame in self.inbox.drain():
            receiver(frame)

    def _deliver(self, frame: Frame) -> None:
        self.rx_bytes += frame.wire_bytes
        self.rx_frames += 1
        if self.on_frame is not None:
            self.on_frame(frame)
        else:
            self.inbox.put(frame)


class Fabric:
    """The switch connecting every NIC; owns routing and the adversary hook."""

    def __init__(self, sim: Simulator, mtu: int = 1460):
        self.sim = sim
        self.mtu = mtu
        self._nics: Dict[str, Nic] = {}
        self.adversary: Optional[Any] = None  # NetworkAdversary, if installed
        self.delivered_frames = 0
        self.dropped_frames = 0
        #: cumulative bytes transmitted by every NIC ever attached; unlike
        #: summing per-NIC counters, a detached (crashed) NIC's history
        #: stays in the metric.
        self.tx_bytes_total = 0
        self._detach_listeners: List[Callable[[str], None]] = []
        self.metrics = MetricsRegistry("fabric")
        self.metrics.probe("net.delivered_frames",
                           lambda: self.delivered_frames)
        self.metrics.probe("net.dropped_frames", lambda: self.dropped_frames)
        self.metrics.probe("net.tx_bytes", lambda: self.tx_bytes_total)

    def attach(
        self, address: str, bandwidth: float, propagation: float
    ) -> Nic:
        """Create and register a NIC for ``address``."""
        if address in self._nics:
            raise NetworkError("address %r already attached" % address)
        nic = Nic(self, address, bandwidth, propagation)
        self._nics[address] = nic
        return nic

    def on_detach(self, listener: Callable[[str], None]) -> None:
        """Call ``listener(address)`` whenever a NIC is detached.

        Endpoints use this to fail-fast continuations of requests whose
        destination crashed, instead of leaking them forever.
        """
        self._detach_listeners.append(listener)

    def detach(self, address: str) -> None:
        """Remove a NIC (node crash); in-flight frames to it are dropped."""
        if self._nics.pop(address, None) is not None:
            for listener in list(self._detach_listeners):
                listener(address)

    def nic(self, address: str) -> Nic:
        try:
            return self._nics[address]
        except KeyError:
            raise NetworkError("no NIC attached at %r" % address) from None

    def frames_for(self, nbytes: int) -> int:
        """Number of MTU-sized frames an ``nbytes`` message occupies."""
        return max(1, -(-nbytes // self.mtu))

    def route(self, frame: Frame, propagation: float) -> None:
        """Move a frame toward its destination, adversary permitting."""
        chooser = self.sim.chooser
        if chooser is not None:
            # Controlled scheduler (model checker): it subsumes the
            # adversary — the enumerated choice decides what happens to
            # the frame, so a separately installed adversary is ignored.
            verdicts = chooser.intercept_frame(frame)
        elif self.adversary is not None:
            verdicts = self.adversary.intercept(frame)
            # The adversary is installed per-test, after cluster
            # construction — look the tracer up lazily rather than
            # caching it.
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.event(
                    "net", "adversary_verdict",
                    src=frame.src,
                    dst=frame.dst,
                    copies=sum(1 for f, _ in verdicts if f is not None),
                    dropped=sum(1 for f, _ in verdicts if f is None),
                )
        else:
            verdicts = [(frame, 0.0)]
        for out_frame, extra_delay in verdicts:
            if out_frame is None:
                self.dropped_frames += 1
                continue
            self._schedule_delivery(out_frame, propagation + extra_delay)

    def _schedule_delivery(self, frame: Frame, delay: float) -> None:
        chooser = self.sim.chooser
        if chooser is not None:
            chooser.frame_sent(frame)

        def deliver() -> None:
            if chooser is not None:
                chooser.frame_delivered(frame)
            destination = self._nics.get(frame.dst)
            if destination is None:
                self.dropped_frames += 1
                return
            self.delivered_frames += 1
            destination._deliver(frame)

        self.sim.call_later(delay, deliver)
