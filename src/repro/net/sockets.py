"""Kernel-socket network stacks: the TCP/UDP baselines of Figure 8.

Conventional applications reach the network through syscalls; inside
SGX those syscalls additionally cross the enclave boundary (two extra
shielded data copies even with SCONE's asynchronous syscalls, §IV-B#2).
This module models both the native and the SCONE socket paths so the
network benchmark can regenerate all iPerf baselines:

* **TCP** — reliable stream; per-send syscall plus kernel per-packet
  work discounted by segmentation offload.
* **UDP** — per-datagram kernel work, no offload, and datagrams larger
  than the MTU are fragmented; under load fragments are lost and the
  datagram is discarded (the paper: "for large messages (> MTU), UDP
  throughput equals zero").
"""

from __future__ import annotations

from typing import Any, Generator

from ..sim.core import Event
from ..tee.runtime import NodeRuntime
from .simnet import Fabric, Frame, Nic

__all__ = ["SocketStack"]

Gen = Generator[Event, Any, Any]

#: Above this many fragments a UDP datagram is considered lost under
#: sustained load (any one lost fragment discards the whole datagram).
_UDP_MAX_FRAGMENTS = 1


class SocketStack:
    """A kernel socket endpoint (TCP or UDP) bound to a NIC."""

    def __init__(
        self,
        runtime: NodeRuntime,
        fabric: Fabric,
        nic: Nic,
        protocol: str = "tcp",
    ):
        if protocol not in ("tcp", "udp"):
            raise ValueError("protocol must be 'tcp' or 'udp'")
        self.runtime = runtime
        self.fabric = fabric
        self.nic = nic
        self.protocol = protocol
        self.sent_messages = 0
        self.dropped_messages = 0

    # -- cost helpers ------------------------------------------------------
    def _kernel_cost(self, nbytes: int) -> float:
        """Kernel network-stack CPU per send/recv call."""
        frames = self.fabric.frames_for(nbytes)
        costs = self.runtime.costs
        per_packet = costs.kernel_packet_cost
        if self.protocol == "tcp":
            per_packet *= costs.tcp_offload_factor
        else:
            per_packet *= costs.udp_packet_factor
        return frames * per_packet

    # -- data path -------------------------------------------------------------
    def send(self, dst: str, nbytes: int, payload: Any = None) -> Gen:
        """One ``send()``/``sendto()`` call transferring ``nbytes``."""
        self.sent_messages += 1
        # The syscall itself (native fast path, or SCONE async syscall
        # with two shielded copies of the payload).
        yield from self.runtime.syscall(nbytes)
        yield from self.runtime.compute(self._kernel_cost(nbytes))

        fragments = self.fabric.frames_for(nbytes)
        if self.protocol == "udp" and fragments > _UDP_MAX_FRAGMENTS:
            # Fragmented datagram: lost under sustained load.  The wire
            # time is still spent (the fragments were transmitted).
            self.dropped_messages += 1
            yield self.runtime.sim.sleep(nbytes / self.nic.bandwidth)
            return False

        frame = Frame(
            src=self.nic.address,
            dst=dst,
            wire_bytes=nbytes,
            payload=payload,
            kind=self.protocol,
        )
        yield from self.nic.transmit(frame)
        return True

    def recv(self) -> Gen:
        """One ``recv()`` call: blocks for a message, charges kernel costs.

        Returns the received :class:`~repro.net.simnet.Frame`.
        """
        frame = yield self.nic.receive()
        yield from self.runtime.syscall(frame.wire_bytes)
        yield from self.runtime.compute(self._kernel_cost(frame.wire_bytes))
        return frame
