"""Network-stack throughput experiment (Figure 8).

Implements the paper's iPerf methodology: saturating senders stream
fixed-size messages from one machine to another over the 40 GbE fabric
and the receiver counts delivered payload bytes.  Seven stacks:

* ``udp-native`` / ``udp-scone``   — iPerf-UDP over kernel sockets,
* ``tcp-native`` / ``tcp-scone``   — iPerf-TCP over kernel sockets,
* ``erpc-native`` / ``erpc-scone`` — the client/server iPerf built on eRPC,
* ``treaty``                       — Treaty's secure networking (eRPC +
  SCONE + the sealed message format).

Native and SCONE socket/eRPC variants carry no security; only the
``treaty`` stack encrypts — matching §VIII-E's setup.
"""

from __future__ import annotations

from typing import Dict

from ..config import ClusterConfig, DS_ROCKSDB, TREATY_ENC, TREATY_NO_ENC
from ..crypto.keys import KeyRing
from ..net.erpc import ErpcEndpoint
from ..net.message import MsgType, TxMessage
from ..net.secure_rpc import SecureRpc
from ..net.simnet import Fabric
from ..net.sockets import SocketStack
from ..sim.core import Simulator
from ..tee.runtime import NodeRuntime

__all__ = ["STACKS", "network_throughput", "run_figure8"]

STACKS = [
    "udp-native",
    "udp-scone",
    "tcp-native",
    "tcp-scone",
    "erpc-native",
    "erpc-scone",
    "treaty",
]

_ACK_BYTES = 16
#: outstanding requests each eRPC stream keeps in flight.
_PIPELINE_DEPTH = 16


def _profile_for(stack: str):
    if stack == "treaty":
        return TREATY_ENC
    return TREATY_NO_ENC if stack.endswith("scone") else DS_ROCKSDB


def network_throughput(
    stack: str,
    message_bytes: int,
    duration: float = 2e-3,
    warmup: float = 5e-4,
    streams: int = 8,
    config: ClusterConfig = None,
) -> float:
    """Measured goodput in Gbit/s for one stack and message size."""
    if stack not in STACKS:
        raise ValueError("unknown stack %r" % stack)
    config = config or ClusterConfig()
    profile = _profile_for(stack)
    sim = Simulator()
    fabric = Fabric(sim, mtu=config.costs.net_mtu)
    sender_rt = NodeRuntime(sim, profile, config)
    receiver_rt = NodeRuntime(sim, profile, config)
    sender_nic = fabric.attach(
        "sender", config.costs.net_bandwidth, config.costs.net_propagation
    )
    receiver_nic = fabric.attach(
        "receiver", config.costs.net_bandwidth, config.costs.net_propagation
    )

    measure_start = warmup
    end_time = warmup + duration
    delivered = {"bytes": 0}

    def count(nbytes: int) -> None:
        if sim.now >= measure_start:
            delivered["bytes"] += nbytes

    if stack.startswith(("udp", "tcp")):
        protocol = stack.split("-")[0]
        sender = SocketStack(sender_rt, fabric, sender_nic, protocol)
        receiver = SocketStack(receiver_rt, fabric, receiver_nic, protocol)

        def send_loop():
            while sim.now < end_time:
                ok = yield from sender.send("receiver", message_bytes)
                if not ok:
                    continue  # dropped UDP datagram: no goodput

        def recv_loop():
            while True:
                frame = yield from receiver.recv()
                count(frame.wire_bytes)

        for _ in range(streams):
            sim.spawn(send_loop())
            sim.spawn(recv_loop())  # parallel streams, parallel readers
    else:
        endpoint_s = ErpcEndpoint(sender_rt, fabric, sender_nic)
        endpoint_r = ErpcEndpoint(receiver_rt, fabric, receiver_nic)
        if stack == "treaty":
            keyring = KeyRing(bytes(range(32)))
            rpc_s = SecureRpc(sender_rt, endpoint_s, keyring, 1)
            rpc_r = SecureRpc(receiver_rt, endpoint_r, keyring, 2)

            def handler(message, src):
                count(len(message.body))
                if False:
                    yield None
                return message.reply(MsgType.ACK)

            rpc_r.register(MsgType.TXN_WRITE, handler)
            body = b"x" * message_bytes

            def send_loop(stream_id):
                # Pipelined: eRPC keeps a window of outstanding requests.
                op = 0
                window = []
                while sim.now < end_time:
                    while len(window) < _PIPELINE_DEPTH:
                        op += 1
                        window.append(
                            rpc_s.enqueue(
                                "receiver",
                                TxMessage(
                                    MsgType.TXN_WRITE, 1, stream_id, op, body
                                ),
                            )
                        )
                    yield sim.quorum_of(window, 1)
                    window = [e for e in window if not e.triggered]

            for i in range(streams):
                sim.spawn(send_loop(i + 1))
        else:

            def handler(payload, src):
                count(len(payload))
                if False:
                    yield None
                return b"", _ACK_BYTES

            endpoint_r.register_handler(1, handler)
            payload = b"x" * message_bytes

            def send_loop():
                window = []
                while sim.now < end_time:
                    while len(window) < _PIPELINE_DEPTH:
                        window.append(
                            endpoint_s.enqueue_request(
                                "receiver", 1, payload, message_bytes
                            )
                        )
                    yield sim.quorum_of(window, 1)
                    window = [e for e in window if not e.triggered]

            for _ in range(streams):
                sim.spawn(send_loop())

    sim.run(until=end_time)
    return delivered["bytes"] * 8 / duration / 1e9


def run_figure8(
    sizes=(64, 256, 1024, 1460, 2048, 4096),
    duration: float = 2e-3,
    streams: int = 8,
) -> Dict[str, Dict[int, float]]:
    """The full Figure 8 grid: Gbps per stack per message size."""
    results: Dict[str, Dict[int, float]] = {}
    for stack in STACKS:
        results[stack] = {}
        for size in sizes:
            results[stack][size] = network_throughput(
                stack, size, duration=duration, streams=streams
            )
    return results
