"""A frame's CPU cost is one core hold, and a free link is taken at once.

The eRPC TX path charges the batch seal, the message-buffer shielding
and the driver cost as one ``CpuPool`` hold (the RX path: shielding,
driver and open), so no other fiber gets the core between them.  A free
egress link, like a free core, is taken without a grant event.
"""

import pytest

from repro.config import ClusterConfig, TREATY_ENC
from repro.net import Fabric, Frame, MsgType, TxMessage
from repro.sim import Simulator
from repro.sim.cpu import CpuPool
from repro.sim.sync import Resource

from tests.conftest import NetHarness


def counted_requests(monkeypatch):
    """Count ``Resource.request`` calls: one per grant event built."""
    calls = []
    request = Resource.request

    def counted(resource):
        calls.append(resource)
        return request(resource)

    monkeypatch.setattr(Resource, "request", counted)
    return calls


# -- the core hold --------------------------------------------------------------


def test_consume_holds_one_core_across_its_charges():
    sim = Simulator()
    pool = CpuPool(sim, cores=1, speed_factor=0.5)
    charges = (3e-6, 1e-6, 2e-6)
    log = []

    def frame():
        start = yield from pool.consume(*charges)
        log.append(("frame", start, sim.now))

    def rival():
        yield sim.sleep(1e-6)  # queues for the core inside the first charge
        start = yield from pool.consume(1e-6)
        log.append(("rival", start, sim.now))

    sim.spawn(frame())
    sim.spawn(rival())
    sim.run()
    end = 0.0
    for seconds in charges:
        end += seconds / 0.5
    assert log == [("frame", 0.0, end), ("rival", end, end + 2e-6)]
    assert pool.busy_seconds == sum(seconds / 0.5 for seconds in charges) + 2e-6


def test_no_other_fiber_runs_between_a_frames_charges():
    """One core, a second fiber queued for it while the frame is sealed:
    it runs only after the frame's seal, shield and driver charges."""
    harness = NetHarness(profile=TREATY_ENC,
                         config=ClusterConfig(cores_per_node=1))
    sim, runtime, nic = harness.sim, harness.runtimes[0], harness.nics[0]
    sent = []
    transmit = nic.transmit

    def recording_transmit(frame):
        sent.append(sim.now)  # the frame's core hold is over
        return (yield from transmit(frame))

    nic.transmit = recording_transmit
    rival = []

    def body():
        harness.secure[0].enqueue(
            "node1", TxMessage(MsgType.TXN_WRITE, 0, 1, 1, b"v" * 512))
        # the flusher takes the core after the 2 us doorbell window
        yield sim.sleep(2.5e-6)
        yield from runtime.compute(1e-6)
        rival.append(sim.now)

    harness.run(body())
    sim.run()
    (frame_end,), (rival_end,) = sent, rival
    assert rival_end == pytest.approx(frame_end + 1e-6 / runtime.cpu.speed_factor)


def test_busy_seconds_is_the_scaled_sum_of_a_frames_charges():
    harness = NetHarness(profile=TREATY_ENC)
    runtime, codec = harness.runtimes[0], harness.secure[0]
    message = TxMessage(MsgType.TXN_WRITE, 0, 1, 1, b"v" * 300)
    wire, _ = codec._encode_part(message)
    blob = codec.encode_batch([wire])[0]  # the IV-distinct blob length
    harness.secure[0].enqueue("node1", message)
    harness.sim.run()
    wire_bytes = len(blob) + 16
    speed = runtime.cpu.speed_factor
    costs = runtime.costs
    charges = (
        costs.aead_cost(len(blob)),
        costs.scone_net_handling + wire_bytes * costs.scone_msgbuf_copy_per_byte,
        harness.endpoints[0]._tx_cpu_cost(wire_bytes),
    )
    expected = 0.0
    for seconds in charges:
        expected += seconds / speed
    assert runtime.cpu.busy_seconds == expected


# -- the egress link ------------------------------------------------------------


def two_nics():
    sim = Simulator()
    fabric = Fabric(sim)
    a = fabric.attach("a", bandwidth=1000.0, propagation=0.0)
    b = fabric.attach("b", bandwidth=1000.0, propagation=0.0)
    return sim, fabric, a, b


def test_a_free_link_is_taken_with_no_grant_entry(monkeypatch):
    grants = counted_requests(monkeypatch)
    sim, _fabric, a, b = two_nics()
    entries = []
    step = sim.step

    def counted_step():
        entries.append(sim.now)
        step()

    sim.step = counted_step
    sim.spawn(a.transmit(Frame("a", "b", 100, b"x")))
    sim.run()
    assert grants == []
    # bootstrap, the serialization sleep's wake, the fabric delivery
    assert len(entries) == 3
    assert b.inbox.drain()[0].payload == b"x"
    assert sim.now == pytest.approx(0.1)


def test_frames_on_a_busy_link_serialize_in_fifo_order(monkeypatch):
    grants = counted_requests(monkeypatch)
    sim, _fabric, a, b = two_nics()
    arrivals = []
    b.set_receiver(lambda frame: arrivals.append((frame.payload, sim.now)))
    for payload in (b"1", b"2", b"3"):
        sim.spawn(a.transmit(Frame("a", "b", 100, payload)))
    sim.run()
    # the first frame took the free link; the other two queued for it
    assert len(grants) == 2
    assert [payload for payload, _ in arrivals] == [b"1", b"2", b"3"]
    assert [t for _, t in arrivals] == pytest.approx([0.1, 0.2, 0.3])


def test_a_crashed_nic_sends_nothing(monkeypatch):
    grants = counted_requests(monkeypatch)
    sim, fabric, a, b = two_nics()
    fabric.detach("a")
    sim.spawn(a.transmit(Frame("a", "b", 100, b"ghost")))
    sim.run()
    assert grants == []
    assert b.inbox.drain() == []
    assert (a.tx_frames, fabric.delivered_frames, fabric.dropped_frames) == (
        0, 0, 1)
