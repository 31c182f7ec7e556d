"""A finished wait leaves no timer behind.

Every cluster request carries a deadline, the coordinator's own vote
has one, and every watched half has an orphan fuse and then a decision
watchdog.  A request that was answered and a half that was decided
cancel theirs: once a YCSB-A run drains, the simulator's heap holds no
live entry for either, only the deadlines of what is still waited on.
A lock wait and a lease wait are composites bounded by ``timeout=``:
at no point of the run does the heap hold a ``Timeout`` or the live
deadline of a composite that already fired.
"""

import collections
import sys
from functools import partial

from repro.config import ClusterConfig, TREATY_FULL
from repro.core import TreatyCluster
from repro.core.twopc.participant import Participant
from repro.errors import TransactionAborted
from repro.net.erpc import ErpcEndpoint
from repro.sim import Process, Timeout
from repro.sim.core import QuorumOf
from repro.sim.rng import SeededRng
from repro.workloads.ycsb import YcsbConfig, YcsbWorkload, bulk_load


def _live_entries(sim):
    """What the heap still runs: a cancelled deadline runs nothing."""
    entries = [entry for _when, _seq, entry in sim._heap]
    return [entry for entry in entries
            if getattr(entry, "_fn", entry) is not None]


def _runs(entry):
    """The bound method a heap entry calls, through its deadline and
    ``partial`` wrappers, with the ``partial``'s arguments."""
    fn = getattr(entry, "_fn", entry)
    args = ()
    while isinstance(fn, partial):
        args = fn.args + args
        fn = fn.func
    return fn, args


def _outlived_bounds(sim):
    """Live heap entries that outlive the wait they bound: a ``Timeout``
    (nothing cancels it when its wait ends) or the deadline of a
    composite that already fired."""
    outlived = []
    for entry in _live_entries(sim):
        owner = getattr(_runs(entry)[0], "__self__", None)
        if isinstance(entry, Timeout) or (
                isinstance(owner, QuorumOf) and owner.triggered):
            outlived.append(entry)
    return outlived


def test_a_drained_ycsb_a_run_leaves_no_dead_timer():
    """A contended YCSB-A run under coverage promises: transactions wait
    for locks and for counter coverage under a lease."""
    cluster = TreatyCluster(
        profile=TREATY_FULL,
        config=ClusterConfig(seed=3, rollback_backend="counter-async"),
    ).start()
    sim = cluster.sim
    bounded = collections.Counter()
    all_settled = sim.all_settled

    def counted(events, **timeout):
        if timeout:  # a bounded wait, by the waiting function
            bounded[sys._getframe(1).f_code.co_name] += 1
        return all_settled(events, **timeout)

    sim.all_settled = counted
    workload_config = YcsbConfig.variant("a", num_keys=60, value_size=100)
    cluster.run(bulk_load(cluster, workload_config))
    machines = [cluster.client_machine() for _ in range(2)]
    clients, txns_each = 6, 5
    committed, finished = [], []

    def client(index):
        session = cluster.session(
            machines[index % len(machines)], coordinator=index % 3
        )
        workload = YcsbWorkload(
            workload_config, SeededRng(3, "leak-client", str(index))
        )
        for _ in range(txns_each):
            ops = workload.next_transaction()
            txn = session.begin()
            try:
                for kind, key, value in ops:
                    if kind == "read":
                        yield from txn.get(key)
                    else:
                        yield from txn.put(key, value)
                yield from txn.commit()
                committed.append(index)
            except TransactionAborted:
                pass
        finished.append(index)

    sent = sum(node.cluster_endpoint.requests_sent for node in cluster.nodes)
    for index in range(clients):
        sim.spawn(client(index), name="leak-client-%d" % index)
    # Drained: every client loop ended and what they started settled,
    # well before any request deadline or decision timeout passed.
    outlived = []
    while len(finished) < clients:
        sim.run(until=sim.now + 1e-3)
        outlived.extend(_outlived_bounds(sim))
    sim.run(until=sim.now + 0.1)
    outlived.extend(_outlived_bounds(sim))
    assert outlived == []
    assert bounded["acquire"] > 0 and bounded["_await_coverage"] > 0
    assert len(committed) > clients * txns_each // 2
    assert sum(
        node.cluster_endpoint.requests_sent for node in cluster.nodes
    ) - sent > 100

    live = [_runs(entry) for entry in _live_entries(sim)]
    pending = {
        (endpoint, req_id)
        for node in cluster.nodes
        for endpoint in (node.cluster_endpoint, node.front_endpoint)
        for req_id in endpoint._pending
    }
    answered = [
        args for fn, args in live
        if getattr(fn, "__func__", None) is ErpcEndpoint._expire
        and (fn.__self__, args[0]) not in pending
    ]
    assert answered == []
    watches = [
        entry.name for entry in _live_entries(sim)
        if isinstance(entry, Process)
        and entry.name.startswith(("orphan-fuse@", "decision-watch@"))
    ]
    assert watches == []
    decided = [
        args for fn, args in live
        if isinstance(getattr(fn, "__self__", None), Participant)
        and args[0] not in fn.__self__.active
    ]
    assert decided == []
