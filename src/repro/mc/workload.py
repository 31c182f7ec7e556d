"""The fault workload and the end-state audit every fault sweep runs.

One copy, shared by :func:`repro.mc.run_one`, the randomized crash sweep
and the coordinator-death sweep (the package docstring lists how each
calls it).  Quiescence is only claimed for schedules that dropped no
frame: dropping a one-shot message (a recovery redrive is single-round
by design) legitimately stalls the protocol, while crashes, duplicates
and delays all preserve convergence.
"""

from __future__ import annotations

from typing import Any, Collection, List, Optional, Sequence, Tuple

from ..errors import NetworkError, TransactionAborted

__all__ = [
    "UNREADABLE", "keys_on", "spread_txns", "drive", "read_owner",
    "quiescence", "audit",
]

#: One transaction of the workload: its coordinator node and the
#: ``(key, value)`` pairs it writes.
Txn = Tuple[int, List[Tuple[bytes, bytes]]]

#: :func:`read_owner`'s answer when the key cannot be read.
UNREADABLE = object()


def keys_on(cluster, node: int, count: int, tag: bytes) -> List[bytes]:
    """The first ``count`` keys ``<tag>-NNNNN`` owned by ``node``."""
    keys, i = [], 0
    while len(keys) < count:
        key = b"%s-%05d" % (tag, i)
        if cluster.partitioner(key) == node:
            keys.append(key)
        i += 1
    return keys


def spread_txns(cluster, count: int, tag: bytes,
                coordinator: Optional[int] = None) -> List[Txn]:
    """``count`` transactions, each writing one key per shard (forced
    2PC) with its own keys and value; coordinators round-robin, or all
    ``coordinator``."""
    txns = []
    for t in range(count):
        name = b"%s%02d" % (tag, t)
        pairs = [
            (keys_on(cluster, i, 1, name)[0], b"val-" + name)
            for i in range(cluster.num_nodes)
        ]
        coord = t % cluster.num_nodes if coordinator is None else coordinator
        txns.append((coord, pairs))
    return txns


def drive(cluster, txns: Sequence[Txn], outcomes: List[str], *,
          give_up: float, starts: Optional[Sequence[float]] = None,
          optimistic: bool = False) -> list:
    """Start one client fiber per transaction; returns the fibers.

    Transaction ``i`` begins ``starts[i]`` sim-seconds from now (default
    1 ms apart) and sets ``outcomes[i]`` to ``committed``, ``aborted``
    or ``stuck``: a real client gives up on a put phase stalled past
    ``give_up`` (a put blocked on a crashed shard would otherwise park
    forever) and rolls the transaction back in the background —
    retrying until the crashed shard recovers, or fenced by the epoch
    when its coordinator crashed.
    """
    sim = cluster.sim
    if starts is None:
        starts = [index * 1e-3 for index in range(len(txns))]

    def client(index, coord, pairs):
        yield sim.sleep(starts[index])
        txn = cluster.nodes[coord].coordinator.begin(optimistic=optimistic)
        put_done = [False]

        def put_phase():
            try:
                for key, value in pairs:
                    yield from txn.put(key, value)
            except TransactionAborted:
                outcomes[index] = "aborted"
                return
            put_done[0] = True

        puts = sim.process(put_phase(), name="workload-puts-%d" % index)
        yield sim.all_settled([puts], timeout=give_up)
        if puts.triggered and not puts.ok:
            raise puts.value  # the put phase failed with no abort
        if outcomes[index] == "aborted":
            return
        if not put_done[0]:
            outcomes[index] = "stuck"
            sim.spawn(txn.rollback(), name="workload-giveup-%d" % index)
            return
        try:
            yield from txn.commit()
        except TransactionAborted:
            outcomes[index] = "aborted"
            return
        outcomes[index] = "committed"

    return [
        sim.process(client(index, coord, pairs),
                    name="workload-txn-%d" % index)
        for index, (coord, pairs) in enumerate(txns)
    ]


def read_owner(cluster, key: bytes) -> Any:
    """Read ``key`` through a fresh transaction on its owning shard.

    Returns :data:`UNREADABLE` when the owner is down or the read itself
    aborts (e.g. the key's lock is stuck in an in-doubt transaction);
    the caller decides whether that is legitimate.
    """
    owner = cluster.partitioner(key)
    if not cluster.nodes[owner].is_up:
        return UNREADABLE

    def body():
        txn = cluster.nodes[owner].coordinator.begin()
        value = yield from txn.get(key)
        yield from txn.commit()
        return value

    try:
        return cluster.run(body(), name="audit-read")
    except (TransactionAborted, NetworkError):
        return UNREADABLE


def quiescence(cluster, dead: Collection[int] = ()) -> List[str]:
    """Liveness at the end of a run: every node up except the ``dead``
    ones the schedule killed for good, no lock held and no participant
    half in doubt on the live ones, and the monitor's I4/I5 tail sweep
    (:meth:`InvariantMonitor.check_quiescent`).  Returns the violations,
    the monitor's included, each once."""
    return _with_monitor(cluster, _quiescence(cluster, dead))


def audit(cluster, txns: Sequence[Txn], outcomes: Sequence[str], *,
          dropped: bool, dead: Collection[int] = ()) -> List[str]:
    """The end-state audit: :func:`quiescence` unless the schedule
    ``dropped`` a frame, then atomicity (each transaction's writes are
    all present or all absent) and durability (a ``committed``
    transaction is fully visible) over the live shards.

    Quiescence is judged first, on the state the schedule left, before
    the audit's own reads move the clock.  A key owned by a ``dead``
    node is durable but unservable (its half lives in the dead node's
    sealed storage), so it is excused; any other unreadable key counts
    against durability.  Returns every violation, the monitor's
    included, each once.
    """
    violations = [] if dropped else _quiescence(cluster, dead)
    for index, (_coord, pairs) in enumerate(txns):
        values = [read_owner(cluster, key) for key, _ in pairs]
        excused = sum(
            1 for value, (key, _v) in zip(values, pairs)
            if value is UNREADABLE and cluster.partitioner(key) in dead
        )
        readable = [
            value == expected
            for value, (_key, expected) in zip(values, pairs)
            if value is not UNREADABLE
        ]
        shown = ["?" if v is UNREADABLE else repr(v) for v in values]
        if outcomes[index] == "committed":
            if len(readable) + excused < len(values) or not all(readable):
                violations.append(
                    "durability: txn %d committed but writes are not all "
                    "visible: %s" % (index, shown)
                )
        elif any(readable) and not all(readable):
            violations.append(
                "atomicity: txn %d (%s) applied on some shards only: %s"
                % (index, outcomes[index], shown)
            )
    return _with_monitor(cluster, violations)


def _quiescence(cluster, dead: Collection[int]) -> List[str]:
    violations = []
    for i, node in enumerate(cluster.nodes):
        if not node.is_up:
            if i not in dead:
                violations.append(
                    "liveness: node%d still down at end of run" % i
                )
            continue
        held = sorted(
            txn_id.hex()
            for txn_id, keys in node.manager.locks._held.items() if keys
        )
        if held:
            violations.append(
                "liveness: node%d lock table not quiescent: %s" % (i, held)
            )
        if node.participant.active:
            violations.append(
                "liveness: node%d has in-doubt participant txns: %s"
                % (i, sorted(gid.hex() for gid in node.participant.active))
            )
    cluster.obs.monitor.check_quiescent(now=cluster.sim.now)
    return violations


def _with_monitor(cluster, violations: List[str]) -> List[str]:
    violations.extend(
        v for v in cluster.obs.monitor.violations if v not in violations
    )
    return violations
