"""Conflict-serializability of committed histories.

Runs batches of concurrent transactions, captures each committed
transaction's read set (key -> version observed) and write set
(key -> version installed), builds the direct serialization graph
(ww / wr / rw edges) and asserts it is acyclic — the textbook proof
obligation for serializability.
"""

import pytest

from repro.config import ClusterConfig, TREATY_ENC
from repro.errors import TransactionAborted
from repro.sim import SeededRng

from tests.conftest import TxnHarness


def build_conflict_graph(histories):
    """histories: list of (txn_name, reads {k: seq}, writes {k: seq}).

    Returns adjacency dict txn -> set(txn).
    """
    writers_by_version = {}  # (key, seq) -> txn
    versions_by_key = {}  # key -> sorted list of (seq, txn)
    for name, _reads, writes in histories:
        for key, seq in writes.items():
            writers_by_version[(key, seq)] = name
            versions_by_key.setdefault(key, []).append((seq, name))
    for key in versions_by_key:
        versions_by_key[key].sort()

    edges = {name: set() for name, _, _ in histories}

    def add_edge(src, dst):
        if src != dst and src in edges and dst in edges:
            edges[src].add(dst)

    # ww edges: version order is commit order.
    for key, versions in versions_by_key.items():
        for (s1, t1), (s2, t2) in zip(versions, versions[1:]):
            add_edge(t1, t2)
    for name, reads, writes in histories:
        for key, seq in reads.items():
            # wr: the transaction that installed what we read precedes us.
            writer = writers_by_version.get((key, seq))
            if writer is not None:
                add_edge(writer, name)
            # rw: we precede the next writer of that key.
            for version_seq, other in versions_by_key.get(key, ()):
                if version_seq > seq:
                    add_edge(name, other)
                    break
    return edges

def assert_acyclic(edges):
    WHITE, GREY, BLACK = 0, 1, 2
    color = {node: WHITE for node in edges}

    def visit(node, stack):
        color[node] = GREY
        stack.append(node)
        for succ in edges[node]:
            if color[succ] == GREY:
                raise AssertionError(
                    "serializability violated: cycle through %r"
                    % (stack[stack.index(succ):],)
                )
            if color[succ] == WHITE:
                visit(succ, stack)
        stack.pop()
        color[node] = BLACK

    for node in edges:
        if color[node] == WHITE:
            visit(node, [])


class _Recorder:
    """Wraps the engine's log_commits to capture installed versions."""

    def __init__(self, engine):
        self.engine = engine
        self.versions = {}  # txn_id -> {key: seq}
        self._original = engine.log_commits
        engine.log_commits = self._wrapped

    def _wrapped(self, records):
        for txn_id, writes in records:
            self.versions.setdefault(txn_id, {}).update(
                {key: seq for key, _value, seq in writes}
            )
        result = yield from self._original(records)
        return result


def run_random_history(seed, num_txns=40, num_keys=8):
    harness = TxnHarness(profile=TREATY_ENC).boot()
    recorder = _Recorder(harness.engine)
    rng = SeededRng(seed, "ser")
    keys = [b"k%02d" % i for i in range(num_keys)]
    harness.put_all([(key, b"init") for key in keys], txn_id=b"init")
    histories = []
    sim = harness.sim

    def worker(index):
        local_rng = rng.child(str(index))
        yield sim.timeout(local_rng.random() * 0.002)
        txn = harness.begin()
        reads = {}
        try:
            for _ in range(local_rng.randint(1, 4)):
                key = local_rng.choice(keys)
                if local_rng.random() < 0.5:
                    yield from txn.get(key)
                    if key in txn.reads:
                        # (reads served from the txn's own write buffer
                        # have no version: they are internal, not edges)
                        reads[key] = txn.reads[key]
                else:
                    yield from txn.put(key, b"w%d" % index)
            yield from txn.commit()
        except TransactionAborted:
            return
        histories.append(
            (txn.txn_id, dict(reads), recorder.versions.get(txn.txn_id, {}))
        )

    for index in range(num_txns):
        sim.process(worker(index))
    sim.run()
    return histories


@pytest.mark.parametrize("seed", [1, 7, 42, 2022])
def test_pessimistic_histories_are_conflict_serializable(seed):
    histories = run_random_history(seed)
    assert len(histories) > 5  # enough committed transactions to matter
    named = [("t%d" % i, r, w) for i, (_, r, w) in enumerate(histories)]
    assert_acyclic(build_conflict_graph(named))


@pytest.mark.parametrize("seed", [3, 9, 77])
def test_optimistic_histories_are_conflict_serializable(seed):
    """Single-node OCC: one-phase commits validated from the node's own
    PREPARE body."""
    histories = run_distributed_occ_history(seed, num_nodes=1)
    assert len(histories) > 5
    named = [("t%d" % i, r, w) for i, (_, r, w) in enumerate(histories)]
    assert_acyclic(build_conflict_graph(named))


# -- distributed OCC (validation inside PREPARE) ------------------------------


def run_distributed_occ_history(
    seed, num_txns=30, num_keys=12, mix_pessimistic=False, num_nodes=3
):
    """Random concurrent global transactions through the full cluster.

    Returns (histories, committed_gids): per committed transaction the
    validate set (key -> observed seq) and installed write versions
    (key -> seq) merged across every node's engine.
    """
    from repro.core.cluster import TreatyCluster

    config = ClusterConfig(seed=seed)
    cluster = TreatyCluster(
        profile=TREATY_ENC, config=config, num_nodes=num_nodes
    ).start()
    recorders = [_Recorder(node.engine) for node in cluster.nodes]
    keys = [b"k%02d" % i for i in range(num_keys)]
    sim = cluster.sim

    def load():
        txn = cluster.nodes[0].coordinator.begin()
        for key in keys:
            yield from txn.put(key, b"init")
        yield from txn.commit()

    cluster.run(load(), name="load")
    rng = SeededRng(seed, "docc")
    histories = []

    def worker(index):
        local_rng = rng.child(str(index))
        yield sim.timeout(local_rng.random() * 0.002)
        coordinator = cluster.nodes[index % num_nodes].coordinator
        pessimistic = mix_pessimistic and local_rng.random() < 0.5
        txn = coordinator.begin(optimistic=not pessimistic)
        reads = {}
        try:
            for _ in range(local_rng.randint(1, 4)):
                key = local_rng.choice(keys)
                if local_rng.random() < 0.5:
                    yield from txn.get(key)
                else:
                    yield from txn.put(key, b"w%d" % index)
            if not pessimistic:
                reads = dict(txn._occ_reads)
            yield from txn.commit()
        except TransactionAborted:
            return
        gid_bytes = txn.gid.encode()
        writes = {}
        for recorder in recorders:
            writes.update(recorder.versions.get(gid_bytes, {}))
        histories.append((gid_bytes, reads, writes))

    for index in range(num_txns):
        sim.process(worker(index))
    sim.run()
    return histories


@pytest.mark.parametrize("seed", [5, 13, 99])
def test_distributed_occ_histories_are_conflict_serializable(seed):
    histories = run_distributed_occ_history(seed)
    assert len(histories) > 5
    named = [("t%d" % i, r, w) for i, (_, r, w) in enumerate(histories)]
    assert_acyclic(build_conflict_graph(named))


@pytest.mark.parametrize("seed", [17, 23])
def test_mixed_occ_and_locking_histories_are_serializable(seed):
    """Distributed OCC validates under the same lock table 2PL uses, so
    a mixed population must still produce acyclic histories."""
    histories = run_distributed_occ_history(seed, mix_pessimistic=True)
    assert len(histories) > 5
    named = [("t%d" % i, r, w) for i, (_, r, w) in enumerate(histories)]
    assert_acyclic(build_conflict_graph(named))


def test_cross_node_anti_dependency_cycle_aborts():
    """T1 reads a/writes b, T2 reads b/writes a (a and b on different
    nodes): letting both commit would be the classic write-skew cycle
    r1[a] r2[b] w1[b] w2[a] — PREPARE-time validation must NACK at
    least one of them."""
    from repro.core.cluster import TreatyCluster

    cluster = TreatyCluster(profile=TREATY_ENC, num_nodes=3).start()
    partitioner = cluster.partitioner
    key_a = next(
        b"a%04d" % i for i in range(10_000) if partitioner(b"a%04d" % i) == 0
    )
    key_b = next(
        b"b%04d" % i for i in range(10_000) if partitioner(b"b%04d" % i) == 1
    )
    sim = cluster.sim

    def load():
        txn = cluster.nodes[0].coordinator.begin()
        yield from txn.put(key_a, b"0")
        yield from txn.put(key_b, b"0")
        yield from txn.commit()

    cluster.run(load(), name="load")
    outcomes = {}

    def run_one(name, coordinator, read_key, write_key, gate):
        txn = cluster.nodes[coordinator].coordinator.begin(optimistic=True)
        yield from txn.get(read_key)
        yield from txn.put(write_key, name.encode())
        gate.succeed(None) if not gate.triggered else None
        # Both transactions have read before either commits.
        yield sim.timeout(0.001)
        try:
            yield from txn.commit()
            outcomes[name] = "committed"
        except TransactionAborted:
            outcomes[name] = "aborted"

    gate1, gate2 = sim.event(), sim.event()
    sim.process(run_one("T1", 0, key_a, key_b, gate1))
    sim.process(run_one("T2", 1, key_b, key_a, gate2))
    sim.run()
    assert set(outcomes) == {"T1", "T2"}
    # The rw-cycle must be broken: at most one commits, never both.
    assert list(outcomes.values()).count("committed") <= 1
    # Progress: validation conflicts abort, they do not deadlock.
    assert all(v in ("committed", "aborted") for v in outcomes.values())


def test_graph_checker_detects_cycles():
    """Self-test: a non-serializable history must be flagged."""
    histories = [
        # T1 reads k@0 then writes j@1; T2 reads j@0 then writes k@1.
        ("T1", {"k": 0}, {"j": 1}),
        ("T2", {"j": 0}, {"k": 1}),
    ]
    edges = build_conflict_graph(histories)
    with pytest.raises(AssertionError, match="cycle"):
        assert_acyclic(edges)
