"""The layers of ``src/repro`` as the benchmark sees them.

A layer is a module (or a few modules) under ``src/repro``.  This file
holds, per layer: which functions the layer pass wraps with spans
(:func:`instrumented`), which registry counters become per-layer metrics
(:func:`layer_counts`) and the isolated ``micro.*`` timings of public
functions on fixed inputs (:func:`run_micro`).  Nothing here is imported
by, or changes, the program; everything is read or patched from outside.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import pkgutil
from typing import Any, Callable, Dict, Iterator, List, Tuple

from hostclock import SpeedClock
from spans import SpanRecorder, wrap_generator, wrap_sync

__all__ = [
    "LAYERS",
    "UNATTRIBUTED",
    "instrumented",
    "flat_counters",
    "layer_counts",
    "run_micro",
]

#: module prefix -> layer, first match wins.  Modules that match nothing
#: (``bench``, ``cli``, ``mc``, ``workloads``, ``config``) are the
#: benchmark's tools or never run in a workload.
MODULE_LAYERS = (
    ("repro.sim", "sim"),
    ("repro.sched", "sim"),
    ("repro.crypto", "crypto"),
    ("repro.net", "net"),
    ("repro.core.twopc", "twopc"),
    ("repro.core.rollback", "counter"),
    ("repro.core.trusted_counter", "counter"),
    ("repro.core.pipeline", "counter"),
    ("repro.core.stabilization", "counter"),
    ("repro.core", "core"),
    ("repro.txn", "txn"),
    ("repro.storage", "storage"),
    ("repro.tee", "tee"),
    ("repro.obs", "obs"),
)

LAYERS = ("sim", "crypto", "net", "twopc", "counter", "core", "txn",
          "storage", "tee", "obs")

#: pseudo-layer of ``Process._step``: the self time of a fiber resume is
#: fiber code under no wrapped function (the YCSB client loop, closures).
UNATTRIBUTED = "fiber"

#: synchronous functions wrapped per call: (layer, module, class or None,
#: attribute).  A module-level function is patched in every listed module
#: that looked it up by name.  Every *generator* method of every class in
#: a layer's modules is wrapped as well (per resume), so this list only
#: has to name the plain functions where a layer does real work.
SYNC_ENTRY_POINTS = (
    ("sim", "repro.sim.core", "Simulator", "step"),
    (UNATTRIBUTED, "repro.sim.core", "Process", "_step"),
    ("crypto", "repro.crypto.aead", "Aead", "seal"),
    ("crypto", "repro.crypto.aead", "Aead", "open"),
    ("crypto", "repro.crypto.hashing", "LogChain", "append"),
    ("crypto", "repro.crypto.hashing", "LogChain", "verify_next"),
    ("net", "repro.net.message", "TxMessage", "encode"),
    ("net", "repro.net.message", "TxMessage", "decode"),
    ("net", "repro.net.message", "ReplayGuard", "check"),
    ("net", "repro.net.message", None, "seal_batch"),
    ("net", "repro.net.message", None, "unseal_batch"),
    ("net", "repro.net.secure_rpc", None, "seal_batch"),
    ("net", "repro.net.secure_rpc", None, "unseal_batch"),
    ("net", "repro.net.secure_rpc", "SecureRpc", "enqueue"),
    ("net", "repro.net.secure_rpc", "SecureRpc", "broadcast"),
    ("net", "repro.net.erpc", "ErpcEndpoint", "enqueue_request"),
    ("net", "repro.net.simnet", "Fabric", "route"),
    ("txn", "repro.txn.locks", "LockTable", "release_all"),
    ("obs", "repro.obs.tracer", "Tracer", "span"),
    ("obs", "repro.obs.tracer", "Tracer", "event"),
    ("obs", "repro.obs.tracer", "Span", "close"),
    ("obs", "repro.obs.tracer", "Tracer", "process_started"),
    ("obs", "repro.obs.tracer", "Tracer", "process_finished"),
)


def _layer_of(module_name: str) -> str | None:
    for prefix, layer in MODULE_LAYERS:
        if module_name == prefix or module_name.startswith(prefix + "."):
            return layer
    return None


def _layer_modules() -> Iterator[Tuple[str, Any]]:
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        layer = _layer_of(info.name)
        if layer is not None:
            yield layer, importlib.import_module(info.name)


def _generator_methods() -> Iterator[Tuple[str, type, str, Callable]]:
    """(layer, class, attribute, function) for every generator method."""
    for layer, module in _layer_modules():
        for cls in vars(module).values():
            if not inspect.isclass(cls) or cls.__module__ != module.__name__:
                continue
            for attr, member in list(vars(cls).items()):
                if inspect.isgeneratorfunction(member):
                    yield layer, cls, attr, member


@contextlib.contextmanager
def instrumented(recorder: SpanRecorder,
                 user_bytes: List[int]) -> Iterator[None]:
    """Patch the span wrappers on; restore every attribute on exit.

    Patch before the cluster is built: handlers are registered as bound
    methods at construction and would keep the unwrapped function.
    ``user_bytes[0]`` accumulates key+value bytes of ``MemTable.put``
    calls made while the recorder is on (the denominator of
    ``storage.write_amp``).
    """
    undo: List[Tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, replacement: Any) -> None:
        undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    from repro.storage.memtable import MemTable

    original_put = MemTable.put

    def counted_put(self, key, value, seq):
        if recorder.on:
            user_bytes[0] += len(key) + (len(value) if value else 0)
        return original_put(self, key, value, seq)

    try:
        for layer, cls, attr, fn in _generator_methods():
            index = recorder.register(layer, "%s.%s" % (cls.__name__, attr))
            if cls is MemTable and attr == "put":
                fn = counted_put
            patch(cls, attr, wrap_generator(recorder, index, fn))
        for layer, module_name, cls_name, attr in SYNC_ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = getattr(module, cls_name) if cls_name else module
            member = vars(owner)[attr]
            label = "%s.%s" % (cls_name, attr) if cls_name else attr
            index = recorder.register(layer, label)
            if isinstance(member, classmethod):
                wrapped: Any = classmethod(
                    wrap_sync(recorder, index, member.__func__))
            else:
                wrapped = wrap_sync(recorder, index, member)
            patch(owner, attr, wrapped)
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# -- registry counters ---------------------------------------------------------


def flat_counters(cluster) -> Dict[str, float]:
    """Every registry of the deployment summed into one name -> number map.

    Nodes, the CAS and the fabric come from the metrics hub; client
    machines keep their registries to themselves.  A histogram becomes
    ``name.total`` and ``name.sum``.
    """
    from repro.bench.harness import cluster_nic_tx_frames

    flat: Dict[str, float] = {}
    snapshots = list(cluster.obs.snapshot().values())
    snapshots.extend(
        machine.runtime.metrics.snapshot()
        for machine in cluster.client_machines
    )
    for snapshot in snapshots:
        for name, value in snapshot.items():
            if isinstance(value, dict):
                flat[name + ".total"] = (
                    flat.get(name + ".total", 0) + value["total"])
                flat[name + ".sum"] = flat.get(name + ".sum", 0) + value["sum"]
            elif isinstance(value, (int, float)):
                flat[name] = flat.get(name, 0) + value
    flat["net.cluster_tx_frames"] = cluster_nic_tx_frames(cluster)
    return flat


def layer_counts(before: Dict[str, float], after: Dict[str, float],
                 committed: int) -> Dict[str, float]:
    """Per-layer count metrics over the measured window.

    ``before``/``after`` are :func:`flat_counters` at the window's two
    ends; ``committed`` is the number of transactions committed in it.
    """
    txns = max(1, committed)

    def delta(name: str) -> float:
        return after.get(name, 0) - before.get(name, 0)

    def per_txn(name: str) -> float:
        return delta(name) / txns

    def mean(name: str, scale: float = 1.0) -> float:
        total = delta(name + ".total")
        return delta(name + ".sum") / total * scale if total else 0.0

    return {
        "crypto.seal_ops_per_txn": per_txn("net.seal_ops"),
        "crypto.messages_sealed_per_txn": per_txn("net.messages_sealed"),
        "crypto.ops_per_txn": per_txn("runtime.crypto_ops"),
        "net.frames_per_txn": per_txn("net.delivered_frames"),
        "net.cluster_frames_per_txn": per_txn("net.cluster_tx_frames"),
        "net.tx_bytes_per_txn": per_txn("net.tx_bytes"),
        "net.batch_occupancy_mean": mean("net.batch_occupancy"),
        "net.auth_failures": delta("net.auth_failures"),
        "twopc.prepare_mean_ms": mean("twopc.prepare_s", 1e3),
        "twopc.decision_mean_ms": mean("twopc.decision_s", 1e3),
        "twopc.commit_mean_ms": mean("twopc.commit_s", 1e3),
        "decision.replicated_per_txn": per_txn("decision.replicated"),
        "completer.takeovers": delta("completer.takeover"),
        "counter.rounds_per_txn": per_txn("counter.rounds_executed"),
        "counter.covered_per_txn": per_txn("counter.covered"),
        "counter.sync_fallbacks": delta("counter.sync_fallbacks"),
        "counter.lease_expired": delta("counter.lease.expired"),
        "stabilize.wait_mean_ms": mean("stabilize.wait_s", 1e3),
        "stabilize.batch_mean": mean("stabilize.batch_size"),
        "stabilize.group_rounds_per_txn": per_txn("stabilize.group_rounds"),
        "group_commit.batch_mean": mean("group_commit.batch_size"),
        "locks.wait_mean_ms": mean("locks.wait_s", 1e3),
        "locks.waits_per_txn": per_txn("locks.wait_s.total"),
        "locks.timeouts": delta("locks.timeouts"),
        "occ.retries_per_txn": per_txn("occ.retries"),
        "readonly.local_per_txn": per_txn("txn.readonly.local"),
        "readonly.upgraded": delta("txn.readonly.upgraded"),
        "storage.flushes": delta("storage.flush_count"),
        "storage.compactions": delta("storage.compaction_count"),
        "storage.tables": after.get("storage.live_sstables", 0),
        "storage.log_bytes_per_txn": per_txn("storage.log_bytes"),
        "tee.transitions_per_txn": per_txn("tee.transitions"),
        "tee.page_faults": delta("tee.page_faults"),
        "tee.syscalls_per_txn": per_txn("runtime.syscalls"),
    }


# -- micro timings -------------------------------------------------------------

#: repeats per micro timing; the best (least disturbed) one is reported.
MICRO_REPEATS = 5


def _best_us(fn: Callable[[], int]) -> float:
    """Best of :data:`MICRO_REPEATS` runs of ``fn``, in us per operation.

    ``fn`` does its batch of operations and returns how many it did; like
    every host time, each run is scaled to the reference speed.
    """
    best = float("inf")
    clock = SpeedClock()
    for _ in range(MICRO_REPEATS):
        operations = fn()
        best = min(best, clock.lap() / operations)
    return best * 1e6


def run_micro(seed: int) -> Dict[str, float]:
    """Isolated timings of public functions on fixed seeded inputs.

    Inputs: 1 KiB and 16 KiB AEAD payloads, a 1 000 B PUT ``TxMessage``,
    200 k timeout-only simulator events (40 k per repeat), a MemTable
    filled to 10 k keys and one built SSTable.
    """
    from repro.config import ClusterConfig, TREATY_FULL
    from repro.crypto import KeyRing
    from repro.crypto.aead import Aead
    from repro.net.message import MsgType, TxMessage
    from repro.sim.core import Simulator
    from repro.sim.rng import SeededRng
    from repro.storage import Disk, MemTable, SSTableReader, build_sstable
    from repro.tee import NodeRuntime

    rng = SeededRng(seed, "perf-micro")
    out: Dict[str, float] = {}

    def random_bytes(count: int) -> bytes:
        return bytes(int(rng.random() * 256) for _ in range(count))

    # crypto: seal and open, weighted per KiB over a small and a large payload
    aead = Aead(random_bytes(32))
    iv = random_bytes(12)
    payloads = [random_bytes(1024), random_bytes(16 * 1024)]
    sealed = [aead.seal(iv, payload, b"aad") for payload in payloads]
    kib = sum(len(payload) for payload in payloads) / 1024

    def seal_all() -> int:
        for _ in range(20):
            for payload in payloads:
                aead.seal(iv, payload, b"aad")
        return 20

    def open_all() -> int:
        for _ in range(20):
            for blob in sealed:
                aead.open(blob, b"aad")
        return 20

    out["micro.aead_seal_us_per_kib"] = _best_us(seal_all) / kib
    out["micro.aead_open_us_per_kib"] = _best_us(open_all) / kib

    # net: message codec
    message = TxMessage(
        MsgType.TXN_WRITE, 1, 4242, 7, body=random_bytes(1000),
        trace="%032x" % 4242, trace_parent=3, trace_origin=1,
    )
    encoded = message.encode()

    def encode_many() -> int:
        for _ in range(2000):
            message.encode()
        return 2000

    def decode_many() -> int:
        for _ in range(2000):
            TxMessage.decode(encoded)
        return 2000

    out["micro.msg_encode_us"] = _best_us(encode_many)
    out["micro.msg_decode_us"] = _best_us(decode_many)

    # sim: timeout-only events through Simulator.step
    def timeouts() -> int:
        sim = Simulator()
        for index in range(40_000):
            sim.timeout(index * 1e-6)
        sim.run()
        return 40_000

    out["micro.sim_step_us"] = _best_us(timeouts)

    # storage: MemTable and SSTable on the full profile (values sealed)
    config = ClusterConfig(seed=seed)
    sim = Simulator()
    runtime = NodeRuntime(sim, TREATY_FULL, config)
    keyring = KeyRing(random_bytes(32))
    keys = [b"usertable/user%08d" % index for index in range(10_000)]
    value = random_bytes(1000)
    table = MemTable(runtime, keyring, rng=SeededRng(seed, "perf-memtable"))
    chunks = iter([keys[start:start + 1000] for start in range(0, 10_000, 1000)])
    seqs = iter(range(1, 10_001))

    def put_thousand() -> int:
        def body():
            for key in next(chunks):
                yield from table.put(key, value, next(seqs))
        sim.run_process(body())
        return 1000

    for _ in range(10 - MICRO_REPEATS):  # the timed repeats fill the rest
        put_thousand()
    out["micro.memtable_put_us"] = _best_us(put_thousand)

    probe_keys = [keys[int(rng.random() * 10_000)] for _ in range(1000)]

    def get_thousand() -> int:
        def body():
            for key in probe_keys:
                yield from table.get(key)
        sim.run_process(body())
        return 1000

    out["micro.memtable_get_us"] = _best_us(get_thousand)

    entries = [(key, value, index + 1)
               for index, key in enumerate(keys[:2000])]
    disk = Disk()
    meta = sim.run_process(build_sstable(
        runtime, disk, keyring, "perf/sst-000001.sst", 0, entries,
        config.block_bytes))
    reader = SSTableReader(runtime, disk, keyring, meta)
    sstable_keys = [keys[int(rng.random() * 2000)] for _ in range(300)]

    def sstable_gets() -> int:
        def body():
            for key in sstable_keys:
                yield from reader.get(key)
        sim.run_process(body())
        return 300

    out["micro.sstable_get_us"] = _best_us(sstable_gets)
    return out
