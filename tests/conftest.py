"""Shared fixtures and builders for the test suite."""

import os

import pytest

from repro.config import ClusterConfig, DS_ROCKSDB, TREATY_ENC
from repro.obs import enable_monitor_by_default

# Every cluster the suite builds runs under the online invariant monitor
# (strict: a protocol-safety violation fails the test at the violating
# instant).  Individual tests can still opt out via ClusterConfig.
enable_monitor_by_default()
from repro.crypto import KeyRing
from repro.net import ErpcEndpoint, Fabric, SecureRpc
from repro.sim import Simulator
from repro.storage import Disk, LSMEngine
from repro.tee import NodeRuntime

ROOT_KEY = bytes(range(32))


def carries(frame, msg_type):
    """Whether an eRPC frame carries a ``msg_type`` message anywhere in
    its batch.

    A batch frame's top-level ``meta["req_type"]`` names its first
    message only: one coalesced behind another type shows in
    ``meta["batch"]`` alone.  A response carries the type of the request
    it answers."""
    return frame.kind == "erpc" and any(
        sub["req_type"] == msg_type for sub in frame.meta.get("batch", ())
    )


def seed_range(variable, default):
    """The seeds a randomized sweep runs: environment ``variable`` holds
    a count (seeds ``0..count-1``) or ``<start>:<stop>``; unset, the
    sweep runs ``default`` seeds."""
    spec = os.environ.get(variable, str(default))
    start, _, stop = spec.rpartition(":")
    return list(range(int(start or 0), int(stop)))


class StorageHarness:
    """One node's storage stack on a fresh simulated disk."""

    def __init__(self, profile=TREATY_ENC, config=None, name="node0", disk=None):
        self.config = config or ClusterConfig()
        self.sim = Simulator()
        self.runtime = NodeRuntime(self.sim, profile, self.config)
        self.disk = disk if disk is not None else Disk()
        self.keyring = KeyRing(ROOT_KEY)
        self.name = name
        self.engine = LSMEngine(
            self.runtime, self.disk, self.keyring, self.config, name=name
        )

    def run(self, body, name="test-main"):
        return self.sim.run_process(body, name)

    def boot(self):
        self.run(self.engine.bootstrap())
        return self

    def put_all(self, pairs, txn_id=b"t"):
        """Commit key/value pairs through the WAL + MemTable path."""

        def body():
            writes = [
                (key, value, self.engine.next_seq()) for key, value in pairs
            ]
            yield from self.engine.log_commit(txn_id, writes)
            yield from self.engine.apply_writes(writes)

        self.run(body())

    def get(self, key):
        value, _seq = self.run(self.engine.get_with_seq(key))
        return value

    def reopen(self, profile=None, stable_counters=None):
        """Simulate a crash: new runtime/engine over the same disk.

        ``stable_counters`` maps log names to their trusted stable
        values; the engine reads it as it reads the counter service."""
        fresh = StorageHarness(
            profile=profile or self.runtime.profile,
            config=self.config,
            name=self.name,
            disk=self.disk,
        )
        read_stable_many = None
        if stable_counters is not None:
            def read_stable_many(log_names):
                return {name: stable_counters.get(name) for name in log_names}
                yield  # a generator function, as recover() expects

        fresh.run(fresh.engine.recover(read_stable_many))
        return fresh


class TxnHarness(StorageHarness):
    """Storage harness plus the single-node transaction manager."""

    def __init__(self, profile=TREATY_ENC, config=None, name="node0", disk=None):
        super().__init__(profile=profile, config=config, name=name, disk=disk)
        from repro.core.pipeline import DurabilityPipeline
        from repro.txn import TransactionManager

        # No counter client: a disabled pipeline (group commit only).
        self.pipeline = DurabilityPipeline(self.runtime, None, self.config)
        self.manager = TransactionManager(
            self.runtime, self.engine, self.config, self.pipeline, name=name
        )

    def txn_put(self, pairs):
        """One transaction writing all pairs; returns the WAL counter."""

        def body():
            txn = self.manager.begin_pessimistic()
            for key, value in pairs:
                if value is None:
                    yield from txn.delete(key)
                else:
                    yield from txn.put(key, value)
            return (yield from txn.commit())

        return self.run(body())


class NetHarness:
    """Two (or more) nodes wired to one fabric, for network-layer tests."""

    def __init__(self, profile=DS_ROCKSDB, config=None, num_nodes=2):
        self.config = config or ClusterConfig()
        self.sim = Simulator()
        self.fabric = Fabric(self.sim, mtu=self.config.costs.net_mtu)
        self.runtimes = []
        self.nics = []
        self.endpoints = []
        self.secure = []
        keyring = KeyRing(ROOT_KEY)
        for i in range(num_nodes):
            runtime = NodeRuntime(self.sim, profile, self.config)
            nic = self.fabric.attach(
                "node%d" % i,
                self.config.costs.net_bandwidth,
                self.config.costs.net_propagation,
            )
            endpoint = ErpcEndpoint(runtime, self.fabric, nic)
            self.runtimes.append(runtime)
            self.nics.append(nic)
            self.endpoints.append(endpoint)
            self.secure.append(SecureRpc(runtime, endpoint, keyring, i))

    def run(self, body, name="test-main"):
        return self.sim.run_process(body, name)


@pytest.fixture
def harness():
    return NetHarness()


@pytest.fixture
def secure_harness():
    return NetHarness(profile=TREATY_ENC)
