"""Deeper adversarial scenarios: counter service, vote timeouts, runtime
host-memory tampering, sealed-state tampering."""

import sys

import pytest

from repro.config import TREATY_ENC, TREATY_FULL, ClusterConfig
from repro.core import TreatyCluster
from repro.crypto import Aead
from repro.errors import IntegrityError, TransactionAborted
from repro.net import NetworkAdversary


def local_key(cluster, node_index, tag=b"sd"):
    i = 0
    while True:
        key = b"%s-%04d" % (tag, i)
        if cluster.partitioner(key) == node_index:
            return key
        i += 1


class TestCounterServiceUnderAttack:
    def test_duplicated_counter_updates_harmless(self):
        """Replayed echo-broadcast messages must not advance counters
        twice or break stabilization."""
        cluster = TreatyCluster(profile=TREATY_FULL).start()
        adversary = NetworkAdversary()
        adversary.duplicate_matching(
            lambda f: f.kind == "erpc" and f.meta.get("is_request")
            and f.meta.get("req_type") in (8, 9)  # COUNTER_UPDATE/CONFIRM
        )
        cluster.fabric.adversary = adversary
        node = cluster.nodes[0]

        def body():
            yield from node.counter_client.stabilize("dup-log", 3)
            return node.counter_client.stable_value("dup-log")

        assert cluster.run(body()) == 3
        rejected = sum(n.cluster_rpc.replay_guard.rejected for n in cluster.nodes)
        assert rejected >= 1

    def test_tampered_counter_message_detected(self):
        cluster = TreatyCluster(profile=TREATY_FULL).start()
        adversary = NetworkAdversary()
        state = {"count": 0}

        def corrupt_once(frame):
            state["count"] += 1
            data = bytearray(frame.payload)
            data[len(data) // 2] ^= 0xFF
            frame.payload = bytes(data)
            return frame

        adversary.tamper_matching(
            lambda f: f.kind == "erpc" and f.meta.get("is_request")
            and f.meta.get("req_type") == 8 and state["count"] == 0,
            corrupt_once,
        )
        cluster.fabric.adversary = adversary
        node = cluster.nodes[0]

        # The tampered update fails authentication at the replica (its
        # handler dies), but the quorum still forms from the remaining
        # member + retries, so stabilization eventually succeeds.
        def body():
            yield from node.counter_client.stabilize("tm-log", 1)
            return node.counter_client.stable_value("tm-log")

        # A failed handler fiber surfaces as an unhandled IntegrityError
        # OR the round completes via the quorum — accept either, but the
        # counter must never advance on forged data.
        try:
            value = cluster.run(body())
            assert value == 1
        except IntegrityError:
            pass
        for peer in cluster.nodes:
            assert peer.replica.confirmed.get("tm-log", 0) <= 1

    def test_tampered_sealed_counter_state_detected(self):
        cluster = TreatyCluster(profile=TREATY_FULL).start()
        session = cluster.session(cluster.client_machine())
        key = local_key(cluster, 1)

        def write():
            txn = session.begin()
            yield from txn.put(key, b"v")
            yield from txn.commit()

        cluster.run(write())
        cluster.sim.run(until=cluster.sim.now + 0.1)
        assert cluster.nodes[1].disk.exists("node1/counter.sealed")
        cluster.crash_node(1)
        cluster.nodes[1].disk.tamper("node1/counter.sealed", 20)
        with pytest.raises(IntegrityError):
            cluster.run(cluster.recover_node(1))


class TestVoteTimeout:
    def test_unresponsive_participant_aborts_transaction(self):
        """A prepare that never answers counts as a NO vote after the
        timeout; the transaction aborts everywhere."""
        cluster = TreatyCluster(profile=TREATY_ENC).start()
        adversary = NetworkAdversary()
        adversary.drop_matching(
            lambda f: f.kind == "erpc" and f.meta.get("is_request")
            and f.meta.get("req_type") == 3 and f.dst == "node2"
        )
        cluster.fabric.adversary = adversary
        keys = {i: local_key(cluster, i, tag=b"vt") for i in range(3)}

        def body():
            txn = cluster.nodes[0].coordinator.begin()
            for key in keys.values():
                yield from txn.put(key, b"never")
            yield from txn.commit()

        with pytest.raises(TransactionAborted):
            cluster.run(body())
        cluster.fabric.adversary = None
        cluster.sim.run(until=cluster.sim.now + 2.0)

        def check():
            txn = cluster.nodes[0].coordinator.begin()
            values = []
            for key in keys.values():
                values.append((yield from txn.get(key)))
            yield from txn.commit()
            return values

        assert cluster.run(check()) == [None, None, None]


class TestRuntimeHostMemoryTamper:
    def test_memtable_value_tamper_detected_through_full_stack(self):
        cluster = TreatyCluster(profile=TREATY_ENC).start()
        session = cluster.session(cluster.client_machine())
        key = local_key(cluster, 0, tag=b"hm")

        def write():
            txn = session.begin()
            yield from txn.put(key, b"precious")
            yield from txn.commit()

        cluster.run(write())
        # Adversary flips bits of the sealed value in host memory.
        memtable = cluster.nodes[0].engine.memtable
        victim = max(memtable.host_values)  # most recent value blob
        blob = bytearray(memtable.host_values[victim])
        blob[-1] ^= 0x01
        memtable.host_values[victim] = bytes(blob)

        def read():
            txn = session.begin()
            value = yield from txn.get(key)
            yield from txn.commit()
            return value

        with pytest.raises(IntegrityError):
            cluster.run(read())


class TestIvDiscipline:
    """AES-GCM is counter mode: a ``(key, IV)`` pair sealed twice hands
    the adversary the XOR of two plaintexts and the GHASH key."""

    def test_no_key_iv_pair_is_sealed_twice(self, monkeypatch):
        """Every sealer, across flushes, a Clog rotation, and a participant
        that crashes mid-transaction and restarts (recovery re-seals its
        logs and replays its WAL into a fresh MemTable)."""
        sites = {}
        real_encrypt = Aead.encrypt

        def recording_encrypt(aead, iv, plaintext, aad=b""):
            # Keyed by key *bytes*: every node derives its own Aead
            # objects, and cluster-wide keys are equal across nodes.
            caller = sys._getframe(1)
            # Skip the framings: Aead.seal and net.message.seal_batch.
            while caller.f_code.co_filename.endswith(
                    ("crypto/aead.py", "net/message.py")):
                caller = caller.f_back
            site = "%s:%s" % (
                caller.f_code.co_filename.rsplit("repro/", 1)[-1],
                caller.f_code.co_name,
            )
            sites.setdefault((aead._key, iv), []).append(site)
            return real_encrypt(aead, iv, plaintext, aad)

        monkeypatch.setattr(Aead, "encrypt", recording_encrypt)
        # A 2 KiB MemTable flushes every few transactions: SSTable block
        # and footer IVs and fresh WALs are in play, not only messages.
        cluster = TreatyCluster(
            profile=TREATY_FULL, config=ClusterConfig(memtable_limit_bytes=2048)
        ).start()
        machine = cluster.client_machine()
        sessions = [cluster.session(machine, coordinator=i) for i in range(3)]

        def spread(tag, count=3):
            return [
                local_key(cluster, node, tag=b"%s%d" % (tag, i))
                for node in range(3)
                for i in range(count)
            ]

        def commit_round(tag):
            def body():
                for session in sessions:
                    txn = session.begin()
                    for key in spread(tag):
                        yield from txn.put(key, tag * 40)
                    yield from txn.commit()

            cluster.run(body())

        def crash_mid_transaction():
            txn = sessions[0].begin()
            for key in spread(b"mid"):
                yield from txn.put(key, b"half-done" * 12)
            cluster.crash_node(1)
            with pytest.raises(TransactionAborted):
                yield from txn.commit()
            yield from cluster.recover_node(1)

        commit_round(b"before")
        cluster.run(crash_mid_transaction())
        commit_round(b"after")

        sealed_at = {site for where in sites.values() for site in where}
        assert {
            "net/secure_rpc.py:encode_batch",
            "storage/memtable.py:put",
            "storage/sstable.py:finish_block",
            "storage/sstable.py:build_sstable",
            "storage/log.py:_seal_payload",
            "tee/sgx.py:seal",
        } <= sealed_at
        reused = sorted(
            {tuple(where) for where in sites.values() if len(where) > 1}
        )
        assert not reused, "IV reused under one key by: %r" % reused
