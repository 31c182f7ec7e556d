"""Tests for trust establishment: CAS, LAS, attestation chain."""

import pytest

from repro.config import ClusterConfig, TREATY_FULL
from repro.core import TreatyCluster
from repro.core.cas import (
    ConfigurationService,
    LocalAttestationService,
    TREATY_MEASUREMENT,
)
from repro.errors import AttestationError
from repro.tee import NodeRuntime, Quote, Report, measure
from repro.tee.attestation import IntelAttestationService, PlatformQuotingEnclave
from repro.sim import Simulator


def test_cluster_bootstrap_attests_every_node():
    cluster = TreatyCluster(profile=TREATY_FULL).start()
    assert cluster.cas.cas_attested
    assert cluster.cas.attested_instances == len(cluster.nodes)
    for node in cluster.nodes:
        assert node.is_up


def test_ias_contacted_once_per_platform_not_per_recovery():
    cluster = TreatyCluster(profile=TREATY_FULL).start()
    after_bootstrap = cluster.ias.verifications  # CAS + one LAS per node

    def cycle():
        cluster.crash_node(1)
        yield from cluster.recover_node(1)

    cluster.run(cycle())
    # Recovery re-attested via the LAS only: no extra IAS round trips.
    assert cluster.ias.verifications == after_bootstrap
    assert after_bootstrap == 1 + len(cluster.nodes)


def test_all_nodes_derive_same_keyring():
    cluster = TreatyCluster(profile=TREATY_FULL).start()
    keys = {node.keyring.subkey("network") for node in cluster.nodes}
    assert len(keys) == 1


def test_wrong_measurement_rejected():
    cluster = TreatyCluster(profile=TREATY_FULL).start()
    node = cluster.nodes[0]

    def body():
        quote = yield from node.las.quote_local_enclave(
            measure("malicious-binary"), b"evil"
        )
        yield from cluster.cas.attest_instance(node.name, quote)

    with pytest.raises(AttestationError):
        cluster.run(body())


def test_unregistered_node_rejected():
    cluster = TreatyCluster(profile=TREATY_FULL).start()
    rogue_las = LocalAttestationService(
        cluster._cas_runtime, "rogue-node", b"attacker-seed-material"
    )

    def body():
        quote = yield from rogue_las.quote_local_enclave(
            TREATY_MEASUREMENT, b"rogue"
        )
        yield from cluster.cas.attest_instance("rogue-node", quote)

    with pytest.raises(AttestationError):
        cluster.run(body())


def test_forged_las_signature_rejected():
    """A LAS keypair not registered through IAS cannot attest instances."""
    cluster = TreatyCluster(profile=TREATY_FULL).start()
    forged = LocalAttestationService(
        cluster._cas_runtime, "node0", b"attacker-forged-key"
    )

    def body():
        quote = yield from forged.quote_local_enclave(TREATY_MEASUREMENT, b"x")
        yield from cluster.cas.attest_instance("node0", quote)

    from repro.errors import SecurityError

    with pytest.raises(SecurityError):
        cluster.run(body())


def test_las_registration_requires_cas_attested():
    sim = Simulator()
    from repro.config import ClusterConfig

    config = ClusterConfig()
    runtime = NodeRuntime(sim, TREATY_FULL, config)
    ias = IntelAttestationService(sim, config.costs, b"manufacturer-seed")
    cas = ConfigurationService(runtime, ias, bytes(32), {})
    las = LocalAttestationService(runtime, "node0", b"manufacturer-seed")
    qe = PlatformQuotingEnclave("node0", b"manufacturer-seed")

    def body():
        yield from cas.register_las(las, qe)

    with pytest.raises(AttestationError):
        sim.run_process(body())


def test_ias_bootstrap_is_slow_las_quotes_are_fast():
    cluster = TreatyCluster(profile=TREATY_FULL)
    start = cluster.sim.now
    cluster.start()
    bootstrap_time = cluster.sim.now - start
    # 4 IAS round trips at 0.35 s dominate the bootstrap.
    assert bootstrap_time > 1.0

    node = cluster.nodes[0]
    quote_start = cluster.sim.now

    def body():
        yield from node.las.quote_local_enclave(TREATY_MEASUREMENT, b"fast")

    cluster.run(body())
    assert cluster.sim.now - quote_start < 0.01
