"""Tests for the TEE layer: enclave model, SGX primitives, runtime, IAS."""

import pytest

from repro.config import (
    ClusterConfig,
    CostModel,
    DS_ROCKSDB,
    TREATY_ENC,
    TREATY_NO_ENC,
)
from repro.errors import AttestationError, IntegrityError, StorageError
from repro.sim import Simulator
from repro.tee import (
    Enclave,
    HardwareMonotonicCounter,
    IntelAttestationService,
    NodeRuntime,
    PlatformQuotingEnclave,
    Quote,
    Report,
    SealingKey,
    measure,
)


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def costs():
    return CostModel()


class TestEnclaveModel:
    def test_no_paging_within_epc(self, costs):
        enclave = Enclave(costs)
        enclave.memory.allocate(costs.epc_bytes // 2)
        assert enclave.touch_cost(4096) == 0.0

    def test_paging_cost_under_pressure(self, costs):
        enclave = Enclave(costs)
        enclave.memory.allocate(costs.epc_bytes * 2)
        cost = enclave.touch_cost(costs.page_bytes * 100)
        assert cost == pytest.approx(100 * 0.5 * costs.epc_page_fault)

    def test_transition_counts(self, costs):
        enclave = Enclave(costs)
        assert enclave.transition_cost() == costs.world_switch
        assert enclave.transitions == 1


class TestSgxPrimitives:
    def test_measurement_is_stable_and_distinct(self):
        assert measure("treaty-v1") == measure("treaty-v1")
        assert measure("treaty-v1") != measure("malware")

    def test_quote_roundtrip(self):
        qe = PlatformQuotingEnclave("node1", b"manufacturer-seed")
        report = Report(measure("treaty-v1"), b"pubkey-fp")
        quote = Quote.create(report, qe.signing_key)
        quote.verify(qe.verify_key, measure("treaty-v1"))

    def test_quote_wrong_measurement_rejected(self):
        qe = PlatformQuotingEnclave("node1", b"manufacturer-seed")
        quote = Quote.create(Report(measure("malware"), b""), qe.signing_key)
        with pytest.raises(AttestationError):
            quote.verify(qe.verify_key, measure("treaty-v1"))

    def test_sealing_roundtrip_and_tamper(self):
        key = SealingKey(b"platform-secret", measure("treaty-v1"))
        sealed = key.seal(b"counter-state")
        assert key.unseal(sealed) == b"counter-state"
        tampered = bytearray(sealed)
        tampered[-1] ^= 1
        with pytest.raises(IntegrityError):
            key.unseal(bytes(tampered))

    def test_sealing_ivs_do_not_repeat_across_boots(self):
        first_boot = SealingKey(b"platform", measure("a"), epoch=1)
        second_boot = SealingKey(b"platform", measure("a"), epoch=2)
        old, new = first_boot.seal(b"state-1"), second_boot.seal(b"state-2")
        assert old[:12] != new[:12]  # same key, counter restarted: IV must differ
        assert second_boot.unseal(old) == b"state-1"

    def test_sealing_bound_to_measurement(self):
        key_a = SealingKey(b"platform", measure("a"))
        key_b = SealingKey(b"platform", measure("b"))
        with pytest.raises(IntegrityError):
            key_b.unseal(key_a.seal(b"state"))


class TestNodeRuntime:
    def _run(self, sim, gen):
        return sim.run_process(gen)

    def test_enclave_work_is_slower(self, sim):
        config = ClusterConfig()
        native = NodeRuntime(sim, DS_ROCKSDB, config)
        secure = NodeRuntime(Simulator(), TREATY_NO_ENC, config)

        def work(runtime):
            yield from runtime.compute(1.0)
            return runtime.sim.now

        native_time = self._run(sim, work(native))
        secure_time = secure.sim.run_process(work(secure))
        assert secure_time > native_time
        assert secure_time == pytest.approx(1.0 / config.costs.enclave_speed_factor)

    def test_syscall_cost_higher_in_enclave(self):
        config = ClusterConfig()
        sim_native, sim_scone = Simulator(), Simulator()
        native = NodeRuntime(sim_native, DS_ROCKSDB, config)
        scone = NodeRuntime(sim_scone, TREATY_NO_ENC, config)

        def one_syscall(runtime):
            yield from runtime.syscall(1024)

        sim_native.run_process(one_syscall(native))
        sim_scone.run_process(one_syscall(scone))
        assert sim_scone.now > sim_native.now

    def test_crypto_charged_only_with_encryption(self):
        config = ClusterConfig()
        sim_plain, sim_enc = Simulator(), Simulator()
        plain = NodeRuntime(sim_plain, TREATY_NO_ENC, config)
        enc = NodeRuntime(sim_enc, TREATY_ENC, config)

        def crypt(runtime):
            yield from runtime.seal_cost(4096)

        sim_plain.run_process(crypt(plain))
        sim_enc.run_process(crypt(enc))
        assert sim_plain.now == 0.0
        # Crypto work runs inside the enclave, so it is scaled by the
        # enclave speed factor like all other CPU work.
        expected = config.costs.aead_cost(4096) / config.costs.enclave_speed_factor
        assert sim_enc.now == pytest.approx(expected)

    def test_ssd_write_takes_device_time(self, sim):
        runtime = NodeRuntime(sim, DS_ROCKSDB, ClusterConfig())

        def write(runtime):
            yield from runtime.ssd_write(4096)

        sim.run_process(write(runtime))
        assert sim.now >= ClusterConfig().costs.ssd_write_cost(4096)

    def test_touch_enclave_free_when_native(self, sim):
        runtime = NodeRuntime(sim, DS_ROCKSDB, ClusterConfig())
        runtime.enclave.memory.allocate(10**10)

        def touch(runtime):
            yield from runtime.touch_enclave(1 << 20)

        sim.run_process(touch(runtime))
        assert sim.now == 0.0


class TestHardwareCounter:
    def test_increment_is_slow_and_monotonic(self, sim, costs):
        counter = HardwareMonotonicCounter(sim, costs)

        def bump():
            value = yield from counter.increment()
            return value

        assert sim.run_process(bump()) == 1
        assert sim.now == pytest.approx(costs.sgx_counter_increment)
        assert counter.value == 1

    def test_wear_out(self, sim, costs):
        counter = HardwareMonotonicCounter(sim, costs, wear_limit=2)

        def burn():
            yield from counter.increment()
            yield from counter.increment()
            yield from counter.increment()

        with pytest.raises(StorageError, match="worn out"):
            sim.run_process(burn())


class TestIas:
    def test_verifies_known_platform(self, sim, costs):
        ias = IntelAttestationService(sim, costs, b"manufacturer")
        qe = PlatformQuotingEnclave("node1", b"manufacturer")
        ias.register_platform(qe)
        quote = Quote.create(Report(measure("treaty"), b"rd"), qe.signing_key)

        def verify():
            ok = yield from ias.verify_quote(quote, measure("treaty"))
            return ok

        assert sim.run_process(verify())
        assert sim.now == pytest.approx(costs.ias_round_trip)

    def test_unknown_platform_rejected(self, sim, costs):
        ias = IntelAttestationService(sim, costs, b"manufacturer")
        rogue = PlatformQuotingEnclave("rogue", b"other-seed")
        quote = Quote.create(Report(measure("treaty"), b""), rogue.signing_key)

        def verify():
            yield from ias.verify_quote(quote, measure("treaty"))

        with pytest.raises(AttestationError):
            sim.run_process(verify())
