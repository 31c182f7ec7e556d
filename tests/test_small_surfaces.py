"""Small-surface unit tests: rng derivation, fingerprints, misc APIs."""

import ast
import dataclasses
import pathlib
import re

import pytest

import repro

from repro.config import ClusterConfig, CostModel, EnvProfile, PROFILES
from repro.core import TreatyCluster
from repro.crypto import generate_keypair
from repro.sim import SeededRng, derive_seed


class TestRngDerivation:
    def test_labels_give_independent_streams(self):
        a = SeededRng(1, "alpha")
        b = SeededRng(1, "beta")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_same_labels_reproduce(self):
        assert SeededRng(1, "x").random() == SeededRng(1, "x").random()

    def test_child_streams_deterministic(self):
        parent = SeededRng(9, "p")
        assert parent.child("c").random() == SeededRng(9, "p").child("c").random()

    def test_derive_seed_handles_negative_and_large(self):
        assert derive_seed(-5, "a") == derive_seed(-5, "a")
        assert derive_seed(2**70, "a") == derive_seed(2**70 & (2**64 - 1), "a")

    def test_label_path_order_matters(self):
        assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")


class TestVerifyKeyFingerprint:
    def test_fingerprint_stable_and_distinct(self):
        _s1, v1 = generate_keypair(b"seed", "id1")
        _s2, v2 = generate_keypair(b"seed", "id2")
        assert v1.fingerprint() == v1.fingerprint()
        assert v1.fingerprint() != v2.fingerprint()
        assert len(v1.fingerprint()) == 16


#: ClusterConfig fields no file outside tests/ sets, and why they stay.
SET_ONLY_BY_TESTS = {
    "block_bytes": "storage geometry: tests shrink it to force many blocks",
    "memtable_limit_bytes": "storage geometry: tests shrink it to force "
                            "flushes and compactions",
}


def _config_keywords_set(text):
    """Names a module sets on a config (see the test below)."""
    nodes = list(ast.walk(ast.parse(text)))
    calls = [
        node for node in nodes
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None))
        in ("ClusterConfig", "replace", "dict")
    ]
    names = {kw.arg for call in calls for kw in call.keywords if kw.arg}
    if any(kw.arg is None for call in calls for kw in call.keywords):
        names |= {
            key.value
            for node in nodes
            if isinstance(node, ast.Dict)
            for key in node.keys
            if isinstance(key, ast.Constant) and isinstance(key.value, str)
        }
    return names


class TestConfigSurface:
    def test_profiles_registry_complete(self):
        assert len(PROFILES) == 6
        assert all(isinstance(p, EnvProfile) for p in PROFILES.values())

    def test_describe_strings(self):
        assert PROFILES["DS-RocksDB"].describe() == "native w/o Enc"
        assert (
            PROFILES["Treaty w/ Enc w/ Stab"].describe()
            == "SCONE w/ Enc w/ Stab"
        )

    def test_cost_model_overrides(self):
        costs = CostModel().with_overrides(rote_latency_mean=5e-3)
        assert costs.rote_latency_mean == 5e-3
        assert CostModel().rote_latency_mean == 2e-3  # original untouched

    def test_cost_helpers(self):
        costs = CostModel()
        assert costs.cycles(3.6e9) == pytest.approx(1.0)
        assert costs.aead_cost(0) == pytest.approx(costs.encrypt_setup)
        assert costs.wire_time(costs.net_bandwidth) == pytest.approx(1.0)
        assert costs.syscall_cost(True) > costs.syscall_cost(False)

    def test_cluster_config_defaults(self):
        config = ClusterConfig()
        assert TreatyCluster().num_nodes == 3
        assert config.storage_engine == "lsm"
        assert config.storage_io == "syscall"

    def test_every_cluster_config_field_has_a_reader(self):
        """A knob nothing reads is dead: each field name must occur in
        at least one ``src/repro`` module other than ``config.py``."""
        root = pathlib.Path(repro.__file__).parent
        source = "\n".join(
            path.read_text()
            for path in sorted(root.rglob("*.py"))
            if path != root / "config.py"
        )
        unread = [
            f.name
            for f in dataclasses.fields(ClusterConfig)
            if not re.search(r"\b%s\b" % f.name, source)
        ]
        assert not unread, "ClusterConfig fields nothing reads: %s" % unread

        # ...and a knob only tests set is a constant: each field must be
        # set outside tests/ — a keyword of a ClusterConfig / replace /
        # dict call, or a string key of a dict literal in a file that
        # spreads a mapping into one — or be allowlisted here.
        set_outside_tests = set()
        for directory in ("src", "benchmarks", "perf", "tools", "examples"):
            for path in sorted((root.parents[1] / directory).rglob("*.py")):
                set_outside_tests |= _config_keywords_set(path.read_text())
        unset = [
            f.name
            for f in dataclasses.fields(ClusterConfig)
            if f.name not in set_outside_tests
            and f.name not in SET_ONLY_BY_TESTS
        ]
        assert not unset, "ClusterConfig fields only tests set: %s" % unset


class TestFrameAndFabricSurface:
    def test_frame_meta_defaults(self):
        from repro.net import Frame

        frame = Frame("a", "b", 10, b"p")
        assert frame.meta == {}
        assert frame.kind == "msg"

    def test_wire_size_consistency(self):
        from repro.net import wire_size
        from repro.net.message import METADATA_BYTES, PAD_BYTES
        from repro.crypto.aead import IV_BYTES, MAC_BYTES

        assert wire_size(0, False) == METADATA_BYTES
        assert wire_size(0, True) == (
            IV_BYTES + PAD_BYTES + METADATA_BYTES + MAC_BYTES
        )


class TestEngineSurface:
    def test_describe_levels_empty(self):
        from tests.conftest import StorageHarness

        harness = StorageHarness().boot()
        assert harness.engine.describe_levels() == {}
        assert harness.engine.table_count() == 0

    def test_current_seq_tracks_next_seq(self):
        from tests.conftest import StorageHarness

        harness = StorageHarness().boot()
        assert harness.engine.current_seq() == 0
        harness.engine.next_seq()
        assert harness.engine.current_seq() == 1
