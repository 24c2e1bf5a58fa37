"""The unified ``IngestBackend`` contract and its factory.

One spec string — ``"kind[:shards]"`` — must build every ingest
backend, an unknown or removed kind must fail loudly, and every
backend must seal a state byte-identical to serial ingest of the same
packets.
"""

import numpy as np
import pytest

from repro.controlplane import ParallelSketchCollector
from repro.core import FCMSketch
from repro.engine import (
    BACKEND_KINDS,
    InlineBackend,
    NetworkBackend,
    PoolBackend,
    make_backend,
    parse_backend_spec,
)
from repro.network import NetworkSimulator, leaf_spine
from repro.runtime import EpochConfig, EpochManager
from repro.traffic import zipf_trace

MEMORY = 16 * 1024


def fcm_factory():
    return FCMSketch.with_memory(MEMORY, seed=3)


def serial_state(keys):
    sketch = fcm_factory()
    sketch.ingest(keys)
    return sketch.to_state()


@pytest.fixture(scope="module")
def keys():
    return zipf_trace(20_000, alpha=1.2, seed=7).keys


# ----------------------------------------------------------------------
# spec parsing
# ----------------------------------------------------------------------

class TestParseBackendSpec:
    @pytest.mark.parametrize("spec,expected", [
        ("inline", ("inline", None)),
        ("pool:2", ("pool", 2)),
        (" Pool:2 ", ("pool", 2)),    # whitespace + case
        ("network", ("network", None)),
    ])
    def test_valid_specs(self, spec, expected):
        assert parse_backend_spec(spec) == expected

    @pytest.mark.parametrize("spec", [
        "", "   ", None, 7, "threads", "pool:x", "pool:0", "pool:-1",
        "pool:2:3",
        # Removed kinds: the per-batch engine and the "shm" alias.
        "sharded", "process:4", "shm:3",
    ])
    def test_invalid_specs_fail_loudly(self, spec):
        with pytest.raises(ValueError):
            parse_backend_spec(spec)


# ----------------------------------------------------------------------
# the factory
# ----------------------------------------------------------------------

class TestMakeBackend:
    @pytest.mark.parametrize("spec,cls", [
        ("inline", InlineBackend),
        ("pool:2", PoolBackend),
    ])
    def test_every_local_kind_constructs(self, spec, cls):
        with make_backend(spec, sketch_factory=fcm_factory) as backend:
            assert isinstance(backend, cls)
            info = backend.describe()
            assert info["kind"] in BACKEND_KINDS
            assert backend.spec.split(":")[0] == info["kind"]

    def test_network_kind_constructs_from_collector(self):
        sim = NetworkSimulator(leaf_spine(4, 2), memory_bytes=MEMORY)
        collector = ParallelSketchCollector(sim)
        with make_backend("network", collector=collector) as backend:
            assert isinstance(backend, NetworkBackend)
            assert backend.describe()["kind"] == "network"

    def test_spec_shard_count_wins_over_kwarg(self):
        with make_backend("pool:3", sketch_factory=fcm_factory,
                          num_shards=8) as backend:
            assert backend.spec == "pool:3"

    def test_missing_dependencies_are_errors(self):
        with pytest.raises(ValueError):
            make_backend("pool:2")  # no sketch_factory
        with pytest.raises(ValueError):
            make_backend("network", sketch_factory=fcm_factory)

    def test_network_spec_rejects_shard_suffix_gracefully(self):
        # A shard count on 'network' parses (and is ignored), matching
        # the documented "inline and network ignore both" contract.
        assert parse_backend_spec("network:4") == ("network", 4)


# ----------------------------------------------------------------------
# equivalence: every backend seals the serial state, byte for byte
# ----------------------------------------------------------------------

ALL_LOCAL_SPECS = ("inline", "pool:2", "pool:3")


class TestBackendEquivalence:
    @pytest.mark.parametrize("spec", ALL_LOCAL_SPECS)
    def test_seal_matches_serial(self, keys, spec):
        expected = serial_state(keys)
        with make_backend(spec, sketch_factory=fcm_factory) as backend:
            for start in range(0, keys.shape[0], 4096):
                backend.ingest_batch(keys[start:start + 4096])
            assert backend.seal(0) == expected
            assert backend.last_sealed_sketch.to_state() == expected

    @pytest.mark.parametrize("spec", ALL_LOCAL_SPECS)
    def test_seal_resets_for_the_next_epoch(self, keys, spec):
        first, second = np.array_split(keys, 2)
        with make_backend(spec, sketch_factory=fcm_factory) as backend:
            backend.ingest_batch(first)
            assert backend.seal(0) == serial_state(first)
            backend.ingest_batch(second)
            assert backend.seal(1) == serial_state(second)

    @pytest.mark.parametrize("spec", ALL_LOCAL_SPECS)
    def test_peek_and_merge_into_mid_epoch(self, keys, spec):
        half = keys[: keys.shape[0] // 2]
        with make_backend(spec, sketch_factory=fcm_factory) as backend:
            backend.ingest_batch(half)
            assert backend.peek().to_state() == serial_state(half)
            target = backend.merge_into(fcm_factory())
            assert target.to_state() == serial_state(half)
            # peek/merge_into are read-only: the epoch still seals
            # exactly (the post-seal consistency contract).
            assert backend.seal(0) == serial_state(half)

    def test_network_backend_seals_switch_states(self, keys):
        sim = NetworkSimulator(leaf_spine(4, 2), memory_bytes=MEMORY)
        collector = ParallelSketchCollector(sim)
        with make_backend("network", collector=collector) as backend:
            backend.ingest_batch(keys[:8_000])
            blob = backend.seal(0)
            assert isinstance(blob, bytes)
            assert backend.last_report is not None
            assert backend.last_states
            assert blob == backend.last_states[backend.em_switch]


# ----------------------------------------------------------------------
# EpochManager accepts a prebuilt backend instance
# ----------------------------------------------------------------------

def test_epoch_manager_accepts_backend_instance(keys):
    backend = make_backend("pool:2", sketch_factory=fcm_factory)
    manager = EpochManager(fcm_factory,
                           config=EpochConfig(epoch_packets=5_000),
                           backend=backend)
    try:
        assert manager.backend is backend
        assert manager.backend_spec == "pool:2"
        manager.feed(keys[:10_000])
        assert len(manager.store) == 2
        assert manager.store[-1].packets == 5_000
    finally:
        manager.close()
