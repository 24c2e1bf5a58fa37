"""The snapshot-bytes drain path of the parallel collector.

:class:`~repro.controlplane.ParallelSketchCollector` moves drained
sketches as codec bytes and must report the same measurements as the
in-process handle path.
"""

from repro.controlplane import (
    NetworkSketchCollector,
    ParallelSketchCollector,
)
from repro.network.simulator import NetworkSimulator
from repro.network.topology import leaf_spine
from repro.telemetry import MetricsRegistry
from repro.traffic import zipf_trace


def _run_collector(cls, trace, windows=3):
    sim = NetworkSimulator(leaf_spine(num_leaves=4, num_spines=2),
                           memory_bytes=32 * 1024, seed=1)
    return cls(sim).process(trace, windows)


def test_parallel_collector_matches_handle_path():
    trace = zipf_trace(30_000, alpha=1.3, seed=11)
    base = _run_collector(NetworkSketchCollector, trace)
    parallel = _run_collector(ParallelSketchCollector, trace)
    for rb, rp in zip(base, parallel):
        assert rp.total_packets == rb.total_packets
        assert rp.cardinality_estimate == rb.cardinality_estimate
        # The base path moves object handles: no snapshot bytes.
        assert rb.snapshot_bytes == {}
        # The parallel path serialized every reached switch…
        assert sorted(rp.snapshot_bytes) == rp.health.switches_reached
        assert all(n > 0 for n in rp.snapshot_bytes.values())
        # …and the rehydrated replicas carry identical state.
        for name, sketch in rb.collected_sketches.items():
            assert rp.collected_sketches[name].to_state() \
                == sketch.to_state()


def test_parallel_collector_counts_snapshot_telemetry():
    trace = zipf_trace(20_000, alpha=1.3, seed=11)
    registry = MetricsRegistry()
    sim = NetworkSimulator(leaf_spine(num_leaves=4, num_spines=2),
                           memory_bytes=32 * 1024, seed=1,
                           telemetry=registry)
    reports = ParallelSketchCollector(sim, telemetry=registry) \
        .process(trace, 2)
    drains = sum(len(r.health.switches_reached) for r in reports)
    moved = sum(sum(r.snapshot_bytes.values()) for r in reports)
    assert registry.counter("collector.snapshots_ok").value == drains
    assert registry.counter("collector.snapshot_bytes").value == moved
    assert moved > 0


def test_parallel_collector_falls_back_without_codec():
    class NoCodecSketch:
        def ingest(self, keys):
            pass

        def cardinality(self):
            return 0.0

    registry = MetricsRegistry()
    sim = NetworkSimulator(leaf_spine(num_leaves=4, num_spines=2),
                           memory_bytes=32 * 1024, seed=1)
    collector = ParallelSketchCollector(sim, telemetry=registry)
    sketch = NoCodecSketch()
    returned, nbytes = collector._transport("leaf0", sketch)
    assert returned is sketch
    assert nbytes is None
    assert registry.counter("collector.snapshot_fallbacks").value == 1
