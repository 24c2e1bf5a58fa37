"""The epoch-streaming runtime: zero-gap rotation, drains, scopes.

Pins the acceptance bar of the runtime layer:

* a seeded stream is fully deterministic — byte-identical sealed
  snapshots and telemetry span streams across two runs, and across the
  inline and worker-pool ingest backends;
* zero packets are lost at rotations (``sealed + live == fed``), even
  when a feed batch straddles an epoch boundary;
* sealed-epoch drains compose the existing layers: codec bytes,
  health verdicts, and (in network mode) the collector's
  retry/breaker/health machinery.
"""

import functools

import numpy as np
import pytest

from repro.controlplane import NetworkSketchCollector, ParallelSketchCollector
from repro.core import FCMSketch
from repro.errors import (
    EpochSnapshotUnavailableError,
    InvalidWindowError,
    MeasurementError,
)
from repro.network import NetworkSimulator, leaf_spine
from repro.robustness import (
    CollectionPolicy,
    FaultInjector,
    FaultPlan,
    RetryPolicy,
)
from repro.runtime import (
    EpochConfig,
    EpochManager,
    SealedEpochStore,
    StreamingQueryAPI,
    parse_scope,
)
from repro.telemetry import MemoryExporter, MetricsRegistry
from repro.telemetry.health import HealthStatus, SketchHealthMonitor
from repro.traffic import zipf_trace

MEMORY = 16 * 1024


def make_sketch(memory_bytes=MEMORY, seed=5):
    return FCMSketch.with_memory(memory_bytes, seed=seed)


#: Epoch-sketch factory shared by every runtime test.
FACTORY = functools.partial(make_sketch, MEMORY, 5)


def stream(n=50_000, seed=9):
    return zipf_trace(n, alpha=1.2, seed=seed).keys


class TestEpochConfig:
    def test_validation(self):
        with pytest.raises(InvalidWindowError):
            EpochConfig(epoch_packets=0)
        with pytest.raises(InvalidWindowError):
            EpochConfig(epoch_seconds=-1.0)
        with pytest.raises(InvalidWindowError):
            EpochConfig(retention=0)
        with pytest.raises(InvalidWindowError):
            EpochConfig(change_threshold=0)

    def test_manager_validation(self):
        with pytest.raises(ValueError):
            EpochManager()  # neither mode
        with pytest.raises(ValueError):
            EpochManager(FACTORY, backend="threads")
        class NoCodecSketch:
            def ingest(self, keys):
                pass

        with pytest.raises(InvalidWindowError):
            # No state codec => cannot seal epochs as snapshot bytes.
            EpochManager(NoCodecSketch)


class TestZeroGapRotation:
    def test_ledger_exact_with_straddling_batches(self):
        manager = EpochManager(
            FACTORY, config=EpochConfig(epoch_packets=7_000, retention=64))
        keys = stream(30_000)
        # Batch size deliberately coprime with the epoch bound so most
        # batches straddle a boundary.
        for start in range(0, keys.size, 1_999):
            manager.feed(keys[start:start + 1_999])
        assert manager.packets_fed == keys.size
        sealed = sum(e.packets for e in manager.store)
        assert sealed + manager.live_packets == keys.size
        assert all(e.packets == 7_000 for e in manager.store)

    def test_fresh_generation_installed_before_drain(self):
        manager = EpochManager(
            FACTORY, config=EpochConfig(epoch_packets=10, retention=4))
        manager.feed(np.full(25, 3, dtype=np.uint64))
        # 25 packets over 10-packet epochs: 2 sealed, 5 live — the
        # 21st packet landed in generation 2 during the same feed call
        # that sealed generation 1.
        assert len(manager.store) == 2
        assert manager.live_epoch_index == 2
        assert manager.live_packets == 5

    def test_close_seals_live(self):
        manager = EpochManager(
            FACTORY, config=EpochConfig(epoch_packets=100, retention=4))
        manager.feed(np.arange(42, dtype=np.uint64))
        sealed = manager.close(seal_live=True)
        assert sealed is not None and sealed.packets == 42
        assert sealed.reason == "close"
        assert manager.live_packets == 0

    def test_manual_rotation_and_empty_epoch(self):
        manager = EpochManager(FACTORY, config=EpochConfig(retention=4))
        manager.feed([1, 2, 3])
        first = manager.rotate()
        second = manager.rotate()  # empty epoch seals cleanly
        assert first.packets == 3 and second.packets == 0
        assert [e.index for e in manager.store] == [0, 1]

    def test_time_bounded_rotation_with_injected_clock(self):
        now = {"t": 0.0}
        manager = EpochManager(
            FACTORY,
            config=EpochConfig(epoch_seconds=10.0, retention=4),
            clock=lambda: now["t"])
        manager.feed([1, 2, 3])
        assert len(manager.store) == 0
        now["t"] = 11.0
        manager.feed([4])
        assert len(manager.store) == 1
        assert manager.store[0].reason == "time_bound"
        assert manager.store[0].packets == 4


class TestRotationDeterminism:
    """Satellite: same seed + same batch boundaries => byte-identical
    sealed codec bytes and identical heavy-change output, under both
    inline and worker-pool ingest backends."""

    BATCHES = (4_096, 4_096, 4_096, 4_096, 4_096)

    def _run(self, backend, batches=BATCHES):
        config = EpochConfig(epoch_packets=4_000, retention=64,
                             change_threshold=400)
        with EpochManager(FACTORY, config=config,
                          backend=backend) as manager:
            keys = stream(sum(batches))
            offset = 0
            for batch in batches:
                manager.feed(keys[offset:offset + batch])
                offset += batch
            states = [e.state for e in manager.store]
            changes = [set(e.heavy_changes) for e in manager.store]
        return states, changes

    def test_two_runs_byte_identical(self):
        assert self._run("inline") == self._run("inline")

    @pytest.mark.parametrize("backend", ["pool:2", "pool:3"])
    def test_engine_backends_match_inline(self, backend):
        inline_states, inline_changes = self._run("inline")
        engine_states, engine_changes = self._run(backend)
        assert engine_states == inline_states
        assert engine_changes == inline_changes

    def test_batch_boundaries_do_not_matter_inline(self):
        # Different feed chunking, same stream: identical snapshots
        # (epoch boundaries are packet positions, not batch edges).
        a, _ = self._run("inline", batches=(20_480,))
        b, _ = self._run("inline", batches=(1, 10_239, 10_240))
        assert a == b

    def test_span_stream_byte_identical(self):
        def run():
            registry = MetricsRegistry(exporter=MemoryExporter(),
                                       clock=lambda: 0.0)
            config = EpochConfig(epoch_packets=4_000, retention=64)
            manager = EpochManager(FACTORY, config=config,
                                   telemetry=registry)
            keys = stream(20_000)
            for start in range(0, keys.size, 3_000):
                manager.feed(keys[start:start + 3_000])
            return registry.exporter.ndjson()

        first, second = run(), run()
        assert first == second
        assert '"name":"runtime.rotate"' in first
        assert '"name":"runtime.drain"' in first


class TestSealedEpochs:
    def test_snapshot_immutable_under_queries(self):
        manager = EpochManager(
            FACTORY, config=EpochConfig(epoch_packets=5_000, retention=8))
        manager.feed(stream(12_000))
        epoch = manager.store[0]
        blob = epoch.state
        sketch = epoch.sketch()
        sketch.query_many(np.arange(100, dtype=np.uint64))
        assert epoch.sketch().to_state() == blob

    def test_rehydrated_equals_original_estimates(self):
        manager = EpochManager(
            FACTORY, config=EpochConfig(epoch_packets=5_000, retention=8))
        keys = stream(5_000)
        manager.feed(keys)
        direct = FACTORY()
        direct.ingest(keys)
        uniq = np.unique(keys)
        assert np.array_equal(manager.store[0].sketch().query_many(uniq),
                              direct.query_many(uniq))

    def test_retention_bound_and_eviction(self):
        manager = EpochManager(
            FACTORY, config=EpochConfig(epoch_packets=1_000, retention=3))
        manager.feed(stream(9_000))
        assert len(manager.store) == 3
        assert manager.store.evicted == 6
        assert [e.index for e in manager.store] == [6, 7, 8]

    def test_store_validation_and_accessors(self):
        with pytest.raises(InvalidWindowError):
            SealedEpochStore(retention=0)
        store = SealedEpochStore(retention=2)
        assert len(store) == 0 and store.total_state_bytes == 0
        with pytest.raises(InvalidWindowError):
            store.last(0)

    def test_heavy_change_detection_between_epochs(self):
        config = EpochConfig(epoch_packets=2_000, retention=8,
                             change_threshold=500)
        manager = EpochManager(FACTORY, config=config)
        quiet = np.arange(1_000, 3_000, dtype=np.uint64)
        burst = np.concatenate([
            np.full(1_500, 7, dtype=np.uint64),
            np.arange(1_000, 1_500, dtype=np.uint64),
        ])
        manager.feed(quiet)   # epoch 0: flow 7 absent
        manager.feed(burst)   # epoch 1: flow 7 jumps by 1500
        assert len(manager.store) == 2
        assert 7 in manager.store[1].heavy_changes
        assert manager.store[0].heavy_changes == frozenset()


class TestSaturationRotation:
    def test_saturated_live_sketch_forces_rotation(self):
        monitor = SketchHealthMonitor()
        config = EpochConfig(rotate_on_saturation=True, retention=8)
        manager = EpochManager(
            functools.partial(make_sketch, 2_048, 5),
            config=config, health_monitor=monitor)
        rng = np.random.default_rng(1)
        for _ in range(40):
            manager.feed(rng.integers(0, 1 << 40, 2_000, dtype=np.uint64))
            if len(manager.store) > 0:
                break
        assert len(manager.store) > 0, "saturation never triggered"
        sealed = manager.store[0]
        assert sealed.reason == "saturation"
        assert sealed.health is not None
        assert sealed.health.status is HealthStatus.SATURATED


class TestQueryScopes:
    def test_parse_scope(self):
        assert parse_scope("live") == ("live", 0)
        assert parse_scope("sealed") == ("sealed", 0)
        assert parse_scope("last-sealed") == ("sealed", 0)
        assert parse_scope("last-3") == ("last", 3)
        assert parse_scope(2) == ("last", 2)
        assert parse_scope(("last", 4)) == ("last", 4)
        assert parse_scope("all") == ("all", 0)
        for bad in ("window", "last-0", "last-x", 0, -1, True, None):
            with pytest.raises((InvalidWindowError, MeasurementError)):
                parse_scope(bad)

    def test_scope_sums_and_no_underestimate(self):
        manager = EpochManager(
            FACTORY, config=EpochConfig(epoch_packets=4_000, retention=64))
        keys = stream(18_000)
        manager.feed(keys)
        api = StreamingQueryAPI(manager)
        uniq, counts = np.unique(keys, return_counts=True)
        assert np.all(api.query_many(uniq, scope="all") >= counts)
        live = api.query_many(uniq, scope="live")
        sealed_all = api.query_many(uniq, scope="last-4")
        assert np.array_equal(api.query_many(uniq, scope="all"),
                              live + sealed_all)
        one = api.query_many(uniq, scope="sealed")
        assert np.array_equal(
            one, manager.store[-1].sketch().query_many(uniq))
        key = int(uniq[np.argmax(counts)])
        assert api.query(key, scope="all") >= int(counts.max())

    def test_empty_store_scopes(self):
        manager = EpochManager(
            FACTORY, config=EpochConfig(epoch_packets=1000))
        api = StreamingQueryAPI(manager)
        assert api.query(5, scope="sealed") == 0
        assert api.query_many([5], scope="all").tolist() == [0]
        assert api.heavy_hitters([5], 1, scope="sealed") == set()
        assert api.cardinality("all") == api.cardinality("live")
        with pytest.raises(ValueError):
            api.heavy_hitters([5], 0)

    def test_heavy_hitters_and_cardinality(self):
        manager = EpochManager(
            FACTORY, config=EpochConfig(epoch_packets=2_000, retention=8))
        keys = np.concatenate([
            np.full(3_000, 42, dtype=np.uint64),
            np.arange(500, dtype=np.uint64),
        ])
        manager.feed(keys)
        api = StreamingQueryAPI(manager)
        assert 42 in api.heavy_hitters([42, 1], 2_500, scope="all")
        assert 42 not in api.heavy_hitters([42, 1], 2_500, scope="live")
        assert api.cardinality("all") > 0
        assert api.heavy_hitters([], 5, scope="all") == set()


class TestNetworkRuntime:
    def _manager(self, collector_cls=ParallelSketchCollector,
                 plan=None, telemetry=None, **kwargs):
        injector = FaultInjector(plan) if plan is not None else None
        sim = NetworkSimulator(leaf_spine(4, 2), memory_bytes=MEMORY,
                               fault_injector=injector,
                               telemetry=telemetry)
        collector = collector_cls(sim, telemetry=telemetry, **kwargs)
        config = EpochConfig(epoch_packets=5_000, retention=4)
        return EpochManager(collector=collector, config=config,
                            telemetry=telemetry)

    def test_sealed_epochs_carry_switch_snapshots(self):
        manager = self._manager()
        manager.feed(stream(12_000, seed=3))
        assert len(manager.store) == 2
        epoch = manager.store[-1]
        assert set(epoch.states) == set(
            manager.collector.simulator.switches)
        assert epoch.state == epoch.states[manager.collector.em_switch]
        assert epoch.report is not None
        assert epoch.report.health.healthy
        assert epoch.health is not None

    def test_queries_use_vantage_snapshot(self):
        manager = self._manager()
        keys = stream(12_000, seed=3)
        manager.feed(keys)
        api = StreamingQueryAPI(manager)
        key = int(keys[0])
        assert api.query(key, scope="all") >= api.query(key, scope="live")

    def test_dead_switch_recorded_not_raised(self):
        plan = FaultPlan(seed=1).kill_switch("leaf1")
        manager = self._manager(
            collector_cls=NetworkSketchCollector, plan=plan,
            policy=CollectionPolicy(retry=RetryPolicy(max_attempts=1)))
        manager.feed(stream(12_000, seed=3))
        epoch = manager.store[-1]
        assert "leaf1" in epoch.report.health.switches_failed
        assert "leaf1" not in epoch.states
        assert not epoch.report.health.healthy

    def test_dead_vantage_snapshot_unavailable(self):
        plan = FaultPlan(seed=1).kill_switch("leaf0")
        manager = self._manager(
            collector_cls=NetworkSketchCollector, plan=plan,
            policy=CollectionPolicy(retry=RetryPolicy(max_attempts=1)),
            em_switch="leaf0")
        manager.feed(stream(12_000, seed=3))
        epoch = manager.store[-1]
        assert epoch.state is None
        with pytest.raises(EpochSnapshotUnavailableError):
            epoch.sketch()

    def test_drain_epoch_spans_nest_under_rotation(self):
        registry = MetricsRegistry(exporter=MemoryExporter(),
                                   clock=lambda: 0.0)
        manager = self._manager(telemetry=registry)
        manager.feed(stream(6_000, seed=3))
        spans = [e for e in registry.exporter.events if e.kind == "span"]
        names = {e.name for e in spans}
        assert {"runtime.rotate", "runtime.drain",
                "collector.drain_epoch", "collector.drain"} <= names
        drain_epoch = next(e for e in spans
                           if e.name == "collector.drain_epoch")
        runtime_drain = next(e for e in spans
                             if e.name == "runtime.drain")
        assert drain_epoch.fields["parent_id"] \
            == runtime_drain.fields["span_id"]


class TestStreamCLI:
    def test_stream_subcommand(self, capsys, tmp_path):
        from repro.cli import main

        out = tmp_path / "stream.ndjson"
        assert main(["stream", "--packets", "9000",
                     "--epoch-packets", "3000", "--memory-kb", "32",
                     "--change-threshold", "200",
                     "--telemetry-out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "zero-gap ok" in captured
        assert "epoch" in captured
        text = out.read_text()
        assert '"name":"runtime.rotate"' in text

    def test_stream_deterministic_output(self, capsys):
        from repro.cli import main

        runs = []
        for _ in range(2):
            assert main(["stream", "--packets", "6000",
                         "--epoch-packets", "2000",
                         "--memory-kb", "32", "--seed", "4"]) == 0
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[1]


class _BlockingSketch(FCMSketch):
    """FCM sketch whose ``ingest`` parks on an event — lets a test
    hold a ``feed`` open from another thread."""

    entered = None
    release = None

    def ingest(self, keys):
        if self.entered is not None:
            self.entered.set()
            assert self.release.wait(timeout=10)
        super().ingest(keys)


class TestSingleWriter:
    """The runtime is single-writer: concurrent mutation fails loudly
    with ``ConcurrencyError`` instead of corrupting the ledger."""

    def test_rotate_during_concurrent_feed_raises(self):
        import threading

        from repro.errors import ConcurrencyError

        entered = threading.Event()
        release = threading.Event()

        def factory():
            sketch = _BlockingSketch.with_memory(MEMORY, seed=5)
            sketch.entered = entered
            sketch.release = release
            return sketch

        manager = EpochManager(factory)
        worker = threading.Thread(
            target=manager.feed,
            args=(np.arange(10, dtype=np.uint64),))
        worker.start()
        try:
            assert entered.wait(timeout=10)
            with pytest.raises(ConcurrencyError):
                manager.rotate()
            with pytest.raises(ConcurrencyError):
                manager.feed(np.arange(5, dtype=np.uint64))
        finally:
            release.set()
            worker.join(timeout=10)
        assert not worker.is_alive()
        # Once the writer finishes, the runtime works again and the
        # blocked attempts changed nothing.
        sealed = manager.rotate()
        assert sealed.packets == 10
        assert manager.packets_fed == 10

    def test_concurrency_error_is_measurement_error(self):
        from repro.errors import ConcurrencyError

        assert issubclass(ConcurrencyError, MeasurementError)
        assert issubclass(ConcurrencyError, RuntimeError)

    def test_same_thread_reentry_allowed(self):
        """Boundary rotations run *inside* feed (same thread) — the
        guard must be reentrant, not a plain mutex."""
        manager = EpochManager(
            make_sketch, config=EpochConfig(epoch_packets=8))
        manager.feed(np.arange(20, dtype=np.uint64))   # rotates twice
        assert manager.rotations == 2
        assert manager.packets_fed == 20
