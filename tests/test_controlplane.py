"""Tests for the control-plane algorithms (§4.4) and the framework."""

import numpy as np
import pytest

from repro.controlplane import (
    HeavyChangeDetector,
    SketchCollector,
    estimate_distribution,
    estimate_entropy,
)
from repro.core import FCMSketch, FCMTopK
from repro.framework import FCMFramework
from repro.metrics import f1_score
from repro.sketches import ElasticSketch
from repro.traffic import Trace, caida_like_trace


@pytest.fixture(scope="module")
def trace():
    return caida_like_trace(num_packets=60_000, seed=41)


class TestDistributionWrapper:
    def test_fcm_path(self, trace):
        sketch = FCMSketch.with_memory(16 * 1024, seed=1)
        sketch.ingest(trace.keys)
        result = estimate_distribution(sketch, iterations=4)
        assert result.total_flows == pytest.approx(
            trace.ground_truth.cardinality, rel=0.15
        )

    def test_topk_path_adds_heavy_flows(self, trace):
        sketch = FCMTopK(32 * 1024, seed=1)
        sketch.ingest(trace.keys)
        result = estimate_distribution(sketch, iterations=4)
        gt = trace.ground_truth
        # The largest flow must appear at (close to) its exact size.
        top_size = int(gt.sizes_array().max())
        window = result.size_counts[max(0, top_size - 2):top_size + 3]
        assert window.sum() >= 1

    def test_rejects_unknown_type(self):
        with pytest.raises(TypeError):
            estimate_distribution(object())


class TestDistributionMass:
    """Σ j·n̂_j equals the packets ingested: each counter's combinations
    sum to its value, and each Top-K resident adds its own count once
    (a flagged resident's earlier packets are FCM or light-part
    residue, which EM has already placed)."""

    @pytest.mark.parametrize("make", [
        lambda: FCMSketch.with_memory(16 * 1024, seed=1),
        lambda: FCMTopK(32 * 1024, seed=1),
        lambda: ElasticSketch(32 * 1024, seed=1),
    ], ids=["fcm", "fcm+topk", "elastic"])
    def test_mass_equals_packets_ingested(self, trace, make):
        sketch = make()
        # Several batches, so that residents get evicted and flagged.
        for chunk in np.array_split(trace.keys, 6):
            sketch.ingest(chunk)
        if hasattr(sketch, "topk"):
            assert any(flagged for _, _, flagged in sketch.topk.entries())
        if isinstance(sketch, ElasticSketch):
            result = sketch.estimate_distribution(iterations=4)
        else:
            result = estimate_distribution(sketch, iterations=4)
        sizes = np.arange(result.size_counts.shape[0], dtype=np.float64)
        assert float(sizes @ result.size_counts) == pytest.approx(
            trace.keys.shape[0], rel=1e-9)


class TestEntropyWrapper:
    def test_close_to_truth(self, trace):
        sketch = FCMSketch.with_memory(16 * 1024, seed=1)
        sketch.ingest(trace.keys)
        assert estimate_entropy(sketch, iterations=4) == pytest.approx(
            trace.ground_truth.entropy, rel=0.05
        )


class TestHeavyChange:
    def test_detects_planted_change(self):
        rng = np.random.default_rng(3)
        background = rng.integers(0, 5000, size=20_000, dtype=np.uint64)
        w1 = Trace(np.concatenate([background,
                                   np.full(3000, 77, dtype=np.uint64)]))
        w2 = Trace(background)
        a = FCMSketch.with_memory(32 * 1024, seed=2)
        b = FCMSketch.with_memory(32 * 1024, seed=2)
        a.ingest(w1.keys)
        b.ingest(w2.keys)
        detector = HeavyChangeDetector(a, b)
        candidates = np.union1d(w1.ground_truth.keys_array(),
                                w2.ground_truth.keys_array())
        changed = detector.detect([int(k) for k in candidates],
                                  threshold=1000)
        assert 77 in changed

    def test_no_change_no_report(self):
        keys = np.arange(1000, dtype=np.uint64)
        a = FCMSketch.with_memory(32 * 1024, seed=2)
        b = FCMSketch.with_memory(32 * 1024, seed=2)
        a.ingest(keys)
        b.ingest(keys)
        detector = HeavyChangeDetector(a, b)
        assert detector.detect([int(k) for k in keys], 100) == set()

    def test_f1_against_ground_truth(self, trace):
        from repro.traffic import split_windows
        first, second = split_windows(trace, 2)
        a = FCMSketch.with_memory(64 * 1024, seed=3)
        b = FCMSketch.with_memory(64 * 1024, seed=3)
        a.ingest(first.keys)
        b.ingest(second.keys)
        threshold = max(50, trace.heavy_hitter_threshold())
        truth = first.ground_truth.heavy_changes(second.ground_truth,
                                                 threshold)
        candidates = np.union1d(first.ground_truth.keys_array(),
                                second.ground_truth.keys_array())
        detected = HeavyChangeDetector(a, b).detect(
            [int(k) for k in candidates], threshold
        )
        assert f1_score(detected, truth) > 0.85

    def test_rejects_bad_threshold(self):
        detector = HeavyChangeDetector(
            FCMSketch.with_memory(8 * 1024),
            FCMSketch.with_memory(8 * 1024),
        )
        with pytest.raises(ValueError):
            detector.detect([1], 0)


class TestCollector:
    def test_window_reports(self, trace):
        collector = SketchCollector(
            sketch_factory=lambda: FCMSketch.with_memory(32 * 1024, seed=1)
        )
        reports = collector.process(trace, num_windows=3)
        assert len(reports) == 3
        assert sum(r.total_packets for r in reports) == len(trace)
        for report in reports:
            assert report.cardinality_estimate > 0

    def test_heavy_change_wiring(self, trace):
        collector = SketchCollector(
            sketch_factory=lambda: FCMSketch.with_memory(32 * 1024, seed=1),
            change_threshold=10_000,
        )
        reports = collector.process(trace, num_windows=2)
        assert reports[0].heavy_changes == set()
        assert isinstance(reports[1].heavy_changes, set)

    def test_em_opt_in(self, trace):
        collector = SketchCollector(
            sketch_factory=lambda: FCMSketch.with_memory(32 * 1024, seed=1),
            run_em=True,
        )
        reports = collector.process(trace, num_windows=2)
        assert all(r.distribution is not None for r in reports)


class TestFramework:
    def test_end_to_end_plain(self, trace):
        fw = FCMFramework(memory_bytes=32 * 1024, seed=2)
        fw.process_trace(trace)
        gt = trace.ground_truth
        key = int(gt.keys_array()[np.argmax(gt.sizes_array())])
        assert fw.flow_size(key) >= gt.size_of(key)
        assert fw.cardinality() == pytest.approx(gt.cardinality, rel=0.1)
        report = fw.report(gt.keys_array(),
                           heavy_hitter_threshold=trace
                           .heavy_hitter_threshold(),
                           run_em=False)
        assert report.total_packets == len(trace)

    def test_end_to_end_topk(self, trace):
        fw = FCMFramework(memory_bytes=48 * 1024, use_topk=True, seed=2)
        fw.process_trace(trace)
        gt = trace.ground_truth
        threshold = trace.heavy_hitter_threshold()
        truth = gt.heavy_hitters(threshold)
        reported = fw.heavy_hitters(gt.keys_array(), threshold)
        assert f1_score(reported, truth) > 0.9

    def test_entropy_and_distribution(self, trace):
        fw = FCMFramework(memory_bytes=32 * 1024, seed=2)
        fw.process_trace(trace)
        assert fw.entropy(iterations=4) == pytest.approx(
            trace.ground_truth.entropy, rel=0.05
        )

    def test_heavy_changes_between_frameworks(self):
        keys = np.arange(2000, dtype=np.uint64)
        a = FCMFramework(memory_bytes=32 * 1024, seed=1)
        b = FCMFramework(memory_bytes=32 * 1024, seed=1)
        a.process_packets(keys)
        b.process_packets(np.concatenate(
            [keys, np.full(500, 3, dtype=np.uint64)]
        ))
        changed = b.heavy_changes(a, [int(k) for k in keys], 300)
        assert changed == {3}
