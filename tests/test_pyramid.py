"""Tests for the PyramidSketch (PCM) baseline."""

import numpy as np
import pytest

from repro.errors import SketchMemoryError
from repro.sketches import PyramidCMSketch
from repro.traffic import caida_like_trace


class TestPyramidStructure:
    def test_layer_widths_halve(self):
        p = PyramidCMSketch(8 * 1024)
        for child, parent in zip(p.layer_widths, p.layer_widths[1:]):
            assert parent == (child + 1) // 2

    def test_memory_within_budget(self):
        for budget in (1024, 8 * 1024, 64 * 1024):
            p = PyramidCMSketch(budget)
            assert p.memory_bytes <= budget

    def test_rejects_tiny_budget(self):
        with pytest.raises(SketchMemoryError):
            PyramidCMSketch(4)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            PyramidCMSketch(1024, depth=0)
        with pytest.raises(ValueError):
            PyramidCMSketch(1024, word_bits=10, first_layer_bits=4)


class TestPyramidCounting:
    def test_small_count_exact(self):
        p = PyramidCMSketch(8 * 1024)
        p.update(7, count=9)
        assert p.query(7) == 9

    def test_carry_reconstruction(self):
        """Counts past the 4-bit first layer reconstruct exactly when
        there are no collisions."""
        p = PyramidCMSketch(16 * 1024)
        for count in (15, 16, 17, 100, 1000, 65_000):
            p2 = PyramidCMSketch(16 * 1024)
            p2.update(1234, count=count)
            assert p2.query(1234) == count

    def test_never_underestimates(self):
        trace = caida_like_trace(num_packets=40_000, seed=2)
        p = PyramidCMSketch(8 * 1024)
        p.ingest(trace.keys)
        gt = trace.ground_truth
        assert np.all(p.query_many(gt.keys_array()) >= gt.sizes_array())

    def test_ingest_equals_scalar(self):
        a = PyramidCMSketch(2048, seed=1)
        b = PyramidCMSketch(2048, seed=1)
        keys = np.arange(2000, dtype=np.uint64) % 150
        for k in keys:
            a.update(int(k))
        b.ingest(keys)
        uniq = np.unique(keys)
        assert np.array_equal(a.query_many(uniq), b.query_many(uniq))

    def test_query_many_matches_scalar(self):
        p = PyramidCMSketch(4096, seed=3)
        keys = (np.arange(3000, dtype=np.uint64) * 31) % 400
        p.ingest(keys)
        uniq = np.unique(keys)
        vec = p.query_many(uniq)
        for i, k in enumerate(uniq):
            assert vec[i] == p.query(int(k))

    def test_min_over_hashes(self):
        p = PyramidCMSketch(4096, seed=5)
        p.ingest(np.arange(4000, dtype=np.uint64) % 500)
        key = 123
        per_hash = [p._reconstruct(idx) for idx in p._leaf_indices(key)]
        assert p.query(key) == min(per_hash)

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            PyramidCMSketch(1024).update(1, count=-1)
