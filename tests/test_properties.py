"""Property-based tests (hypothesis) on the core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FCMConfig, FCMSketch
from repro.core.em import _can_cover, _partitions, enumerate_combinations
from repro.core.tree import FCMTree
from repro.core.virtual import VirtualCounterArray, convert_sketch
from repro.hashing import HashFamily
from repro.metrics import weighted_mean_relative_error
from repro.sketches import CountMinSketch, CUSketch, PyramidCMSketch

key_lists = st.lists(st.integers(min_value=0, max_value=500),
                     min_size=1, max_size=400)


def small_tree(seed: int = 0) -> FCMTree:
    cfg = FCMConfig(num_trees=1, k=2, stage_bits=(2, 4, 8),
                    stage_widths=(16, 8, 4))
    return FCMTree(cfg, HashFamily(seed))


class TestFCMProperties:
    @given(keys=key_lists)
    @settings(max_examples=40, deadline=None)
    def test_never_underestimates(self, keys):
        sketch = FCMSketch(FCMConfig(num_trees=2, k=2,
                                     stage_bits=(2, 4, 8),
                                     stage_widths=(16, 8, 4), seed=1))
        arr = np.asarray(keys, dtype=np.uint64)
        sketch.ingest(arr)
        uniq, counts = np.unique(arr, return_counts=True)
        capacity = sum(sketch.config.counting_ranges[:-1]) \
            + sketch.config.sentinels[-1]
        est = sketch.query_many(uniq)
        assert np.all(est >= np.minimum(counts, capacity))

    @given(keys=key_lists)
    @settings(max_examples=30, deadline=None)
    def test_scalar_bulk_equivalence(self, keys):
        scalar, bulk = small_tree(3), small_tree(3)
        for k in keys:
            scalar.update(k)
        bulk.ingest(np.asarray(keys, dtype=np.uint64))
        for a, b in zip(scalar.stage_values, bulk.stage_values):
            assert np.array_equal(a, b)

    @given(keys=key_lists)
    @settings(max_examples=30, deadline=None)
    def test_conversion_preserves_total(self, keys):
        tree = small_tree(5)
        tree.ingest(np.asarray(keys, dtype=np.uint64))
        array = VirtualCounterArray.from_tree(tree)
        # Total preserved unless the last stage saturated.
        last = tree.stage_values[-1]
        if np.all(last < tree.sentinels[-1]):
            assert array.total_value == len(keys)
        else:
            assert array.total_value <= len(keys)

    @given(keys=key_lists)
    @settings(max_examples=30, deadline=None)
    def test_conversion_covers_leaves(self, keys):
        tree = small_tree(7)
        tree.ingest(np.asarray(keys, dtype=np.uint64))
        array = VirtualCounterArray.from_tree(tree)
        assert (int(array.degrees.sum()) + array.num_empty_leaves
                == tree.leaf_width)

    @given(keys=key_lists, seed=st.integers(0, 5))
    @settings(max_examples=30, deadline=None)
    def test_query_many_matches_scalar(self, keys, seed):
        tree = small_tree(seed)
        arr = np.asarray(keys, dtype=np.uint64)
        tree.ingest(arr)
        uniq = np.unique(arr)
        vec = tree.query_many(uniq)
        for i, k in enumerate(uniq):
            assert vec[i] == tree.query(int(k))


class TestBaselineProperties:
    @given(keys=key_lists)
    @settings(max_examples=30, deadline=None)
    def test_cm_never_underestimates(self, keys):
        cm = CountMinSketch(1024, seed=2)
        arr = np.asarray(keys, dtype=np.uint64)
        cm.ingest(arr)
        uniq, counts = np.unique(arr, return_counts=True)
        assert np.all(cm.query_many(uniq) >= counts)

    @given(keys=key_lists)
    @settings(max_examples=25, deadline=None)
    def test_cu_between_truth_and_cm(self, keys):
        cm = CountMinSketch(1024, seed=4)
        cu = CUSketch(1024, seed=4)
        arr = np.asarray(keys, dtype=np.uint64)
        cm.ingest(arr)
        cu.ingest(arr)
        uniq, counts = np.unique(arr, return_counts=True)
        cu_est = cu.query_many(uniq)
        assert np.all(cu_est >= counts)
        assert np.all(cu_est <= cm.query_many(uniq))

    @given(keys=key_lists)
    @settings(max_examples=25, deadline=None)
    def test_pyramid_never_underestimates(self, keys):
        p = PyramidCMSketch(2048, seed=1)
        arr = np.asarray(keys, dtype=np.uint64)
        p.ingest(arr)
        uniq, counts = np.unique(arr, return_counts=True)
        assert np.all(p.query_many(uniq) >= counts)


class TestEnumerationProperties:
    @given(value=st.integers(1, 40), max_parts=st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_partitions_sum_and_order(self, value, max_parts):
        for parts in _partitions(value, max_parts):
            assert sum(parts) == value
            assert 1 <= len(parts) <= max_parts
            assert parts == sorted(parts)

    @given(value=st.integers(1, 40), max_parts=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_partitions_unique(self, value, max_parts):
        seen = [tuple(p) for p in _partitions(value, max_parts)]
        assert len(seen) == len(set(seen))

    @given(value=st.integers(1, 30), degree=st.integers(1, 3),
           min_path=st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_combinations_respect_constraints(self, value, degree,
                                              min_path):
        combos = enumerate_combinations(value, degree, min_path,
                                        max_flows=degree + 2)
        for sizes, mults in combos:
            flat = tuple(np.repeat(sizes, mults))
            assert sum(flat) == value
            assert len(flat) >= degree
            if degree > 1:
                assert _can_cover(tuple(sorted(flat, reverse=True)),
                                  degree, min_path)

    @given(value=st.integers(1, 40), max_parts=st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_partitions_complete(self, value, max_parts):
        # p(n, k): partitions of n into at most k parts.
        count = [[1] * (max_parts + 1)] + [[0] * (max_parts + 1)
                                          for _ in range(value)]
        for n in range(1, value + 1):
            for k in range(1, max_parts + 1):
                count[n][k] = count[n][k - 1] + (
                    count[n - k][k] if n >= k else 0)
        assert len(list(_partitions(value, max_parts))) == \
            count[value][max_parts]

    @given(parts=st.lists(st.integers(1, 10), min_size=1, max_size=6),
           groups=st.integers(1, 3), minimum=st.integers(1, 6))
    @settings(max_examples=80, deadline=None)
    def test_can_cover_necessary_conditions(self, parts, groups, minimum):
        feasible = _can_cover(tuple(sorted(parts, reverse=True)),
                              groups, minimum)
        if feasible:
            assert len(parts) >= groups
            assert sum(parts) >= groups * minimum


class TestMetricProperties:
    dists = st.dictionaries(st.integers(1, 30), st.integers(0, 50),
                            max_size=10)

    @given(a=dists, b=dists)
    @settings(max_examples=60, deadline=None)
    def test_wmre_bounds(self, a, b):
        value = weighted_mean_relative_error(a, b)
        assert 0.0 <= value <= 2.0 + 1e-12

    @given(a=dists)
    @settings(max_examples=30, deadline=None)
    def test_wmre_identity(self, a):
        assert weighted_mean_relative_error(a, a) == 0.0

    @given(a=dists, b=dists)
    @settings(max_examples=40, deadline=None)
    def test_wmre_symmetric(self, a, b):
        assert weighted_mean_relative_error(a, b) == \
            weighted_mean_relative_error(b, a)


class TestMergeProperties:
    @given(keys_a=key_lists, keys_b=key_lists)
    @settings(max_examples=25, deadline=None)
    def test_merge_equals_concatenated_ingest(self, keys_a, keys_b):
        cfg = FCMConfig(num_trees=2, k=2, stage_bits=(2, 4, 8),
                        stage_widths=(16, 8, 4), seed=4)
        a, b, combined = FCMSketch(cfg), FCMSketch(cfg), FCMSketch(cfg)
        a.ingest(np.asarray(keys_a, dtype=np.uint64))
        b.ingest(np.asarray(keys_b, dtype=np.uint64))
        combined.ingest(np.asarray(keys_a + keys_b, dtype=np.uint64))
        a.merge(b)
        uniq = np.unique(np.asarray(keys_a + keys_b, dtype=np.uint64))
        assert np.array_equal(a.query_many(uniq),
                              combined.query_many(uniq))

    @given(keys_a=key_lists, keys_b=key_lists)
    @settings(max_examples=20, deadline=None)
    def test_merge_commutes(self, keys_a, keys_b):
        cfg = FCMConfig(num_trees=1, k=2, stage_bits=(2, 4, 8),
                        stage_widths=(16, 8, 4), seed=5)
        ab, ba = FCMSketch(cfg), FCMSketch(cfg)
        parts = []
        for keys in (keys_a, keys_b):
            part = FCMSketch(cfg)
            part.ingest(np.asarray(keys, dtype=np.uint64))
            parts.append(part)
        ab.merge(parts[0])
        ab.merge(parts[1])
        ba.merge(parts[1])
        ba.merge(parts[0])
        uniq = np.unique(np.asarray(keys_a + keys_b, dtype=np.uint64))
        if uniq.size:
            assert np.array_equal(ab.query_many(uniq),
                                  ba.query_many(uniq))


class TestSlidingWindowProperties:
    @given(keys=st.lists(st.integers(0, 60), min_size=1, max_size=600))
    @settings(max_examples=20, deadline=None)
    def test_live_span_never_underestimated(self, keys):
        from repro.controlplane.sliding import JumpingWindowSketch

        window = JumpingWindowSketch(200, num_slots=2,
                                     memory_bytes=8 * 1024, seed=3)
        stream = np.asarray(keys, dtype=np.uint64)
        window.ingest(stream)
        live = stream[len(stream) - window.live_packets:]
        uniq, counts = np.unique(live, return_counts=True)
        assert np.all(window.query_many(uniq) >= counts)


class TestHashProperties:
    @given(key=st.integers(0, 2**64 - 1), width=st.integers(1, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_index_in_range(self, key, width):
        assert 0 <= HashFamily(1).index(key, width) < width

    @given(key=st.integers(0, 2**64 - 1))
    @settings(max_examples=60, deadline=None)
    def test_hash_deterministic(self, key):
        h = HashFamily(9)
        assert h.hash64(key) == h.hash64(key)
