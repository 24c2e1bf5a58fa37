"""Differential suite for the array seal path.

Each epoch holds its candidate keys as one sorted, read-only ``uint64``
array, and heavy change, heavy hitters and the Top-K resident lookup
run on arrays.  This suite keeps the per-key loops they replaced as
test-side references and pins the new code against them:

* ``distinct_keys`` equals ``np.unique`` on empty, one-key, all-equal,
  near-2**64 and random inputs;
* ``SealedEpoch.candidates`` equals ``np.unique`` of each epoch's fed
  keys on ``inline`` and ``pool:2`` under three chunkings, is
  read-only, does not change when the caller reuses its buffer, and
  the live generation never holds more than twice the epoch's
  distinct keys plus one batch;
* heavy hitters and ``HeavyChangeDetector.detect`` equal the per-key
  loops on FCM, FCM+TopK and Count-Min windows, the runtime's
  1,500-packet burst included;
* ``FCMTopK.query_many`` (and Elastic's, which shares the lookup)
  equals ``query`` per key at 1, 2 and 4 Top-K levels, in hardware
  mode, on empty input, on absent keys and after ``from_state``.
"""

import functools

import numpy as np
import pytest

from repro.controlplane.heavychange import HeavyChangeDetector
from repro.core import FCMSketch
from repro.core.topk import FCMTopK
from repro.runtime import EpochConfig, EpochManager, StreamingQueryAPI
from repro.sketches.base import distinct_keys
from repro.sketches.countmin import CountMinSketch
from repro.sketches.elastic import ElasticSketch
from repro.traffic import zipf_trace

MEMORY = 16 * 1024

FACTORIES = {
    "fcm": functools.partial(FCMSketch.with_memory, MEMORY, seed=5),
    "fcm_topk": functools.partial(FCMTopK, MEMORY, topk_entries=64, seed=5),
    "countmin": functools.partial(CountMinSketch, MEMORY, seed=5),
}


def stream(n, seed=9, alpha=1.2):
    return zipf_trace(n, alpha=alpha, seed=seed).keys


# ----------------------------------------------------------------------
# the per-key reference loops
# ----------------------------------------------------------------------

def reference_heavy_hitters(sketch, keys, threshold):
    """Resident keys (key-carrying sketches) and candidates whose
    scalar estimate reaches the threshold."""
    topk = getattr(sketch, "topk", None)
    residents = [key for key, _, _ in topk.entries()] if topk else []
    return {int(key) for key in [*residents, *keys]
            if sketch.query(int(key)) >= threshold}


def reference_detect(previous, current, keys, threshold):
    """Step 1 with the reference heavy hitters, then a scalar
    count-query per candidate in each window."""
    keys = [int(k) for k in keys]
    candidates = (reference_heavy_hitters(previous, keys, threshold)
                  | reference_heavy_hitters(current, keys, threshold))
    return {key for key in candidates
            if abs(current.query(key) - previous.query(key)) >= threshold}


# ----------------------------------------------------------------------
# distinct_keys
# ----------------------------------------------------------------------

TOP = np.iinfo(np.uint64).max


@pytest.mark.parametrize("keys", [
    np.empty(0, dtype=np.uint64),
    np.array([42], dtype=np.uint64),
    np.full(1_000, 7, dtype=np.uint64),
    np.array([TOP, TOP - 1, 0, TOP, TOP - 1, 1 << 63, TOP],
             dtype=np.uint64),
    np.random.default_rng(1).integers(0, 1 << 20, 4_096, dtype=np.uint64),
    np.random.default_rng(2).integers(0, TOP, 50_000, dtype=np.uint64,
                                      endpoint=True),
], ids=["empty", "one", "all_equal", "near_2_64", "random_dense",
        "random_wide"])
def test_distinct_keys_equals_np_unique(keys):
    before = keys.copy()
    out = distinct_keys(keys)
    assert out.dtype == np.uint64
    np.testing.assert_array_equal(out, np.unique(keys))
    np.testing.assert_array_equal(keys, before)   # input left unsorted
    assert not np.shares_memory(out, keys)


def test_distinct_keys_accepts_lists_and_sets():
    assert distinct_keys([3, 1, 3, 2]).tolist() == [1, 2, 3]
    assert distinct_keys({5, 4}).tolist() == [4, 5]


# ----------------------------------------------------------------------
# (a) SealedEpoch.candidates
# ----------------------------------------------------------------------

#: (stream packets, epoch packets, batch): a batch that straddles
#: epoch boundaries, one key per batch, and 32K batches.
CHUNKINGS = {
    "straddling": (20_000, 4_000, 1_536),
    "one_key": (3_000, 1_000, 1),
    "32k": (150_000, 50_000, 32_768),
}
BACKENDS = ["inline", "pool:2"]


def held_keys(manager):
    """Keys the live generation stores: its compacted array plus the
    batches tracked since."""
    live = manager._live
    return live._distinct.size + sum(p.size for p in live._pending)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("chunking", sorted(CHUNKINGS))
def test_candidates_equal_np_unique_of_fed_keys(backend, chunking):
    packets, epoch_packets, batch = CHUNKINGS[chunking]
    keys = stream(packets)
    config = EpochConfig(epoch_packets=epoch_packets, retention=64)
    with EpochManager(FACTORIES["fcm"], config=config,
                      backend=backend) as manager:
        for first in range(0, keys.size, batch):
            manager.feed(keys[first:first + batch])
            live = keys[manager.packets_fed - manager.live_packets:
                        manager.packets_fed]
            assert held_keys(manager) <= 2 * np.unique(live).size + batch
        epochs = list(manager.store)
    assert len(epochs) == packets // epoch_packets
    for epoch, fed in zip(epochs, np.split(keys, len(epochs))):
        assert epoch.candidates.dtype == np.uint64
        np.testing.assert_array_equal(epoch.candidates, np.unique(fed))
        assert not epoch.candidates.flags.writeable
        with pytest.raises(ValueError):
            epoch.candidates[0] = 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_candidates_survive_a_reused_caller_buffer(backend):
    # Mostly distinct keys in small batches, so batches wait uncompacted
    # while the buffer is rewritten.
    keys = np.random.default_rng(6).integers(0, 20_000, 10_000,
                                             dtype=np.uint64)
    batch = 100
    buffer = np.empty(batch, dtype=np.uint64)
    config = EpochConfig(epoch_packets=3_000, retention=64)
    with EpochManager(FACTORIES["fcm"], config=config,
                      backend=backend) as manager:
        for first in range(0, keys.size, batch):
            part = keys[first:first + batch]
            buffer[:part.size] = part
            manager.feed(buffer[:part.size])
        buffer[:] = 0     # overwritten after the last feed
        manager.rotate()  # seals the 1,000-packet tail
        epochs = list(manager.store)
    cuts = np.cumsum([epoch.packets for epoch in epochs])[:-1]
    assert [epoch.packets for epoch in epochs] == [3_000] * 3 + [1_000]
    for epoch, fed in zip(epochs, np.split(keys, cuts)):
        np.testing.assert_array_equal(epoch.candidates, np.unique(fed))


def test_untracked_epochs_have_an_empty_read_only_array():
    config = EpochConfig(epoch_packets=1_000, track_candidates=False)
    manager = EpochManager(FACTORIES["fcm"], config=config)
    manager.feed(stream(2_000))
    for epoch in manager.store:
        assert epoch.candidates.size == 0
        assert epoch.candidates.dtype == np.uint64
        assert not epoch.candidates.flags.writeable


# ----------------------------------------------------------------------
# (b) heavy hitters and heavy change
# ----------------------------------------------------------------------

def two_windows(name, seed=4):
    """Two consecutive windows of one zipf stream, where one flow
    vanishes and another appears, so the changes go both ways."""
    keys = stream(40_000, seed=seed)
    first, second = keys[:20_000], keys[20_000:].copy()
    heaviest = np.unique(first, return_counts=True)
    gone = heaviest[0][np.argmax(heaviest[1])]
    second[second == gone] = 10**12
    sketches = []
    for window in (first, second):
        sketch = FACTORIES[name]()
        sketch.ingest(window)
        sketches.append(sketch)
    return sketches, np.union1d(first, second)


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_heavy_hitters_equal_the_per_key_loop(name):
    (previous, current), keys = two_windows(name)
    for sketch in (previous, current):
        for threshold in (1, 50, 400):
            expected = reference_heavy_hitters(sketch, keys, threshold)
            assert sketch.heavy_hitters(keys, threshold) == expected
            assert sketch.heavy_hitters(keys.tolist(), threshold) \
                == expected


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_detect_equals_the_per_key_loop(name):
    (previous, current), keys = two_windows(name)
    detector = HeavyChangeDetector(previous, current)
    for threshold in (50, 200, 400):
        expected = reference_detect(previous, current, keys, threshold)
        assert detector.detect(keys, threshold) == expected
        assert detector.detect(set(keys.tolist()), threshold) == expected
    # Both directions are exercised: a flow that grew and one that
    # dropped to zero.
    changes = reference_detect(previous, current, keys, 50)
    assert any(current.query(k) > previous.query(k) for k in changes)
    assert any(current.query(k) < previous.query(k) for k in changes)
    assert detector.detect(np.empty(0, dtype=np.uint64), 50) \
        == reference_detect(previous, current, [], 50)


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_runtime_burst_equals_the_per_key_loop(name):
    """The 1,500-packet burst of the runtime suite, sealed through the
    runtime on each sketch."""
    config = EpochConfig(epoch_packets=2_000, retention=8,
                         change_threshold=500)
    manager = EpochManager(FACTORIES[name], config=config)
    manager.feed(np.arange(1_000, 3_000, dtype=np.uint64))
    manager.feed(np.concatenate([np.full(1_500, 7, dtype=np.uint64),
                                 np.arange(1_000, 1_500, dtype=np.uint64)]))
    before, after = manager.store
    keys = np.union1d(before.candidates, after.candidates)
    expected = reference_detect(before.sketch(), after.sketch(), keys, 500)
    assert 7 in expected
    assert after.heavy_changes == frozenset(expected)


def test_query_api_heavy_hitters_equal_the_per_key_loop():
    manager = EpochManager(FACTORIES["fcm"],
                           config=EpochConfig(epoch_packets=5_000))
    keys = stream(12_000)
    manager.feed(keys)
    api = StreamingQueryAPI(manager)
    flows = np.unique(keys)
    for scope in ("live", "all"):
        expected = {int(k) for k in flows
                    if api.query(int(k), scope=scope) >= 40}
        assert api.heavy_hitters(flows, 40, scope=scope) == expected
        assert api.heavy_hitters(iter(flows.tolist()), 40,
                                 scope=scope) == expected
    assert api.heavy_hitters([], 40) == set()


# ----------------------------------------------------------------------
# (c) the Top-K resident lookup
# ----------------------------------------------------------------------

def topk_sketch(levels, hardware, host="fcm_topk"):
    """A small, contended Top-K filter: a few keys end up resident at
    more than one level, and evicted keys leave flagged residue."""
    if host == "elastic":
        sketch = ElasticSketch(MEMORY, levels=levels, entries_per_level=32,
                               lambda_ratio=2, hardware=hardware, seed=1)
    else:
        sketch = FCMTopK(MEMORY, topk_entries=32, topk_levels=levels,
                         lambda_ratio=2, hardware=hardware, seed=1)
    keys = stream(30_000, seed=3, alpha=1.1)
    for first in range(0, keys.size, 512):
        sketch.ingest(keys[first:first + 512])
    absent = np.arange(10**12, 10**12 + 2_000, dtype=np.uint64)
    zero = np.zeros(1, dtype=np.uint64)
    return sketch, np.concatenate([np.unique(keys), absent, zero])


def assert_matches_scalar_query(sketch, keys):
    assert keys.dtype == np.uint64
    out = sketch.query_many(keys)
    assert out.dtype == np.int64
    np.testing.assert_array_equal(
        out, np.array([sketch.query(int(k)) for k in keys], dtype=np.int64))


@pytest.mark.parametrize("hardware", [False, True],
                         ids=["migrate", "hardware"])
@pytest.mark.parametrize("levels", [1, 2, 4])
@pytest.mark.parametrize("host", ["fcm_topk", "elastic"])
def test_topk_query_many_equals_query(host, levels, hardware):
    sketch, keys = topk_sketch(levels, hardware, host)
    arrays = sketch.topk.state_arrays(prefix="")
    if levels > 1:
        # Some key holds different buckets at two levels, so the
        # first-level-wins rule shows in the answer.
        buckets = {}
        for key, pos, flag in zip(arrays["key"].tolist(),
                                  arrays["pos"].tolist(),
                                  arrays["flag"].tolist()):
            buckets.setdefault(key, set()).add((pos, flag))
        assert any(len(held) > 1 for held in buckets.values())
    if not hardware:
        # Flagged residents whose backing estimate is not zero, so
        # dropping the residue shows in the answer.
        flagged = arrays["key"][arrays["flag"] == 1]
        residue = (sketch.fcm.query_many(flagged) if host == "fcm_topk"
                   else np.array([sketch._light_query(int(k))
                                  for k in flagged]))
        assert (residue > 0).any()
    assert_matches_scalar_query(sketch, keys)
    assert_matches_scalar_query(sketch, keys[::-1].copy())
    empty = sketch.query_many(np.empty(0, dtype=np.uint64))
    assert empty.shape == (0,) and empty.dtype == np.int64


@pytest.mark.parametrize("levels", [1, 2, 4])
def test_topk_query_many_after_from_state(levels):
    sketch, keys = topk_sketch(levels, hardware=False)
    restored = FCMTopK(MEMORY, topk_entries=32, topk_levels=levels,
                       lambda_ratio=2, seed=1).from_state(sketch.to_state())
    assert_matches_scalar_query(restored, keys)
    np.testing.assert_array_equal(restored.query_many(keys),
                                  sketch.query_many(keys))
    assert restored.to_state() == sketch.to_state()


def test_lookup_many_on_an_empty_filter():
    sketch = FCMTopK(MEMORY, topk_entries=32, topk_levels=2, seed=1)
    resident, count, flagged = sketch.topk.lookup_many([0, 1, 2])
    assert not resident.any() and not count.any() and not flagged.any()
    assert_matches_scalar_query(sketch, np.arange(3, dtype=np.uint64))
