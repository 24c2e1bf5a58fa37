"""ElasticSketch (Yang et al. [59]).

The state-of-the-art generic baseline of Figure 12: a Top-K "heavy"
part (multi-level key-value tables with vote-based eviction) in front of
a "light" part made of 8-bit Count-Min counters.  Per §7.2 the paper
uses 4 Top-K levels; the light part follows Elastic's P4 version with a
single 8-bit counter array.

The heavy part is shared with FCM+TopK (:class:`repro.core.topk
.TopKFilter`); only the backing sketch differs, which is exactly the
substitution §6 argues for.

Supported queries mirror Elastic's paper: flow size, heavy hitters,
cardinality (linear counting on the light part plus unseen heavy keys),
flow-size distribution (heavy exact sizes + MRAC-style EM on the light
array) and entropy.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set

import numpy as np

import repro.sketches.batching as batching
from repro.core.em import EMConfig, EMEstimator, EMResult
from repro.core.topk import BUCKET_BYTES, TopKFilter
from repro.core.virtual import VirtualCounterArray
from repro.hashing.family import hash_families
from repro.sketches.base import (
    FrequencySketch,
    SketchMemoryError,
    as_key_array,
    counters_for_budget,
)
from repro.sketches.linear_counting import linear_counting_estimate


class ElasticSketch(FrequencySketch):
    """ElasticSketch: Top-K heavy part + 8-bit CM light part.

    Args:
        memory_bytes: total budget.  The heavy part takes
            ``levels * entries_per_level * 13`` bytes; the light part
            gets the remainder.
        levels: heavy-part levels (paper default 4).
        entries_per_level: heavy-part entries per level; ``None`` sizes
            the heavy part to ~25% of the budget (the paper's 4x8K
            entries assume MB-scale budgets).
        lambda_ratio: eviction vote threshold (Elastic default 8).
        hardware: Tofino-feasible single-level, no-migration variant
            ("CM+TopK" in §8.2.2 is this with ``levels=1``).
        seed: base hash seed.
        telemetry: optional metrics registry.
    """

    LIGHT_BITS = 8

    STATE_KIND = "elastic"
    INGEST_CONTRACT = batching.RELAXED
    INGEST_GUARANTEES = (batching.REORDER_EQUIVALENT,)
    INGEST_REPLAY_ORDER = batching.HEAVY_ORDER
    INGEST_RELAXATION = (
        "per-flow run replay in heavy-first order: the batch is "
        "collapsed to per-flow totals, flows visited in descending "
        "count order (heavy flows install their buckets with full "
        "vote mass before lighter flows can contest them), and each "
        "flow's packets are driven through the Top-K heavy part as "
        "one closed-form run (TopKFilter.insert_run); heavy-part "
        "misses are flushed to the light part in one vectorized "
        "saturating-add pass — bit-identical to the scalar update "
        "loop over the heavy-first flow-grouped reordering of the "
        "batch.  No no-underestimate tag: the 8-bit light part "
        "saturates at 255, so Elastic can underestimate under any "
        "packet order")
    UNMERGEABLE_REASON = (
        "the Top-K heavy part's vote-based eviction is order-dependent: "
        "which flows are resident and how much of their count spilled "
        "into the light part depends on packet arrival order across "
        "the whole stream")

    def __init__(self, memory_bytes: int, levels: int = 4,
                 entries_per_level: Optional[int] = None,
                 lambda_ratio: int = 8, hardware: bool = False,
                 light_depth: int = 1, seed: int = 0, telemetry=None):
        if light_depth <= 0:
            raise ValueError("light_depth must be positive")
        if entries_per_level is None:
            entries_per_level = max(
                64, int(memory_bytes * 0.25 / (BUCKET_BYTES * levels))
            )
        self.topk = TopKFilter(
            entries_per_level=entries_per_level,
            levels=levels,
            lambda_ratio=lambda_ratio,
            migrate_on_evict=not hardware,
            seed=seed,
        )
        light_budget = memory_bytes - self.topk.memory_bytes
        if light_budget <= 0:
            raise SketchMemoryError(
                f"budget {memory_bytes}B cannot fit the heavy part of "
                f"{self.topk.memory_bytes}B"
            )
        self.light_depth = light_depth
        total_cells = counters_for_budget(light_budget, 1,
                                          minimum=8 * light_depth)
        self.light_width = total_cells // light_depth
        self.light = np.zeros((light_depth, self.light_width),
                              dtype=np.int64)
        self._light_cap = (1 << self.LIGHT_BITS) - 1
        self._light_hashes = hash_families(light_depth,
                                           base_seed=seed + 31337)
        self.hardware = hardware
        self.seed = seed
        self._telemetry = telemetry

    @property
    def memory_bytes(self) -> int:
        return self.topk.memory_bytes + self.light_depth * self.light_width

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    def _to_light(self, key: int, count: int) -> None:
        for row, h in enumerate(self._light_hashes):
            idx = h.index(key, self.light_width)
            self.light[row, idx] = min(self.light[row, idx] + count,
                                       self._light_cap)

    def update(self, key: int, count: int = 1) -> None:
        if count < 0:
            raise ValueError("count must be non-negative")
        for _ in range(count):
            self.topk.insert(int(key), self._to_light)

    def _light_add_aggregated(self, keys: np.ndarray,
                              counts: np.ndarray) -> None:
        """Saturating bulk add into the light rows.

        A saturating counter's final value after any sequence of
        non-negative adds is ``min(start + total, cap)``, so summing
        first and clamping once is bit-identical to the per-miss
        :meth:`_to_light` loop, in any order.
        """
        for row, h in enumerate(self._light_hashes):
            idx = h.index(keys, self.light_width)
            np.add.at(self.light[row], idx, counts)
            np.minimum(self.light[row], self._light_cap,
                       out=self.light[row])

    def ingest(self, keys: np.ndarray) -> None:
        """Per-flow run replay through the heavy part.

        The batch is collapsed to per-flow totals in heavy-first
        (descending-count) order; each flow is driven through the
        Top-K tables as one closed-form run
        (:meth:`~repro.core.topk.TopKFilter.insert_run`) — heavy
        flows install their buckets with full vote mass before
        lighter flows can contest them — and everything the heavy
        part rejects or evicts is flushed to the light part in one
        vectorized saturating-add pass.  Bit-identical to the scalar
        ``update`` loop over the heavy-first
        :func:`~repro.sketches.batching.flow_grouped_reordering` of
        the batch.
        """
        keys = batching.require_key_batch(keys, "ElasticSketch.ingest")
        packets = int(keys.shape[0])
        fallback = 0
        if packets:
            uniq, counts = batching.aggregate_batch(
                keys, order=batching.HEAVY_ORDER)
            slot_rows = self.topk.slot_matrix(uniq).tolist()
            miss_keys: list = []
            miss_counts: list = []

            def buffer_miss(key: int, count: int) -> None:
                miss_keys.append(key)
                miss_counts.append(count)

            insert_run = self.topk.insert_run
            for key, count, slots in zip(uniq.tolist(), counts.tolist(),
                                         slot_rows):
                fallback += insert_run(key, count, buffer_miss, slots)
            if miss_keys:
                self._light_add_aggregated(
                    np.asarray(miss_keys, dtype=np.uint64),
                    np.asarray(miss_counts, dtype=np.int64))
        batching.record_batch_telemetry(self._telemetry, "elastic",
                                        packets, fallback)

    # -- state codec (snapshot only; merge intentionally raises) -------

    def _state_meta(self) -> Dict[str, object]:
        meta = {"light_depth": self.light_depth,
                "light_width": self.light_width,
                "hardware": self.hardware,
                "seed": self.seed}
        meta.update(self.topk.state_meta())
        return meta

    def _state_arrays(self) -> Dict[str, np.ndarray]:
        arrays = self.topk.state_arrays()
        arrays["light"] = self.light
        return arrays

    def _load_state_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        self.topk.load_state_arrays(arrays)
        self.light = arrays["light"].astype(np.int64)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def _light_query(self, key: int) -> int:
        return int(min(
            self.light[row, h.index(key, self.light_width)]
            for row, h in enumerate(self._light_hashes)
        ))

    def query(self, key: int) -> int:
        key = int(key)
        resident = self.topk.lookup(key)
        if resident is None:
            return self._light_query(key)
        count, flagged = resident
        return count + self._light_query(key) if flagged else count

    def query_many(self, keys: Iterable[int]) -> np.ndarray:
        """Vectorized :meth:`query`, bit-identical to it per key."""
        keys = as_key_array(keys)
        light = np.full(keys.shape, np.iinfo(np.int64).max, dtype=np.int64)
        for row, h in enumerate(self._light_hashes):
            np.minimum(light, self.light[row, h.index(keys,
                                                      self.light_width)],
                       out=light)
        resident, count, flagged = self.topk.lookup_many(keys)
        return np.where(resident, count + flagged * light, light)

    def heavy_hitters(self, candidate_keys: Iterable[int],
                      threshold: int) -> Set[int]:
        """Heavy hitters among the resident keys and the candidates."""
        residents = np.fromiter((key for key, _, _ in self.topk.entries()),
                                dtype=np.uint64)
        return super().heavy_hitters(
            np.concatenate([residents, as_key_array(candidate_keys)]),
            threshold)

    def cardinality(self) -> float:
        """Linear counting on the light part + unseen heavy keys."""
        empty = float(np.mean(
            np.count_nonzero(self.light == 0, axis=1)
        ))
        empty = max(empty, 1.0)
        light_card = linear_counting_estimate(empty, self.light_width)
        unseen = sum(1 for _, _, flagged in self.topk.entries()
                     if not flagged)
        return light_card + unseen

    # ------------------------------------------------------------------
    # control-plane estimates
    # ------------------------------------------------------------------

    def light_virtual(self) -> list:
        """Light rows viewed as degree-1 virtual counter arrays."""
        arrays = []
        for row in range(self.light_depth):
            nonzero = self.light[row][self.light[row] > 0]
            n = nonzero.shape[0]
            arrays.append(VirtualCounterArray(
                values=nonzero,
                degrees=np.ones(n, dtype=np.int64),
                stages=np.ones(n, dtype=np.int64),
                leaf_width=self.light_width,
                thetas=[self._light_cap - 1],
                num_empty_leaves=self.light_width - n,
            ))
        return arrays

    def estimate_distribution(self, config: Optional[EMConfig] = None,
                              iterations: Optional[int] = None) -> EMResult:
        """Flow-size distribution: light-part EM plus each resident.

        A flagged resident's packets from before it took its bucket
        sit in the light part, which EM has already placed, so each
        resident is added once at its heavy-part count: Σ j·n̂_j equals
        the packets ingested.
        """
        with EMEstimator(self.light_virtual(), config=config) as em:
            result = em.run(iterations=iterations)
        heavy_sizes = [count for _, count, _ in self.topk.entries()
                       if count > 0]
        top = max([result.size_counts.shape[0] - 1] + heavy_sizes)
        counts = np.zeros(top + 1, dtype=np.float64)
        counts[: result.size_counts.shape[0]] = result.size_counts
        for size in heavy_sizes:
            counts[size] += 1.0
        return EMResult(size_counts=counts, iterations=result.iterations)

    def estimate_entropy(self, config: Optional[EMConfig] = None) -> float:
        """Entropy from the estimated flow-size distribution."""
        return self.estimate_distribution(config=config).entropy
