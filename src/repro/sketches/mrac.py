"""MRAC (Kumar, Sung, Xu & Wang [38]).

The flow-size-distribution baseline of Figures 7 and 9: a single
counter array (counters uniformly chosen by one hash) plus an EM
posterior over the collision patterns of each counter value.

An MRAC counter is exactly a degree-1 virtual counter of a one-stage
tree, so the EM step reuses :class:`repro.core.em.EMEstimator` — the
paper makes the same observation ("each MRAC counter is equivalent to a
virtual counter with a single path", §7.3.2).  The array is purely
additive, so MRAC merges and serializes like Count-Min.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import numpy as np

from repro.core.em import EMConfig, EMEstimator, EMResult
from repro.core.virtual import VirtualCounterArray
from repro.hashing import HashFamily
from repro.sketches.base import (
    FrequencySketch,
    SketchCompatibilityError,
    as_key_array,
    counters_for_budget,
)


class MRAC(FrequencySketch):
    """Single-array counting sketch with EM distribution recovery.

    Args:
        memory_bytes: counter budget.
        counter_bits: counter width (paper uses 32).
        seed: hash seed.
        telemetry: optional metrics registry.
    """

    STATE_KIND = "mrac"

    def __init__(self, memory_bytes: int, counter_bits: int = 32,
                 seed: int = 0, telemetry=None):
        self.counter_bits = counter_bits
        self.width = counters_for_budget(memory_bytes, counter_bits // 8,
                                         minimum=1)
        self.counters = np.zeros(self.width, dtype=np.int64)
        self.seed = seed
        self._telemetry = telemetry
        self._hash = HashFamily(seed)

    @property
    def memory_bytes(self) -> int:
        return self.width * (self.counter_bits // 8)

    def update(self, key: int, count: int = 1) -> None:
        if count < 0:
            raise ValueError("count must be non-negative")
        self.counters[self._hash.index(key, self.width)] += count

    def query(self, key: int) -> int:
        return int(self.counters[self._hash.index(key, self.width)])

    def ingest(self, keys: np.ndarray) -> None:
        keys = as_key_array(keys)
        idx = self._hash.index(keys, self.width)
        self.counters += np.bincount(idx, minlength=self.width)

    def add_aggregated(self, keys: np.ndarray, counts: np.ndarray) -> None:
        """Add pre-aggregated (key, count) pairs (vectorized)."""
        keys = as_key_array(keys)
        counts = np.asarray(counts, dtype=np.int64)
        idx = self._hash.index(keys, self.width)
        self.counters += np.bincount(idx, weights=counts,
                                     minlength=self.width).astype(np.int64)

    def query_many(self, keys: Iterable[int]) -> np.ndarray:
        keys = as_key_array(keys)
        return self.counters[self._hash.index(keys, self.width)]

    def merge(self, other: "MRAC") -> None:
        """Merge an identically-configured sketch (counters add)."""
        self._require_same_type(other)
        if (self.width, self.counter_bits, self.seed) != \
                (other.width, other.counter_bits, other.seed):
            raise SketchCompatibilityError(
                "cannot merge MRAC instances with different geometry "
                "or seed")
        self.counters += other.counters

    # -- state codec ---------------------------------------------------

    def _state_meta(self) -> Dict[str, object]:
        return {"width": self.width, "counter_bits": self.counter_bits,
                "seed": self.seed}

    def _state_arrays(self) -> Dict[str, np.ndarray]:
        return {"counters": self.counters}

    def _load_state_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        self.counters = arrays["counters"].astype(np.int64)

    def to_virtual(self) -> VirtualCounterArray:
        """View the array as degree-1 virtual counters for EM."""
        nonzero = self.counters[self.counters > 0]
        n = nonzero.shape[0]
        return VirtualCounterArray(
            values=nonzero,
            degrees=np.ones(n, dtype=np.int64),
            stages=np.ones(n, dtype=np.int64),
            leaf_width=self.width,
            thetas=[(1 << self.counter_bits) - 2],
            num_empty_leaves=self.width - n,
        )

    def estimate_distribution(self, config: Optional[EMConfig] = None,
                              iterations: Optional[int] = None,
                              callback=None) -> EMResult:
        """Run MRAC's EM and return the flow-size-distribution estimate."""
        with EMEstimator([self.to_virtual()], config=config) as estimator:
            return estimator.run(iterations=iterations, callback=callback)
