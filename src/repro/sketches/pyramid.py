"""PyramidSketch combined with Count-Min — "PCM" (Yang et al. [60]).

The counter-sharing baseline of Figure 6.  PyramidSketch stores a
flow's count in place-value form across a pyramid of layers:

* layer 1 — ``w1`` pure 4-bit counters holding the low-order bits;
* layer ``l >= 2`` — ``w1 / 2^(l-1)`` hybrid counters: 2 flag bits
  (left/right child ever carried) + 2 counting bits holding the next
  higher-order bits.

Incrementing a saturated counter wraps it and ripple-carries into the
parent (index ``// 2``), setting the child-side flag.  A query
reconstructs the count by climbing while its child-side flag is set:

    count = v1 + v2 * 2^4 + v3 * 2^6 + v4 * 2^8 + ...

Both children of a node share its high-order bits, which is where
Pyramid's collision error comes from.  Per §7.2 the paper runs PCM with
4 layer-1 hashes (query = min over hashes) and 4-bit counters.

Carries are deterministic in the per-counter increment totals, so
ingest is vectorized layer by layer (same argument as FCM, DESIGN.md).
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from repro.hashing.family import hash_families
from repro.sketches.base import (
    FrequencySketch,
    SketchCompatibilityError,
    SketchMemoryError,
    as_key_array,
)


class PyramidCMSketch(FrequencySketch):
    """PyramidSketch with CM-style (min over hashes) queries.

    The original's word acceleration co-locates a counter with its
    ancestors inside one machine word so an update costs a single
    memory access; it does not change which counters a flow hashes to,
    so this simulation keeps the plain layered layout (the accuracy is
    identical) while the 64-bit word granularity still quantizes the
    layer-1 array size.

    Args:
        memory_bytes: total budget across all layers (a full pyramid
            costs ~2x the first layer, so ``w1 ~= memory_bits / 8``).
        depth: in-word counter choices per flow (paper: 4).
        first_layer_bits: bits of a layer-1 counter (paper: 4).
        higher_layer_bits: total bits of a higher-layer counter,
            including its 2 flag bits (paper: 4, i.e. 2 counting bits).
        word_bits: machine-word size confining the layer-1 counters.
        seed: base hash seed.
        telemetry: optional metrics registry.
    """

    STATE_KIND = "pyramid"

    def __init__(self, memory_bytes: int, depth: int = 4,
                 first_layer_bits: int = 4, higher_layer_bits: int = 4,
                 word_bits: int = 64, seed: int = 0, telemetry=None):
        if depth <= 0:
            raise ValueError("depth must be positive")
        if first_layer_bits < 2 or higher_layer_bits < 3:
            raise ValueError("counter widths too small")
        if word_bits % first_layer_bits:
            raise ValueError("word_bits must be a multiple of "
                             "first_layer_bits")
        self.depth = depth
        self.first_layer_bits = first_layer_bits
        self.count_bits_high = higher_layer_bits - 2
        self.counters_per_word = word_bits // first_layer_bits

        bits_budget = memory_bytes * 8
        # A geometric pyramid costs w1*b1 + w1/2*bh + w1/4*bh + ...
        # ~= w1 * (b1 + bh); solve for w1.
        w1 = int(bits_budget // (first_layer_bits + higher_layer_bits))
        w1 -= w1 % self.counters_per_word  # whole words only
        if w1 < self.counters_per_word:
            raise SketchMemoryError(f"{memory_bytes}B too small for a pyramid")
        self.num_words = w1 // self.counters_per_word
        self.layer_widths: List[int] = [w1]
        used_bits = w1 * first_layer_bits
        width = (w1 + 1) // 2
        while width >= 1 and used_bits + width * higher_layer_bits \
                <= bits_budget:
            self.layer_widths.append(width)
            used_bits += width * higher_layer_bits
            if width == 1:
                break
            width = (width + 1) // 2
        self._used_bits = used_bits
        self.num_layers = len(self.layer_widths)
        self._layer1_totals = np.zeros(w1, dtype=np.int64)
        self.seed = seed
        self._telemetry = telemetry
        self._hashes = hash_families(depth, base_seed=seed)
        self._values: List[np.ndarray] | None = None
        self._flags: List[np.ndarray] | None = None  # per-child carry flag

    def _leaf_indices(self, key: int) -> List[int]:
        """The flow's ``depth`` layer-1 counters (CM-style)."""
        w1 = self.layer_widths[0]
        return [h.index(key, w1) for h in self._hashes]

    def _leaf_indices_many(self, keys: np.ndarray) -> List[np.ndarray]:
        w1 = self.layer_widths[0]
        return [h.index(keys, w1) for h in self._hashes]

    @property
    def memory_bytes(self) -> int:
        return (self._used_bits + 7) // 8

    def update(self, key: int, count: int = 1) -> None:
        if count < 0:
            raise ValueError("count must be non-negative")
        for idx in self._leaf_indices(int(key)):
            self._layer1_totals[idx] += count
        self._values = None

    def ingest(self, keys: np.ndarray) -> None:
        keys = as_key_array(keys)
        uniq, counts = np.unique(keys, return_counts=True)
        self.add_aggregated(uniq, counts)

    def add_aggregated(self, keys: np.ndarray, counts: np.ndarray) -> None:
        """Add pre-aggregated (key, count) pairs (vectorized)."""
        keys = as_key_array(keys)
        counts = np.asarray(counts, dtype=np.int64)
        for idx in self._leaf_indices_many(keys):
            np.add.at(self._layer1_totals, idx, counts)
        self._values = None

    def merge(self, other: "PyramidCMSketch") -> None:
        """Merge an identically-configured pyramid.

        Carries are deterministic in the per-counter totals, so adding
        the layer-1 totals is lossless — same argument as bulk ingest.
        """
        self._require_same_type(other)
        if (self.layer_widths, self.depth, self.first_layer_bits,
                self.count_bits_high, self.seed) != \
                (other.layer_widths, other.depth, other.first_layer_bits,
                 other.count_bits_high, other.seed):
            raise SketchCompatibilityError(
                "cannot merge PyramidCMSketch instances with different "
                "geometry or seed")
        self._layer1_totals += other._layer1_totals
        self._values = None

    # -- state codec ---------------------------------------------------

    def _state_meta(self) -> Dict[str, object]:
        return {"layer_widths": list(self.layer_widths),
                "depth": self.depth,
                "first_layer_bits": self.first_layer_bits,
                "count_bits_high": self.count_bits_high,
                "seed": self.seed}

    def _state_arrays(self) -> Dict[str, np.ndarray]:
        return {"layer1_totals": self._layer1_totals}

    def _load_state_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        self._layer1_totals = arrays["layer1_totals"].astype(np.int64)
        self._values = None

    def _materialize(self) -> None:
        """Derive per-layer stored digits and child-carry flags."""
        if self._values is not None:
            return
        values: List[np.ndarray] = []
        child_carried: List[np.ndarray] = []  # aligned with the *child*
        totals = self._layer1_totals
        bits = self.first_layer_bits
        for layer in range(self.num_layers):
            width = self.layer_widths[layer]
            last = layer == self.num_layers - 1
            if last:
                # The top layer keeps everything (64-bit accumulator).
                values.append(totals.copy())
                child_carried.append(np.zeros(width, dtype=bool))
                break
            cap = (1 << bits) - 1
            values.append(totals & cap)
            carries = totals >> bits
            child_carried.append(carries > 0)
            next_width = self.layer_widths[layer + 1]
            padded = carries
            if padded.shape[0] < next_width * 2:
                padded = np.pad(padded,
                                (0, next_width * 2 - padded.shape[0]))
            totals = padded[:next_width * 2].reshape(-1, 2).sum(axis=1)
            bits = self.count_bits_high
        self._values = values
        self._flags = child_carried

    def _shifts(self) -> List[int]:
        """Bit position of each layer's digits in the reconstruction."""
        shifts = [0]
        acc = self.first_layer_bits
        for _ in range(1, self.num_layers):
            shifts.append(acc)
            acc += self.count_bits_high
        return shifts

    def _reconstruct(self, index: int) -> int:
        self._materialize()
        assert self._values is not None and self._flags is not None
        shifts = self._shifts()
        acc = int(self._values[0][index]) << shifts[0]
        idx = index
        for layer in range(1, self.num_layers):
            if not self._flags[layer - 1][idx]:
                break
            idx //= 2
            acc += int(self._values[layer][idx]) << shifts[layer]
        return acc

    def query(self, key: int) -> int:
        return min(self._reconstruct(idx)
                   for idx in self._leaf_indices(int(key)))

    def query_many(self, keys: Iterable[int]) -> np.ndarray:
        keys = as_key_array(keys)
        self._materialize()
        assert self._values is not None and self._flags is not None
        shifts = self._shifts()
        best = np.full(keys.shape, np.iinfo(np.int64).max, dtype=np.int64)
        for idx in self._leaf_indices_many(keys):
            acc = self._values[0][idx].astype(np.int64)
            active = np.ones(keys.shape, dtype=bool)
            current = idx.copy()
            for layer in range(1, self.num_layers):
                active = active & self._flags[layer - 1][current]
                # Halve every lane (stale lanes are masked out but must
                # stay in bounds for the vectorized reads).
                current = current // 2
                if not active.any():
                    break
                acc[active] += (self._values[layer][current[active]]
                                << shifts[layer])
            np.minimum(best, acc, out=best)
        return best
