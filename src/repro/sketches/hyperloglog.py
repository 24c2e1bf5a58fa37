"""HyperLogLog (Flajolet et al. [27]).

The task-specific cardinality baseline of Figure 6d, implemented as in
the paper's setup with an 8-bit register array.  Includes the standard
small-range (Linear-Counting) and large-range corrections from the
original paper.
"""

from __future__ import annotations

import math

import numpy as np

from typing import Dict

from repro.hashing import HashFamily
from repro.sketches.base import (
    CardinalitySketch,
    SketchCompatibilityError,
    counters_for_budget,
    distinct_keys,
)


def _alpha(m: int) -> float:
    """The bias-correction constant alpha_m from the HLL paper."""
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1 + 1.079 / m)


class HyperLogLog(CardinalitySketch):
    """HyperLogLog over ``m = 2^p`` 8-bit registers.

    Args:
        memory_bytes: register budget (1 byte per register); rounded
            down to the nearest power of two, as HLL requires.
        seed: hash seed.
        telemetry: optional metrics registry.
    """

    STATE_KIND = "hll"

    def __init__(self, memory_bytes: int, seed: int = 0, telemetry=None):
        budget = counters_for_budget(memory_bytes, 1, minimum=16)
        self.precision = int(math.floor(math.log2(budget)))
        self.num_registers = 1 << self.precision
        self.registers = np.zeros(self.num_registers, dtype=np.uint8)
        self.seed = seed
        self._telemetry = telemetry
        self._hash = HashFamily(seed)

    @property
    def memory_bytes(self) -> int:
        return self.num_registers

    def update(self, key: int) -> None:
        h = self._hash.hash64(key)
        idx = h >> (64 - self.precision)
        remainder = (h << self.precision) & 0xFFFFFFFFFFFFFFFF
        # rho: position of the leftmost 1-bit in the remaining 64-p bits.
        window_bits = 64 - self.precision
        window = remainder >> self.precision
        if window == 0:
            rho = window_bits + 1
        else:
            rho = window_bits - int(window).bit_length() + 1
        if rho > self.registers[idx]:
            self.registers[idx] = rho

    def ingest(self, keys: np.ndarray) -> None:
        uniq = distinct_keys(keys)  # duplicates cannot change any register
        h = self._hash.hash64(uniq)
        idx = (h >> np.uint64(64 - self.precision)).astype(np.int64)
        window_bits = 64 - self.precision
        window = (h << np.uint64(self.precision)) >> np.uint64(self.precision)
        # leading-zero count within the window, via 32-bit-safe log2.
        high = (window >> np.uint64(32)).astype(np.float64)
        low = (window & np.uint64(0xFFFFFFFF)).astype(np.float64)
        bit_length = np.zeros(window.shape, dtype=np.int64)
        has_high = high > 0
        has_low = (~has_high) & (low > 0)
        bit_length[has_high] = (
            np.floor(np.log2(high[has_high])).astype(np.int64) + 33
        )
        bit_length[has_low] = (
            np.floor(np.log2(low[has_low])).astype(np.int64) + 1
        )
        rho = (window_bits - bit_length + 1).astype(np.uint8)
        np.maximum.at(self.registers, idx, rho)

    def merge(self, other: "HyperLogLog") -> None:
        """Merge an identically-configured HLL (register-wise max)."""
        self._require_same_type(other)
        if (self.precision, self.seed) != (other.precision, other.seed):
            raise SketchCompatibilityError(
                "cannot merge HyperLogLog instances with different "
                "precision or seed")
        np.maximum(self.registers, other.registers, out=self.registers)

    # -- state codec ---------------------------------------------------

    def _state_meta(self) -> Dict[str, object]:
        return {"precision": self.precision, "seed": self.seed}

    def _state_arrays(self) -> Dict[str, np.ndarray]:
        return {"registers": self.registers}

    def _load_state_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        self.registers = arrays["registers"].astype(np.uint8)

    def cardinality(self) -> float:
        m = self.num_registers
        registers = self.registers.astype(np.float64)
        estimate = _alpha(m) * m * m / np.sum(2.0 ** (-registers))
        if estimate <= 2.5 * m:
            zeros = int(np.count_nonzero(self.registers == 0))
            if zeros:
                return m * math.log(m / zeros)
        if estimate > (1 << 32) / 30.0:
            return -(1 << 32) * math.log(1 - estimate / (1 << 32))
        return float(estimate)
