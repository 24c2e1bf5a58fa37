"""Heavy-change detection (§4.4).

Flows whose sizes differ by more than a threshold between two adjacent
time windows.  The paper's observation: if the *change* exceeds the
threshold then at least one of the two sizes does too, so it suffices to

1. collect candidate heavy flows (size above threshold) in each window,
2. compare the two windows' count-queries for every candidate,
3. report flows whose estimated change exceeds the threshold.
"""

from __future__ import annotations

from typing import Iterable, Set

import numpy as np

from repro.sketches.base import as_key_array


class HeavyChangeDetector:
    """Compares two collected data-plane sketches for heavy changes.

    Both sketches must expose ``query_many(keys)`` and
    ``heavy_hitters``; plain FCM-Sketch, FCM+TopK and every baseline
    sketch qualify.

    Args:
        previous: the sketch collected for the earlier window.
        current: the sketch collected for the later window.
    """

    def __init__(self, previous, current):
        self.previous = previous
        self.current = current

    def candidates(self, candidate_keys: Iterable[int],
                   threshold: int) -> Set[int]:
        """Flows above the threshold in either window (step 1)."""
        keys = as_key_array(candidate_keys)
        return (self.previous.heavy_hitters(keys, threshold)
                | self.current.heavy_hitters(keys, threshold))

    def detect(self, candidate_keys: Iterable[int],
               threshold: int) -> Set[int]:
        """Flows whose estimated size changed by >= ``threshold``."""
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        keys = np.fromiter(self.candidates(candidate_keys, threshold),
                           dtype=np.uint64)
        if keys.size == 0:
            return set()
        # As signed integers, so that a drop cannot wrap around.
        after = np.asarray(self.current.query_many(keys), dtype=np.int64)
        before = np.asarray(self.previous.query_many(keys), dtype=np.int64)
        return set(keys[np.abs(after - before) >= threshold].tolist())
