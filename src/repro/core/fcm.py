"""FCM-Sketch: the multi-tree data-plane structure (§3).

A drop-in substitute for Count-Min: ``d`` independent k-ary trees, each
updated through its own hash function; the count-query is the minimum
over the per-tree estimates.  Data-plane queries supported at line-rate
(§3.3):

* flow-size estimation (count-query),
* heavy-hitter detection (count-query against a threshold),
* cardinality via Linear Counting on stage-1 occupancy.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.core.config import FCMConfig
from repro.core.tree import FCMTree
from repro.hashing.family import hash_families
from repro.sketches.base import (
    FrequencySketch,
    SketchCompatibilityError,
    as_key_array,
)
from repro.sketches.linear_counting import linear_counting_estimate
from repro.telemetry import MetricsRegistry
from repro.telemetry.tracing import maybe_span


class FCMSketch(FrequencySketch):
    """Feed-forward Count-Min sketch (the paper's FCM-Sketch).

    Build either from an explicit config with derived widths, or with
    the convenience constructor :meth:`with_memory`.

    Example:
        >>> sketch = FCMSketch.with_memory(64 * 1024)
        >>> sketch.update(42, count=3)
        >>> sketch.query(42)
        3
    """

    STATE_KIND = "fcm"

    def __init__(self, config: FCMConfig,
                 telemetry: Optional[MetricsRegistry] = None,
                 name: str = "fcm"):
        if not config.stage_widths:
            raise ValueError("config must have stage widths; "
                             "use FCMConfig.with_memory() or "
                             "FCMSketch.with_memory()")
        self.config = config
        families = hash_families(config.num_trees, base_seed=config.seed)
        self.trees: List[FCMTree] = [
            FCMTree(config, family) for family in families
        ]
        self._telemetry = telemetry
        self._tname = name

    @classmethod
    def with_memory(cls, memory_bytes: int, num_trees: int = 2, k: int = 8,
                    stage_bits: tuple = (8, 16, 32),
                    seed: int = 0,
                    telemetry: Optional[MetricsRegistry] = None,
                    name: str = "fcm") -> "FCMSketch":
        """Build an FCM-Sketch sized to a total memory budget."""
        config = FCMConfig(
            num_trees=num_trees, k=k, stage_bits=tuple(stage_bits), seed=seed
        ).with_memory(memory_bytes)
        return cls(config, telemetry=telemetry, name=name)

    @property
    def memory_bytes(self) -> int:
        return self.config.memory_bytes

    @property
    def num_trees(self) -> int:
        return len(self.trees)

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    def update(self, key: int, count: int = 1) -> None:
        """Record ``count`` packets of flow ``key`` in every tree."""
        for tree in self.trees:
            tree.update(key, count)
        t = self._telemetry
        if t is not None:
            t.inc(f"{self._tname}.ingest.packets", count)

    def ingest(self, keys: np.ndarray) -> None:
        """Bulk-load a packet stream (vectorized per tree)."""
        keys = np.asarray(keys, dtype=np.uint64)
        t = self._telemetry
        with maybe_span(t, f"{self._tname}.ingest",
                        packets=int(keys.size)):
            for tree in self.trees:
                tree.ingest(keys)
        if t is not None:
            t.inc(f"{self._tname}.ingest.calls")
            t.inc(f"{self._tname}.ingest.packets", int(keys.size))
            t.emit("sketch", f"{self._tname}.ingest",
                   packets=int(keys.size),
                   total_packets=self.total_packets)

    def ingest_weighted(self, keys: np.ndarray,
                        weights: np.ndarray) -> None:
        """Bulk-load with per-packet weights, e.g. byte counts (§3.3)."""
        keys = np.asarray(keys, dtype=np.uint64)
        t = self._telemetry
        with maybe_span(t, f"{self._tname}.ingest",
                        packets=int(np.asarray(weights).sum())):
            for tree in self.trees:
                tree.ingest(keys, weights=weights)
        if t is not None:
            t.inc(f"{self._tname}.ingest.calls")
            t.inc(f"{self._tname}.ingest.packets",
                  int(np.asarray(weights).sum()))

    def merge(self, other: "FCMSketch") -> None:
        """Merge another identically-configured sketch's traffic.

        FCM state is additive (per-leaf totals), so sketches of the
        same configuration and seed collected at different vantage
        points — or across measurement sub-windows — merge losslessly:
        the result equals a single sketch that saw both streams.
        """
        self._require_same_type(other)
        if other.config != self.config:
            raise SketchCompatibilityError(
                "cannot merge FCMSketch instances with different "
                "configurations")
        for mine, theirs in zip(self.trees, other.trees):
            mine.merge_from(theirs)
        t = self._telemetry
        if t is not None:
            t.inc(f"{self._tname}.merges")

    # ------------------------------------------------------------------
    # state codec
    # ------------------------------------------------------------------

    def _state_meta(self) -> Dict[str, object]:
        return {"num_trees": self.config.num_trees, "k": self.config.k,
                "stage_bits": list(self.config.stage_bits),
                "stage_widths": list(self.config.stage_widths),
                "seed": self.config.seed}

    def _state_arrays(self) -> Dict[str, np.ndarray]:
        return {f"tree{i}": tree._leaf_totals
                for i, tree in enumerate(self.trees)}

    def _load_state_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        for i, tree in enumerate(self.trees):
            tree._leaf_totals = arrays[f"tree{i}"].astype(np.int64)
            tree._stage_values = None

    # ------------------------------------------------------------------
    # data-plane queries (§3.3)
    # ------------------------------------------------------------------

    def query(self, key: int) -> int:
        """Flow-size estimate: minimum count-query over the trees."""
        t = self._telemetry
        if t is not None:
            t.inc(f"{self._tname}.query.keys")
        return min(tree.query(key) for tree in self.trees)

    def query_many(self, keys: Iterable[int]) -> np.ndarray:
        keys = as_key_array(keys)
        t = self._telemetry
        if t is not None:
            t.inc(f"{self._tname}.query.calls")
            t.inc(f"{self._tname}.query.keys", int(keys.size))
        with maybe_span(t, f"{self._tname}.query",
                        keys=int(keys.size)):
            estimate = self.trees[0].query_many(keys)
            for tree in self.trees[1:]:
                np.minimum(estimate, tree.query_many(keys), out=estimate)
        return estimate

    def cardinality(self) -> float:
        """Linear-Counting estimate from stage-1 occupancy (§3.3).

        ``n̂ = -w1 * ln(w0/w1)`` with ``w0`` the average number of empty
        leaves across trees.
        """
        w1 = self.config.leaf_width
        avg_empty = float(np.mean([tree.empty_leaves for tree in self.trees]))
        # A fully-saturated stage 1 makes LC undefined; clamp to 1 empty
        # cell, the estimator's maximum-resolvable point.
        avg_empty = max(avg_empty, 1.0)
        return linear_counting_estimate(avg_empty, w1)

    @property
    def total_packets(self) -> int:
        """Total increments seen (identical across trees)."""
        return self.trees[0].total_increments

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------

    def attach_telemetry(self, telemetry: Optional[MetricsRegistry],
                         name: Optional[str] = None) -> "FCMSketch":
        """Attach (or detach, with ``None``) a metrics registry."""
        self._telemetry = telemetry
        if name is not None:
            self._tname = name
        return self

    def state_snapshot(self) -> Dict[str, object]:
        """Structural health of the sketch, straight from the trees.

        Per tree: per-stage occupancy fractions, per-stage counts of
        sentinel (overflowed/saturated) nodes, and empty stage-1
        leaves.  This is what :meth:`emit_state` publishes; it is also
        usable without any telemetry attached.
        """
        return {
            "total_packets": self.total_packets,
            "trees": [
                {
                    "occupancy": tree.occupancy(),
                    "overflows": tree.overflow_counts(),
                    "empty_leaves": tree.empty_leaves,
                }
                for tree in self.trees
            ],
        }

    def emit_state(self) -> Dict[str, object]:
        """Publish :meth:`state_snapshot` as gauges plus one event.

        Gauge names follow ``<name>.tree<i>.stage<s>.occupancy`` /
        ``.overflows``; the event carries the full nested snapshot.
        Returns the snapshot either way.
        """
        t = self._telemetry
        with maybe_span(t, f"{self._tname}.emit_state"):
            state = self.state_snapshot()
        if t is not None:
            for i, tree_state in enumerate(state["trees"]):
                for s, (occ, ovf) in enumerate(zip(tree_state["occupancy"],
                                                   tree_state["overflows"])):
                    t.set_gauge(f"{self._tname}.tree{i}.stage{s + 1}"
                                f".occupancy", occ)
                    t.set_gauge(f"{self._tname}.tree{i}.stage{s + 1}"
                                f".overflows", ovf)
                t.set_gauge(f"{self._tname}.tree{i}.empty_leaves",
                            tree_state["empty_leaves"])
            t.set_gauge(f"{self._tname}.total_packets",
                        state["total_packets"])
            t.emit("sketch", f"{self._tname}.state", **state)
        return state
