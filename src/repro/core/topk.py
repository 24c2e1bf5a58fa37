"""Top-K heavy-flow filter and FCM+TopK (§6).

ElasticSketch's Top-K algorithm keeps candidate heavy flows in key-value
hash-table levels with a vote-based eviction rule; the residual (mouse)
traffic is forwarded to a sketch.  The paper shows that backing the
filter with an FCM-Sketch instead of Elastic's 8-bit CM-Sketch
(``FCM+TopK``) both tightens the error bound (Theorem 6.1) and frees
most of the Top-K memory for the sketch.

Per §7.2, FCM+TopK uses a *single* Top-K level of 4K entries and a
16-ary FCM-Sketch.  The hardware variant (§8.1) cannot atomically swap
the evicted key/count out through the PHV, so on eviction the incoming
key inherits the incumbent's count (overestimate-only, slightly less
accurate — Figure 13); set ``migrate_on_evict=False`` for that mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

import repro.sketches.batching as batching
from repro.core.config import FCMConfig
from repro.core.fcm import FCMSketch
from repro.hashing.family import hash_families
from repro.sketches.base import (
    FrequencySketch,
    SketchMemoryError,
    as_key_array,
)
from repro.telemetry.tracing import maybe_span

BUCKET_BYTES = 13
"""Per-bucket cost: 8B key fingerprint + 4B vote+ + 1B vote-/flag."""


@dataclass
class _Bucket:
    """One Top-K entry."""

    key: int
    positive_votes: int
    negative_votes: int
    flagged: bool  # True if part of this flow's count lives in the sketch


class TopKFilter:
    """Elastic-style Top-K candidate-heavy-flow filter.

    Args:
        entries_per_level: buckets per hash-table level.
        levels: number of levels (Elastic software: 4; hardware: 1).
        lambda_ratio: eviction threshold on vote-/vote+ (Elastic: 8).
        migrate_on_evict: if True, the evicted flow's accumulated count
            is exported through ``on_miss`` (software behaviour); if
            False, the new key inherits it (hardware approximation).
        seed: hash seed.
    """

    def __init__(self, entries_per_level: int = 4096, levels: int = 1,
                 lambda_ratio: int = 8, migrate_on_evict: bool = True,
                 seed: int = 0):
        if entries_per_level <= 0 or levels <= 0:
            raise ValueError("entries and levels must be positive")
        if lambda_ratio <= 0:
            raise ValueError("lambda_ratio must be positive")
        self.entries_per_level = entries_per_level
        self.levels = levels
        self.lambda_ratio = lambda_ratio
        self.migrate_on_evict = migrate_on_evict
        self._tables: List[Dict[int, _Bucket]] = [dict() for _ in range(levels)]
        self._hashes = hash_families(levels, base_seed=seed + 104729)

    @property
    def memory_bytes(self) -> int:
        """Allocated table memory (buckets are fixed-size in hardware)."""
        return self.levels * self.entries_per_level * BUCKET_BYTES

    def _slot(self, level: int, key: int) -> int:
        return self._hashes[level].index(key, self.entries_per_level)

    def insert(self, key: int,
               on_miss: Callable[[int, int], None]) -> None:
        """Process one packet of ``key``.

        ``on_miss(key, count)`` receives whatever must be recorded in
        the backing sketch: the packet itself when the filter rejects
        it, and the evicted flow's accumulated count on migration.
        """
        for level in range(self.levels):
            table = self._tables[level]
            slot = self._slot(level, key)
            bucket = table.get(slot)
            if bucket is None:
                table[slot] = _Bucket(key=key, positive_votes=1,
                                      negative_votes=0, flagged=False)
                return
            if bucket.key == key:
                bucket.positive_votes += 1
                return
            bucket.negative_votes += 1
            if bucket.negative_votes >= self.lambda_ratio * bucket.positive_votes:
                if self.migrate_on_evict:
                    on_miss(bucket.key, bucket.positive_votes)
                    table[slot] = _Bucket(key=key, positive_votes=1,
                                          negative_votes=1, flagged=True)
                else:
                    # Hardware: the incumbent count stays in the bucket
                    # and is inherited by the new key (overestimate).
                    table[slot] = _Bucket(
                        key=key,
                        positive_votes=bucket.positive_votes + 1,
                        negative_votes=1,
                        flagged=bucket.flagged,
                    )
                return
        # Rejected by every level: the packet goes to the sketch.
        on_miss(key, 1)

    def slot_matrix(self, keys: np.ndarray) -> np.ndarray:
        """Per-level slots for many keys at once (rows: keys)."""
        keys = np.asarray(keys, dtype=np.uint64)
        out = np.empty((keys.shape[0], self.levels), dtype=np.int64)
        for level, h in enumerate(self._hashes):
            out[:, level] = h.index(keys, self.entries_per_level)
        return out

    def insert_run(self, key: int, count: int,
                   on_miss: Callable[[int, int], None],
                   slots: Optional[List[int]] = None) -> int:
        """Process ``count`` consecutive packets of ``key`` at once.

        Bit-identical to ``count`` calls of :meth:`insert` (same table
        state, same ``on_miss`` totals per flow): instead of walking the
        levels per packet, the run is advanced between *eviction
        events*.  Within a phase, each blocking level ``l`` (occupied
        by another key before the run's current settle level) evicts on
        run-packet ``t_l = max(1, λ·vote+ − vote−)``; the first event
        is at ``j* = min t_l``, so packets ``1..j*−1`` settle in bulk,
        packet ``j*`` evicts at the shallowest triggering level (which
        becomes the new, strictly shallower settle level), and the
        phase repeats — at most ``levels`` events per run.

        Returns the number of packets that took the vote/evict slow
        path (0 when the run settled straight into an empty or matching
        bucket — the telemetry fallback measure).
        """
        if count <= 0:
            return 0
        key = int(key)
        if slots is None:
            slots = [self._slot(level, key) for level in range(self.levels)]
        # Fast path: the run settles straight into level 0 (empty slot
        # or same key) — the common case on realistic traffic.
        table = self._tables[0]
        bucket = table.get(slots[0])
        if bucket is None:
            table[slots[0]] = _Bucket(key=key, positive_votes=count,
                                      negative_votes=0, flagged=False)
            return 0
        if bucket.key == key:
            bucket.positive_votes += count
            return 0
        blocking: List[_Bucket] = []
        settle_level = self.levels  # rejected by every level
        settle: Optional[_Bucket] = None
        for level in range(self.levels):
            bucket = self._tables[level].get(slots[level])
            if bucket is None or bucket.key == key:
                settle_level = level
                settle = bucket
                break
            blocking.append(bucket)
        fallback = count if blocking else 0
        remaining = count
        lam = self.lambda_ratio
        while remaining > 0:
            if blocking:
                thresholds = [max(1, lam * b.positive_votes
                                  - b.negative_votes) for b in blocking]
                jstar = min(thresholds)
            else:
                jstar = remaining + 1
            if remaining < jstar:
                # No eviction: every remaining packet passes all
                # blocking levels and settles (or misses outright).
                for bucket in blocking:
                    bucket.negative_votes += remaining
                if settle_level >= self.levels:
                    on_miss(key, remaining)
                elif settle is None:
                    self._tables[settle_level][slots[settle_level]] = _Bucket(
                        key=key, positive_votes=remaining,
                        negative_votes=0, flagged=False)
                else:
                    settle.positive_votes += remaining
                return fallback
            # Eviction event: packet j* evicts at the shallowest
            # triggering level; packets 1..j*−1 settled normally first.
            evict_at = thresholds.index(jstar)
            for i, bucket in enumerate(blocking):
                if i < evict_at:
                    bucket.negative_votes += jstar
                elif i > evict_at:
                    bucket.negative_votes += jstar - 1
            if jstar > 1:
                if settle_level >= self.levels:
                    on_miss(key, jstar - 1)
                elif settle is None:
                    settle = _Bucket(key=key, positive_votes=jstar - 1,
                                     negative_votes=0, flagged=False)
                    self._tables[settle_level][slots[settle_level]] = settle
                else:
                    settle.positive_votes += jstar - 1
            incumbent = blocking[evict_at]
            if self.migrate_on_evict:
                on_miss(incumbent.key, incumbent.positive_votes)
                new_bucket = _Bucket(key=key, positive_votes=1,
                                     negative_votes=1, flagged=True)
            else:
                new_bucket = _Bucket(key=key,
                                     positive_votes=incumbent.positive_votes + 1,
                                     negative_votes=1,
                                     flagged=incumbent.flagged)
            self._tables[evict_at][slots[evict_at]] = new_bucket
            settle_level = evict_at
            settle = new_bucket
            blocking = blocking[:evict_at]
            remaining -= jstar
        return fallback

    def lookup(self, key: int) -> Optional[Tuple[int, bool]]:
        """Return ``(count, flagged)`` if the key is resident."""
        for level in range(self.levels):
            bucket = self._tables[level].get(self._slot(level, key))
            if bucket is not None and bucket.key == key:
                return bucket.positive_votes, bucket.flagged
        return None

    def lookup_many(self, keys) -> Tuple[np.ndarray, np.ndarray,
                                          np.ndarray]:
        """Vectorized :meth:`lookup`: ``(resident, count, flagged)``.

        Three arrays aligned with ``keys``; ``count`` and ``flagged``
        are 0 where ``resident`` is False.  A key can sit in more than
        one level (a run settled deep can later evict a shallower
        incumbent), and as in :meth:`lookup` the first level that
        holds it answers.
        """
        keys = as_key_array(keys)
        resident = np.zeros(keys.shape, dtype=bool)
        count = np.zeros(keys.shape, dtype=np.int64)
        flagged = np.zeros(keys.shape, dtype=bool)
        if keys.size == 0:
            return resident, count, flagged
        slots = self.slot_matrix(keys)
        width = self.entries_per_level
        for level in range(self.levels):
            slot, key, pos, _, flag = self._level_arrays(level)
            if slot.size == 0:
                continue
            # The level's table laid out by slot; empty slots stay
            # unoccupied, so key 0 cannot match one.
            occupied = np.zeros(width, dtype=bool)
            occupied[slot] = True
            level_key = np.zeros(width, dtype=np.uint64)
            level_key[slot] = key
            level_pos = np.zeros(width, dtype=np.int64)
            level_pos[slot] = pos
            level_flag = np.zeros(width, dtype=bool)
            level_flag[slot] = flag
            at = slots[:, level]
            hit = ~resident & occupied[at] & (level_key[at] == keys)
            count[hit] = level_pos[at[hit]]
            flagged[hit] = level_flag[at[hit]]
            resident |= hit
        return resident, count, flagged

    def entries(self) -> Iterable[Tuple[int, int, bool]]:
        """All resident ``(key, count, flagged)`` triples."""
        for table in self._tables:
            for bucket in table.values():
                yield bucket.key, bucket.positive_votes, bucket.flagged

    def resident_keys(self) -> Set[int]:
        """Keys currently held by the filter."""
        return {key for key, _, _ in self.entries()}

    # -- state codec support (used by Elastic / FCM+TopK snapshots) ----

    def state_meta(self) -> Dict[str, object]:
        """Geometry fields for a host sketch's codec meta."""
        return {"topk_entries": self.entries_per_level,
                "topk_levels": self.levels,
                "lambda_ratio": self.lambda_ratio,
                "migrate_on_evict": self.migrate_on_evict}

    def _level_arrays(self, level: int) -> Tuple[np.ndarray, ...]:
        """One level's buckets as ``(slot, key, pos, neg, flag)``
        arrays, in slot order."""
        rows = sorted(self._tables[level].items())
        n = len(rows)

        def column(values, dtype):
            return np.fromiter(values, dtype=dtype, count=n)

        return (column((slot for slot, _ in rows), np.int64),
                column((b.key for _, b in rows), np.uint64),
                column((b.positive_votes for _, b in rows), np.int64),
                column((b.negative_votes for _, b in rows), np.int64),
                column((b.flagged for _, b in rows), np.uint8))

    def state_arrays(self, prefix: str = "topk_") -> Dict[str, np.ndarray]:
        """Resident buckets as flat arrays, ordered by (level, slot)."""
        levels = [self._level_arrays(level) for level in range(self.levels)]
        out = {f"{prefix}level": np.repeat(
            np.arange(self.levels, dtype=np.int64),
            [columns[0].size for columns in levels])}
        for i, name in enumerate(("slot", "key", "pos", "neg", "flag")):
            out[f"{prefix}{name}"] = np.concatenate(
                [columns[i] for columns in levels])
        return out

    def load_state_arrays(self, arrays: Dict[str, np.ndarray],
                          prefix: str = "topk_") -> None:
        """Rebuild the tables from :meth:`state_arrays` output."""
        tables: List[Dict[int, _Bucket]] = [dict() for _ in range(self.levels)]
        for level, slot, key, pos, neg, flag in zip(
                arrays[f"{prefix}level"], arrays[f"{prefix}slot"],
                arrays[f"{prefix}key"], arrays[f"{prefix}pos"],
                arrays[f"{prefix}neg"], arrays[f"{prefix}flag"]):
            tables[int(level)][int(slot)] = _Bucket(
                key=int(key), positive_votes=int(pos),
                negative_votes=int(neg), flagged=bool(flag))
        self._tables = tables


class FCMTopK(FrequencySketch):
    """FCM-Sketch behind an Elastic Top-K filter (the paper's FCM+TopK).

    Args:
        memory_bytes: total budget; the Top-K tables take
            ``levels * entries * 13`` bytes and the FCM-Sketch gets the
            remainder (§6: "a much smaller amount of memory can be
            allocated to the Top-K algorithm").
        k: FCM tree arity (paper default 16 for FCM+TopK).
        num_trees: FCM tree count (paper default 2).
        topk_entries: entries per Top-K level (paper default 4096).
        topk_levels: Top-K levels (paper default 1).
        hardware: use the Tofino-feasible no-migration eviction (§8.1).
        seed: base hash seed.
    """

    STATE_KIND = "fcm_topk"
    INGEST_CONTRACT = batching.RELAXED
    INGEST_GUARANTEES = (batching.REORDER_EQUIVALENT,
                         batching.NO_UNDERESTIMATE)
    INGEST_REPLAY_ORDER = batching.HEAVY_ORDER
    INGEST_RELAXATION = (
        "per-flow run replay in heavy-first order: the batch is "
        "collapsed to per-flow totals, flows visited in descending "
        "count order (heavy flows install their buckets with full "
        "vote mass before lighter flows can contest them), and each "
        "flow's packets are driven through the Top-K filter as one "
        "closed-form run (TopKFilter.insert_run); filter misses are "
        "flushed to the order-independent FCM backing sketch in one "
        "vectorized pass — bit-identical to the scalar update loop "
        "over the heavy-first flow-grouped reordering of the batch, "
        "and in migrate mode never below the true count (hardware "
        "mode re-attributes evicted counts by design, under any "
        "packet order)")
    UNMERGEABLE_REASON = (
        "the Top-K filter's vote-based eviction is order-dependent: "
        "which flows are resident and how much of their count spilled "
        "into the backing FCM depends on packet arrival order across "
        "the whole stream")

    def __init__(self, memory_bytes: int, k: int = 16, num_trees: int = 2,
                 stage_bits: tuple = (8, 16, 32),
                 topk_entries: int | None = None,
                 topk_levels: int = 1, lambda_ratio: int = 8,
                 hardware: bool = False, seed: int = 0,
                 telemetry=None, name: str = "fcm_topk"):
        if topk_entries is None:
            # Paper default is 4K entries at MB-scale budgets; at smaller
            # budgets keep the filter to ~1/8 of total memory.
            topk_entries = min(
                4096,
                max(64, int(memory_bytes * 0.125
                            / (BUCKET_BYTES * topk_levels))),
            )
        self.topk = TopKFilter(
            entries_per_level=topk_entries,
            levels=topk_levels,
            lambda_ratio=lambda_ratio,
            migrate_on_evict=not hardware,
            seed=seed,
        )
        sketch_budget = memory_bytes - self.topk.memory_bytes
        if sketch_budget <= 0:
            raise SketchMemoryError(
                f"budget {memory_bytes}B cannot fit Top-K tables of "
                f"{self.topk.memory_bytes}B"
            )
        config = FCMConfig(
            num_trees=num_trees, k=k, stage_bits=tuple(stage_bits), seed=seed
        ).with_memory(sketch_budget)
        self.fcm = FCMSketch(config, telemetry=telemetry,
                             name=f"{name}.fcm")
        self.hardware = hardware
        if hardware:
            # Hardware eviction re-attributes the incumbent's count to
            # the new key, so evicted flows can be underestimated —
            # under any packet order.  The instance drops the tag the
            # migrate-mode class declares.
            self.INGEST_GUARANTEES = (batching.REORDER_EQUIVALENT,)
        self.seed = seed
        self._telemetry = telemetry
        self._tname = name

    @property
    def memory_bytes(self) -> int:
        return self.topk.memory_bytes + self.fcm.memory_bytes

    def update(self, key: int, count: int = 1) -> None:
        """Process ``count`` packets of flow ``key`` through the filter."""
        if count < 0:
            raise ValueError("count must be non-negative")
        for _ in range(count):
            self.topk.insert(int(key), self._to_sketch)

    def _to_sketch(self, key: int, count: int) -> None:
        self.fcm.update(key, count)

    def ingest(self, keys: np.ndarray) -> None:
        """Per-flow run replay through the Top-K filter.

        The batch is collapsed to per-flow totals in heavy-first
        (descending-count) order and each flow is driven through the
        filter as one closed-form run (:meth:`TopKFilter.insert_run`,
        bit-identical to that many consecutive ``insert`` calls).
        Heavy flows install their buckets with full vote mass before
        lighter flows can contest them — the residency the filter is
        designed to converge to.  Everything the filter rejects or
        evicts is buffered and flushed to the backing FCM — which is
        order-independent — in one vectorized ``ingest_weighted``
        pass, so the combined state matches the scalar loop over the
        heavy-first flow-grouped reordering of the batch exactly.
        """
        keys = batching.require_key_batch(keys, "FCMTopK.ingest")
        packets = int(keys.shape[0])
        t = self._telemetry
        fallback = 0
        with maybe_span(t, f"{self._tname}.ingest", packets=packets):
            if packets:
                uniq, counts = batching.aggregate_batch(
                    keys, order=batching.HEAVY_ORDER)
                slot_rows = self.topk.slot_matrix(uniq).tolist()
                miss_keys: List[int] = []
                miss_counts: List[int] = []

                def buffer_miss(key: int, count: int) -> None:
                    miss_keys.append(key)
                    miss_counts.append(count)

                insert_run = self.topk.insert_run
                for key, count, slots in zip(uniq.tolist(),
                                             counts.tolist(), slot_rows):
                    fallback += insert_run(key, count, buffer_miss, slots)
                if miss_keys:
                    self.fcm.ingest_weighted(
                        np.asarray(miss_keys, dtype=np.uint64),
                        np.asarray(miss_counts, dtype=np.int64))
        batching.record_batch_telemetry(t, self._tname, packets, fallback)

    def query(self, key: int) -> int:
        """Top-K count plus the sketch residue when flagged (§6)."""
        key = int(key)
        resident = self.topk.lookup(key)
        if resident is None:
            return self.fcm.query(key)
        count, flagged = resident
        if flagged:
            return count + self.fcm.query(key)
        return count

    def query_many(self, keys: Iterable[int]) -> np.ndarray:
        """Vectorized :meth:`query`, bit-identical to it per key."""
        keys = as_key_array(keys)
        estimates = self.fcm.query_many(keys)
        resident, count, flagged = self.topk.lookup_many(keys)
        return np.where(resident, count + flagged * estimates, estimates)

    def heavy_hitters(self, candidate_keys: Iterable[int],
                      threshold: int) -> Set[int]:
        """Heavy hitters from resident keys plus sketch estimates."""
        residents = np.fromiter((key for key, _, _ in self.topk.entries()),
                                dtype=np.uint64)
        return super().heavy_hitters(
            np.concatenate([residents, as_key_array(candidate_keys)]),
            threshold)

    def cardinality(self) -> float:
        """LC on FCM stage 1 plus Top-K keys the sketch never saw."""
        unseen_residents = sum(
            1 for _, _, flagged in self.topk.entries() if not flagged
        )
        return self.fcm.cardinality() + unseen_residents

    def heavy_entries(self) -> List[Tuple[int, int, bool]]:
        """Resident Top-K entries (for control-plane distribution)."""
        return list(self.topk.entries())

    # -- state codec (snapshot only; merge intentionally raises) -------

    def _state_meta(self) -> Dict[str, object]:
        meta = {"seed": self.seed, "hardware": self.hardware}
        meta.update(self.topk.state_meta())
        meta.update({f"fcm_{k}": v
                     for k, v in self.fcm._state_meta().items()})
        return meta

    def _state_arrays(self) -> Dict[str, np.ndarray]:
        arrays = self.topk.state_arrays()
        arrays.update({f"fcm_{k}": v
                       for k, v in self.fcm._state_arrays().items()})
        return arrays

    def _load_state_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        self.topk.load_state_arrays(arrays)
        self.fcm._load_state_arrays({
            k[len("fcm_"):]: v for k, v in arrays.items()
            if k.startswith("fcm_")
        })
