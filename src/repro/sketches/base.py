"""Common sketch interfaces.

Two informal protocols cover every structure in this repository:

* :class:`FrequencySketch` — per-flow size estimation (``update`` /
  ``query``), with an optional vectorized bulk path (``ingest`` /
  ``query_many``) used by benchmarks.
* :class:`CardinalitySketch` — distinct-flow counting.

Both protocols include the **mergeable-sketch surface** used by the
parallel ingest pool (:mod:`repro.engine`) and the parallel
collector:

* ``merge(other)`` — fold another identically-configured sketch's
  traffic into this one, losslessly;
* ``to_state()`` / ``from_state(data)`` — serialize the counter state
  through the versioned binary codec (:mod:`repro.engine.codec`) so it
  can cross process (or device) boundaries.

Not every structure supports these: order-dependent sketches (CU, Cold
Filter, HashPipe, Elastic's vote-based filter) have no lossless merge,
and key-carrying eviction tables may have no fixed-geometry encoding.
Such sketches declare the *structural reason* via the
``UNMERGEABLE_REASON`` / ``UNSERIALIZABLE_REASON`` class attributes and
the default implementations raise
:class:`~repro.errors.SketchCompatibilityError` carrying it — callers
always get a typed, explanatory error instead of ``AttributeError``.

Serializable sketches implement three small hooks instead of the codec
plumbing: ``_state_meta()`` (configuration: geometry + seeds, compared
field-by-field on load), ``_state_arrays()`` (the raw counter arrays)
and ``_load_state_arrays(arrays)``; the base class supplies
``to_state`` / ``from_state`` on top.

Sketches are sized by a memory budget in bytes, mirroring the paper's
"same total memory" comparisons, and report the memory they actually
allocated via :attr:`memory_bytes`.  The canonical constructor shape is
``Sketch(memory_bytes, ..., seed=0, telemetry=None)``.
"""

from __future__ import annotations

import abc
from typing import Dict, Iterable, Optional, Set

import numpy as np


from repro.errors import SketchCompatibilityError, SketchMemoryError

__all__ = [
    "FrequencySketch",
    "CardinalitySketch",
    "SketchMemoryError",
    "SketchCompatibilityError",
    "counters_for_budget",
    "as_key_array",
]


def as_key_array(keys) -> np.ndarray:
    """Normalize flow keys to a ``uint64`` array without double copies.

    Accepts numpy arrays (converted in place when already integral),
    plain lists/tuples (one ``np.asarray`` — previously several call
    sites wrapped lists in ``list(...)`` first, copying twice) and
    arbitrary iterables (materialized once).
    """
    if isinstance(keys, np.ndarray):
        return keys.astype(np.uint64, copy=False)
    if isinstance(keys, (list, tuple, range)):
        return np.asarray(keys, dtype=np.uint64)
    return np.fromiter((int(k) for k in keys), dtype=np.uint64)


class MergeableStateMixin:
    """The merge + state-codec surface shared by both sketch protocols.

    Subclasses either:

    * implement ``merge`` and the three ``_state_*`` hooks (and set
      :attr:`STATE_KIND`), or
    * leave the defaults, which raise
      :class:`~repro.errors.SketchCompatibilityError` with the
      structural reason from :attr:`UNMERGEABLE_REASON` /
      :attr:`UNSERIALIZABLE_REASON`.
    """

    #: Family tag written into serialized state; ``None`` means the
    #: sketch has no binary state codec.
    STATE_KIND: Optional[str] = None

    #: Why this structure has no lossless merge (order-dependent
    #: updates, eviction races, ...); shown in the raised error.
    UNMERGEABLE_REASON: Optional[str] = None

    #: Why this structure has no binary state encoding.
    UNSERIALIZABLE_REASON: Optional[str] = None

    # -- merge ---------------------------------------------------------

    def merge(self, other) -> None:
        """Fold ``other``'s traffic into this sketch, losslessly.

        The default raises: a sketch must opt in by overriding, because
        a wrong "merge by adding counters" silently corrupts
        order-dependent structures.
        """
        reason = self.UNMERGEABLE_REASON or (
            "this structure does not define a lossless merge")
        raise SketchCompatibilityError(
            f"{type(self).__name__} cannot merge: {reason}")

    def _require_same_type(self, other) -> None:
        if type(other) is not type(self):
            raise SketchCompatibilityError(
                f"cannot merge {type(other).__name__} into "
                f"{type(self).__name__}")

    # -- state codec ---------------------------------------------------

    def _state_meta(self) -> Dict[str, object]:
        raise NotImplementedError

    def _state_arrays(self) -> Dict[str, np.ndarray]:
        raise NotImplementedError

    def _load_state_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        raise NotImplementedError

    def _codec_unsupported(self) -> SketchCompatibilityError:
        reason = self.UNSERIALIZABLE_REASON or (
            "this structure does not define a binary state encoding")
        return SketchCompatibilityError(
            f"{type(self).__name__} has no state codec: {reason}")

    def to_state(self) -> bytes:
        """Serialize counter state via :mod:`repro.engine.codec`."""
        if self.STATE_KIND is None:
            raise self._codec_unsupported()
        from repro.engine.codec import pack_state
        return pack_state(self.STATE_KIND, self._state_meta(),
                          self._state_arrays())

    def from_state(self, data: bytes):
        """Load a :meth:`to_state` snapshot into this sketch.

        The receiving sketch must already be built with the same
        configuration; family, geometry and seeds are checked field by
        field and a mismatch raises
        :class:`~repro.errors.SketchCompatibilityError`.  Returns
        ``self`` for chaining (``factory().from_state(data)``).
        """
        if self.STATE_KIND is None:
            raise self._codec_unsupported()
        from repro.engine.codec import ensure_compatible_state, unpack_state
        state = unpack_state(data)
        ensure_compatible_state(state, self.STATE_KIND, self._state_meta(),
                                target=type(self).__name__)
        expected = set(self._state_arrays())
        if set(state.arrays) != expected:
            missing = sorted(expected ^ set(state.arrays))
            raise SketchCompatibilityError(
                f"{self.STATE_KIND} state arrays differ: {missing}")
        self._load_state_arrays(state.arrays)
        return self


class FrequencySketch(MergeableStateMixin, abc.ABC):
    """A sketch that estimates per-flow packet counts."""

    #: Machine-readable batch-ingest equivalence contract, read and
    #: enforced by the differential harness.  ``"exact"`` means
    #: ``ingest(batch)`` is bit-identical to the per-packet ``update``
    #: loop in stream order (trivially true for the default loop below
    #: and for order-independent vectorized paths).  Order-dependent
    #: sketches with a batch path declare ``"relaxed"`` and document
    #: the relaxation; see :mod:`repro.sketches.batching`.
    INGEST_CONTRACT: str = "exact"

    #: Invariants a relaxed batch path still guarantees —
    #: machine-readable tags from :mod:`repro.sketches.batching`
    #: (``REORDER_EQUIVALENT``, ``NO_UNDERESTIMATE``).
    INGEST_GUARANTEES: tuple = ()

    #: Human-readable description of how a relaxed batch path may
    #: diverge from the stream-order scalar loop (``None`` for exact).
    INGEST_RELAXATION: Optional[str] = None

    #: The canonical flow visit order behind ``REORDER_EQUIVALENT`` —
    #: ``"key"`` (ascending key) for order-neutral structures,
    #: ``"heavy"`` (descending count) for vote/eviction structures.
    #: See :func:`repro.sketches.batching.aggregate_batch`.
    INGEST_REPLAY_ORDER: str = "key"

    @abc.abstractmethod
    def update(self, key: int, count: int = 1) -> None:
        """Record ``count`` packets of flow ``key``."""

    @abc.abstractmethod
    def query(self, key: int) -> int:
        """Estimate the size of flow ``key``."""

    @property
    @abc.abstractmethod
    def memory_bytes(self) -> int:
        """Memory actually allocated for counters, in bytes."""

    def ingest(self, keys: np.ndarray) -> None:
        """Consume a packet stream (default: per-packet loop).

        Order-independent sketches override this with a vectorized
        implementation; order-dependent ones inherit the loop.
        """
        for key in as_key_array(keys):
            self.update(int(key))

    def ingest_weighted(self, keys: np.ndarray,
                        weights: np.ndarray) -> None:
        """Consume a packet stream counting ``weights`` units per
        packet — e.g. bytes instead of packets (§3.3).

        The default aggregates per flow and applies one weighted
        update, which is exact for order-independent sketches;
        order-dependent structures may override.  Unit weights are
        routed straight through :meth:`ingest` (the subclass's bulk
        path when it has one), and aggregated totals go through a
        vectorized ``add_aggregated`` when the subclass provides it —
        the base no longer always falls back to a per-unique-key
        ``update`` loop.
        """
        keys = as_key_array(keys)
        weights = np.asarray(weights, dtype=np.int64)
        if keys.shape != weights.shape:
            raise ValueError("keys and weights must align")
        if np.any(weights < 0):
            raise ValueError("weights must be non-negative")
        if keys.size == 0:
            return
        if not np.any(weights != 1):
            # Pure packet counting: the bulk ingest path is exact.
            self.ingest(keys)
            return
        uniq, inverse = np.unique(keys, return_inverse=True)
        totals = np.bincount(inverse, weights=weights).astype(np.int64)
        add_aggregated = getattr(self, "add_aggregated", None)
        if callable(add_aggregated):
            add_aggregated(uniq, totals)
            return
        for key, total in zip(uniq, totals):
            self.update(int(key), int(total))

    def query_many(self, keys: Iterable[int]) -> np.ndarray:
        """Estimate sizes for many flows (default: per-key loop)."""
        return np.array([self.query(int(k)) for k in as_key_array(keys)],
                        dtype=np.int64)

    def heavy_hitters(self, candidate_keys: Iterable[int],
                      threshold: int) -> Set[int]:
        """Flows among ``candidate_keys`` estimated at/above ``threshold``.

        The paper's data-plane heavy-hitter query classifies flows by
        their estimated size against a configured threshold (§3.3).  A
        plain frequency sketch cannot enumerate keys, so candidates are
        supplied (in deployment, by the packet stream itself; here, by
        the trace's flow list).  Key-carrying structures (HashPipe,
        Elastic, UnivMon, FCM+TopK) override this to use stored keys.
        """
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        keys = as_key_array(list(candidate_keys))
        estimates = self.query_many(keys)
        return {int(k) for k, est in zip(keys, estimates) if est >= threshold}


class CardinalitySketch(MergeableStateMixin, abc.ABC):
    """A sketch that estimates the number of distinct flows."""

    @abc.abstractmethod
    def update(self, key: int) -> None:
        """Observe one packet of flow ``key``."""

    @abc.abstractmethod
    def cardinality(self) -> float:
        """Estimate the number of distinct flows seen."""

    @property
    @abc.abstractmethod
    def memory_bytes(self) -> int:
        """Memory actually allocated, in bytes."""

    def ingest(self, keys: np.ndarray) -> None:
        """Consume a packet stream (default: per-packet loop)."""
        for key in as_key_array(keys):
            self.update(int(key))


def counters_for_budget(memory_bytes: int, bytes_per_counter: float,
                        minimum: int = 1) -> int:
    """Number of counters fitting in a byte budget; validates the budget."""
    if memory_bytes <= 0:
        raise SketchMemoryError(f"memory budget must be positive, "
                                f"got {memory_bytes}")
    count = int(memory_bytes // bytes_per_counter)
    if count < minimum:
        raise SketchMemoryError(
            f"{memory_bytes} bytes is too small: need at least {minimum} "
            f"counters of {bytes_per_counter} bytes"
        )
    return count
