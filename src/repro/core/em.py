"""Expectation-Maximization over virtual counters (§4.2-§4.3, App. A).

Given the virtual counter arrays of an FCM-Sketch, EM recovers the
flow-size distribution ``phi`` and total flow count ``n`` under the
latent hash collisions:

* **E-step** — for every virtual counter of value ``V`` and degree
  ``xi``, compute the posterior over the combinations
  ``Omega(V, xi)`` of flow sizes that could have produced it.  A
  combination is a multiset of flow sizes summing to ``V`` that
  (a) contains at least ``xi`` flows and (b) can be split into ``xi``
  per-leaf groups each large enough to overflow its leaf
  (``>= theta_1 + 1``), the paper's two feasibility constraints.
  The prior of a combination is a product of Poisson terms with rate
  ``n * phi_j * xi / w1`` (§4.3).
* **M-step** — the new ``n_j`` is the posterior-expected number of
  size-``j`` flows summed over counters, averaged over trees (Eqn. 5).

Complexity-reduction heuristic (§4.3): enumerating all combinations is
infeasible, so — exactly as MRAC [38] and the paper do — enumeration is
truncated by counter value and degree.  The ladder (all configurable):

* ``V <= exact_threshold``  : up to ``degree + max_extra_flows`` flows,
* ``V <= pair_threshold``   : up to ``degree + 1`` flows,
* ``V <= tight_threshold``  : exactly ``degree`` flows,
* larger                    : deterministic — ``degree - 1`` flows of
  the minimum feasible size plus one flow carrying the rest (the heavy
  tail is dominated by single elephants).

Combination sets depend only on ``(V, degree, min_path, max_flows)`` and
are cached process-wide as flat tables (:func:`combination_table`).
Preparation groups a tree's counters with one ``np.unique`` and looks
each distinct key up once; an iteration evaluates each work unit with
two sparse products (:func:`~repro.core.em_parallel.unit_partial`).

Scale-out (§7.3.2): each iteration's response step decomposes into
independent ``(tree, degree-group)`` units reduced in a fixed float64
order; with ``EMConfig.workers > 1`` the units fan out across a
persistent shared-memory worker pool (:mod:`repro.core.em_parallel`)
and the result is **bit-identical** to the serial run.  ``run()`` also
accepts a ``warm_start`` seed — typically the previous sealed epoch's
converged estimate — so adjacent epochs skip the iterations a cold
start would spend rediscovering a near-identical distribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from typing import (Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple)

import numpy as np
from scipy.special import gammaln

from repro.core.em_parallel import (
    DEFAULT_CHUNK_GROUPS,
    EMWorkerPool,
    build_units,
    unit_partial,
)
from repro.core.virtual import VirtualCounterArray
from repro.errors import EMWarmStartError, WorkerPoolError
from repro.telemetry import MetricsRegistry
from repro.telemetry.tracing import maybe_span

Combination = Tuple[Tuple[int, ...], Tuple[int, ...]]


# ----------------------------------------------------------------------
# combination enumeration (cached)
# ----------------------------------------------------------------------

def _partitions(value: int, max_parts: int,
                min_part: int = 1) -> Iterable[List[int]]:
    """Yield partitions of ``value`` into 1..max_parts parts, each
    at least ``min_part``, as non-decreasing lists."""
    def recurse(remaining: int, low: int, parts: List[int]):
        if max_parts - len(parts) > 1:
            # Non-decreasing order: the rest must be expressible as
            # parts >= `part` within the remaining slots.
            for part in range(low, remaining // 2 + 1):
                yield from recurse(remaining - part, part, parts + [part])
        if remaining >= low:
            yield parts + [remaining]

    if value <= 0 or max_parts <= 0:
        return
    yield from recurse(value, min_part, [])


def _can_cover(parts_desc: Tuple[int, ...], groups: int, minimum: int) -> bool:
    """Can ``parts_desc`` (sorted descending) be split into exactly
    ``groups`` non-empty groups, each with sum >= ``minimum``?"""
    if len(parts_desc) < groups:
        return False
    if sum(parts_desc) < groups * minimum:
        return False
    if groups == 1:
        return True

    sums = [0] * groups
    counts = [0] * groups

    def place(i: int) -> bool:
        if i == len(parts_desc):
            return all(s >= minimum and c > 0
                       for s, c in zip(sums, counts))
        # Prune: remaining parts must be able to fill still-empty groups.
        remaining = len(parts_desc) - i
        empty = sum(1 for c in counts if c == 0)
        if remaining < empty:
            return False
        part = parts_desc[i]
        seen = set()
        for g in range(groups):
            state = (sums[g], counts[g])
            if state in seen:
                continue
            seen.add(state)
            sums[g] += part
            counts[g] += 1
            if place(i + 1):
                sums[g] -= part
                counts[g] -= 1
                return True
            sums[g] -= part
            counts[g] -= 1
        return False

    return place(0)


def _exact_partitions(value: int, parts: int,
                      min_part: int) -> Iterable[Combination]:
    """Partitions of ``value`` into exactly ``parts`` parts, each at
    least ``min_part``, emitted as (sizes, multiplicities) pairs."""
    def compact(seq: List[int]) -> Combination:
        sizes: List[int] = []
        mults: List[int] = []
        for p in seq:
            if sizes and sizes[-1] == p:
                mults[-1] += 1
            else:
                sizes.append(p)
                mults.append(1)
        return tuple(sizes), tuple(mults)

    if parts == 1:
        if value >= min_part:
            yield ((value,), (1,))
        return
    if parts == 2:
        for a in range(min_part, value // 2 + 1):
            yield compact([a, value - a])
        return

    def recurse(remaining: int, low: int, slots: int, acc: List[int]):
        if slots == 1:
            if remaining >= low:
                yield compact(acc + [remaining])
            return
        # Non-decreasing parts: part in [low, remaining // slots].
        for part in range(low, remaining // slots + 1):
            yield from recurse(remaining - part, part, slots - 1,
                               acc + [part])

    yield from recurse(value, min_part, parts, [])


def _combinations(value: int, degree: int, min_path: int,
                  max_flows: int) -> Iterable[Combination]:
    """Generate the feasible combinations of one virtual counter
    (uncached; see :func:`combination_table`)."""
    if value <= 0 or degree <= 0 or max_flows < degree:
        return
    if max_flows == degree:
        # Exactly one flow per merged path: each flow must itself be
        # at least ``min_path``; no cover search needed.  This is the
        # dominant case under §4.3's tight truncation tier, so it gets
        # a direct generator instead of the generic recursion.
        yield from _exact_partitions(value, degree, min_path)
        return
    for parts in _partitions(value, max_flows):
        if len(parts) < degree:
            continue
        if degree > 1 and not _can_cover(tuple(sorted(parts, reverse=True)),
                                         degree, min_path):
            continue
        sizes: List[int] = []
        mults: List[int] = []
        for p in parts:
            if sizes and sizes[-1] == p:
                mults[-1] += 1
            else:
                sizes.append(p)
                mults.append(1)
        yield tuple(sizes), tuple(mults)


@dataclass(frozen=True)
class CombinationTable:
    """One counter's combination set ``Omega(V, xi)`` as flat arrays.

    Combination ``c`` owns entries ``indptr[c]:indptr[c + 1]`` of
    ``sizes`` (its distinct flow sizes, ascending) and ``mults`` (how
    many of its flows have each size).  ``flows[c]`` is its flow count
    and ``log_fact[c]`` is ``sum(log(mult!))``, the multiset term of
    its Poisson prior.  Tables are shared through the process-wide
    cache, so the arrays are read-only.
    """

    sizes: np.ndarray
    mults: np.ndarray
    indptr: np.ndarray
    flows: np.ndarray
    log_fact: np.ndarray

    @property
    def num_combos(self) -> int:
        return int(self.indptr.shape[0]) - 1

    def combinations(self) -> Tuple[Combination, ...]:
        """The table as ``(sizes, multiplicities)`` tuple pairs."""
        sizes = self.sizes.tolist()
        mults = self.mults.tolist()
        bounds = self.indptr.tolist()
        return tuple((tuple(sizes[a:b]), tuple(mults[a:b]))
                     for a, b in zip(bounds, bounds[1:]))


@lru_cache(maxsize=None)
def combination_table(value: int, degree: int, min_path: int,
                      max_flows: int) -> CombinationTable:
    """All feasible flow-size combinations for a virtual counter.

    Args:
        value: the virtual counter value ``V``.
        degree: number of merged paths ``xi``.
        min_path: minimum per-path flow sum (``theta_1 + 1`` for
            counters merged above stage 1, else 1).
        max_flows: truncation on the number of colliding flows.

    Returns:
        The combinations as one flat, read-only
        :class:`CombinationTable`, built once per process.
    """
    combos = list(_combinations(value, degree, min_path, max_flows))
    lengths = np.fromiter((len(sizes) for sizes, _ in combos),
                          dtype=np.int64, count=len(combos))
    indptr = np.zeros(len(combos) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    entries = int(indptr[-1])
    sizes = np.fromiter(chain.from_iterable(s for s, _ in combos),
                        dtype=np.int32, count=entries)
    mults = np.fromiter(chain.from_iterable(m for _, m in combos),
                        dtype=np.int32, count=entries)
    if combos:
        flows = np.add.reduceat(mults, indptr[:-1])
        log_fact = np.add.reduceat(gammaln(mults + 1.0), indptr[:-1])
    else:
        flows = np.zeros(0, dtype=np.int32)
        log_fact = np.zeros(0, dtype=np.float64)
    for array in (sizes, mults, indptr, flows, log_fact):
        array.setflags(write=False)
    return CombinationTable(sizes, mults, indptr, flows, log_fact)


def enumerate_combinations(value: int, degree: int, min_path: int,
                           max_flows: int) -> Tuple[Combination, ...]:
    """:func:`combination_table` as ``(sizes, multiplicities)`` pairs,
    where ``sizes`` are the distinct flow sizes in the multiset.

    The view shares the table cache, whose statistics
    ``enumerate_combinations.cache_info()`` reports.
    """
    return combination_table(value, degree, min_path,
                             max_flows).combinations()


enumerate_combinations.cache_info = combination_table.cache_info
enumerate_combinations.cache_clear = combination_table.cache_clear


# ----------------------------------------------------------------------
# configuration / results
# ----------------------------------------------------------------------

@dataclass
class EMConfig:
    """Knobs of the EM estimator (defaults follow §4.3's heuristics)."""

    max_iterations: int = 10
    exact_threshold: int = 80
    pair_threshold: int = 400
    tight_threshold: int = 2000
    max_extra_flows: int = 3
    workers: int = 1
    epsilon: float = 1e-10
    convergence_tol: float = 0.0  # relative L1 change; 0 = run all iters
    chunk_groups: int = DEFAULT_CHUNK_GROUPS  # groups per parallel unit
    worker_timeout: float = 60.0  # seconds before the pool is wedged
    #: How far a warm-start seed pulls the EM start away from the cold
    #: observed-distribution guess (0 < blend <= 1).  1.0 trusts the
    #: seed verbatim — right when re-estimating the *same* epoch, where
    #: the seed is already (near) the fixed point.  Converged estimates
    #: are spiky, though, and a *foreign* epoch's spikes starve sizes
    #: the new epoch needs, making raw seeds converge slower than cold;
    #: blending towards the cold guess removes that pathology, so the
    #: default stays at 0.5 for adjacent-epoch chains.
    warm_start_blend: float = 0.5

    def max_flows_for(self, value: int, degree: int) -> int:
        """Truncated collision count for a counter (0 = deterministic)."""
        if value <= self.exact_threshold:
            return degree + self.max_extra_flows
        if value <= self.pair_threshold:
            return degree + 1
        if value <= self.tight_threshold:
            return degree
        return 0


@dataclass
class EMResult:
    """Output of the EM estimator.

    Attributes:
        size_counts: dense array, ``size_counts[j]`` = estimated number
            of flows of size ``j`` (index 0 unused).
        iterations: number of EM iterations performed.
        history: per-iteration snapshots if a callback requested them.
        converged: False when the run stopped at the iteration cap with
            the estimate still moving more than ``convergence_tol``
            (always True when early stopping is disabled).
        warm_started: True when the run was seeded from a previous
            estimate instead of the cold initial guess.
        iterations_saved: iterations the budget allowed but the run did
            not need (``budget - performed`` when it converged early;
            0 otherwise).  For warm-started runs this is the
            incremental-EM win the runtime gauges per epoch.
    """

    size_counts: np.ndarray
    iterations: int
    history: List[np.ndarray] = field(default_factory=list)
    converged: bool = True
    warm_started: bool = False
    iterations_saved: int = 0

    @property
    def total_flows(self) -> float:
        """Estimated total number of flows n̂."""
        return float(self.size_counts.sum())

    @property
    def phi(self) -> np.ndarray:
        """Estimated flow-size distribution (fractions)."""
        total = self.total_flows
        if total == 0:
            return self.size_counts
        return self.size_counts / total

    def distribution(self) -> Dict[int, float]:
        """Sparse ``{size: count}`` view of the estimate."""
        nonzero = np.nonzero(self.size_counts > 1e-9)[0]
        return {int(j): float(self.size_counts[j]) for j in nonzero if j > 0}

    @property
    def entropy(self) -> float:
        """Entropy of the estimated distribution (§4.4)."""
        sizes = np.arange(self.size_counts.shape[0], dtype=np.float64)
        weights = sizes * self.size_counts
        total = weights.sum()
        if total <= 0:
            return 0.0
        p = weights[1:] / total
        sizes_p = sizes[1:]
        mask = p > 0
        return float(-np.sum(
            self.size_counts[1:][mask]
            * (sizes_p[mask] / total)
            * np.log2(sizes_p[mask] / total)
        ))


# ----------------------------------------------------------------------
# per-group precomputation
# ----------------------------------------------------------------------

class _Group(NamedTuple):
    """All virtual counters of one tree sharing (value, degree): one
    posterior, counted ``multiplicity`` times in the E-step."""

    value: int
    degree: int
    multiplicity: int
    table: CombinationTable


class _null_context:
    """Stand-in timer when no telemetry registry is attached."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None


@dataclass
class _TreeWork:
    """Precomputed E-step inputs for one tree.

    ``build_units`` splits the groups into (degree, chunk) work units;
    the per-tree contribution is ``deterministic`` plus the unit
    partials summed in canonical unit order — the same ordered float64
    reduction whether the partials were computed inline or by the
    worker pool.
    """

    leaf_width: int
    groups: List[_Group]
    deterministic: np.ndarray  # dense per-size contribution, constant


# ----------------------------------------------------------------------
# the estimator
# ----------------------------------------------------------------------

class EMEstimator:
    """EM flow-size-distribution estimator over virtual counter arrays.

    Args:
        arrays: one :class:`VirtualCounterArray` per tree.
        config: EM options; defaults follow the paper's heuristics.

    Example:
        >>> from repro.core import FCMSketch
        >>> from repro.core.virtual import convert_sketch
        >>> sketch = FCMSketch.with_memory(32 * 1024)
        >>> sketch.update(1, 5); sketch.update(2, 9)
        >>> result = EMEstimator(convert_sketch(sketch)).run()
        >>> round(result.total_flows)
        2
    """

    def __init__(self, arrays: Sequence[VirtualCounterArray],
                 config: Optional[EMConfig] = None,
                 telemetry: Optional[MetricsRegistry] = None):
        if not arrays:
            raise ValueError("need at least one virtual counter array")
        self.arrays = list(arrays)
        self.config = config if config is not None else EMConfig()
        self.telemetry = telemetry
        self._max_size = max((a.max_value for a in self.arrays), default=1)
        self._size = max(self._max_size + 1, 2)
        #: Enumeration/grouping happens exactly once, here — ``run()``
        #: reuses ``_work``/``_units``, so repeated runs on one
        #: instance are idempotent and skip the expensive E-step prep
        #: (pinned by the regression test in test_em_internals.py).
        self.prepare_calls = 0
        self.initial_guess_builds = 0
        self._work = [self._prepare_tree(a) for a in self.arrays]
        self._units = build_units(self._work,
                                  chunk_groups=self.config.chunk_groups)
        self._n0_cache: Optional[np.ndarray] = None
        self._pool: Optional[EMWorkerPool] = None
        self._failed_over = False

    def _prepare_tree(self, array: VirtualCounterArray) -> _TreeWork:
        """Group one tree's counters and look up each group's table.

        Counters sharing ``(value, degree, stage > 1)`` share their
        ``min_path`` and so their combination set: one ``np.unique``
        finds the distinct keys, and each is looked up once.  Keys
        without a feasible enumerated combination (the heavy tier, or
        an infeasible truncation) go to the deterministic vector.
        """
        cfg = self.config
        self.prepare_calls += 1
        live = array.values > 0
        values = array.values[live]
        degrees = array.degrees[live]
        late = (array.stages[live] > 1).astype(np.int64)
        span = int(degrees.max()) + 1 if degrees.size else 1
        codes, counts = np.unique((values * span + degrees) * 2 + late,
                                  return_counts=True)
        key_late = codes & 1
        key_values, key_degrees = np.divmod(codes >> 1, span)
        # VirtualCounterArray.min_path_count, per key.
        key_min_paths = np.where(key_late == 1, array.thetas[0] + 1, 1)

        groups = []
        heavy = np.ones(codes.shape[0], dtype=bool)
        for i, (value, degree, min_path, count) in enumerate(zip(
                key_values.tolist(), key_degrees.tolist(),
                key_min_paths.tolist(), counts.tolist())):
            max_flows = cfg.max_flows_for(value, degree)
            if not max_flows:
                continue
            table = combination_table(value, degree, min_path, max_flows)
            if table.num_combos:
                heavy[i] = False
                groups.append(_Group(value, degree, count, table))
        deterministic = np.zeros(self._size, dtype=np.float64)
        self._add_deterministic(deterministic, key_values[heavy],
                                key_degrees[heavy], key_min_paths[heavy],
                                counts[heavy])
        return _TreeWork(leaf_width=array.leaf_width, groups=groups,
                         deterministic=deterministic)

    @staticmethod
    def _add_deterministic(out: np.ndarray, value, degree, min_path,
                           count=1) -> None:
        """Heavy-counter fallback: one elephant plus minimal mice.

        Vectorized over counters: ``count`` counters of each
        ``(value, degree, min_path)`` are added to ``out``.
        """
        value, degree, min_path, count = (
            np.atleast_1d(np.asarray(x, dtype=np.int64))
            for x in np.broadcast_arrays(value, degree, min_path, count))
        keep = value > 0
        value, degree, min_path, count = (
            value[keep], degree[keep], min_path[keep], count[keep])
        top = out.shape[0] - 1
        mice = np.maximum(degree - 1, 0)
        elephant = value - mice * min_path
        fits = elephant > 0
        # A counter that cannot even fit its minimal mice is read as
        # ``degree`` equal flows (degenerate but total-preserving).
        share = np.maximum(value // np.maximum(degree, 1), 1)
        with_mice = fits & (mice > 0)
        np.add.at(out, np.minimum(np.where(fits, elephant, share), top),
                  np.where(fits, 1, degree) * count)
        np.add.at(out, np.minimum(min_path[with_mice], top),
                  (mice * count)[with_mice])

    # ------------------------------------------------------------------

    def initial_guess(self) -> np.ndarray:
        """Paper-style initialization: the observed distribution.

        Each non-empty virtual counter of value ``V`` and degree ``xi``
        is read as ``xi`` flows of size ``V / xi`` (the count-query view
        of its leaves), averaged over trees, with a small floor on every
        enumerable size so EM can move mass anywhere.

        The guess is a pure function of the (immutable) arrays, so it
        is built once and cached; callers get a private copy.
        """
        if self._n0_cache is None:
            self.initial_guess_builds += 1
            n0 = np.zeros(self._size, dtype=np.float64)
            for array in self.arrays:
                live = array.values > 0
                values = array.values[live]
                degrees = array.degrees[live]
                # np.rint rounds half to even, as Python's round().
                share = np.maximum(np.rint(values / degrees), 1)
                n0 += np.bincount(
                    np.minimum(share.astype(np.int64), self._size - 1),
                    weights=degrees, minlength=self._size)
            n0 /= len(self.arrays)
            floor_top = min(self.config.exact_threshold + 1, self._size)
            n0[1:floor_top] += self.config.epsilon
            n0[0] = 0.0
            self._n0_cache = n0
        return self._n0_cache.copy()

    # ------------------------------------------------------------------
    # warm starts
    # ------------------------------------------------------------------

    def _coerce_warm_start(self, seed) -> np.ndarray:
        """Validate a warm-start seed and adapt it to this estimator.

        Accepted forms:

        * :class:`EMResult` — the previous epoch's converged estimate;
          its sparse distribution is rebinned (sizes beyond this
          epoch's maximum clip into the top bin, preserving mass).
        * ``{size: count}`` dict — same rebinning.
        * dense 1-D array — must match this estimator's histogram
          length exactly (a mismatched vector is a caller bug, not an
          adjacent-epoch artifact, so it raises instead of guessing).

        Raises:
            EMWarmStartError: non-finite entries, negative mass,
                all-zero mass, a wrong-length dense vector, or an
                unrecognized type.
        """
        if isinstance(seed, EMResult):
            seed = {int(j): float(c) for j, c in
                    enumerate(seed.size_counts) if j > 0 and c > 0.0}
        if isinstance(seed, dict):
            dense = np.zeros(self._size, dtype=np.float64)
            for size, count in seed.items():
                size = int(size)
                if size <= 0:
                    continue
                dense[min(size, self._size - 1)] += float(count)
        else:
            try:
                dense = np.asarray(seed, dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise EMWarmStartError(
                    f"warm-start seed is not numeric: {exc}") from exc
            if dense.ndim != 1:
                raise EMWarmStartError(
                    f"warm-start seed must be 1-D, got shape "
                    f"{dense.shape}")
            if dense.shape[0] != self._size:
                raise EMWarmStartError(
                    f"warm-start seed length {dense.shape[0]} != "
                    f"histogram length {self._size}; pass the EMResult "
                    "or a sparse dict to rebin across epochs")
            dense = dense.copy()
        if not np.all(np.isfinite(dense)):
            raise EMWarmStartError("warm-start seed has non-finite "
                                   "entries")
        if np.any(dense < 0):
            raise EMWarmStartError("warm-start seed has negative mass")
        if float(dense.sum()) <= 0.0:
            raise EMWarmStartError("warm-start seed carries no mass")
        # Same floor as the cold guess so EM can still move mass onto
        # sizes the previous epoch never saw.
        floor_top = min(self.config.exact_threshold + 1, self._size)
        dense[1:floor_top] += self.config.epsilon
        dense[0] = 0.0
        return dense

    def _blend_seed(self, seed: np.ndarray) -> np.ndarray:
        """Apply ``config.warm_start_blend`` to a coerced seed.

        The seed's mass is first rescaled to the cold guess's total
        (adjacent epochs carry different volumes; the shape is what is
        worth transferring), then mixed with the cold guess:
        ``(1 - blend) * cold + blend * seed``.
        """
        lam = float(self.config.warm_start_blend)
        if not 0.0 < lam <= 1.0:
            raise EMWarmStartError(
                f"warm_start_blend must be in (0, 1], got {lam}")
        if lam >= 1.0:
            return seed
        n0 = self.initial_guess()
        seed_total = float(seed.sum())
        if seed_total > 0.0:
            seed = seed * (float(n0.sum()) / seed_total)
        return (1.0 - lam) * n0 + lam * seed

    # ------------------------------------------------------------------
    # parallel pool lifecycle
    # ------------------------------------------------------------------

    @property
    def failed_over(self) -> bool:
        """True once a worker failure dropped this run to serial."""
        return self._failed_over

    def _ensure_pool(self) -> Optional[EMWorkerPool]:
        if (self.config.workers <= 1 or self._failed_over
                or not self._units):
            return None
        if self._pool is None:
            self._pool = EMWorkerPool(
                self._units, self._size, self.config.workers,
                timeout=self.config.worker_timeout,
                telemetry=self.telemetry)
        return self._pool

    def _fail_over(self, exc: WorkerPoolError) -> None:
        """Breaker-style drop to serial for the estimator's lifetime.

        The unit partials are pure functions of ``log_n``, so the
        failed iteration is simply recomputed inline — the final
        estimate is bit-identical to an undisturbed run.
        """
        self._failed_over = True
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()
        if self.telemetry is not None:
            self.telemetry.inc("em.parallel.failovers")
            self.telemetry.set_gauge("em.parallel.workers", 0.0)
            self.telemetry.emit("em", "em.parallel.failover",
                                reason=str(exc))

    def close(self) -> None:
        """Release the worker pool (idempotent; safe before any run)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()

    def __enter__(self) -> "EMEstimator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------

    def run(self, iterations: Optional[int] = None,
            callback: Optional[Callable[[int, np.ndarray], None]] = None,
            warm_start=None) -> EMResult:
        """Run EM and return the final estimate.

        Repeated calls on one instance are idempotent: preparation is
        cached, every run starts from the same (cold or given) seed,
        and with ``workers > 1`` the worker pool is reused across runs.

        Args:
            iterations: override ``config.max_iterations``.
            callback: invoked as ``callback(iteration, size_counts)``
                after each iteration (used for convergence plots).
            warm_start: optional seed — an :class:`EMResult`, a sparse
                ``{size: count}`` dict, or a dense vector of this
                estimator's histogram length.  The seed is mass-
                rescaled and mixed with the cold guess per
                ``config.warm_start_blend``; degenerate seeds raise
                :class:`~repro.errors.EMWarmStartError` up front.
        """
        num_iters = iterations if iterations is not None \
            else self.config.max_iterations
        tol = self.config.convergence_tol
        telemetry = self.telemetry
        warm = warm_start is not None
        n_j = (self._blend_seed(self._coerce_warm_start(warm_start))
               if warm else self.initial_guess())
        performed = 0
        converged = tol <= 0
        rel_change = 0.0
        timer = (telemetry.timer("em.runtime_seconds")
                 if telemetry is not None else _null_context())
        run_span = maybe_span(telemetry, "em.run",
                              trees=len(self.arrays),
                              max_iterations=num_iters,
                              workers=self.config.workers,
                              warm_start=warm)
        with run_span, timer:
            for it in range(num_iters):
                previous = n_j
                with maybe_span(telemetry, "em.iteration",
                                iteration=it + 1) as span:
                    n_j = self._iterate(n_j)
                    performed = it + 1
                    if callback is not None:
                        callback(it + 1, n_j.copy())
                    if tol > 0 or telemetry is not None:
                        denom = max(float(np.abs(previous).sum()),
                                    1e-12)
                        rel_change = (
                            float(np.abs(n_j - previous).sum())
                            / denom)
                        span.annotate(rel_change=rel_change)
                if telemetry is not None:
                    telemetry.inc("em.iterations")
                    telemetry.observe("em.iteration_rel_change",
                                      rel_change)
                    telemetry.emit("em", "em.iteration",
                                   iteration=performed,
                                   rel_change=rel_change)
                if tol > 0 and rel_change < tol:
                    converged = True
                    break
            run_span.annotate(iterations=performed, converged=converged)
        saved = num_iters - performed if converged else 0
        result = EMResult(size_counts=n_j, iterations=performed,
                          converged=converged, warm_started=warm,
                          iterations_saved=saved)
        if telemetry is not None:
            telemetry.inc("em.runs")
            telemetry.set_gauge("em.converged", 1.0 if converged else 0.0)
            telemetry.observe("em.iterations_per_run", performed)
            if warm:
                telemetry.inc("em.warm_start.runs")
                telemetry.set_gauge("em.warm_start.iterations_saved",
                                    float(saved))
            telemetry.emit("em", "em.run", iterations=performed,
                           converged=converged, rel_change=rel_change,
                           warm_started=warm,
                           total_flows=result.total_flows)
        return result

    def _partials(self, log_n: np.ndarray) -> List[np.ndarray]:
        """Per-unit partial histograms, in canonical unit order.

        Tries the worker pool first (when configured); any
        :class:`WorkerPoolError` fails the estimator over to inline
        computation for good and recomputes this iteration serially —
        partials are pure in ``log_n``, so the result is unchanged.
        """
        pool = self._ensure_pool()
        if pool is not None:
            try:
                return pool.iterate(log_n)
            except WorkerPoolError as exc:
                self._fail_over(exc)
        return [unit_partial(unit, log_n, self._size)
                for unit in self._units]

    def _iterate(self, n_j: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            log_n = np.log(n_j)
        partials = self._partials(log_n)
        contributions = []
        unit_idx = 0
        for tree_idx, work in enumerate(self._work):
            out = work.deterministic
            if out.shape[0] < self._size:
                out = np.pad(out, (0, self._size - out.shape[0]))
            else:
                out = out.copy()
            # Fixed reduction order — ascending (degree, chunk) within
            # the tree — shared by the serial and parallel paths; this
            # is the bit-exactness contract.
            while (unit_idx < len(self._units)
                   and self._units[unit_idx].tree == tree_idx):
                out += partials[unit_idx]
                unit_idx += 1
            contributions.append(out)
        new = np.mean(contributions, axis=0)
        new[0] = 0.0
        return new
