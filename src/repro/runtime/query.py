"""Streaming queries over live and sealed epochs.

A query scope names which epochs answer it:

* ``"live"`` — the in-progress epoch only;
* ``"sealed"`` (alias ``"last-sealed"``) — the most recently sealed
  epoch only;
* ``"last-N"`` (e.g. ``"last-3"``, or the integer ``3``) — the N most
  recently sealed epochs;
* ``"all"`` — every retained sealed epoch plus the live one.

Flow-size estimates over a multi-epoch scope are the **sum of the
per-epoch estimates**.  Each epoch's sketch never underestimates the
traffic it saw, and the epochs partition the stream, so the sum never
underestimates the scope's true count — the same argument that makes
:class:`~repro.controlplane.sliding.JumpingWindowSketch` sound, pinned
against an exact per-epoch oracle by the stateful property tests.
Cardinality over multi-epoch scopes is likewise the sum of per-epoch
estimates: an (approximate) upper bound on the union, exact when no
flow spans epochs.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

import numpy as np

from repro.errors import InvalidWindowError, SketchCompatibilityError
from repro.sketches.base import as_key_array

__all__ = ["StreamingQueryAPI", "parse_scope"]

Scope = Union[str, int, Tuple[str, int]]

#: Early-stop tolerance for runtime EM: warm starts only pay off when
#: a converged run may stop before the iteration cap.
DEFAULT_RUNTIME_EM_TOL = 1e-3


def parse_scope(scope: Scope) -> Tuple[str, int]:
    """Normalize a scope spec to ``(kind, n)``.

    ``kind`` is one of ``"live"``, ``"sealed"``, ``"last"``, ``"all"``;
    ``n`` is the epoch count for ``"last"`` (0 otherwise).
    """
    if isinstance(scope, int) and not isinstance(scope, bool):
        if scope <= 0:
            raise InvalidWindowError(f"scope epoch count must be "
                                     f"positive, got {scope}")
        return ("last", scope)
    if isinstance(scope, tuple) and len(scope) == 2 and scope[0] == "last":
        return parse_scope(int(scope[1]))
    if isinstance(scope, str):
        text = scope.strip().lower()
        if text == "live":
            return ("live", 0)
        if text in ("sealed", "last-sealed"):
            return ("sealed", 0)
        if text == "all":
            return ("all", 0)
        if text.startswith("last-"):
            try:
                return parse_scope(int(text[len("last-"):]))
            except ValueError as exc:
                if isinstance(exc, InvalidWindowError):
                    raise
                raise InvalidWindowError(
                    f"malformed scope {scope!r}") from exc
    raise InvalidWindowError(
        f"unknown query scope {scope!r}; use 'live', 'sealed', "
        f"'last-N' or 'all'")


class StreamingQueryAPI:
    """Query surface over an :class:`~repro.runtime.epochs.EpochManager`.

    Every method takes a ``scope`` (default ``"live"``); see the module
    docstring for scope semantics and the overestimate argument.

    Example:
        >>> from repro.core import FCMSketch
        >>> from repro.runtime import EpochConfig, EpochManager
        >>> manager = EpochManager(
        ...     lambda: FCMSketch.with_memory(16 * 1024),
        ...     config=EpochConfig(epoch_packets=4))
        >>> manager.feed([7, 7, 7, 7, 7, 7])   # seals one epoch
        >>> api = StreamingQueryAPI(manager)
        >>> api.query(7, scope="live"), api.query(7, scope="all")
        (2, 6)
    """

    def __init__(self, manager):
        self.manager = manager

    # -- scope resolution ---------------------------------------------

    def _sources(self, scope: Scope) -> List[object]:
        kind, n = parse_scope(scope)
        store = self.manager.store
        if kind == "live":
            return [self.manager.live_sketch()]
        if kind == "sealed":
            return [e.sketch() for e in store.last(1)] if len(store) else []
        if kind == "last":
            return [e.sketch() for e in store.last(n)]
        sources = [e.sketch() for e in store.last(len(store))] \
            if len(store) else []
        sources.append(self.manager.live_sketch())
        return sources

    def epochs(self, scope: Scope) -> List[object]:
        """The sealed epochs a scope covers (live excluded)."""
        kind, n = parse_scope(scope)
        store = self.manager.store
        if kind == "live":
            return []
        if kind == "sealed":
            return store.last(1) if len(store) else []
        if kind == "last":
            return store.last(n)
        return store.last(len(store)) if len(store) else []

    # -- queries -------------------------------------------------------

    def query(self, key: int, scope: Scope = "live") -> int:
        """Flow-size estimate for ``key`` over the scope (never
        underestimates the scope's true count)."""
        return sum(int(s.query(int(key))) for s in self._sources(scope))

    def query_many(self, keys: Iterable[int],
                   scope: Scope = "live") -> np.ndarray:
        """Vectorized :meth:`query` over many flows."""
        keys = as_key_array(keys)
        total = np.zeros(keys.shape, dtype=np.int64)
        for source in self._sources(scope):
            total += source.query_many(keys)
        return total

    def heavy_hitters(self, candidate_keys: Iterable[int], threshold: int,
                      scope: Scope = "live") -> Set[int]:
        """Flows whose scoped estimate reaches ``threshold``."""
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        keys = as_key_array(candidate_keys)
        if keys.size == 0:
            return set()
        return set(keys[self.query_many(keys, scope=scope)
                        >= threshold].tolist())

    def cardinality(self, scope: Scope = "live") -> float:
        """Distinct-flow estimate summed across the scope's epochs."""
        total = 0.0
        kind, _ = parse_scope(scope)
        if kind in ("live", "all"):
            live = self.manager.live_sketch()
            if hasattr(live, "cardinality"):
                total += float(live.cardinality())
            if kind == "live":
                return total
        return total + sum(e.cardinality for e in self.epochs(scope))

    def estimate_distribution(self, scope: Scope = "sealed",
                              config=None,
                              iterations: Optional[int] = None,
                              warm_start: bool = True) -> Dict[int, object]:
        """Per-epoch EM flow-size estimates, warm-started along the
        seal chain (incremental EM, ROADMAP "EM at scale").

        For every sealed epoch in the scope (oldest first), EM runs on
        the epoch's rehydrated sketch seeded from the *previous*
        epoch's converged estimate — adjacent epochs carry similar
        distributions, so the warm seed skips the iterations a cold
        start spends rediscovering it.  Each converged result is
        cached on its :class:`~repro.runtime.epochs.SealedEpoch`
        (``em_result``), making repeat queries free and bounding the
        seed cache by the store's retention.  A ``"live"``/``"all"``
        scope additionally estimates the in-progress epoch (never
        cached — the live sketch is still mutating), seeded from the
        newest sealed estimate.

        The manager's telemetry records ``runtime.em.warm_starts``,
        ``runtime.em.cache_hits`` and the per-run
        ``runtime.em.iterations_saved`` gauge.

        Args:
            scope: which epochs to estimate (see module docstring).
            config: :class:`~repro.core.em.EMConfig`; defaults to the
                paper ladder with ``convergence_tol`` =
                ``DEFAULT_RUNTIME_EM_TOL`` so early stopping (and thus
                the warm-start win) is active.
            iterations: overrides ``config.max_iterations``.
            warm_start: chain seeds across epochs (False = cold runs).

        Returns:
            ``{epoch_index: EMResult}`` in ascending epoch order; the
            live epoch appears under its in-progress index.

        Raises:
            SketchCompatibilityError: the manager's sketches are not
                FCM-family (EM needs virtual counter trees).
        """
        from repro.controlplane.distribution import estimate_distribution
        from repro.core.em import EMConfig

        if config is None:
            config = EMConfig(convergence_tol=DEFAULT_RUNTIME_EM_TOL)
        manager = self.manager
        telemetry = getattr(manager, "telemetry", None)
        store = manager.store
        results: Dict[int, object] = {}

        def run_em(sketch, seed):
            try:
                return estimate_distribution(
                    sketch, config=config, iterations=iterations,
                    telemetry=telemetry, warm_start=seed)
            except TypeError as exc:
                raise SketchCompatibilityError(
                    f"estimate_distribution needs an FCM-family "
                    f"sketch: {exc}") from exc

        for epoch in self.epochs(scope):
            if epoch.em_result is not None:
                results[epoch.index] = epoch.em_result
                if telemetry is not None:
                    telemetry.inc("runtime.em.cache_hits")
                continue
            seed = None
            if warm_start:
                previous = store.by_index(epoch.index - 1)
                if previous is not None:
                    seed = previous.em_result
            result = run_em(epoch.sketch(), seed)
            epoch.em_result = result
            results[epoch.index] = result
            if telemetry is not None and seed is not None:
                telemetry.inc("runtime.em.warm_starts")
                telemetry.set_gauge("runtime.em.iterations_saved",
                                    float(result.iterations_saved))
                telemetry.emit("runtime", "runtime.em.warm_start",
                               epoch=epoch.index,
                               iterations=result.iterations,
                               iterations_saved=result.iterations_saved)
        kind, _ = parse_scope(scope)
        if kind in ("live", "all"):
            seed = None
            if warm_start and len(store):
                seed = store.last(1)[0].em_result
            results[manager.live_epoch_index] = run_em(
                manager.live_sketch(), seed)
        return results

    def heavy_changes(self, scope: Scope = "sealed") -> Set[int]:
        """§4.4 heavy changes recorded for the scope's sealed epochs.

        The manager detects changes between adjacent epochs at seal
        time (when ``config.change_threshold`` is set); this unions
        the stored verdicts — ``"sealed"`` gives the latest
        adjacent-epoch comparison.
        """
        changed: Set[int] = set()
        for epoch in self.epochs(scope):
            changed |= set(epoch.heavy_changes)
        return changed
