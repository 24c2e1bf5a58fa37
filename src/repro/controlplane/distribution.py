"""Flow-size distribution estimation (§4.2, §4.4).

Wraps the EM estimator for the two data-plane structures:

* plain :class:`~repro.core.fcm.FCMSketch` — EM over all trees'
  virtual counters (Eqn. 5 averages the per-tree contributions);
* :class:`~repro.core.topk.FCMTopK` — EM over the FCM residue plus the
  Top-K filter's exact heavy-flow sizes (the Top-K algorithm counts
  resident flows exactly, §6).

With ``config.workers > 1`` the estimator fans the E-step out over its
persistent worker pool (bit-identical to serial); this wrapper owns
the estimator's lifetime and always releases the pool before
returning.  ``warm_start`` threads a previous estimate through as the
EM seed (incremental EM for adjacent epochs).
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.core.em import EMConfig, EMEstimator, EMResult
from repro.core.fcm import FCMSketch
from repro.core.topk import FCMTopK
from repro.core.virtual import convert_sketch
from repro.telemetry import MetricsRegistry

Measurable = Union[FCMSketch, FCMTopK]


def estimate_distribution(sketch: Measurable,
                          config: Optional[EMConfig] = None,
                          iterations: Optional[int] = None,
                          callback=None,
                          telemetry: Optional[MetricsRegistry] = None,
                          warm_start=None,
                          ) -> EMResult:
    """Estimate the flow-size distribution from a data-plane sketch.

    Args:
        sketch: an ``FCMSketch`` or ``FCMTopK``.
        config: EM options (defaults follow §4.3's heuristics).
        iterations: overrides ``config.max_iterations``.
        callback: per-iteration hook ``callback(iteration, size_counts)``.
        telemetry: optional metrics registry; the estimator records
            iteration counts, convergence and runtime into it.
        warm_start: optional EM seed (an :class:`EMResult`, sparse
            ``{size: count}`` dict, or dense vector); degenerate seeds
            raise :class:`~repro.errors.EMWarmStartError`.

    Returns:
        An :class:`EMResult`; for FCM+TopK each resident heavy flow is
        added to the EM output as one flow of its Top-K count, so the
        estimate's mass equals the packets ingested.
    """
    if isinstance(sketch, FCMTopK):
        with EMEstimator(convert_sketch(sketch.fcm), config=config,
                         telemetry=telemetry) as base:
            result = base.run(iterations=iterations, callback=callback,
                              warm_start=warm_start)
        # A flagged resident's packets from before it took the bucket
        # live in the FCM residue, which EM has already placed; adding
        # it at ``sketch.query(key)`` would count that residue twice.
        heavy_sizes = [count for _, count, _ in sketch.topk.entries()
                       if count > 0]
        top = max([result.size_counts.shape[0] - 1] + heavy_sizes)
        counts = np.zeros(top + 1, dtype=np.float64)
        counts[: result.size_counts.shape[0]] = result.size_counts
        for size in heavy_sizes:
            counts[size] += 1.0
        return EMResult(size_counts=counts, iterations=result.iterations,
                        converged=result.converged,
                        warm_started=result.warm_started,
                        iterations_saved=result.iterations_saved)
    if isinstance(sketch, FCMSketch):
        with EMEstimator(convert_sketch(sketch), config=config,
                         telemetry=telemetry) as estimator:
            return estimator.run(iterations=iterations, callback=callback,
                                 warm_start=warm_start)
    raise TypeError(f"unsupported sketch type: {type(sketch).__name__}")
