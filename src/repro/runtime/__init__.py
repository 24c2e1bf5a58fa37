"""Continuous epoch-streaming runtime (§4's back-to-back windows).

The control plane of the paper assumes measurement runs in adjacent
epochs — heavy-change detection explicitly compares count-queries
"across adjacent windows" — but everything below this package is batch:
one trace in, one report out.  :mod:`repro.runtime` turns the library
into a long-lived service:

* :class:`EpochManager` drives a continuous packet stream through
  time- or packet-bounded epochs with **zero-gap double-buffered
  rotation**: a fresh sketch generation starts ingesting before the
  sealed one is drained, so no packet is ever dropped at an epoch
  boundary (the runtime tests pin ``sealed + live == fed`` exactly).
* :class:`SealedEpochStore` retains a bounded history of sealed epochs
  as codec-serialized snapshots (``to_state`` bytes via
  :mod:`repro.engine.codec`) — immutable once sealed.
* :class:`StreamingQueryAPI` answers flow-size / heavy-hitter /
  cardinality queries over ``live``, ``sealed`` and ``last-N`` scopes.
  Summing per-epoch estimates preserves the no-underestimate
  invariant, the same argument as
  :class:`~repro.controlplane.sliding.JumpingWindowSketch`.

The runtime composes the existing layers rather than duplicating them:
per-epoch ingest can fan out through
:class:`~repro.engine.pool.PersistentShardPool`, network-backed
drains go through :class:`~repro.controlplane.collector
.NetworkSketchCollector` (retry / circuit breaker / collection health
all apply), every rotation and drain is traced as a span, and a
:class:`~repro.telemetry.health.SketchHealthMonitor` verdict can
trigger early, saturation-driven rotation.
"""

from repro.runtime.epochs import (
    EpochConfig,
    EpochManager,
    SealedEpoch,
    SealedEpochStore,
)
from repro.runtime.query import StreamingQueryAPI, parse_scope

__all__ = [
    "EpochConfig",
    "EpochManager",
    "SealedEpoch",
    "SealedEpochStore",
    "StreamingQueryAPI",
    "parse_scope",
]
