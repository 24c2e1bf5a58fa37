"""Parallel ingestion on the mergeable-sketch protocol.

The engine exploits the fact that the canonical state of most sketches
in this repository is *additive* (FCM's per-leaf totals, CM/CS counter
arrays, HLL register maxima, LC bitmap unions): a packet stream can be
split into batches, dealt to worker processes that each ingest into
their own sketch replica, and reduced back with the protocol's
``merge`` — the result is byte-identical to a single sketch that saw
the whole stream.

The pieces:

* :mod:`repro.engine.codec` — the versioned binary state codec behind
  ``to_state()`` / ``from_state()`` (header + raw counter arrays, with
  geometry/seed compatibility checks).  This is how sketch state moves
  between processes — and, in deployment terms, how a switch snapshot
  moves off-device.
* :mod:`repro.engine.backends` — the **one ingest-backend contract**:
  :class:`IngestBackend` (``ingest_batch`` / ``seal`` / ``merge_into``
  / ``close`` / ``describe()``) and :func:`make_backend`, which builds
  any backend from a ``"kind[:shards]"`` spec string
  (``inline`` / ``pool`` / ``network``).
* :mod:`repro.engine.pool` — :class:`PersistentShardPool`, the
  paper-scale path: persistent workers over a shared slab ring, each
  slab dealt to one worker's shard-local sketch, one merge per epoch.
* :mod:`repro.engine.workers` — the worker core under both process
  pools (this one and the EM pool in :mod:`repro.core.em_parallel`):
  fork, queues, liveness and deadline waits, shared arrays.
* :class:`repro.controlplane.collector.ParallelSketchCollector` — the
  collector drain path built on the codec: per-switch snapshot *bytes*
  instead of in-process object handles.

Attribute access is lazy (PEP 562) so importing the codec from
low-level modules (:mod:`repro.sketches.base`) never drags in
``multiprocessing``.
"""

from importlib import import_module
from typing import TYPE_CHECKING

_EXPORTS = {
    "CODEC_VERSION": "repro.engine.codec",
    "SketchState": "repro.engine.codec",
    "pack_state": "repro.engine.codec",
    "unpack_state": "repro.engine.codec",
    "peek_kind": "repro.engine.codec",
    "ensure_compatible_state": "repro.engine.codec",
    "IngestBackend": "repro.engine.backends",
    "InlineBackend": "repro.engine.backends",
    "PoolBackend": "repro.engine.backends",
    "NetworkBackend": "repro.engine.backends",
    "make_backend": "repro.engine.backends",
    "parse_backend_spec": "repro.engine.backends",
    "BACKEND_KINDS": "repro.engine.backends",
    "PersistentShardPool": "repro.engine.pool",
    "usable_cpus": "repro.engine.workers",
}

__all__ = list(_EXPORTS)

if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from repro.engine.backends import (
        BACKEND_KINDS,
        IngestBackend,
        InlineBackend,
        NetworkBackend,
        PoolBackend,
        make_backend,
        parse_backend_spec,
    )
    from repro.engine.codec import (
        CODEC_VERSION,
        SketchState,
        ensure_compatible_state,
        pack_state,
        peek_kind,
        unpack_state,
    )
    from repro.engine.pool import PersistentShardPool
    from repro.engine.workers import usable_cpus


def __getattr__(name: str):
    if name in _EXPORTS:
        module = import_module(_EXPORTS[name])
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(__all__)
