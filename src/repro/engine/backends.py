"""One ingest-backend contract behind every epoch runtime.

Every place fed packets can go sits behind a single protocol and one
factory:

* :class:`IngestBackend` — ``ingest_batch`` / ``seal`` / ``merge_into``
  / ``close`` / ``describe()``, plus the live-query helper ``peek()``;
* :func:`make_backend` — builds any backend from one spec string,
  ``"kind[:shards]"``:

  ========== =====================================================
  spec       backend
  ========== =====================================================
  inline     every batch straight into one live sketch
  pool       persistent worker pool; each batch dealt to one
             worker's shard, one merge per epoch
  network    routed through a collector's simulator; sealed by
             draining every switch
  ========== =====================================================

Consistency contract (same for every backend): a sealed epoch's state
is **byte-identical to serial ingest** of the same packet multiset.
The backends differ in *when* the merged answer is cheap: ``inline``
can ``peek()`` for free, and ``pool`` must run a barrier + merge —
shard answers are only cheaply queryable **post-seal**.

Robustness: :class:`PoolBackend` retains the live epoch's batches (as
views, nearly free) and, when a worker dies mid-epoch
(:class:`~repro.errors.WorkerPoolError`), tears the pool down and
replays the epoch into an :class:`InlineBackend` — breaker-style: the
backend stays on serial direct-feed afterwards, and the sealed epoch
is still byte-identical to serial.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from repro.errors import WorkerPoolError
from repro.sketches.base import as_key_array

__all__ = [
    "IngestBackend",
    "InlineBackend",
    "PoolBackend",
    "NetworkBackend",
    "make_backend",
    "parse_backend_spec",
    "BACKEND_KINDS",
]

BACKEND_KINDS = ("inline", "pool", "network")


class IngestBackend:
    """The one contract every epoch ingest path implements.

    Required surface (the protocol): :meth:`ingest_batch`,
    :meth:`seal`, :meth:`merge_into`, :meth:`close`, :meth:`describe`.
    Helpers shared by the runtime: :meth:`peek` (live merged view,
    possibly expensive) and :attr:`last_sealed_sketch` (the sketch
    object behind the most recent seal, so callers can audit it
    without re-decoding the codec bytes).

    ``CHEAP_PEEK`` advertises whether :meth:`peek` is O(1); the
    runtime's saturation probe only polls backends that say yes.
    """

    #: Canonical spec string ("pool:4", "inline", ...).
    spec: str = "?"
    #: True when peek() costs nothing (inline); the saturation probe
    #: and other per-batch callers key off this.
    CHEAP_PEEK = False
    #: Sketch object behind the most recent seal() (None before one).
    last_sealed_sketch = None

    def ingest_batch(self, keys) -> None:
        """Observe one batch of packet keys (uint64 array)."""
        raise NotImplementedError

    def seal(self, epoch: int = 0) -> Optional[bytes]:
        """Finish the live epoch: return its codec state bytes and
        reset for the next epoch.  Sets :attr:`last_sealed_sketch`."""
        raise NotImplementedError

    def merge_into(self, target):
        """Merge the live (unsealed) state into ``target``; returns
        ``target``.  May force the expensive live merge."""
        raise NotImplementedError

    def peek(self):
        """The live epoch's merged sketch (expensive unless
        :attr:`CHEAP_PEEK`)."""
        raise NotImplementedError

    def close(self) -> None:
        """Stop and join any workers (idempotent)."""
        raise NotImplementedError

    def describe(self) -> dict:
        """Machine-readable backend description (spec, kind, knobs)."""
        raise NotImplementedError

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class InlineBackend(IngestBackend):
    """Every batch straight into one live sketch instance."""

    CHEAP_PEEK = True

    def __init__(self, sketch_factory: Callable[[], object],
                 telemetry=None, name: str = "backend.inline"):
        self.spec = "inline"
        self._factory = sketch_factory
        self._telemetry = telemetry
        self._name = name
        self._sketch = sketch_factory()
        self.last_sealed_sketch = None

    def ingest_batch(self, keys) -> None:
        self._sketch.ingest(keys)

    def peek(self):
        return self._sketch

    def seal(self, epoch: int = 0) -> bytes:
        sealed = self._sketch
        blob = sealed.to_state()
        self.last_sealed_sketch = sealed
        self._sketch = self._factory()
        return blob

    def merge_into(self, target):
        target.merge(self._sketch)
        return target

    def close(self) -> None:
        pass

    def describe(self) -> dict:
        return {"spec": self.spec, "kind": "inline"}


class PoolBackend(IngestBackend):
    """Persistent worker pool with serial failover.

    The hot path publishes every batch into the pool's slab ring; the
    per-epoch :meth:`seal` is the only merge.  The backend additionally
    retains the live epoch's key arrays (views of the caller's
    buffers, so nearly free): if a worker dies mid-epoch the pool is
    torn down, the retained batches are replayed into an
    :class:`InlineBackend`, and the backend stays on serial
    direct-feed — the sealed epoch is never lost and stays
    byte-identical to serial ingest.
    """

    def __init__(self, sketch_factory: Callable[[], object],
                 num_shards: Optional[int] = None,
                 telemetry=None, name: str = "backend.pool",
                 **pool_options):
        from repro.engine.pool import PersistentShardPool

        self._factory = sketch_factory
        self._telemetry = telemetry
        self._name = name
        self._pool = PersistentShardPool(
            sketch_factory, num_shards=num_shards,
            telemetry=telemetry, name=f"{name}.pool", **pool_options)
        self.spec = f"pool:{self._pool.num_shards}"
        self._retained: List[np.ndarray] = []
        self._serial: Optional[InlineBackend] = None
        self.failed_over = False
        self.failover_reason: Optional[str] = None
        self.last_sealed_sketch = None

    @property
    def pool(self):
        """The underlying pool (None-equivalent after failover)."""
        return self._pool

    def _fail_over(self, exc: WorkerPoolError) -> None:
        self.failed_over = True
        self.failover_reason = str(exc).splitlines()[0]
        try:
            self._pool.terminate()
        except Exception:  # pragma: no cover - teardown best effort
            pass
        serial = InlineBackend(self._factory, telemetry=self._telemetry,
                               name=f"{self._name}.serial")
        for batch in self._retained:
            serial.ingest_batch(batch)
        self._serial = serial
        t = self._telemetry
        if t is not None:
            t.inc(f"{self._name}.failovers")
            t.emit("engine", f"{self._name}.failover",
                   reason=self.failover_reason,
                   replayed_batches=len(self._retained),
                   replayed_packets=int(sum(b.size
                                            for b in self._retained)))

    def ingest_batch(self, keys) -> None:
        keys = as_key_array(keys)
        if not keys.size:
            return
        if self._serial is not None:
            self._serial.ingest_batch(keys)
            return
        self._retained.append(keys)
        try:
            self._pool.publish(keys)
        except WorkerPoolError as exc:
            self._fail_over(exc)

    def seal(self, epoch: int = 0) -> bytes:
        if self._serial is not None:
            blob = self._serial.seal(epoch)
            self.last_sealed_sketch = self._serial.last_sealed_sketch
            self._retained = []
            return blob
        try:
            merged = self._pool.seal(epoch=epoch)
        except WorkerPoolError as exc:
            self._fail_over(exc)
            return self.seal(epoch)
        self._retained = []
        self.last_sealed_sketch = merged
        return merged.to_state()

    def peek(self):
        """Live merged view — barrier + merge (see the consistency
        contract: shard answers are only cheap post-seal)."""
        if self._serial is not None:
            return self._serial.peek()
        try:
            return self._pool.snapshot()
        except WorkerPoolError as exc:
            self._fail_over(exc)
            return self._serial.peek()

    def merge_into(self, target):
        target.merge(self.peek())
        return target

    def close(self) -> None:
        self._pool.close()
        if self._serial is not None:
            self._serial.close()

    def describe(self) -> dict:
        info = {
            "spec": self.spec,
            "kind": "pool",
            "shards": self._pool.num_shards,
            "failed_over": self.failed_over,
            "pool": self._pool.describe(),
        }
        if self.failover_reason is not None:
            info["failover_reason"] = self.failover_reason
        return info


class NetworkBackend(IngestBackend):
    """Batches routed through a collector's simulator.

    Sealing drains every switch via ``collector.drain_epoch`` (retry,
    circuit breaker and collection health all apply) and returns the
    vantage switch's codec bytes; the full
    :class:`~repro.controlplane.collector.WindowReport` and every
    switch's state are stashed on :attr:`last_report` /
    :attr:`last_states` for the runtime to fold into the sealed epoch.
    """

    CHEAP_PEEK = True

    def __init__(self, collector, telemetry=None,
                 name: str = "backend.network"):
        from repro.traffic.trace import Trace

        self.spec = "network"
        self.collector = collector
        self._trace_cls = Trace
        self._telemetry = telemetry
        self._name = name
        self._epoch = 0
        self._epoch_packets = 0
        self.last_report = None
        self.last_states = None
        self.last_sealed_sketch = None

    @property
    def em_switch(self) -> str:
        return self.collector.em_switch

    def ingest_batch(self, keys) -> None:
        keys = as_key_array(keys)
        if keys.size:
            self.collector.simulator.route_trace(
                self._trace_cls(keys, name=f"epoch{self._epoch}"),
                window=self._epoch)
        self._epoch_packets += int(keys.size)

    def peek(self):
        return self.collector.simulator.switches[self.em_switch].sketch

    def seal(self, epoch: int = 0) -> Optional[bytes]:
        report = self.collector.drain_epoch(
            epoch, total_packets=self._epoch_packets)
        states = {}
        for switch, sketch in sorted(report.collected_sketches.items()):
            if getattr(sketch, "STATE_KIND", None) is not None:
                states[switch] = sketch.to_state()
        self.last_report = report
        self.last_states = states
        self.last_sealed_sketch = report.collected_sketches.get(
            self.em_switch)
        self._epoch = epoch + 1
        self._epoch_packets = 0
        return states.get(self.em_switch)

    def merge_into(self, target):
        target.merge(self.peek())
        return target

    def close(self) -> None:
        pass

    def describe(self) -> dict:
        return {
            "spec": self.spec,
            "kind": "network",
            "em_switch": self.em_switch,
            "switches": len(self.collector.simulator.switches),
        }


def parse_backend_spec(spec: str):
    """``"kind[:shards]"`` → ``(kind, shards_or_None)``.

    Raises :class:`ValueError` on anything else — an unknown backend
    must fail loudly, not fall back to inline.
    """
    if not isinstance(spec, str) or not spec.strip():
        raise ValueError(f"backend spec must be a non-empty string, "
                         f"got {spec!r}")
    parts = spec.strip().lower().split(":")
    if len(parts) > 2:
        raise ValueError(f"malformed backend spec {spec!r} "
                         f"(want 'kind' or 'kind:shards')")
    kind = parts[0]
    if kind not in BACKEND_KINDS:
        raise ValueError(
            f"unknown backend {kind!r} (one of {BACKEND_KINDS}, "
            f"optionally 'kind:shards')")
    shards = None
    if len(parts) == 2:
        try:
            shards = int(parts[1])
        except ValueError:
            raise ValueError(f"backend spec {spec!r} has a non-integer "
                             f"shard count") from None
        if shards <= 0:
            raise ValueError(f"backend spec {spec!r} needs a positive "
                             f"shard count")
    return kind, shards


def make_backend(spec: str, *,
                 sketch_factory: Optional[Callable[[], object]] = None,
                 collector=None,
                 num_shards: Optional[int] = None,
                 telemetry=None,
                 name: str = "backend",
                 **options) -> IngestBackend:
    """Build an ingest backend from one spec string.

    ``spec`` is ``"kind"`` or ``"kind:shards"`` (see module docs for
    the kinds).  Local kinds need ``sketch_factory=``; ``network``
    needs ``collector=``.  A shard count in the spec wins over
    ``num_shards=``; ``inline`` and ``network`` ignore both.
    Extra ``options`` go to the concrete backend (e.g.
    ``slab_packets=`` for the pool).
    """
    kind, spec_shards = parse_backend_spec(spec)
    if spec_shards is not None:
        num_shards = spec_shards
    if kind == "network":
        if collector is None:
            raise ValueError("backend 'network' needs collector=")
        return NetworkBackend(collector, telemetry=telemetry,
                              name=f"{name}.network", **options)
    if sketch_factory is None:
        raise ValueError(f"backend {kind!r} needs sketch_factory=")
    if kind == "inline":
        return InlineBackend(sketch_factory, telemetry=telemetry,
                             name=f"{name}.inline", **options)
    return PoolBackend(sketch_factory, num_shards=num_shards,
                       telemetry=telemetry, name=f"{name}.pool", **options)
