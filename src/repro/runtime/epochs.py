"""Epoch lifecycle: zero-gap rotation, drains, bounded retention.

The runtime splits a continuous packet stream into *epochs* — the
paper's back-to-back measurement windows.  The load-bearing invariant
is **zero-gap rotation**: when an epoch ends, the next generation's
sketch is installed *before* the sealed one is drained, so the packet
that triggers the rotation and every packet after it land in the new
generation and nothing is dropped at the boundary.  The runtime tests
pin the ledger exactly: ``sum(sealed packets) + live packets ==
packets fed``.

Epoch boundaries can be packet-bounded (``epoch_packets``),
time-bounded (``epoch_seconds`` against an injectable clock), health
driven (a :class:`~repro.telemetry.health.SketchHealthMonitor`
verdict of ``SATURATED`` forces an early rotation) or manual
(:meth:`EpochManager.rotate`).

Ingest goes through one :class:`~repro.engine.backends.IngestBackend`
selected by a single spec string (identical sealed bytes on all of
them):

* ``inline`` — every batch straight into the live sketch;
* ``pool`` — the persistent worker pool
  (:class:`~repro.engine.pool.PersistentShardPool`): workers outlive
  rotations, each batch goes to one worker's shard, each epoch pays
  exactly one merge at seal time, and a dead worker fails over to
  serial direct-feed without losing the epoch;
* ``network`` — batches routed through a collector's
  :class:`~repro.network.simulator.NetworkSimulator`; epochs sealed by
  draining every switch via :meth:`~repro.controlplane.collector
  .NetworkSketchCollector.drain_epoch` (retry, circuit breaker and
  collection health all apply).  Built automatically when
  ``collector=`` is passed.

A shard count rides in the spec (``"pool:4"``).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Union

import numpy as np

from repro.controlplane.heavychange import HeavyChangeDetector
from repro.errors import (
    ConcurrencyError,
    EpochSnapshotUnavailableError,
    InvalidWindowError,
)
from repro.sketches.base import (
    MergeableStateMixin,
    as_key_array,
    distinct_keys,
)
from repro.telemetry import MetricsRegistry
from repro.telemetry.health import HealthStatus, SketchHealthMonitor
from repro.telemetry.tracing import maybe_span

__all__ = [
    "EpochConfig",
    "SealedEpoch",
    "SealedEpochStore",
    "EpochManager",
]

#: The candidate set of an epoch that tracked none.
_NO_KEYS = np.empty(0, dtype=np.uint64)
_NO_KEYS.setflags(write=False)


@dataclass(frozen=True)
class EpochConfig:
    """Epoch boundary and retention knobs.

    Attributes:
        epoch_packets: seal the live epoch after this many packets
            (``None`` = no packet bound).
        epoch_seconds: seal the live epoch once this much clock time
            has elapsed, checked at batch boundaries (``None`` = no
            time bound).  The clock is injectable on the manager.
        retention: sealed epochs kept by the store; older snapshots
            are evicted oldest-first.
        change_threshold: when set, §4.4 heavy-change detection runs
            automatically between each newly sealed epoch and the one
            sealed before it.
        rotate_on_saturation: rotate early when the health monitor
            declares the live sketch ``SATURATED`` (inline backend).
        track_candidates: remember each epoch's distinct keys as
            ``SealedEpoch.candidates``, the candidate set that
            heavy-change detection and readers of ``epoch.candidates``
            (heavy-hitter answers) need.  Costs a copy of each batch,
            a sort-and-mask compaction whenever the copies outnumber
            the distinct keys, and up to about 2 x distinct x 8 B per
            live epoch.  Measured on a 2-vCPU Xeon VM with FCM at
            250K-packet epochs, feed ran at 0.57x its untracked rate
            on 2M CAIDA-like packets in 32K batches (19.3M against
            33.8M packets/s) and on 1M mice packets in 4K batches
            (15.7M against 27.6M).
    """

    epoch_packets: Optional[int] = None
    epoch_seconds: Optional[float] = None
    retention: int = 16
    change_threshold: Optional[int] = None
    rotate_on_saturation: bool = False
    track_candidates: bool = True

    def __post_init__(self):
        if self.epoch_packets is not None and self.epoch_packets <= 0:
            raise InvalidWindowError("epoch_packets must be positive")
        if self.epoch_seconds is not None and self.epoch_seconds <= 0:
            raise InvalidWindowError("epoch_seconds must be positive")
        if self.retention <= 0:
            raise InvalidWindowError("retention must be positive")
        if self.change_threshold is not None and self.change_threshold <= 0:
            raise InvalidWindowError("change_threshold must be positive")


@dataclass
class SealedEpoch:
    """One drained epoch: an immutable codec snapshot plus its verdicts.

    The snapshot (``state``) is the source of truth — queries rehydrate
    a sketch from the bytes on demand and cache it; re-serializing the
    rehydrated sketch returns the identical bytes (pinned by the
    stateful tests, which is what "sealed epochs are immutable" means
    operationally).
    """

    index: int
    packets: int
    reason: str
    state: Optional[bytes] = None
    states: Dict[str, bytes] = field(default_factory=dict)
    cardinality: float = 0.0
    heavy_changes: frozenset = frozenset()
    #: Every distinct key fed to the epoch: a sorted, deduplicated,
    #: read-only ``uint64`` array (empty when not tracked).
    candidates: np.ndarray = field(default_factory=lambda: _NO_KEYS,
                                   compare=False)
    health: Optional[object] = None     # SketchHealthReport
    audit: Optional[object] = None      # AuditReport (auditor attached)
    report: Optional[object] = None     # WindowReport (network mode)
    factory: Optional[Callable[[], object]] = field(
        default=None, repr=False, compare=False)
    _cached: Optional[object] = field(
        default=None, repr=False, compare=False)
    #: Converged EM estimate for this epoch (EMResult), filled in by
    #: :meth:`StreamingQueryAPI.estimate_distribution` so the *next*
    #: epoch can warm-start from it.  Living on the epoch keeps the
    #: cache retention-bounded: evicting the epoch evicts the seed.
    em_result: Optional[object] = field(
        default=None, repr=False, compare=False)

    @property
    def state_bytes(self) -> int:
        """Total codec bytes retained for this epoch."""
        if self.states:
            return sum(len(b) for b in self.states.values())
        return len(self.state) if self.state is not None else 0

    def sketch(self):
        """Rehydrate (and cache) the epoch's vantage sketch."""
        if self._cached is not None:
            return self._cached
        if self.state is None or self.factory is None:
            raise EpochSnapshotUnavailableError(self.index)
        self._cached = self.factory().from_state(self.state)
        return self._cached


class SealedEpochStore:
    """Bounded, ordered retention of sealed epochs (oldest evicted).

    Args:
        retention: maximum sealed epochs held.
        telemetry: optional registry; the store gauges its size and
            retained codec bytes and counts evictions.
    """

    def __init__(self, retention: int = 16,
                 telemetry: Optional[MetricsRegistry] = None,
                 name: str = "runtime.store"):
        if retention <= 0:
            raise InvalidWindowError("retention must be positive")
        self.retention = retention
        self.telemetry = telemetry
        self.name = name
        self._epochs: List[SealedEpoch] = []
        self.evicted = 0

    def append(self, epoch: SealedEpoch) -> None:
        """Retain a sealed epoch, evicting the oldest beyond the bound."""
        self._epochs.append(epoch)
        while len(self._epochs) > self.retention:
            self._epochs.pop(0)
            self.evicted += 1
        t = self.telemetry
        if t is not None:
            t.set_gauge(f"{self.name}.epochs", float(len(self._epochs)))
            t.set_gauge(f"{self.name}.bytes", float(self.total_state_bytes))
            if self.evicted:
                t.set_gauge(f"{self.name}.evicted", float(self.evicted))

    def last(self, n: int) -> List[SealedEpoch]:
        """The most recent ``n`` sealed epochs, oldest first."""
        if n <= 0:
            raise InvalidWindowError("n must be positive")
        return list(self._epochs[-n:])

    def by_index(self, index: int) -> Optional[SealedEpoch]:
        """The retained epoch with this seal index, or None (evicted /
        never sealed).  The warm-start chain uses this to find epoch
        ``i - 1`` when estimating epoch ``i``."""
        for epoch in reversed(self._epochs):
            if epoch.index == index:
                return epoch
            if epoch.index < index:
                break
        return None

    @property
    def total_state_bytes(self) -> int:
        return sum(e.state_bytes for e in self._epochs)

    def __len__(self) -> int:
        return len(self._epochs)

    def __iter__(self) -> Iterator[SealedEpoch]:
        return iter(self._epochs)

    def __getitem__(self, index) -> SealedEpoch:
        return self._epochs[index]


# ----------------------------------------------------------------------
# live-epoch bookkeeping (the ingest itself lives in the backend,
# which persists across rotations — that is the whole point of the
# pool backend: rotation resets the shard sketches, not the workers)
# ----------------------------------------------------------------------

class _Generation:
    """Per-epoch ledger record: index, packet count, candidate keys.

    The candidates are held as one sorted, deduplicated ``uint64``
    array plus copies of the batches tracked since it was last
    compacted.  A compaction runs whenever those pending keys outnumber
    the deduplicated ones, so the record holds at most twice the
    epoch's distinct keys plus one batch, and sorting stays linear in
    the keys fed: such a compaction sorts fewer than twice the keys
    tracked since the one before.
    """

    __slots__ = ("index", "packets", "_distinct", "_pending",
                 "_pending_keys")

    def __init__(self, index: int):
        self.index = index
        self.packets = 0
        self._distinct = _NO_KEYS
        self._pending: List[np.ndarray] = []
        self._pending_keys = 0

    def track(self, keys: np.ndarray) -> None:
        """Add a batch to the candidates.  The batch is copied, since
        the caller may reuse its buffer."""
        self._pending.append(keys.copy())
        self._pending_keys += keys.size
        if self._pending_keys > self._distinct.size:
            self._compact()

    def _compact(self) -> None:
        if self._pending:
            self._distinct = distinct_keys(
                np.concatenate([self._distinct, *self._pending]))
            self._pending = []
            self._pending_keys = 0

    def candidates(self) -> np.ndarray:
        """Every distinct key tracked: sorted and read-only."""
        self._compact()
        self._distinct.setflags(write=False)
        return self._distinct


class EpochManager:
    """Drives a continuous stream through zero-gap measurement epochs.

    Local mode (``sketch_factory=``) ingests into per-epoch sketch
    generations and seals each epoch as its ``to_state()`` codec bytes;
    network mode (``collector=``) routes packets through the
    collector's simulator and seals epochs by draining every switch
    under the collector's retry/breaker/health policy.

    Args:
        sketch_factory: zero-argument builder for one epoch's sketch
            (local mode).  The sketch must support the state codec.
        collector: a :class:`~repro.controlplane.collector
            .NetworkSketchCollector` (network mode); mutually
            exclusive with ``sketch_factory``.
        config: epoch boundary/retention knobs.
        backend: an ingest-backend spec string ``"kind[:shards]"`` —
            ``"inline"`` or ``"pool"`` (the persistent worker pool,
            e.g. ``"pool:4"``) — or a ready-built
            :class:`~repro.engine.backends.IngestBackend` instance.
            Local mode only; network mode builds its backend from the
            collector.
        telemetry: optional metrics registry; rotations and drains
            become ``runtime.rotate`` / ``runtime.drain`` spans, the
            live ledger is gauged and every sealed epoch emits one
            ``epoch`` event.
        health_monitor: optional :class:`SketchHealthMonitor`; sealed
            epochs carry its verdict and, with
            ``config.rotate_on_saturation``, a ``SATURATED`` live
            sketch forces an early rotation.
        auditor: optional :class:`~repro.telemetry.obsplane.audit
            .AccuracyAuditor`; every ingested batch feeds its exact
            oracle and every locally sealed epoch is audited against
            the drained sketch (observed vs predicted ARE).  Local
            modes only — a network vantage sketch sees a routed
            subset, so a whole-stream oracle would misjudge it.
        clock: injectable monotonic clock for ``epoch_seconds``
            (default :func:`time.monotonic`).
        name: metric/span name prefix.
    """

    def __init__(self, sketch_factory: Optional[Callable[[], object]] = None,
                 collector=None,
                 config: Optional[EpochConfig] = None,
                 backend: Union[str, object] = "inline",
                 telemetry: Optional[MetricsRegistry] = None,
                 health_monitor: Optional[SketchHealthMonitor] = None,
                 auditor=None,
                 clock: Callable[[], float] = time.monotonic,
                 name: str = "runtime"):
        from repro.engine.backends import (
            IngestBackend,
            NetworkBackend,
            make_backend,
            parse_backend_spec,
        )

        if (sketch_factory is None) == (collector is None):
            raise ValueError(
                "pass exactly one of sketch_factory= (local mode) or "
                "collector= (network mode)")
        if isinstance(backend, str):
            kind, _ = parse_backend_spec(backend)
        else:
            if not isinstance(backend, IngestBackend):
                raise ValueError(
                    f"backend must be a spec string or an IngestBackend, "
                    f"not {type(backend).__name__}")
            kind = backend.describe().get("kind", "custom")
        if collector is not None and not (
                isinstance(backend, str) and kind == "inline"):
            raise ValueError("engine backends apply to local mode only")
        self.config = config if config is not None else EpochConfig()
        self.collector = collector
        self.telemetry = telemetry
        self.health_monitor = health_monitor
        self.clock = clock
        self.name = name
        if collector is not None:
            self.sketch_factory = self._vantage_factory()
            self.backend = NetworkBackend(collector, telemetry=telemetry,
                                          name=f"{name}.backend")
        else:
            probe = sketch_factory()
            if not isinstance(probe, MergeableStateMixin) \
                    or probe.STATE_KIND is None:
                raise InvalidWindowError(
                    f"{type(probe).__name__} has no state codec; sealed "
                    "epochs are stored as to_state() bytes")
            self.sketch_factory = sketch_factory
            if isinstance(backend, str):
                self.backend = make_backend(
                    backend, sketch_factory=sketch_factory,
                    telemetry=telemetry, name=f"{name}.backend")
            else:
                self.backend = backend
        if health_monitor is not None and health_monitor.telemetry is None:
            health_monitor.telemetry = telemetry
        self.auditor = auditor
        if auditor is not None and collector is not None:
            raise InvalidWindowError(
                "accuracy audits apply to local modes only (the network "
                "vantage sketch sees a routed subset of the stream)")
        if auditor is not None and auditor.telemetry is None:
            auditor.telemetry = telemetry
        self.store = SealedEpochStore(self.config.retention,
                                      telemetry=telemetry,
                                      name=f"{name}.store")
        self.packets_fed = 0
        self.rotations = 0
        self._epoch_started = self.clock()
        # Single-writer guard: feed/rotate/close mutate the sealed+live
        # ledger in several steps; a second thread interleaving would
        # tear it.  Reentrant (RLock) so feed -> rotate at an epoch
        # boundary still works; a *different* thread gets a
        # ConcurrencyError instead of silently corrupting state.
        self._write_lock = threading.RLock()
        self._live = _Generation(0)

    # -- lifecycle -----------------------------------------------------

    @contextmanager
    def _exclusive(self, operation: str):
        if not self._write_lock.acquire(blocking=False):
            raise ConcurrencyError(
                f"EpochManager.{operation} entered while another thread "
                f"is mid-feed/rotate; the epoch runtime is single-writer "
                f"— serialize callers (e.g. one ingest worker) instead")
        try:
            yield
        finally:
            self._write_lock.release()

    def _vantage_factory(self) -> Callable[[], object]:
        switch = self.collector.simulator.switches[self.collector.em_switch]
        return switch.fresh_sketch

    @property
    def backend_spec(self) -> str:
        """Canonical spec string of the active ingest backend."""
        return self.backend.spec

    @property
    def live_epoch_index(self) -> int:
        return self._live.index

    @property
    def live_packets(self) -> int:
        return self._live.packets

    def live_sketch(self):
        """The live epoch's merged sketch via ``backend.peek()``.

        Free on ``inline``; on ``pool`` it is a full barrier + merge
        (shard answers are only cheaply queryable post-seal); in
        network mode, the vantage switch's accumulating sketch.
        """
        return self.backend.peek()

    def close(self, seal_live: bool = True) -> Optional[SealedEpoch]:
        """Stop the runtime; optionally seal the in-progress epoch.

        Returns the final sealed epoch (or ``None``).  The backend
        stops and joins its workers.
        """
        with self._exclusive("close"):
            sealed = None
            if seal_live and self._live.packets > 0:
                sealed = self.rotate(reason="close")
            self.backend.close()
            return sealed

    def __enter__(self) -> "EpochManager":
        return self

    def __exit__(self, *exc) -> None:
        self.close(seal_live=False)

    # -- ingest --------------------------------------------------------

    def feed(self, keys) -> None:
        """Observe a batch of packets, rotating at epoch boundaries.

        A batch that straddles a packet-bounded boundary is split
        there: the head fills (and seals) the live epoch, the tail
        opens the next one — the zero-gap ledger
        ``sealed + live == fed`` holds after every call.
        """
        keys = as_key_array(keys)
        with self._exclusive("feed"):
            bound = self.config.epoch_packets
            offset = 0
            while offset < keys.size:
                room = keys.size - offset
                if bound is not None:
                    room = min(room, bound - self._live.packets)
                chunk = keys[offset:offset + room]
                self.backend.ingest_batch(chunk)
                self._live.packets += int(chunk.size)
                self.packets_fed += int(chunk.size)
                if self.auditor is not None and chunk.size:
                    self.auditor.observe(chunk)
                if self.config.track_candidates and chunk.size:
                    self._live.track(chunk)
                offset += int(chunk.size)
                if bound is not None and self._live.packets >= bound:
                    self.rotate(reason="packet_bound")
                elif self._saturated():
                    self.rotate(reason="saturation")
            if self.config.epoch_seconds is not None \
                    and self.clock() - self._epoch_started \
                    >= self.config.epoch_seconds \
                    and self._live.packets > 0:
                self.rotate(reason="time_bound")
            t = self.telemetry
            if t is not None:
                t.set_gauge(f"{self.name}.live_packets",
                            float(self._live.packets))
                t.set_gauge(f"{self.name}.packets_fed",
                            float(self.packets_fed))

    def _saturated(self) -> bool:
        """Early-rotation check: live sketch declared SATURATED.

        Only polled on backends whose ``peek()`` is free (inline); a
        per-batch barrier on the pool would defeat its purpose.
        """
        if not self.config.rotate_on_saturation \
                or self.health_monitor is None \
                or self._live.packets == 0 \
                or self.collector is not None \
                or not self.backend.CHEAP_PEEK:
            return False
        report = self.health_monitor.assess(
            self.backend.peek(), window_index=self._live.index)
        return report.status is HealthStatus.SATURATED

    # -- rotation ------------------------------------------------------

    def rotate(self, reason: str = "manual") -> SealedEpoch:
        """Seal the live epoch and open the next generation.

        Zero-gap: the fresh generation is installed *before* the
        sealed one is drained, so packets arriving mid-drain (or the
        remainder of a boundary-straddling batch) land in the new
        epoch rather than being dropped.
        """
        with self._exclusive("rotate"):
            generation = self._live
            self._live = _Generation(generation.index + 1)
            self._epoch_started = self.clock()
            t = self.telemetry
            with maybe_span(t, f"{self.name}.rotate",
                            epoch=generation.index,
                            packets=generation.packets, reason=reason):
                sealed = self._drain(generation, reason)
            self.store.append(sealed)
            self.rotations += 1
            if t is not None:
                t.inc(f"{self.name}.rotations")
                t.inc(f"{self.name}.sealed_packets", generation.packets)
                t.emit("epoch", f"{self.name}.sealed",
                       epoch=sealed.index, packets=sealed.packets,
                       reason=reason, state_bytes=sealed.state_bytes,
                       cardinality=sealed.cardinality,
                       heavy_changes=len(sealed.heavy_changes),
                       retained=len(self.store))
            return sealed

    def _drain(self, generation, reason: str) -> SealedEpoch:
        t = self.telemetry
        with maybe_span(t, f"{self.name}.drain", epoch=generation.index,
                        packets=generation.packets) as span:
            if self.collector is not None:
                sealed = self._drain_network(generation, reason)
            else:
                sealed = self._drain_local(generation, reason)
            span.annotate(state_bytes=sealed.state_bytes,
                          reason=reason)
        if self.config.change_threshold is not None:
            sealed.heavy_changes = self._detect_changes(sealed)
        return sealed

    def _drain_local(self, generation, reason: str) -> SealedEpoch:
        blob = self.backend.seal(generation.index)
        sketch = self.backend.last_sealed_sketch
        health = None
        if self.health_monitor is not None:
            health = self.health_monitor.assess(
                sketch, window_index=generation.index)
        cardinality = float(sketch.cardinality()) \
            if hasattr(sketch, "cardinality") else 0.0
        audit = None
        if self.auditor is not None:
            audit = self.auditor.seal(generation.index, sketch,
                                      health=health)
        return SealedEpoch(
            index=generation.index,
            packets=generation.packets,
            reason=reason,
            state=blob,
            cardinality=cardinality,
            candidates=generation.candidates(),
            health=health,
            audit=audit,
            factory=self.sketch_factory,
        )

    def _drain_network(self, generation, reason: str) -> SealedEpoch:
        vantage_state = self.backend.seal(generation.index)
        report = self.backend.last_report
        states: Dict[str, bytes] = dict(self.backend.last_states or {})
        return SealedEpoch(
            index=generation.index,
            packets=generation.packets,
            reason=reason,
            state=vantage_state,
            states=states,
            cardinality=report.cardinality_estimate,
            candidates=generation.candidates(),
            health=report.sketch_health,
            report=report,
            factory=self.sketch_factory,
        )

    def _detect_changes(self, sealed: SealedEpoch) -> frozenset:
        """§4.4 heavy-change detection vs the previously sealed epoch."""
        if len(self.store) == 0:
            return frozenset()
        previous = self.store[-1]
        try:
            before, after = previous.sketch(), sealed.sketch()
        except EpochSnapshotUnavailableError:
            return frozenset()
        candidates = distinct_keys(
            np.concatenate([previous.candidates, sealed.candidates]))
        if candidates.size == 0:
            return frozenset()
        detector = HeavyChangeDetector(before, after)
        changes = frozenset(detector.detect(
            candidates, self.config.change_threshold))
        t = self.telemetry
        if t is not None and changes:
            t.inc(f"{self.name}.heavy_changes", len(changes))
        return changes
