"""Persistent shard-ingest workers over a shared slab ring.

The pool fans ingest out across processes while keeping every
per-batch cost off the critical path:

* **workers start once** and live for the pool's lifetime — epochs
  reuse them (the pool survives ``EpochManager`` rotations);
* **keys move through shared memory**: the publisher copies each batch
  into a slab of a fixed ring that the workers inherited at fork time
  (:func:`~repro.engine.workers.shared_array`) — nothing but tiny
  ``(slab, length)`` tuples cross the queues;
* **each slab goes to one worker**, dealt round-robin, which ingests
  it into its shard-local sketch straight from the shared view;
* **merge happens once per epoch**: codec serialization and the
  ``merge`` reduce run only at :meth:`PersistentShardPool.seal`.

Because every mergeable sketch here has commutative integer state, the
sealed result is **byte-identical** to a serial ingest of the same
packet multiset — dealing slabs only changes *which replica* adds each
packet, never the sum.

Flow control: a slab is reused only after its worker has acked the
batch published into it, so the ring depth bounds publisher run-ahead.
Worker death surfaces on the publisher side as a typed
:class:`~repro.errors.WorkerPoolError` — the backend layer turns that
into serial failover.

Consistency contract: shard answers are only queryable **post-seal**.
:meth:`snapshot` exists for live queries but is a full barrier + merge
(the per-epoch merge done early); it is the documented expensive path.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional

import numpy as np

from repro.engine.workers import WorkerGroup, shared_array, usable_cpus
from repro.errors import SketchCompatibilityError, WorkerPoolError
from repro.sketches.base import MergeableStateMixin, as_key_array

__all__ = [
    "PersistentShardPool",
    "DEFAULT_SLAB_PACKETS",
    "DEFAULT_NUM_SLABS",
]

#: Keys per slab (2 MiB) and slabs in the ring (publisher run-ahead).
DEFAULT_SLAB_PACKETS = 1 << 18
DEFAULT_NUM_SLABS = 4


class _ShardWorker:
    """One worker's handler: ingest dealt slabs, serialize at seal.

    Commands (FIFO per worker, so ``seal`` is a natural barrier behind
    every batch already dealt to it):

    * ``("batch", slab_id, length)`` — ingest the slab's first
      ``length`` keys, reply ``("ack", slab_id)``;
    * ``("seal", epoch, reset)`` — reply ``("state", epoch, blob,
      busy)`` with the shard's codec bytes, optionally starting a
      fresh shard for the next epoch.
    """

    def __init__(self, factory, slabs: List[np.ndarray]):
        self.factory = factory
        self.slabs = slabs
        self.sketch = factory()
        self.busy = 0.0

    def __call__(self, msg):
        start = time.perf_counter()
        if msg[0] == "batch":
            _, slab_id, length = msg
            self.sketch.ingest(self.slabs[slab_id][:length])
            self.busy += time.perf_counter() - start
            return ("ack", slab_id)
        _, epoch, reset = msg
        blob = self.sketch.to_state()
        if reset:
            self.sketch = self.factory()
        busy = self.busy + time.perf_counter() - start
        self.busy = 0.0 if reset else busy
        return ("state", epoch, blob, busy)


class PersistentShardPool:
    """Long-lived shard-ingest workers over a slab ring.

    Args:
        factory: zero-argument builder for one shard replica
            (identically seeded, or the reduce will raise).  Validated
            up front: order-dependent sketches are refused with a
            typed reason.
        num_shards: worker count; defaults to :func:`usable_cpus`.
        slab_packets: keys per slab.
        num_slabs: ring depth (publisher run-ahead in slabs).
        timeout: seconds to wait on a worker reply before declaring
            the pool wedged (:class:`WorkerPoolError`).
        telemetry: optional :class:`repro.telemetry.MetricsRegistry`;
            the pool gauges slab occupancy, publish-wait seconds,
            per-epoch merge seconds and worker utilization.
        name: metric name prefix.

    Lifecycle: workers and slabs are created lazily on the first
    :meth:`publish` and persist across :meth:`seal` calls — sealing an
    epoch resets the shard sketches, not the pool.  :meth:`close`
    stops and joins the workers (idempotent; also run by
    ``__exit__``).
    """

    def __init__(self, factory: Callable[[], MergeableStateMixin],
                 num_shards: Optional[int] = None,
                 slab_packets: int = DEFAULT_SLAB_PACKETS,
                 num_slabs: int = DEFAULT_NUM_SLABS,
                 timeout: float = 60.0,
                 telemetry=None,
                 name: str = "pool"):
        if num_shards is None:
            num_shards = usable_cpus()
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        if slab_packets <= 0:
            raise ValueError("slab_packets must be positive")
        if num_slabs < 2:
            raise ValueError("num_slabs must be at least 2 (double "
                             "buffering is the point of the ring)")
        self.factory = factory
        self.num_shards = int(num_shards)
        self.slab_packets = int(slab_packets)
        self.num_slabs = int(num_slabs)
        self.timeout = float(timeout)
        self._telemetry = telemetry
        self._tname = name
        self._group: Optional[WorkerGroup] = None
        self._slabs: Optional[List[np.ndarray]] = None
        self._slab_busy = [False] * self.num_slabs
        self._next_slab = 0
        self._epoch_wall_start = None
        self.closed = False
        self.published_packets = 0
        self.published_batches = 0
        self.seals = 0
        self.last_merge_seconds = 0.0
        self.last_publish_wait_seconds = 0.0
        self.last_worker_utilization = 0.0
        self._publish_wait = 0.0
        self._validate_factory()

    def _validate_factory(self) -> None:
        """Fail fast if the sketch cannot shard (no merge / no codec)."""
        probe = self.factory()
        if not isinstance(probe, MergeableStateMixin):
            raise SketchCompatibilityError(
                f"{type(probe).__name__} does not implement the "
                "mergeable-sketch protocol")
        if type(probe).merge is MergeableStateMixin.merge:
            # Re-raise the sketch's own structural reason.
            probe.merge(probe)
        if probe.STATE_KIND is None:
            raise probe._codec_unsupported()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def started(self) -> bool:
        return self._group is not None

    def worker_pids(self) -> List[int]:
        """PIDs of the live workers (empty before the first publish)."""
        if self._group is None:
            return []
        return self._group.worker_pids()

    def _ensure_started(self) -> None:
        if self._group is not None:
            return
        if self.closed:
            raise WorkerPoolError("pool is closed")
        self._slabs = [shared_array((self.slab_packets,), np.uint64)
                       for _ in range(self.num_slabs)]
        self._group = WorkerGroup(
            [_ShardWorker(self.factory, self._slabs)
             for _ in range(self.num_shards)],
            timeout=self.timeout, name=self._tname)
        self._epoch_wall_start = time.perf_counter()

    def close(self) -> None:
        """Stop and join the workers (idempotent)."""
        if self.closed:
            return
        self.closed = True
        if self._group is not None:
            self._group.close()
        self._slabs = None
        t = self._telemetry
        if t is not None:
            t.set_gauge(f"{self._tname}.workers", 0.0)

    def terminate(self) -> None:
        """Hard stop (failover path): kill and join the workers.

        Unlike :meth:`close` this never waits on the command queues —
        it is safe to call with dead or wedged workers.
        """
        self.closed = True
        if self._group is not None:
            self._group.terminate()
        self._slabs = None

    def __enter__(self) -> "PersistentShardPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # publisher side
    # ------------------------------------------------------------------

    def _recv(self):
        """Next worker reply; acks free their slab on the way past."""
        wid, reply = self._group.recv()
        if reply[0] == "ack":
            self._slab_busy[reply[1]] = False
        return wid, reply

    def publish(self, keys) -> int:
        """Copy a batch into the slab ring and deal it to a worker.

        Splits batches larger than one slab; each slab goes to the
        next worker in turn.  Returns the number of packets published.
        Raises :class:`WorkerPoolError` if a worker has died or a slab
        stays unacked past the timeout.
        """
        keys = as_key_array(keys)
        if keys.size == 0:
            return 0
        self._ensure_started()
        self._group.check_alive()
        for start in range(0, keys.size, self.slab_packets):
            chunk = keys[start:start + self.slab_packets]
            slab_id = self._next_slab
            self._next_slab = (slab_id + 1) % self.num_slabs
            if self._slab_busy[slab_id]:
                wait_start = time.perf_counter()
                while self._slab_busy[slab_id]:
                    self._recv()
                self._publish_wait += time.perf_counter() - wait_start
            self._slabs[slab_id][:chunk.size] = chunk
            self._slab_busy[slab_id] = True
            self._group.send(self.published_batches % self.num_shards,
                             ("batch", slab_id, int(chunk.size)))
            self.published_batches += 1
        self.published_packets += int(keys.size)
        t = self._telemetry
        if t is not None:
            t.set_gauge(f"{self._tname}.slabs_in_use",
                        float(sum(self._slab_busy)))
            t.set_gauge(f"{self._tname}.published_packets",
                        float(self.published_packets))
        return int(keys.size)

    def _barrier_merge(self, epoch: int, reset: bool):
        self._group.check_alive()
        self._group.broadcast(("seal", epoch, reset))
        # Each worker acks its batches before it answers the seal, so
        # once every state is in, the whole ring is free again.
        blobs, busy = {}, {}
        while len(blobs) < self.num_shards:
            wid, reply = self._recv()
            if reply[0] == "state" and reply[1] == epoch:
                blobs[wid], busy[wid] = reply[2], reply[3]
        merge_start = time.perf_counter()
        merged = self.factory()
        for wid in sorted(blobs):
            merged.merge(self.factory().from_state(blobs[wid]))
        self.last_merge_seconds = time.perf_counter() - merge_start
        wall = time.perf_counter() - self._epoch_wall_start
        if wall > 0:
            self.last_worker_utilization = (
                sum(busy.values()) / (self.num_shards * wall))
        self.last_publish_wait_seconds = self._publish_wait
        if reset:
            self.seals += 1
            self._publish_wait = 0.0
            self._epoch_wall_start = time.perf_counter()
        t = self._telemetry
        if t is not None:
            t.set_gauge(f"{self._tname}.workers", float(self.num_shards))
            t.set_gauge(f"{self._tname}.merge_seconds",
                        self.last_merge_seconds)
            t.set_gauge(f"{self._tname}.publish_wait_seconds",
                        self.last_publish_wait_seconds)
            t.set_gauge(f"{self._tname}.worker_utilization",
                        self.last_worker_utilization)
            t.set_gauge(f"{self._tname}.slabs_in_use", 0.0)
            if reset:
                t.inc(f"{self._tname}.seals")
        return merged

    def seal(self, epoch: int = 0):
        """Per-epoch barrier + merge: returns the reduced sketch.

        Every worker finishes its dealt batches (FIFO command order
        makes ``seal`` a natural barrier), serializes its shard
        replica through the codec, and resets it for the next epoch.
        The reduce merges in worker-id order, so the result is
        deterministic — and byte-identical to serial ingest.

        A pool that never saw a packet returns a fresh ``factory()``
        without starting anything.
        """
        if self._group is None:
            return self.factory()
        return self._barrier_merge(epoch, reset=True)

    def snapshot(self):
        """Mid-epoch merged view (the documented expensive path).

        Shard answers are only *cheaply* queryable post-seal; a live
        query forces the same barrier + serialize + merge as a seal,
        without resetting the shard sketches.
        """
        if self._group is None:
            return self.factory()
        return self._barrier_merge(-1, reset=False)

    def describe(self) -> dict:
        return {
            "kind": "pool",
            "shards": self.num_shards,
            "slab_packets": self.slab_packets,
            "num_slabs": self.num_slabs,
            "started": self.started,
            "closed": self.closed,
            "published_packets": self.published_packets,
            "published_batches": self.published_batches,
            "seals": self.seals,
            "last_merge_seconds": self.last_merge_seconds,
            "last_publish_wait_seconds": self.last_publish_wait_seconds,
            "last_worker_utilization": self.last_worker_utilization,
        }
