#!/usr/bin/env python3
"""Parallel ingest: shard a trace across workers, merge losslessly.

Demonstrates the pieces the engine layer adds:

1. the mergeable-sketch protocol — ``merge`` / ``to_state`` /
   ``from_state`` on every sketch (order-dependent ones refuse with a
   typed reason),
2. the unified :class:`~repro.engine.IngestBackend` API — one
   ``make_backend("kind[:shards]")`` spec builds every ingest path,
3. :class:`~repro.engine.PersistentShardPool` (the ``pool`` backend) —
   persistent workers over a shared slab ring, each slab dealt to one
   worker's shard, one merge per epoch seal; byte-identical to serial,
4. :class:`~repro.controlplane.ParallelSketchCollector` — the same
   codec bytes as the drain transport of the network-wide collector.

Run:  python examples/parallel_ingest.py
"""

import time

from repro import FCMSketch, caida_like_trace
from repro.controlplane import ParallelSketchCollector
from repro.engine import (
    PersistentShardPool,
    make_backend,
    peek_kind,
    usable_cpus,
)
from repro.errors import SketchCompatibilityError
from repro.network.simulator import NetworkSimulator
from repro.network.topology import leaf_spine
from repro.sketches import CUSketch

MEMORY = 64 * 1024


def make_sketch() -> FCMSketch:
    """Replica factory: every shard must be identically seeded."""
    return FCMSketch.with_memory(MEMORY, seed=1)


def main() -> None:
    trace = caida_like_trace(num_packets=500_000, seed=7)
    print(f"workload: {len(trace)} packets, "
          f"{trace.ground_truth.cardinality} flows")

    # --- serial reference --------------------------------------------
    serial = make_sketch()
    serial.ingest(trace.keys)
    blob = serial.to_state()
    print(f"serial:   {serial.total_packets} packets, "
          f"state codec = {len(blob):,} bytes (kind {peek_kind(blob)!r})")

    # --- the persistent pool behind the unified backend API ----------
    # Workers fork once and survive epoch seals; batches land in a
    # shared slab ring, each slab is dealt to one worker's shard, and
    # the per-epoch seal is the only merge.
    start = time.perf_counter()
    with make_backend("pool:2", sketch_factory=make_sketch) as backend:
        for epoch in range(2):
            for offset in range(0, trace.keys.shape[0], 65_536):
                backend.ingest_batch(trace.keys[offset:offset + 65_536])
            sealed = backend.seal(epoch=epoch)
            assert sealed == blob, "pool seal diverged from serial"
            print(f"pool:     epoch {epoch} sealed byte-identical: "
                  f"{sealed == blob}")
        info = backend.describe()
    elapsed = time.perf_counter() - start
    print(f"pool:     {info['shards']} persistent shards on "
          f"{usable_cpus()} usable cpu(s), "
          f"{info['pool']['published_batches']} slabs dealt, "
          f"{2 * len(trace) / elapsed:,.0f} pps")

    # --- the protocol is explicit about what cannot shard ------------
    try:
        PersistentShardPool(lambda: CUSketch(MEMORY, seed=1))
    except SketchCompatibilityError as err:
        print(f"CU refused: {err}")

    # --- snapshot-bytes drain path across a fabric -------------------
    sim = NetworkSimulator(leaf_spine(num_leaves=4, num_spines=2),
                           memory_bytes=MEMORY, seed=1)
    reports = ParallelSketchCollector(sim).process(trace, 2)
    for report in reports:
        moved = sum(report.snapshot_bytes.values())
        print(f"window {report.window_index}: "
              f"{len(report.health.switches_reached)} switches drained, "
              f"{moved:,} snapshot bytes, "
              f"cardinality ~{report.cardinality_estimate:,.0f}")


if __name__ == "__main__":
    main()
