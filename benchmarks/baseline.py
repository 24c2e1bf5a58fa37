"""Performance baseline: throughput + telemetry overhead + EM runtime.

Writes a single machine-readable record (``BENCH_throughput.json`` at
the repo root by default) capturing:

* bulk-ingest and point-query throughput (packets / keys per second)
  for every CLI-exposed sketch of interest — all sketches now run the
  vectorized batch path, and the order-dependent ones (CU, Elastic,
  FCM+TopK, HashPipe, Cold Filter) additionally report their
  ``batch_fallback_fraction``: the share of packets that had to take
  the scalar conflict-resolution path inside ``ingest``,
* the cost of the telemetry hooks on ``FCMSketch.ingest`` — both the
  *disabled* path (``telemetry=None``, must stay within noise of the
  raw tree loop) and the *enabled* path (registry + in-memory
  exporter),
* the control-plane EM runtime for one representative configuration,
* serial vs parallel EM (``em_parallel``): the same fixed-iteration
  estimate inline and fanned out over the persistent EM worker pool,
  with ``identical`` asserting the bit-exactness contract and
  ``speedup_vs_serial`` as the headline.  No absolute floor binds on
  it: the gate reads ``skipped (no measured crossover)`` on
  multi-core runners and ``skipped (cpus < 2)`` on single-core ones,
  never a silent pass,
* incremental EM across adjacent sealed epochs (``em_warm_start``):
  the streaming warm-start chain's ``iterations_saved`` on the second
  epoch, gated nonzero,
* serial vs sharded ingest through the persistent shared-memory
  worker pool (pps for the vectorized serial path, the per-packet
  Algorithm-1 reference and the pool backend; codec state bytes per
  flow; a determinism bit asserting the pool result is byte-identical
  to serial).  ``--scale paper`` adds a second ``parallel_paper``
  section at the paper's trace shape (20M packets, ~0.5M flows) where
  ``speedup_vs_serial`` is the headline number.  Runners with a
  single usable core record the section with ``gate: "skipped
  (cpus < 2)"`` — an explicit marker, never a silent pass,
* sustained ingest through the async measurement service (the full
  ``submit`` → bounded queue → worker → epoch-manager path under the
  lossless ``BLOCK`` policy, with the drain's conservation ledger
  validated alongside the throughput),
* the observability plane's own overhead — seconds per registry
  scrape snapshot, per OpenMetrics render, and per accuracy-audit
  epoch — so the cost of watching the pipeline is itself gated.

Usage::

    python -m benchmarks.baseline                     # regenerate
    python -m benchmarks.baseline --packets 20000     # quick smoke
    python -m benchmarks.baseline --validate          # schema check
    python -m benchmarks.baseline --compare           # regression gate

The record is a committed baseline, not a CI gate on absolute speed:
numbers move with hardware, but the *schema* and the relative
telemetry overhead are validated (``--validate``), which is what the
CI benchmark-smoke job runs.

``--compare`` is the perf-regression gate: it re-measures, diffs the
fresh run against the committed record under per-metric tolerances
(absolute throughputs are judged loosely — CI hardware varies run to
run — while the telemetry-overhead *ratios* are hardware-independent
and judged tightly), appends one entry to ``BENCH_trajectory.json``
and exits nonzero when any metric regresses beyond its tolerance.
Tolerances can be overridden with ``--tolerances FILE.json`` (flat
``{metric-or-suffix: fraction}``; see ``benchmarks/tolerances_ci
.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Callable, Dict, Optional

import numpy as np

from repro.controlplane.distribution import estimate_distribution
from repro.core import FCMSketch, FCMTopK
from repro.engine import PersistentShardPool, usable_cpus
from repro.sketches import (
    ColdFilterSketch,
    CountMinSketch,
    CUSketch,
    ElasticSketch,
    HashPipe,
)
from repro.telemetry import MemoryExporter, MetricsRegistry
from repro.traffic import caida_like_trace

SCHEMA_VERSION = 1

DEFAULT_OUT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_throughput.json",
)

DEFAULT_TRAJECTORY = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_trajectory.json",
)

#: Per-metric regression tolerances, as a fraction of the baseline
#: value.  Keys match the flattened metric name exactly, or its suffix
#: after the last dot.  Throughput metrics (higher is better) may drop
#: to ``baseline * (1 - tol)``; ratio/runtime metrics (lower is
#: better) may grow to ``baseline * (1 + tol)``.  Absolute speeds get
#: loose bounds — they swing with the machine — while the telemetry
#: overhead ratios are dimensionless and stay tight.
DEFAULT_TOLERANCES: Dict[str, float] = {
    "ingest_pps": 0.60,
    "query_kps": 0.60,
    "disabled_over_raw": 0.15,
    "enabled_over_disabled": 0.60,
    "seconds_per_iter": 1.00,
    "sharded_ingest_pps": 0.60,
    "speedup_vs_packet_loop": 0.60,
    "speedup_vs_serial": 0.60,
    "iterations_saved": 0.60,
    "codec_bytes_per_flow": 0.10,
    "batch_fallback_fraction": 0.10,
    "scrape_seconds_per_snapshot": 1.00,
    "render_seconds": 1.00,
    "audit_seconds_per_epoch": 1.00,
}

#: Metrics where a *larger* fresh value is the regression direction.
LOWER_IS_BETTER_SUFFIXES = (
    "disabled_over_raw", "enabled_over_disabled", "seconds_per_iter",
    "codec_bytes_per_flow", "batch_fallback_fraction",
    "scrape_seconds_per_snapshot", "render_seconds",
    "audit_seconds_per_epoch",
)

#: Metrics that scale with the packet budget; --compare skips them
#: when the fresh run's budget differs from the committed baseline's.
LOAD_DEPENDENT_METRICS = (
    "em.seconds_per_iter", "parallel.codec_bytes_per_flow",
)

MEMORY = 64 * 1024
QUERY_KEYS = 5_000

FACTORIES: Dict[str, Callable] = {
    "fcm": lambda t=None: FCMSketch.with_memory(MEMORY, seed=1, telemetry=t),
    "cm": lambda t=None: CountMinSketch(MEMORY, seed=1),
    "cu": lambda t=None: CUSketch(MEMORY, seed=1, telemetry=t),
    "elastic": lambda t=None: ElasticSketch(MEMORY, seed=1, telemetry=t),
    "fcm_topk": lambda t=None: FCMTopK(MEMORY, seed=1, telemetry=t),
    "coldfilter": lambda t=None: ColdFilterSketch(MEMORY, seed=1,
                                                  telemetry=t),
    "hashpipe": lambda t=None: HashPipe(MEMORY, seed=1, telemetry=t),
}

#: Sketches with vectorized ingest get the full packet budget; any
#: per-packet Python loop would get a fraction so the run stays short.
#: Every sketch in the zoo now ships a vectorized batch path (the
#: order-dependent ones via batch conflict resolution), so the set
#: covers all of them.
VECTORIZED = frozenset(FACTORIES)
SLOW_FRACTION = 4

#: Disabled-telemetry overhead budget on FCMSketch.ingest (ISSUE
#: acceptance: <= 5%); --validate allows a little timing noise on top.
OVERHEAD_BUDGET = 1.05
VALIDATE_SLACK = 1.10


def _best_of(repeats: int, func: Callable[[], None]) -> float:
    """Minimum wall time over ``repeats`` runs (noise-robust)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def measure_sketches(keys: np.ndarray, query_keys: np.ndarray,
                     repeats: int) -> Dict[str, dict]:
    results: Dict[str, dict] = {}
    for name in sorted(FACTORIES):
        packets = keys if name in VECTORIZED else \
            keys[: max(1, keys.shape[0] // SLOW_FRACTION)]
        ingest_s = _best_of(repeats,
                            lambda: FACTORIES[name]().ingest(packets))
        sketch = FACTORIES[name]()
        sketch.ingest(packets)
        query_s = _best_of(repeats,
                           lambda: sketch.query_many(query_keys))
        results[name] = {
            "packets": int(packets.shape[0]),
            "ingest_seconds": ingest_s,
            "ingest_pps": packets.shape[0] / ingest_s,
            "query_keys": int(query_keys.shape[0]),
            "query_seconds": query_s,
            "query_kps": query_keys.shape[0] / query_s,
        }
        # Untimed instrumented pass: the batch-conflict-resolution
        # sketches publish the share of packets that took the scalar
        # fallback path — a gauge the compare gate watches so the
        # vectorized fraction cannot silently erode.
        registry = MetricsRegistry()
        probe = FACTORIES[name](registry)
        probe.ingest(packets)
        fraction = registry.snapshot().get(
            f"{name}.ingest.batch_fallback_fraction")
        extra = ""
        if fraction is not None:
            results[name]["batch_fallback_fraction"] = float(fraction)
            extra = f"   fallback {float(fraction):.4f}"
        print(f"  {name:<10} ingest {results[name]['ingest_pps']:>12,.0f} "
              f"pps   query {results[name]['query_kps']:>12,.0f} kps"
              f"{extra}")
    return results


def measure_telemetry_overhead(keys: np.ndarray, repeats: int) -> dict:
    """Time FCM ingest raw / disabled / enabled.

    *raw* drives the trees directly (no telemetry branch at all),
    *disabled* is the shipping default (``telemetry=None`` guard),
    *enabled* counts and emits into an in-memory exporter.
    """
    def raw():
        sketch = FCMSketch.with_memory(MEMORY, seed=1)
        for tree in sketch.trees:
            tree.ingest(keys)

    def disabled():
        FCMSketch.with_memory(MEMORY, seed=1).ingest(keys)

    def enabled():
        registry = MetricsRegistry(exporter=MemoryExporter())
        FCMSketch.with_memory(MEMORY, seed=1,
                              telemetry=registry).ingest(keys)

    raw_s = _best_of(repeats, raw)
    disabled_s = _best_of(repeats, disabled)
    enabled_s = _best_of(repeats, enabled)
    overhead = {
        "ingest_seconds_raw": raw_s,
        "ingest_seconds_disabled": disabled_s,
        "ingest_seconds_enabled": enabled_s,
        "disabled_over_raw": disabled_s / raw_s,
        "enabled_over_disabled": enabled_s / disabled_s,
        "budget": OVERHEAD_BUDGET,
    }
    print(f"  telemetry  disabled/raw {overhead['disabled_over_raw']:.4f}  "
          f"enabled/disabled {overhead['enabled_over_disabled']:.4f}")
    return overhead


def _parallel_factory() -> FCMSketch:
    """Pool replica builder (every shard identically seeded)."""
    return FCMSketch.with_memory(MEMORY, seed=1)


#: The per-packet reference runs on this fraction of the trace (it is
#: Algorithm 1 in pure Python and would otherwise dominate the run).
PACKET_LOOP_FRACTION = 50

#: Paper-scale trace shape (§6 of the FCM paper evaluates one-second
#: CAIDA windows of this order): 20M packets at caida_like's mean
#: flow size of ~40 packets gives ~0.5M distinct flows.
PAPER_PACKETS = 20_000_000

#: Keys per pool publish: the pool deals each batch's slab to one
#: worker, so one publish of a short trace would keep one worker busy.
PARALLEL_BATCH = 32_768

#: Minimum usable cores for the speedup gate to be meaningful; below
#: this the section carries an explicit ``gate: skipped`` marker.
PARALLEL_MIN_CPUS = 2

GATE_OK = "ok"
GATE_SKIPPED = f"skipped (cpus < {PARALLEL_MIN_CPUS})"

#: The EM pool has no budget on record above which it reliably beats
#: the inline response step, so its section never gates.  On a 2-vCPU
#: Xeon VM, 2 workers ran 0.25-0.73x serial at 2K packets, 0.68-0.93x
#: at 100K into 16 KiB, 0.82-1.01x at 1M into 160 KiB, and
#: 0.86-1.51x at the paper's 20M into 3.2 MB (14 runs, one below 1x).
GATE_NO_CROSSOVER = "skipped (no measured crossover)"


def measure_parallel(keys: np.ndarray, num_flows: int, repeats: int,
                     shards: Optional[int] = None,
                     label: str = "parallel") -> dict:
    """Serial vs pool-sharded ingest, plus state-codec size per flow.

    Three ingest paths over the same trace:

    * *serial*: one ``FCMSketch.ingest`` call (vectorized bincount),
    * *packet loop*: per-packet ``update`` — Algorithm 1 as the data
      plane executes it, the reference the ``speedup_vs_packet_loop``
      acceptance criterion is measured against,
    * *sharded*: :class:`PersistentShardPool` — persistent workers
      over a shared slab ring, each slab dealt to one worker's
      shard-local sketch, one codec merge at seal.  The trace is
      published in :data:`PARALLEL_BATCH`-key batches, as the epoch
      runtime feeds it, so every worker gets slabs.  The pool outlives
      the repeats, so worker start-up is paid once and best-of timing
      measures the steady state, exactly like an epoch pipeline.

    ``cpus`` records the cores this process may actually run on
    (`sched_getaffinity`, not `cpu_count`), and ``gate`` says whether
    the ``speedup_vs_serial`` criterion is meaningful here: a 1-core
    runner reports ``skipped (cpus < 2)`` explicitly rather than
    letting a vacuous pass through.

    Also asserts (and records) that the pool result is byte-identical
    to the serial sketch's ``to_state()``.
    """
    cpus = usable_cpus()
    if shards is None:
        shards = max(PARALLEL_MIN_CPUS, cpus)
    gate = GATE_OK if cpus >= PARALLEL_MIN_CPUS else GATE_SKIPPED

    serial_s = _best_of(repeats,
                        lambda: _parallel_factory().ingest(keys))
    serial = _parallel_factory()
    serial.ingest(keys)
    serial_state = serial.to_state()

    loop_keys = keys[: max(1, keys.shape[0] // PACKET_LOOP_FRACTION)]

    def packet_loop():
        sketch = _parallel_factory()
        update = sketch.update
        for key in loop_keys:
            update(int(key))

    loop_s = _best_of(repeats, packet_loop)

    with PersistentShardPool(_parallel_factory,
                             num_shards=shards) as pool:
        sharded_s = float("inf")
        merged_state = b""
        merge_s = 0.0
        for _ in range(repeats):
            start = time.perf_counter()
            for offset in range(0, keys.shape[0], PARALLEL_BATCH):
                pool.publish(keys[offset:offset + PARALLEL_BATCH])
            merged = pool.seal(0)
            elapsed = time.perf_counter() - start
            if elapsed < sharded_s:
                sharded_s = elapsed
                merged_state = merged.to_state()
                merge_s = pool.last_merge_seconds

    serial_pps = keys.shape[0] / serial_s
    loop_pps = loop_keys.shape[0] / loop_s
    sharded_pps = keys.shape[0] / sharded_s
    result = {
        "packets": int(keys.shape[0]),
        "flows": int(num_flows),
        "shards": int(shards),
        "backend": "pool",
        "cpus": int(cpus),
        "gate": gate,
        "serial_ingest_pps": serial_pps,
        "packet_loop_pps": loop_pps,
        "sharded_ingest_pps": sharded_pps,
        "speedup_vs_serial": sharded_pps / serial_pps,
        "speedup_vs_packet_loop": sharded_pps / loop_pps,
        "merge_seconds": float(merge_s),
        "deterministic": bool(merged_state == serial_state),
        "codec_state_bytes": len(serial_state),
        "codec_bytes_per_flow": len(serial_state) / max(1, num_flows),
    }
    print(f"  {label:<10} serial {serial_pps:>12,.0f} pps   "
          f"pool({shards}) {sharded_pps:>12,.0f} pps   "
          f"x{result['speedup_vs_serial']:.2f} vs serial "
          f"[{gate}]")
    return result


SERVICE_SOURCES = 4
SERVICE_QUEUE = 32_768


def measure_service(keys: np.ndarray, repeats: int) -> dict:
    """Sustained ingest through the async measurement service.

    The full service path — ``submit`` → bounded queue → ingest
    worker → epoch manager — under the lossless ``BLOCK`` policy, so
    the pps measures the service's overhead on top of raw epoch
    ingest.  The drain's conservation ledger is recorded and
    validated: a benchmark run that loses packets is invalid, not
    just slow.
    """
    import asyncio

    from repro.runtime import EpochConfig, EpochManager
    from repro.service import (MeasurementService, PressureConfig,
                               trace_sources)

    epoch_packets = max(1, keys.shape[0] // 4)

    def once():
        manager = EpochManager(
            _parallel_factory,
            config=EpochConfig(epoch_packets=epoch_packets))
        service = MeasurementService(
            manager,
            pressure=PressureConfig(
                policy="block",
                source_packets=SERVICE_QUEUE // SERVICE_SOURCES,
                global_packets=SERVICE_QUEUE))
        return asyncio.run(service.run(
            trace_sources(keys, SERVICE_SOURCES, batch=4_096)))

    best = float("inf")
    report = None
    for _ in range(repeats):
        start = time.perf_counter()
        fresh = once()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best, report = elapsed, fresh
    pps = keys.shape[0] / best
    result = {
        "packets": int(keys.shape[0]),
        "sources": SERVICE_SOURCES,
        "policy": "block",
        "seconds": best,
        "ingest_pps": pps,
        "sealed_epochs": int(report.sealed_epochs),
        "shed": int(report.shed),
        "conserved": bool(report.conserved),
    }
    print(f"  service    ingest {pps:>12,.0f} pps   "
          f"{report.sealed_epochs} epochs   "
          f"{'conserved' if report.conserved else 'LEAK'}")
    return result


OBSPLANE_SCRAPES = 32
OBSPLANE_AUDIT_RATE = 0.05


def measure_obsplane(keys: np.ndarray, repeats: int) -> dict:
    """Cost of the observability plane itself.

    The plane's overhead budget has three line items, each timed in
    isolation over a registry populated by a real epoch-runtime run
    (health monitor + auditor wired, so the metric surface matches
    what ``repro obs`` actually scrapes):

    * ``scrape_seconds_per_snapshot`` — one full registry snapshot
      into the time-series store,
    * ``render_seconds`` — one OpenMetrics text exposition,
    * ``audit_seconds_per_epoch`` — the accuracy auditor's end-to-end
      cost for one epoch (hash-sample every batch, then seal against
      the ingested sketch).
    """
    from repro.runtime import EpochConfig, EpochManager
    from repro.telemetry.health import SketchHealthMonitor
    from repro.telemetry.obsplane import (
        AccuracyAuditor,
        Scraper,
        render_openmetrics,
    )

    registry = MetricsRegistry(exporter=MemoryExporter())
    manager = EpochManager(
        _parallel_factory,
        config=EpochConfig(epoch_packets=max(1, keys.shape[0] // 4)),
        telemetry=registry,
        health_monitor=SketchHealthMonitor(telemetry=registry),
        auditor=AccuracyAuditor(sample_rate=OBSPLANE_AUDIT_RATE, seed=1))
    manager.feed(keys)

    def scrape_n():
        scraper = Scraper(registry, include_timers=True)
        for _ in range(OBSPLANE_SCRAPES):
            scraper.scrape()

    scrape_s = _best_of(repeats, scrape_n) / OBSPLANE_SCRAPES
    render_s = _best_of(
        repeats, lambda: render_openmetrics(registry,
                                            include_timers=True))

    sketch = _parallel_factory()
    sketch.ingest(keys)

    def audit_epoch():
        auditor = AccuracyAuditor(sample_rate=OBSPLANE_AUDIT_RATE,
                                  seed=1)
        for start in range(0, keys.shape[0], 8_192):
            auditor.observe(keys[start:start + 8_192])
        auditor.seal(0, sketch)

    audit_s = _best_of(repeats, audit_epoch)
    probe = Scraper(registry, include_timers=True)
    probe.scrape()
    result = {
        "packets": int(keys.shape[0]),
        "metrics_scraped": len(registry.names()),
        "series": len(probe.store),
        "audit_sample_rate": OBSPLANE_AUDIT_RATE,
        "scrape_seconds_per_snapshot": scrape_s,
        "render_seconds": render_s,
        "audit_seconds_per_epoch": audit_s,
    }
    print(f"  obsplane   scrape {scrape_s * 1e6:>8,.1f} us/snapshot   "
          f"render {render_s * 1e3:.3f} ms   "
          f"audit {audit_s * 1e3:.3f} ms/epoch")
    return result


EM_PARALLEL_ITERATIONS = 5
EM_PARALLEL_MEMORY = 16 * 1024


def measure_em_parallel(keys: np.ndarray, repeats: int,
                        workers: Optional[int] = None) -> dict:
    """Serial vs fanned-out EM over the same virtual counters.

    Times the same fixed-iteration EM run twice: ``workers=1``
    (inline) and ``workers>=2`` (the persistent shared-memory EM pool
    of :mod:`repro.core.em_parallel`).  The pool is warmed with one
    throwaway run first so the spawn cost — paid once per estimator in
    production — stays out of the steady-state timing.  A smaller
    sketch than the ingest benches (more collision groups per counter
    value) keeps the response step compute-bound.

    ``identical`` records the bit-exactness contract
    (``np.array_equal`` between the two estimates) and is validated as
    a hard invariant, not a tolerance.  As with the ingest pool
    sections, ``gate`` marks whether ``speedup_vs_serial`` means
    anything here: single-core runners record ``skipped (cpus < 2)``
    and multi-core ones ``skipped (no measured crossover)``, so that
    neither the relative bound nor the absolute floor binds.
    """
    from repro.core.em import EMConfig, EMEstimator
    from repro.core.virtual import convert_sketch

    cpus = usable_cpus()
    if workers is None:
        workers = max(PARALLEL_MIN_CPUS, cpus)
    gate = (GATE_NO_CROSSOVER if cpus >= PARALLEL_MIN_CPUS
            else GATE_SKIPPED)

    sketch = FCMSketch.with_memory(EM_PARALLEL_MEMORY, seed=1)
    sketch.ingest(keys)
    arrays = convert_sketch(sketch)

    with EMEstimator(arrays, EMConfig(workers=1)) as est:
        serial_s = _best_of(
            repeats, lambda: est.run(iterations=EM_PARALLEL_ITERATIONS))
        serial = est.run(iterations=EM_PARALLEL_ITERATIONS)
        units = len(est._units)

    with EMEstimator(arrays, EMConfig(workers=workers)) as est:
        est.run(iterations=1)  # spawn + warm the pool
        parallel_s = _best_of(
            repeats, lambda: est.run(iterations=EM_PARALLEL_ITERATIONS))
        parallel = est.run(iterations=EM_PARALLEL_ITERATIONS)

    result = {
        "packets": int(keys.shape[0]),
        "iterations": EM_PARALLEL_ITERATIONS,
        "memory_bytes": EM_PARALLEL_MEMORY,
        "workers": int(workers),
        "units": int(units),
        "cpus": int(cpus),
        "gate": gate,
        "serial_seconds": serial_s,
        "parallel_seconds": parallel_s,
        "speedup_vs_serial": serial_s / parallel_s,
        "identical": bool(np.array_equal(serial.size_counts,
                                         parallel.size_counts)),
    }
    print(f"  em_par     serial {serial_s:.3f}s   "
          f"pool({workers}) {parallel_s:.3f}s   "
          f"x{result['speedup_vs_serial']:.2f} vs serial   "
          f"{'bit-identical' if result['identical'] else 'DIVERGED'} "
          f"[{gate}]")
    return result


def measure_em_warm_start(keys: np.ndarray) -> dict:
    """Incremental EM across adjacent sealed epochs.

    Feeds the trace through an :class:`EpochManager` as two sealed
    epochs and estimates both through
    :meth:`StreamingQueryAPI.estimate_distribution` twice — once with
    the warm-start chain disabled (every epoch cold) and once enabled
    (each epoch seeded from its predecessor's converged estimate).
    The headline gauge is the second epoch's ``iterations_saved``:
    the early-stopped iterations its budget allowed but the seeded run
    did not need.  ``iterations_vs_cold`` (warm minus cold iteration
    count on the same epoch) is recorded for transparency but not
    gated — on noisy adjacent epochs the cold observed-distribution
    init is already a strong start, and the win the runtime banks is
    converging well inside the budget, not beating cold's count.
    """
    from repro.runtime import EpochConfig, EpochManager
    from repro.runtime.query import StreamingQueryAPI

    epoch_packets = max(1, keys.shape[0] // 2)

    def chain(warm: bool):
        manager = EpochManager(
            _parallel_factory,
            config=EpochConfig(epoch_packets=epoch_packets))
        manager.feed(keys[: 2 * epoch_packets])
        api = StreamingQueryAPI(manager)
        return api.estimate_distribution(scope="last-2", warm_start=warm)

    cold = chain(warm=False)
    warm = chain(warm=True)
    last = max(warm)
    warm_result = warm[last]
    cold_result = cold[last]
    result = {
        "packets": int(min(keys.shape[0], 2 * epoch_packets)),
        "epochs": len(warm),
        "cold_iterations": int(cold_result.iterations),
        "warm_iterations": int(warm_result.iterations),
        "iterations_vs_cold": int(warm_result.iterations
                                  - cold_result.iterations),
        "iterations_saved": int(warm_result.iterations_saved),
        "warm_started": bool(warm_result.warm_started),
        "warm_converged": bool(warm_result.converged),
    }
    print(f"  em_warm    cold {cold_result.iterations} iters   "
          f"warm {warm_result.iterations} iters   "
          f"saved {warm_result.iterations_saved} of budget")
    return result


def measure_em(keys: np.ndarray, iterations: int = 5) -> dict:
    registry = MetricsRegistry()
    sketch = FCMSketch.with_memory(MEMORY, seed=1)
    sketch.ingest(keys)
    start = time.perf_counter()
    result = estimate_distribution(sketch, iterations=iterations,
                                   telemetry=registry)
    wall = time.perf_counter() - start
    timer_hist = registry.histogram("em.runtime_seconds")
    em = {
        "iterations": iterations,
        "runtime_seconds": timer_hist.total if timer_hist.count else wall,
        "wall_seconds": wall,
        "estimated_flows": float(result.size_counts.sum()),
    }
    print(f"  em         {em['runtime_seconds']:.3f}s "
          f"for {iterations} iterations")
    return em


def build_record(packets: int, repeats: int, seed: int,
                 paper_packets: Optional[int] = None) -> dict:
    trace = caida_like_trace(num_packets=packets, seed=seed)
    keys = trace.keys
    query_keys = trace.ground_truth.keys_array()[:QUERY_KEYS]
    print(f"baseline: {packets} packets, memory {MEMORY // 1024} KB, "
          f"best of {repeats}")
    record = {
        "schema_version": SCHEMA_VERSION,
        "packets": packets,
        "memory_bytes": MEMORY,
        "seed": seed,
        "repeats": repeats,
        "sketches": measure_sketches(keys, query_keys, repeats),
        "telemetry_overhead": measure_telemetry_overhead(keys, repeats),
        "em": measure_em(keys),
        "em_parallel": measure_em_parallel(keys, repeats),
        "em_warm_start": measure_em_warm_start(keys),
        "parallel": measure_parallel(
            keys, trace.ground_truth.keys_array().shape[0], repeats),
        "service": measure_service(keys, repeats),
        "obsplane": measure_obsplane(keys, repeats),
    }
    if paper_packets:
        del trace, keys, query_keys
        paper = caida_like_trace(num_packets=paper_packets, seed=seed)
        print(f"paper scale: {paper_packets} packets, "
              f"{paper.ground_truth.keys_array().shape[0]} flows")
        record["parallel_paper"] = measure_parallel(
            paper.keys, paper.ground_truth.keys_array().shape[0],
            max(1, min(repeats, 2)), label="paper")
    return record


def _validate_parallel_section(section: dict, prefix: str,
                               errors: list,
                               require_speedup: bool = False) -> None:
    """Schema checks shared by ``parallel`` and ``parallel_paper``.

    ``require_speedup`` enforces the paper-scale acceptance bound
    (``speedup_vs_serial > 1``) — but only when the section's own
    ``gate`` marker says the run happened on a multi-core machine;
    a ``skipped`` gate is legitimate, a *missing* one is not.
    """
    for field in ("serial_ingest_pps", "packet_loop_pps",
                  "sharded_ingest_pps", "speedup_vs_serial",
                  "speedup_vs_packet_loop", "cpus",
                  "codec_state_bytes", "codec_bytes_per_flow"):
        value = section.get(field)
        if not isinstance(value, (int, float)) or value <= 0:
            errors.append(f"{prefix}.{field} not positive")
    gate = section.get("gate")
    if gate not in (GATE_OK, GATE_SKIPPED):
        errors.append(f"{prefix}.gate missing or unrecognized "
                      f"(expected {GATE_OK!r} or {GATE_SKIPPED!r}, "
                      f"got {gate!r})")
    if section.get("deterministic") is not True:
        errors.append(f"{prefix}.deterministic is not true (pool "
                      "ingest diverged from serial)")
    speedup = section.get("speedup_vs_packet_loop")
    if isinstance(speedup, (int, float)) and speedup < 2.0:
        errors.append(f"{prefix}.speedup_vs_packet_loop {speedup:.2f} "
                      "below the 2x acceptance bound")
    if require_speedup and gate == GATE_OK:
        vs_serial = section.get("speedup_vs_serial")
        if not (isinstance(vs_serial, (int, float))
                and vs_serial > 1.0):
            errors.append(
                f"{prefix}.speedup_vs_serial {vs_serial} is not > 1 "
                "on a multi-core runner (gate 'ok')")


def validate_record(record: dict) -> list:
    """Return a list of schema violations (empty = valid)."""
    errors = []
    if record.get("schema_version") != SCHEMA_VERSION:
        errors.append(f"schema_version != {SCHEMA_VERSION}")
    sketches = record.get("sketches")
    if not isinstance(sketches, dict) or not sketches:
        errors.append("sketches missing or empty")
        sketches = {}
    for name, entry in sketches.items():
        for field in ("packets", "ingest_seconds", "ingest_pps",
                      "query_keys", "query_seconds", "query_kps"):
            value = entry.get(field)
            if not isinstance(value, (int, float)) or value <= 0:
                errors.append(f"sketches.{name}.{field} not positive")
        fraction = entry.get("batch_fallback_fraction")
        if fraction is not None and not (
                isinstance(fraction, (int, float))
                and 0.0 <= fraction <= 1.0):
            errors.append(f"sketches.{name}.batch_fallback_fraction "
                          "outside [0, 1]")
    overhead = record.get("telemetry_overhead", {})
    for field in ("ingest_seconds_raw", "ingest_seconds_disabled",
                  "ingest_seconds_enabled", "disabled_over_raw",
                  "enabled_over_disabled"):
        value = overhead.get(field)
        if not isinstance(value, (int, float)) or value <= 0:
            errors.append(f"telemetry_overhead.{field} not positive")
    ratio = overhead.get("disabled_over_raw")
    if isinstance(ratio, (int, float)) and ratio > VALIDATE_SLACK:
        errors.append(f"disabled telemetry overhead {ratio:.3f} exceeds "
                      f"{VALIDATE_SLACK} slack bound")
    em = record.get("em", {})
    for field in ("iterations", "runtime_seconds"):
        value = em.get(field)
        if not isinstance(value, (int, float)) or value <= 0:
            errors.append(f"em.{field} not positive")
    em_par = record.get("em_parallel", {})
    for field in ("iterations", "workers", "units", "cpus",
                  "serial_seconds", "parallel_seconds",
                  "speedup_vs_serial"):
        value = em_par.get(field)
        if not isinstance(value, (int, float)) or value <= 0:
            errors.append(f"em_parallel.{field} not positive")
    gate = em_par.get("gate")
    gates = (GATE_OK, GATE_SKIPPED, GATE_NO_CROSSOVER)
    if gate not in gates:
        errors.append(f"em_parallel.gate missing or unrecognized "
                      f"(expected one of {gates!r}, got {gate!r})")
    if em_par.get("identical") is not True:
        errors.append("em_parallel.identical is not true (parallel EM "
                      "diverged from serial — the bit-exactness "
                      "contract is broken)")
    warm = record.get("em_warm_start", {})
    for field in ("epochs", "cold_iterations", "warm_iterations"):
        value = warm.get(field)
        if not isinstance(value, (int, float)) or value <= 0:
            errors.append(f"em_warm_start.{field} not positive")
    saved = warm.get("iterations_saved")
    if not isinstance(saved, (int, float)) or saved < 1:
        errors.append("em_warm_start.iterations_saved below 1 (the "
                      "warm-started adjacent epoch did not converge "
                      "early)")
    for flag in ("warm_started", "warm_converged"):
        if warm.get(flag) is not True:
            errors.append(f"em_warm_start.{flag} is not true")
    _validate_parallel_section(record.get("parallel", {}),
                               "parallel", errors)
    if "parallel_paper" in record:
        _validate_parallel_section(record["parallel_paper"],
                                   "parallel_paper", errors,
                                   require_speedup=True)
    service = record.get("service", {})
    for field in ("packets", "seconds", "ingest_pps", "sealed_epochs"):
        value = service.get(field)
        if not isinstance(value, (int, float)) or value <= 0:
            errors.append(f"service.{field} not positive")
    if service.get("conserved") is not True:
        errors.append("service.conserved is not true (the drain "
                      "ledger leaked packets)")
    if service.get("shed", 0) != 0:
        errors.append("service.shed nonzero under the lossless "
                      "BLOCK policy")
    obsplane = record.get("obsplane", {})
    for field in ("metrics_scraped", "series",
                  "scrape_seconds_per_snapshot", "render_seconds",
                  "audit_seconds_per_epoch"):
        value = obsplane.get(field)
        if not isinstance(value, (int, float)) or value <= 0:
            errors.append(f"obsplane.{field} not positive")
    return errors


# ----------------------------------------------------------------------
# regression comparison (pure functions — unit-tested without timing)
# ----------------------------------------------------------------------

def flatten_metrics(record: dict) -> Dict[str, float]:
    """The gated metrics of a record as one flat ``{name: value}``."""
    out: Dict[str, float] = {}
    for name in sorted(record.get("sketches", {})):
        entry = record["sketches"][name]
        out[f"{name}.ingest_pps"] = float(entry["ingest_pps"])
        out[f"{name}.query_kps"] = float(entry["query_kps"])
        if "batch_fallback_fraction" in entry:
            out[f"{name}.batch_fallback_fraction"] = float(
                entry["batch_fallback_fraction"])
    overhead = record.get("telemetry_overhead", {})
    for field in ("disabled_over_raw", "enabled_over_disabled"):
        if field in overhead:
            out[f"telemetry.{field}"] = float(overhead[field])
    em = record.get("em", {})
    if em.get("iterations"):
        out["em.seconds_per_iter"] = (float(em["runtime_seconds"])
                                      / float(em["iterations"]))
    em_par = record.get("em_parallel", {})
    if "speedup_vs_serial" in em_par:
        out["em_parallel.speedup_vs_serial"] = float(
            em_par["speedup_vs_serial"])
    warm = record.get("em_warm_start", {})
    if "iterations_saved" in warm:
        out["em_warm_start.iterations_saved"] = float(
            warm["iterations_saved"])
    parallel = record.get("parallel", {})
    for field in ("sharded_ingest_pps", "speedup_vs_serial",
                  "speedup_vs_packet_loop", "codec_bytes_per_flow"):
        if field in parallel:
            out[f"parallel.{field}"] = float(parallel[field])
    paper = record.get("parallel_paper", {})
    for field in ("sharded_ingest_pps", "speedup_vs_serial"):
        if field in paper:
            out[f"parallel_paper.{field}"] = float(paper[field])
    service = record.get("service", {})
    if "ingest_pps" in service:
        out["service.ingest_pps"] = float(service["ingest_pps"])
    obsplane = record.get("obsplane", {})
    for field in ("scrape_seconds_per_snapshot", "render_seconds",
                  "audit_seconds_per_epoch"):
        if field in obsplane:
            out[f"obsplane.{field}"] = float(obsplane[field])
    return out


def tolerance_for(metric: str, tolerances: Dict[str, float]) -> float:
    """Tolerance by exact metric name, then dot-suffix, then 0.5."""
    if metric in tolerances:
        return float(tolerances[metric])
    suffix = metric.rsplit(".", 1)[-1]
    return float(tolerances.get(suffix, 0.5))


def compare_records(baseline: dict, fresh: dict,
                    tolerances: Dict[str, float]) -> dict:
    """Diff a fresh record against the committed baseline.

    Returns ``{"rows": [...], "regressions": [...]}`` where each row
    is ``(metric, baseline, current, ratio, tolerance, verdict)``.
    Metrics present on only one side are reported but never gate (a
    new sketch should not fail the gate retroactively); EM runtime is
    skipped when the packet budgets differ (it scales with load).

    Speedup metrics are only relatively compared when *both* records
    carry a passing gate (a 1-core baseline's speedup is noise, not a
    bar to hold).  On top of the relative tolerances, a fresh
    ``parallel_paper`` or ``em_parallel`` section with ``gate: "ok"``
    must clear the absolute acceptance floor ``speedup_vs_serial > 1``
    regardless of what the baseline recorded (``measure_em_parallel``
    records no such gate; see ``GATE_NO_CROSSOVER``).
    """
    base_metrics = flatten_metrics(baseline)
    fresh_metrics = flatten_metrics(fresh)
    same_load = baseline.get("packets") == fresh.get("packets")

    def gate_of(record, metric):
        section = metric.split(".", 1)[0]
        return record.get(section, {}).get("gate", GATE_OK)

    rows = []
    regressions = []
    for metric in sorted(set(base_metrics) | set(fresh_metrics)):
        base = base_metrics.get(metric)
        current = fresh_metrics.get(metric)
        if base is None or current is None:
            rows.append((metric, base, current, None, None, "uncompared"))
            continue
        if metric in LOAD_DEPENDENT_METRICS and not same_load:
            rows.append((metric, base, current, None, None,
                         "skipped (packet budgets differ)"))
            continue
        if metric.endswith("speedup_vs_serial"):
            skipped = [f"{gate_of(rec, metric)} on {side}"
                       for side, rec in (("baseline", baseline),
                                         ("fresh", fresh))
                       if gate_of(rec, metric) != GATE_OK]
            if skipped:
                rows.append((metric, base, current, None, None,
                             "; ".join(skipped)))
                continue
        tol = tolerance_for(metric, tolerances)
        ratio = current / base if base else float("inf")
        lower_better = metric.endswith(LOWER_IS_BETTER_SUFFIXES)
        if lower_better:
            if base == 0:
                # A zero baseline (e.g. a sketch whose batch fallback
                # never fires on the bench trace) makes the
                # multiplicative bound vacuous; treat the tolerance as
                # an absolute ceiling instead.
                regressed = current > tol
            else:
                regressed = current > base * (1.0 + tol)
        else:
            regressed = current < base * (1.0 - tol)
        verdict = "REGRESSION" if regressed else "ok"
        rows.append((metric, base, current, ratio, tol, verdict))
        if regressed:
            direction = "rose" if lower_better else "fell"
            regressions.append(
                f"{metric} {direction} beyond tolerance: "
                f"baseline {base:.6g} -> current {current:.6g} "
                f"(ratio {ratio:.3f}, tolerance {tol:.0%})")
    paper = fresh.get("parallel_paper", {})
    if paper.get("gate") == GATE_OK:
        vs_serial = paper.get("speedup_vs_serial")
        if isinstance(vs_serial, (int, float)) and vs_serial <= 1.0:
            regressions.append(
                f"parallel_paper.speedup_vs_serial {vs_serial:.3f} "
                "<= 1 on a multi-core runner: the pool backend lost "
                "to serial ingest at paper scale")
    em_par = fresh.get("em_parallel", {})
    if em_par.get("gate") == GATE_OK:
        vs_serial = em_par.get("speedup_vs_serial")
        if isinstance(vs_serial, (int, float)) and vs_serial <= 1.0:
            regressions.append(
                f"em_parallel.speedup_vs_serial {vs_serial:.3f} <= 1 "
                "on a multi-core runner: the EM worker pool lost to "
                "the inline response step")
    return {"rows": rows, "regressions": regressions}


def trajectory_entry(baseline: dict, fresh: dict,
                     comparison: dict) -> dict:
    """One ``BENCH_trajectory.json`` history entry."""
    return {
        "schema_version": SCHEMA_VERSION,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "packets": fresh.get("packets"),
        "baseline_packets": baseline.get("packets"),
        "metrics": flatten_metrics(fresh),
        "regressions": list(comparison["regressions"]),
    }


def append_trajectory(path: str, entry: dict) -> int:
    """Append ``entry`` to the JSON-list history file; returns its
    new length.  A missing file starts a fresh history; a corrupt one
    fails loudly rather than silently overwriting it."""
    history = []
    if os.path.exists(path):
        with open(path) as fh:
            history = json.load(fh)
        if not isinstance(history, list):
            raise ValueError(f"{path} does not hold a JSON list")
    history.append(entry)
    with open(path, "w") as fh:
        json.dump(history, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return len(history)


def load_tolerances(path: Optional[str]) -> Dict[str, float]:
    """The default tolerances, overridden by a flat JSON file."""
    tolerances = dict(DEFAULT_TOLERANCES)
    if path:
        with open(path) as fh:
            overrides = json.load(fh)
        if not isinstance(overrides, dict):
            raise ValueError(f"{path} must hold a flat JSON object")
        tolerances.update({str(k): float(v)
                           for k, v in overrides.items()
                           if not str(k).startswith("__")})
    return tolerances


def run_compare(args) -> int:
    try:
        with open(args.out) as fh:
            baseline = json.load(fh)
        tolerances = load_tolerances(args.tolerances)
    except (OSError, ValueError) as exc:
        print(f"compare setup failed: {exc}", file=sys.stderr)
        return 1
    errors = validate_record(baseline)
    if errors:
        for error in errors:
            print(f"INVALID baseline: {error}", file=sys.stderr)
        return 1
    packets = args.packets if args.packets is not None \
        else int(baseline.get("packets", 100_000))
    paper_packets = baseline.get("parallel_paper", {}).get("packets")
    fresh = build_record(packets, args.repeats, args.seed,
                         paper_packets=paper_packets)
    comparison = compare_records(baseline, fresh, tolerances)
    print(f"\ncompare vs {args.out}:")
    for metric, base, current, ratio, tol, verdict in comparison["rows"]:
        ratio_s = f"{ratio:.3f}" if ratio is not None else "-"
        tol_s = f"{tol:.0%}" if tol is not None else "-"
        base_s = f"{base:.6g}" if base is not None else "-"
        cur_s = f"{current:.6g}" if current is not None else "-"
        print(f"  {metric:<32} {base_s:>12} -> {cur_s:>12}  "
              f"x{ratio_s:<7} tol {tol_s:<5} {verdict}")
    entry = trajectory_entry(baseline, fresh, comparison)
    length = append_trajectory(args.trajectory, entry)
    print(f"trajectory: appended entry #{length} to {args.trajectory}")
    if comparison["regressions"]:
        for regression in comparison["regressions"]:
            print(f"REGRESSION: {regression}", file=sys.stderr)
        return 2
    print("no regressions beyond tolerance")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.baseline",
        description="regenerate or validate BENCH_throughput.json",
    )
    parser.add_argument("--packets", type=int, default=None,
                        help="packet budget (default: "
                             "$REPRO_BASELINE_PACKETS or 100000; "
                             "--compare defaults to the baseline's)")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=DEFAULT_OUT)
    parser.add_argument("--validate", action="store_true",
                        help="validate the existing record instead of "
                             "re-measuring")
    parser.add_argument("--parallel", action="store_true",
                        help="measure only the serial-vs-pool ingest "
                             "section and print it; exit nonzero when "
                             "pool ingest diverges from serial or "
                             "the packet-loop speedup drops below 2x")
    parser.add_argument("--scale", choices=("default", "paper"),
                        default="default",
                        help="'paper' sizes --parallel at the paper's "
                             "trace shape (20M packets unless "
                             "--packets overrides) and makes full "
                             "runs append a parallel_paper section")
    parser.add_argument("--shards", type=int, default=None,
                        help="pool worker count for the sharded "
                             "section (default: max(2, usable cpus))")
    parser.add_argument("--compare", action="store_true",
                        help="re-measure and gate against the committed "
                             "record; append to the trajectory history; "
                             "exit 2 on regression")
    parser.add_argument("--tolerances", default=None, metavar="PATH",
                        help="JSON file overriding per-metric "
                             "regression tolerances")
    parser.add_argument("--trajectory", default=DEFAULT_TRAJECTORY,
                        metavar="PATH",
                        help="history file appended by --compare")
    args = parser.parse_args(argv)

    if args.compare:
        return run_compare(args)
    if args.packets is None:
        if args.parallel and args.scale == "paper":
            args.packets = PAPER_PACKETS
        else:
            args.packets = int(os.environ.get("REPRO_BASELINE_PACKETS",
                                              100_000))

    if args.parallel:
        trace = caida_like_trace(num_packets=args.packets, seed=args.seed)
        shards = args.shards if args.shards is not None \
            else max(PARALLEL_MIN_CPUS, usable_cpus())
        print(f"parallel smoke ({args.scale} scale): "
              f"{args.packets} packets, {shards} shards, "
              f"best of {args.repeats}")
        section = measure_parallel(
            trace.keys, trace.ground_truth.keys_array().shape[0],
            args.repeats, shards=shards)
        print(json.dumps(section, indent=2, sort_keys=True))
        failures = []
        if not section["deterministic"]:
            failures.append("pool ingest diverged from serial")
        if section["speedup_vs_packet_loop"] < 2.0:
            failures.append(
                f"speedup_vs_packet_loop "
                f"{section['speedup_vs_packet_loop']:.2f} < 2.0")
        # The absolute paper-scale acceptance floor only binds at the
        # full paper budget on a multi-core runner; the downscaled CI
        # smoke reports the number without gating it (the --compare
        # gate owns that bound).
        if (args.scale == "paper"
                and args.packets >= PAPER_PACKETS
                and section["gate"] == GATE_OK
                and section["speedup_vs_serial"] <= 1.0):
            failures.append(
                f"speedup_vs_serial "
                f"{section['speedup_vs_serial']:.2f} <= 1 at paper "
                "scale on a multi-core runner")
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1 if failures else 0

    if args.validate:
        try:
            with open(args.out) as fh:
                record = json.load(fh)
        except (OSError, ValueError) as exc:
            print(f"cannot read {args.out}: {exc}", file=sys.stderr)
            return 1
        errors = validate_record(record)
        for error in errors:
            print(f"INVALID: {error}", file=sys.stderr)
        if not errors:
            print(f"{args.out}: schema OK "
                  f"({len(record['sketches'])} sketches)")
        return 1 if errors else 0

    record = build_record(
        args.packets, args.repeats, args.seed,
        paper_packets=PAPER_PACKETS if args.scale == "paper" else None)
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    errors = validate_record(record)
    for error in errors:
        print(f"WARNING: {error}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
