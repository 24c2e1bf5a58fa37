"""Command-line interface.

Seven subcommands mirroring how the paper's system is operated:

* ``evaluate`` — run one sketch over a synthetic workload and print
  every supported measurement vs ground truth.
* ``compare``  — run several sketches over the same workload (a
  miniature §7.5).
* ``stream``   — drive a continuous packet stream through the
  epoch-streaming runtime (zero-gap rotation, bounded retention,
  automatic heavy-change detection between adjacent epochs).
* ``serve``    — run the asyncio measurement service over the epoch
  runtime: concurrent sources, bounded queues with a pluggable
  backpressure policy, graceful drain with an exact conservation
  ledger (exit 1 on a ledger leak).
* ``resources`` — print the Table-4 style hardware resource report
  for an FCM configuration.
* ``telemetry-report`` — render an exported NDJSON event/span stream
  into per-window drain-health, EM-convergence and slow-span tables.
* ``obs``      — run the measurement service under the observability
  plane: periodic registry scrapes into time series, SLO burn-rate
  evaluation, an exact-oracle accuracy audit per epoch, and an ASCII
  dashboard.  ``--once`` drives everything on a deterministic logical
  clock and prints one final screen (byte-stable; the mode CI smokes),
  ``--watch`` live-renders while the trace streams.

Examples::

    python -m repro.cli evaluate --sketch fcm --memory-kb 64
    python -m repro.cli compare --packets 200000 --memory-kb 48
    python -m repro.cli stream --packets 60000 --epoch-packets 20000
    python -m repro.cli serve --packets 60000 --sources 4 \
        --policy shed-oldest --queue-packets 8192
    python -m repro.cli resources --memory-kb 1300 --k 8
    python -m repro.cli evaluate --telemetry-out run.ndjson \
        --trace-out spans.ndjson
    python -m repro.cli telemetry-report run.ndjson
    python -m repro.cli obs --once --packets 60000 \
        --openmetrics-out metrics.om.txt --series-out series.ndjson
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.controlplane.distribution import estimate_distribution
from repro.core import FCMConfig, FCMSketch, FCMTopK
from repro.metrics import (
    average_absolute_error,
    average_relative_error,
    f1_score,
    relative_error,
    weighted_mean_relative_error,
)
from repro.telemetry import (
    FilterExporter,
    MetricsRegistry,
    NDJSONExporter,
    TeeExporter,
)
from repro.traffic import caida_like_trace, zipf_trace


def _build_trace(args):
    if args.workload == "caida":
        return caida_like_trace(num_packets=args.packets, seed=args.seed)
    return zipf_trace(args.packets, alpha=args.alpha, seed=args.seed)


def _build_sketch(name: str, memory: int, seed: int, telemetry=None):
    from repro.sketches import (
        CountMinSketch,
        CUSketch,
        ElasticSketch,
        PyramidCMSketch,
        UnivMon,
    )

    factories = {
        "fcm": lambda: FCMSketch.with_memory(memory, seed=seed,
                                             telemetry=telemetry),
        "fcm-topk": lambda: FCMTopK(memory, k=16, seed=seed,
                                    telemetry=telemetry),
        "cm": lambda: CountMinSketch(memory, seed=seed),
        "cu": lambda: CUSketch(memory, seed=seed),
        "pcm": lambda: PyramidCMSketch(memory, seed=seed),
        "elastic": lambda: ElasticSketch(memory, seed=seed),
        "univmon": lambda: UnivMon(memory, seed=seed),
    }
    if name not in factories:
        raise SystemExit(f"unknown sketch {name!r}; "
                         f"choose from {sorted(factories)}")
    return factories[name]()


def _open_telemetry(args):
    """Build (registry, exporter) for the export flags, or Nones.

    ``--telemetry-out`` receives the full event stream;
    ``--trace-out`` a spans-only stream (same sequence numbers, so the
    two files correlate).  Either flag alone works; both tee.
    """
    path = getattr(args, "telemetry_out", None)
    trace_path = getattr(args, "trace_out", None)
    exporters = []
    if path:
        exporters.append(NDJSONExporter(path))
    if trace_path:
        exporters.append(FilterExporter(NDJSONExporter(trace_path),
                                        kinds=("span",)))
    if not exporters:
        return None, None
    exporter = exporters[0] if len(exporters) == 1 \
        else TeeExporter(*exporters)
    return MetricsRegistry(exporter=exporter), exporter


def _leaf_exporters(exporter):
    """The NDJSON sinks under a Tee/Filter stack (for the summary)."""
    if isinstance(exporter, TeeExporter):
        for inner in exporter.exporters:
            yield from _leaf_exporters(inner)
    elif isinstance(exporter, FilterExporter):
        yield from _leaf_exporters(exporter.inner)
    else:
        yield exporter


def _close_telemetry(telemetry, exporter) -> None:
    if telemetry is None:
        return
    # Timer histograms hold wall-clock time; leaving them out keeps
    # the exported stream byte-identical across seeded runs.
    telemetry.emit("summary", "run.metrics",
                   **telemetry.snapshot(include_timers=False))
    exporter.close()
    for sink in _leaf_exporters(exporter):
        print(f"telemetry: {sink.events_written} events -> {sink.path}")


def _evaluate(sketch, trace, em_iterations: int, telemetry=None,
              em_workers: int = 1) -> dict:
    gt = trace.ground_truth
    report: dict = {}
    if hasattr(sketch, "query_many"):
        est = sketch.query_many(gt.keys_array())
        report["are"] = average_relative_error(gt.sizes_array(), est)
        report["aae"] = average_absolute_error(gt.sizes_array(), est)
    if hasattr(sketch, "heavy_hitters"):
        threshold = trace.heavy_hitter_threshold()
        report["hh_f1"] = f1_score(
            sketch.heavy_hitters(gt.keys_array(), threshold),
            gt.heavy_hitters(threshold),
        )
    if hasattr(sketch, "cardinality"):
        report["cardinality_re"] = relative_error(
            gt.cardinality, sketch.cardinality()
        )
    result = None
    if isinstance(sketch, (FCMSketch, FCMTopK)):
        from repro.core.em import EMConfig

        em_config = EMConfig(workers=em_workers) if em_workers > 1 else None
        result = estimate_distribution(sketch, config=em_config,
                                       iterations=em_iterations,
                                       telemetry=telemetry)
    elif hasattr(sketch, "estimate_distribution"):
        result = sketch.estimate_distribution(iterations=em_iterations)
    if result is not None:
        report["wmre"] = weighted_mean_relative_error(
            gt.size_distribution_array(), result.size_counts
        )
        report["entropy_re"] = relative_error(gt.entropy, result.entropy)
    return report


def cmd_evaluate(args) -> int:
    trace = _build_trace(args)
    telemetry, exporter = _open_telemetry(args)
    sketch = _build_sketch(args.sketch, args.memory_kb * 1024, args.seed,
                           telemetry=telemetry)
    sketch.ingest(trace.keys)
    print(f"workload: {len(trace)} packets, "
          f"{trace.num_flows} flows ({trace.name})")
    print(f"sketch:   {args.sketch} @ {args.memory_kb} KB")
    for metric, value in _evaluate(sketch, trace, args.em_iterations,
                                   telemetry=telemetry,
                                   em_workers=args.em_workers).items():
        print(f"  {metric:<15} {value:.6f}")
    if telemetry is not None and hasattr(sketch, "emit_state"):
        sketch.emit_state()
    _close_telemetry(telemetry, exporter)
    return 0


def cmd_compare(args) -> int:
    trace = _build_trace(args)
    telemetry, exporter = _open_telemetry(args)
    print(f"workload: {len(trace)} packets, {trace.num_flows} flows")
    header = (f"{'sketch':<10} {'ARE':>9} {'AAE':>9} {'HH F1':>7} "
              f"{'card RE':>9}")
    print(header)
    print("-" * len(header))
    for name in args.sketches.split(","):
        sketch = _build_sketch(name.strip(), args.memory_kb * 1024,
                               args.seed, telemetry=telemetry)
        sketch.ingest(trace.keys)
        report = _evaluate(sketch, trace, em_iterations=0,
                           telemetry=telemetry)

        def cell(key: str) -> str:
            return f"{report[key]:.4f}" if key in report else "-"

        print(f"{name:<10} {cell('are'):>9} {cell('aae'):>9} "
              f"{cell('hh_f1'):>7} {cell('cardinality_re'):>9}")
    _close_telemetry(telemetry, exporter)
    return 0


def _stream_sketch(memory_bytes: int, seed: int) -> FCMSketch:
    """Epoch-sketch factory for the stream, serve and obs commands."""
    return FCMSketch.with_memory(memory_bytes, seed=seed)


def cmd_stream(args) -> int:
    import functools

    from repro.runtime import EpochConfig, EpochManager, StreamingQueryAPI

    trace = _build_trace(args)
    telemetry, exporter = _open_telemetry(args)
    config = EpochConfig(
        epoch_packets=args.epoch_packets,
        retention=args.retention,
        change_threshold=args.change_threshold,
    )
    manager = EpochManager(
        functools.partial(_stream_sketch, args.memory_kb * 1024,
                          args.seed),
        config=config, backend=args.backend,
        telemetry=telemetry,
    )
    print(f"workload: {len(trace)} packets, {trace.num_flows} flows "
          f"({trace.name})")
    print(f"runtime:  fcm @ {args.memory_kb} KB, "
          f"{args.epoch_packets} packets/epoch, "
          f"retention {args.retention}, backend {manager.backend_spec}")
    header = (f"{'epoch':>5} {'packets':>9} {'cardinality':>12} "
              f"{'changes':>8} {'state B':>9} {'reason':>12}")
    print(header)
    print("-" * len(header))
    reported = 0
    for start in range(0, len(trace), args.batch):
        manager.feed(trace.keys[start:start + args.batch])
        for epoch in manager.store:
            if epoch.index >= reported:
                print(f"{epoch.index:>5} {epoch.packets:>9} "
                      f"{epoch.cardinality:>12.1f} "
                      f"{len(epoch.heavy_changes):>8} "
                      f"{epoch.state_bytes:>9} {epoch.reason:>12}")
                reported = epoch.index + 1
    api = StreamingQueryAPI(manager)
    gt = trace.ground_truth
    threshold = trace.heavy_hitter_threshold()
    hitters = api.heavy_hitters(gt.keys_array(), threshold, scope="all")
    sealed_packets = sum(e.packets for e in manager.store) \
        + manager.store.evicted * (args.epoch_packets or 0)
    print(f"live epoch {manager.live_epoch_index}: "
          f"{manager.live_packets} packets")
    print(f"ledger: sealed {sealed_packets} + live "
          f"{manager.live_packets} == fed {manager.packets_fed} "
          f"({'zero-gap ok' if sealed_packets + manager.live_packets == manager.packets_fed else 'PACKETS LOST'})")
    print(f"heavy hitters (scope=all, threshold {threshold}): "
          f"{len(hitters)}")
    if args.em_warm_start:
        print("per-epoch EM (warm-started along the seal chain):")
        em_header = (f"{'epoch':>5} {'iters':>6} {'saved':>6} "
                     f"{'warm':>5} {'flows':>10}")
        print(em_header)
        print("-" * len(em_header))
        for index, result in api.estimate_distribution(
                scope=max(1, len(manager.store)),
                warm_start=True).items():
            print(f"{index:>5} {result.iterations:>6} "
                  f"{result.iterations_saved:>6} "
                  f"{'yes' if result.warm_started else 'no':>5} "
                  f"{result.total_flows:>10.1f}")
    manager.close(seal_live=False)
    _close_telemetry(telemetry, exporter)
    return 0


def cmd_serve(args) -> int:
    import asyncio
    import functools

    from repro.runtime import EpochConfig, EpochManager
    from repro.service import (
        MeasurementService,
        PressureConfig,
        trace_sources,
    )

    trace = _build_trace(args)
    telemetry, exporter = _open_telemetry(args)
    manager = EpochManager(
        functools.partial(_stream_sketch, args.memory_kb * 1024,
                          args.seed),
        config=EpochConfig(epoch_packets=args.epoch_packets,
                           retention=args.retention),
        backend=args.backend,
        telemetry=telemetry,
    )
    pressure = PressureConfig(policy=args.policy,
                              source_packets=args.source_queue_packets,
                              global_packets=args.queue_packets,
                              high_water=args.high_water,
                              seed=args.seed)
    service = MeasurementService(manager, pressure=pressure,
                                 telemetry=telemetry,
                                 worker_batch=args.worker_batch,
                                 ingest_delay=args.ingest_delay)
    sources = trace_sources(trace.keys, args.sources, batch=args.batch,
                            burst=args.burst)
    print(f"workload: {len(trace)} packets, {trace.num_flows} flows "
          f"({trace.name})")
    print(f"service:  {args.sources} sources, policy "
          f"{pressure.policy.value}, queue {args.queue_packets} "
          f"(per-source {args.source_queue_packets}), "
          f"{args.epoch_packets} packets/epoch")
    report = asyncio.run(service.run(sources))
    header = (f"{'epoch':>5} {'packets':>9} {'shed level':>11} "
              f"{'sample':>7} {'reason':>8}")
    print(header)
    print("-" * len(header))
    for epoch in manager.store:
        level = report.epoch_degradation.get(epoch.index)
        rate = service.epoch_sample_rate.get(epoch.index, 1.0)
        print(f"{epoch.index:>5} {epoch.packets:>9} "
              f"{(level.name if level else '-'):>11} "
              f"{rate:>7.2f} {epoch.reason:>8}")
    print(f"{'source':>8} {'offered':>9} {'accepted':>9} "
          f"{'shed':>7} {'waits':>6}")
    for name in sorted(report.per_source):
        stats = report.per_source[name]
        print(f"{name:>8} {stats.offered:>9} {stats.accepted:>9} "
              f"{stats.shed:>7} {stats.waits:>6}")
    print(report.ledger_line())
    print(f"pressure: transitions {report.pressure_transitions}, "
          f"queue high-water {report.queue_high_water}, "
          f"stalls {report.stalls}, failovers {report.failovers}")
    _close_telemetry(telemetry, exporter)
    if not report.conserved:
        print("error: conservation ledger violated", file=sys.stderr)
        return 1
    return 0


def cmd_obs(args) -> int:
    """The observability plane over a synchronous service run.

    Drives the measurement service's deterministic core (admit /
    ingest_step / drain_core — no asyncio) so ``--once`` output is
    byte-stable: the registry clock is a logical millisecond counter,
    scrape ticks are scrape counts, and the audit/SLO state depends
    only on the seed.
    """
    import functools
    import itertools
    import time as _time

    from repro.runtime import EpochConfig, EpochManager
    from repro.service import MeasurementService, PressureConfig
    from repro.telemetry import (
        MemoryExporter,
        SketchHealthMonitor,
        TeeExporter,
    )
    from repro.telemetry.obsplane import (
        AccuracyAuditor,
        ObservabilityPlane,
        default_service_slos,
    )

    trace = _build_trace(args)
    if args.once:
        # Logical clock: every read advances 1 ms.  Timers and spans
        # then hold deterministic durations, so even the timer-fed
        # histograms in the OpenMetrics text are byte-stable.
        counter = itertools.count()
        clock = lambda: next(counter) * 1e-3  # noqa: E731
    else:
        clock = _time.perf_counter
    memory_exporter = MemoryExporter()
    exporter = memory_exporter
    sinks = []
    if getattr(args, "telemetry_out", None):
        sinks.append(NDJSONExporter(args.telemetry_out))
        exporter = TeeExporter(memory_exporter, sinks[0])
    registry = MetricsRegistry(exporter=exporter, clock=clock)
    auditor = AccuracyAuditor(sample_rate=args.audit_rate,
                              seed=args.seed, telemetry=registry)
    manager = EpochManager(
        functools.partial(_stream_sketch, args.memory_kb * 1024,
                          args.seed),
        config=EpochConfig(epoch_packets=args.epoch_packets,
                           retention=args.retention),
        telemetry=registry,
        health_monitor=SketchHealthMonitor(telemetry=registry),
        auditor=auditor,
    )
    service = MeasurementService(
        manager,
        pressure=PressureConfig(policy=args.policy, seed=args.seed),
        telemetry=registry, worker_batch=args.worker_batch,
        clock=clock)
    plane = ObservabilityPlane(
        registry,
        objectives=default_service_slos(
            ingest_floor=args.ingest_floor,
            shed_ceiling=args.shed_ceiling,
            drain_p99_ceiling=args.drain_p99_ceiling),
        auditor=auditor, include_timers=True)
    plane.on_alert(service.on_slo_alert)

    sources = [f"src{i}" for i in range(args.sources)]
    keys = trace.keys
    batches = 0
    for start in range(0, keys.size, args.batch):
        remaining = keys[start:start + args.batch]
        source = sources[batches % len(sources)]
        while remaining.size:
            outcome = service.admit(source, remaining)
            remaining = outcome.deferred
            if remaining.size:          # BLOCK deferred: make room
                service.ingest_step()
        batches += 1
        while service.queues.depth >= service.worker_batch:
            service.ingest_step()
        if batches % args.scrape_every == 0:
            plane.tick()
            if args.watch and not args.once:
                sys.stdout.write("\x1b[2J\x1b[H"
                                 + plane.dashboard(width=args.width))
                sys.stdout.flush()
                _time.sleep(args.refresh)
    while service.queues.depth:
        service.ingest_step()
    report = service.drain_core()
    plane.tick()

    if args.openmetrics_out:
        text = plane.openmetrics()
        with open(args.openmetrics_out, "w") as handle:
            handle.write(text)
        print(f"openmetrics: {len(text.splitlines())} lines -> "
              f"{args.openmetrics_out}")
    if args.series_out:
        count = plane.write_series(args.series_out)
        print(f"series: {count} series -> {args.series_out}")
    for sink in sinks:
        sink.close()
        print(f"telemetry: {sink.events_written} events -> {sink.path}")
    print(plane.dashboard(width=args.width), end="")
    print(report.ledger_line())
    fired = len(plane.slo.alerts) if plane.slo is not None else 0
    print(f"slo: {fired} alert(s) fired, "
          f"{len(plane.firing_alerts)} firing at exit")
    if not report.conserved:
        print("error: conservation ledger violated", file=sys.stderr)
        return 1
    return 0


def cmd_telemetry_report(args) -> int:
    from repro.telemetry.report import load_ndjson, render_report

    try:
        records = load_ndjson(args.ndjson)
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(render_report(records, top_spans=args.top_spans,
                        traces=args.traces), end="")
    return 0


def cmd_resources(args) -> int:
    from repro.dataplane import SWITCH_P4, fcm_resources, \
        fcm_topk_resources

    config = FCMConfig(k=args.k).with_memory(args.memory_kb * 1024)
    print(f"configuration: {config.describe()}")
    for report in (fcm_resources(config), fcm_topk_resources(config),
                   SWITCH_P4):
        print(f"{report.name:<12} SRAM {report.sram_pct:6.2f}%  "
              f"sALU {report.salu_pct:6.2f}%  "
              f"hash {report.hash_bits_pct:6.2f}%  "
              f"stages {report.stages}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="FCM-Sketch reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_workload_args(p):
        p.add_argument("--workload", choices=["caida", "zipf"],
                       default="caida")
        p.add_argument("--packets", type=int, default=200_000)
        p.add_argument("--alpha", type=float, default=1.3,
                       help="Zipf skew (zipf workload only)")
        p.add_argument("--memory-kb", type=int, default=64)
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--telemetry-out", default=None, metavar="PATH",
                       help="write an NDJSON telemetry event stream to "
                            "PATH (disabled by default)")
        p.add_argument("--trace-out", default=None, metavar="PATH",
                       help="write a spans-only NDJSON stream to PATH "
                            "(combinable with --telemetry-out)")

    p_eval = sub.add_parser("evaluate", help="evaluate one sketch")
    add_workload_args(p_eval)
    p_eval.add_argument("--sketch", default="fcm")
    p_eval.add_argument("--em-iterations", type=int, default=5)
    p_eval.add_argument("--em-workers", type=int, default=1,
                        help="EM worker processes for the response step "
                             "(>1 fans out, bit-identical to serial)")
    p_eval.set_defaults(func=cmd_evaluate)

    p_cmp = sub.add_parser("compare", help="compare several sketches")
    add_workload_args(p_cmp)
    p_cmp.add_argument("--sketches",
                       default="cm,cu,pcm,fcm,fcm-topk,elastic")
    p_cmp.set_defaults(func=cmd_compare)

    p_stream = sub.add_parser(
        "stream", help="continuous epoch-streaming runtime")
    add_workload_args(p_stream)
    p_stream.add_argument("--epoch-packets", type=int, default=20_000,
                          help="packets per measurement epoch")
    p_stream.add_argument("--retention", type=int, default=8,
                          help="sealed epochs kept in the store")
    p_stream.add_argument("--batch", type=int, default=4096,
                          help="feed batch size (epoch boundaries may "
                               "split a batch; no packets are lost)")
    p_stream.add_argument("--change-threshold", type=int, default=None,
                          help="run §4.4 heavy-change detection between "
                               "adjacent epochs at this threshold")
    p_stream.add_argument("--em-warm-start", action="store_true",
                          help="after streaming, run per-epoch EM "
                               "warm-started along the seal chain and "
                               "print iterations saved per epoch")
    p_stream.add_argument("--backend", default="inline",
                          help="ingest backend spec 'kind[:shards]': "
                               "inline or pool (e.g. pool:4)")
    p_stream.set_defaults(func=cmd_stream)

    p_serve = sub.add_parser(
        "serve", help="async measurement service over the epoch "
                      "runtime (bounded queues, backpressure, drain)")
    add_workload_args(p_serve)
    p_serve.add_argument("--sources", type=int, default=4,
                         help="number of concurrent simulated sources")
    p_serve.add_argument("--policy",
                         choices=["block", "shed-newest", "shed-oldest",
                                  "degrade-sample"],
                         default="block",
                         help="backpressure policy at admission")
    p_serve.add_argument("--queue-packets", type=int, default=32_768,
                         help="global queued-packet bound")
    p_serve.add_argument("--source-queue-packets", type=int,
                         default=8_192,
                         help="per-source queued-packet bound")
    p_serve.add_argument("--high-water", type=float, default=0.75,
                         help="pressure threshold as a fraction of the "
                              "global bound")
    p_serve.add_argument("--epoch-packets", type=int, default=20_000,
                         help="packets per measurement epoch")
    p_serve.add_argument("--retention", type=int, default=8,
                         help="sealed epochs kept in the store")
    p_serve.add_argument("--batch", type=int, default=2_048,
                         help="per-source submit batch size")
    p_serve.add_argument("--burst", type=int, default=1,
                         help="batches each source submits back-to-back "
                              "before yielding")
    p_serve.add_argument("--worker-batch", type=int, default=4_096,
                         help="max packets per ingest-worker step")
    p_serve.add_argument("--ingest-delay", type=float, default=0.0,
                         help="artificial seconds of work per ingest "
                              "step (slow-consumer simulation)")
    p_serve.add_argument("--backend", default="inline",
                         help="ingest backend spec 'kind[:shards]': "
                              "inline or pool (e.g. pool:4)")
    p_serve.set_defaults(func=cmd_serve)

    p_obs = sub.add_parser(
        "obs", help="observability plane over the measurement service "
                    "(scrapes, SLO burn rates, accuracy audit, ASCII "
                    "dashboard)")
    add_workload_args(p_obs)
    p_obs.add_argument("--once", action="store_true",
                       help="deterministic one-shot run on a logical "
                            "clock; prints one final dashboard "
                            "(byte-stable output, used by CI)")
    p_obs.add_argument("--watch", action="store_true",
                       help="re-render the dashboard live while the "
                            "trace streams (real clock)")
    p_obs.add_argument("--sources", type=int, default=4,
                       help="number of simulated sources")
    p_obs.add_argument("--policy",
                       choices=["block", "shed-newest", "shed-oldest",
                                "degrade-sample"],
                       default="block",
                       help="backpressure policy at admission")
    p_obs.add_argument("--epoch-packets", type=int, default=20_000,
                       help="packets per measurement epoch")
    p_obs.add_argument("--retention", type=int, default=8,
                       help="sealed epochs kept in the store")
    p_obs.add_argument("--batch", type=int, default=2_048,
                       help="per-source submit batch size")
    p_obs.add_argument("--worker-batch", type=int, default=4_096,
                       help="max packets per ingest step")
    p_obs.add_argument("--scrape-every", type=int, default=4,
                       help="scrape the registry every N batches")
    p_obs.add_argument("--audit-rate", type=float, default=0.05,
                       help="fraction of flows in the exact-oracle "
                            "accuracy audit")
    p_obs.add_argument("--ingest-floor", type=float, default=1.0,
                       help="SLO: minimum ingested packets per scrape "
                            "tick")
    p_obs.add_argument("--shed-ceiling", type=float, default=0.05,
                       help="SLO: maximum shed/accepted fraction")
    p_obs.add_argument("--drain-p99-ceiling", type=float, default=1.0,
                       help="SLO: p99 epoch-drain seconds ceiling")
    p_obs.add_argument("--openmetrics-out", default=None, metavar="PATH",
                       help="write the OpenMetrics text exposition")
    p_obs.add_argument("--series-out", default=None, metavar="PATH",
                       help="write the scraped time series as NDJSON")
    p_obs.add_argument("--refresh", type=float, default=0.5,
                       help="--watch refresh interval in seconds")
    p_obs.add_argument("--width", type=int, default=78,
                       help="dashboard width in characters")
    p_obs.set_defaults(func=cmd_obs)

    p_res = sub.add_parser("resources", help="hardware resource report")
    p_res.add_argument("--memory-kb", type=int, default=1300)
    p_res.add_argument("--k", type=int, default=8)
    p_res.set_defaults(func=cmd_resources)

    p_rep = sub.add_parser(
        "telemetry-report",
        help="render an NDJSON telemetry stream into tables")
    p_rep.add_argument("ndjson", metavar="PATH",
                       help="NDJSON file from --telemetry-out/--trace-out")
    p_rep.add_argument("--top-spans", type=int, default=10,
                       help="size of the slow-span ranking (default 10)")
    p_rep.add_argument("--traces", action="store_true",
                       help="also summarize reconstructed traces")
    p_rep.set_defaults(func=cmd_telemetry_report)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
