"""Repository benchmark: generated keys -> service -> runtime -> sketch ->
seal -> per-window control-plane answer -> count-queries.

Run from the repository root::

    python3 perfbench/run.py --workload caida_windows --seed 1 \\
        --seconds 30 --trace 0

A run repeats whole *rounds* until ``--seconds`` have passed.  A round
builds a fresh runtime, ingests the seeded input (timed), answers every
sealed window (timed per window), count-queries every flow key over
scope ``all`` (timed), and then checks every output against exact
counts (untimed).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics from an
instrumented run with ``--trace 1``.  See README.md.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from calib import DriftClock  # noqa: E402
from checks import WindowTruth  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Tally:
    """Operations attempted and failed, with the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def add(self, operations: int, failures) -> None:
        """Record ``operations`` attempts; all fail if any check did."""
        self.attempted += operations
        if failures:
            self.failed += operations
            self.messages.extend(failures)


def sketch_packets(sketch) -> int:
    """Packets a sealed sketch holds: FCM's tree total, or for FCM+TopK
    the resident Top-K counts plus what reached its FCM."""
    if hasattr(sketch, "topk"):
        return (sum(count for _, count, _ in sketch.heavy_entries())
                + sketch.fcm.total_packets)
    return sketch.total_packets


class Bench:
    """State of one run: its workload, inputs, clock and accumulators."""

    SEGMENT_S = 0.1          # raw ingest seconds between drift probes
    SERVICE_SEGMENT = 16     # batches per source between drift probes

    def __init__(self, workload, keys, clock, tracer):
        from repro.core.em import EMConfig
        from repro.runtime.query import DEFAULT_RUNTIME_EM_TOL

        self.wl = workload
        self.keys = keys
        self.clock = clock
        self.tracer = tracer
        self.em_config = EMConfig(convergence_tol=DEFAULT_RUNTIME_EM_TOL)
        # Direct workloads feed the same keys in the same order every
        # round, so their exact counts are computed once.
        self.direct_truth = self.total_truth = None
        if not workload.sources:
            self.direct_truth = [
                WindowTruth.of(window) for window in
                np.split(keys, workload.windows)]
            self.total_truth = WindowTruth.of(keys)
        self.tally = Tally()
        self.rounds = 0
        self.packets = 0
        self.ingest_s = 0.0
        self.answers = []
        self.keys_queried = 0
        self.query_s = 0.0
        # The same three timings unscaled, reported on stderr to show
        # what the drift scaling removes.
        self.raw = {"ingest_s": 0.0, "answers": [], "query_s": 0.0}
        self.are = []
        self.wmre = []
        self.worst = dict.fromkeys(checks.ACCURACY_BOUNDS, 0.0)
        self.layer_counts = {"runtime.candidates": 0, "service.waits": 0}

    def _traced(self, on: bool) -> None:
        if self.tracer is not None:
            self.tracer.enabled = on

    # -- phases --------------------------------------------------------

    def ingest_direct(self, manager) -> int:
        clock, batch, keys = self.clock, self.wl.batch, self.keys
        started = clock.start()
        batches = 0
        for first in range(0, keys.size, batch):
            manager.feed(keys[first:first + batch])
            batches += 1
            if time.perf_counter() - started >= self.SEGMENT_S:
                self._ingest_step(started)
                started = clock.start()
        self._ingest_step(started)
        manager.close()
        return batches

    async def ingest_service(self, service, sources):
        from repro.service import SimulatedSource

        clock, step = self.clock, self.SERVICE_SEGMENT
        await service.start()
        longest = max(len(source.batches) for source in sources)
        for first in range(0, longest, step):
            part = [SimulatedSource(s.name, s.batches[first:first + step])
                    for s in sources]
            started = clock.start()
            await asyncio.gather(*(source.run(service) for source in part))
            while service.queues.depth:
                await asyncio.sleep(0)
            self._ingest_step(started)
        started = clock.start()
        report = await service.drain()
        self._ingest_step(started)
        return report

    def _ingest_step(self, started: float) -> None:
        self.ingest_s += self.clock.stop(started)
        self.raw["ingest_s"] += self.clock.last_raw

    def answer(self, epochs):
        from repro.controlplane.distribution import estimate_distribution

        answers, previous = [], None
        for epoch in epochs:
            started = self.clock.start()
            sketch = epoch.sketch()
            result = estimate_distribution(sketch, config=self.em_config,
                                           warm_start=previous)
            entropy = result.entropy
            hitters = sketch.heavy_hitters(epoch.candidates,
                                           self.wl.threshold)
            self.answers.append(self.clock.stop(started))
            self.raw["answers"].append(self.clock.last_raw)
            answers.append((result, entropy, hitters))
            previous = result
        return answers

    def query(self, manager, truth):
        """Scope-``all`` count-queries of every flow key; returns the
        number of estimates below the exact count."""
        from repro.runtime import StreamingQueryAPI

        api = StreamingQueryAPI(manager)
        chunk, low = self.wl.query_chunk, 0
        for _ in range(self.wl.query_passes):
            for first in range(0, truth.keys.size, chunk):
                keys = truth.keys[first:first + chunk]
                started = self.clock.start()
                estimates = api.query_many(keys, scope="all")
                self.query_s += self.clock.stop(started)
                self.raw["query_s"] += self.clock.last_raw
                low += int(
                    (estimates < truth.counts[first:first + chunk]).sum())
            self.keys_queried += truth.keys.size
        return low

    # -- one round -----------------------------------------------------

    def round(self, runtime) -> None:
        wl, tally = self.wl, self.tally
        manager, service = runtime
        label = f"round {self.rounds}"

        if service is None:
            self._traced(True)
            batches = self.ingest_direct(manager)
            self._traced(False)
            fed = self.keys
        else:
            from repro.service import trace_sources

            # Record the keys that reach the runtime, in feed order.
            parts = []
            feed = manager.feed

            def recording_feed(keys):
                parts.append(keys)
                feed(keys)

            manager.feed = recording_feed
            sources = trace_sources(self.keys, wl.sources, batch=wl.batch)
            batches = sum(len(source.batches) for source in sources)
            self._traced(True)
            report = asyncio.run(self.ingest_service(service, sources))
            self._traced(False)
            del manager.feed    # the recorder closes a reference cycle
            fed = np.concatenate(parts)
        self.packets += int(fed.size)
        epochs = list(manager.store)
        if service is None:
            truths, total = self.direct_truth, self.total_truth
        else:
            cuts = np.cumsum([epoch.packets for epoch in epochs])[:-1]
            truths = [WindowTruth.of(part) for part in np.split(fed, cuts)]
            total = WindowTruth.of(fed)

        self._traced(True)
        answers = self.answer(epochs)
        low = self.query(manager, total)
        self._traced(False)

        ingest_failures = checks.check_ledger(
            [epoch.packets for epoch in epochs],
            [sketch_packets(epoch.sketch()) for epoch in epochs],
            self.keys.size, label)
        if service is not None:
            ingest_failures += checks.check_fed_multiset(fed, self.keys,
                                                         label)
            ingest_failures += checks.check_service_ledger(
                report, self.keys.size, label)
            self.layer_counts["service.waits"] += sum(
                stats.waits for stats in service.sources.values())
        if len(epochs) != wl.windows:
            ingest_failures.append(f"{label}: {len(epochs)} windows "
                                   f"sealed, {wl.windows} expected")
        tally.add(batches, ingest_failures)

        for epoch, truth, (result, entropy, hitters) in zip(epochs, truths,
                                                            answers):
            what = f"{label} window {epoch.index}"
            sketch = epoch.sketch()
            estimates = sketch.query_many(truth.keys)
            failures = checks.check_no_underestimate(estimates, truth, what)
            failures += checks.check_heavy_hitters(hitters, truth,
                                                   wl.threshold, what)
            if not wl.topk:
                failures += checks.check_em_mass(result.size_counts,
                                                 epoch.packets, what)
            answer = (epoch.cardinality, result.total_flows, entropy)
            failures += checks.check_accuracy(*answer, truth, what)
            tally.add(1, failures)
            for kind, error in checks.accuracy_errors(*answer,
                                                      truth).items():
                self.worst[kind] = max(self.worst[kind], error)
            self.are.append(checks.average_relative_error(estimates,
                                                          truth.counts))
            self.wmre.append(checks.wmre(truth.size_histogram(),
                                         result.size_counts))
            self.layer_counts["runtime.candidates"] += len(epoch.candidates)

        tally.attempted += wl.query_passes * total.keys.size
        if low:
            tally.failed += low
            tally.messages.append(f"{label}: {low} scope-all count-queries "
                                  f"below the exact count")
        self.rounds += 1

    # -- results -------------------------------------------------------

    def end_to_end(self, setup_s: float) -> dict:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return {
            "setup_s": (setup_s, "s"),
            "ingest_pps": (self.packets / self.ingest_s, "packets/s"),
            "answer_s": (statistics.median(self.answers), "s"),
            "query_kps": (self.keys_queried / self.query_s / 1e3,
                          "1000keys/s"),
            "peak_rss_mb": (peak_mb, "MB"),
            "count_are": (statistics.fmean(self.are), "1"),
            "dist_wmre": (statistics.fmean(self.wmre), "1"),
        }

    def per_layer(self, enum_hit_ratio: float) -> dict:
        tracer, rounds = self.tracer, self.rounds
        times = tracer.self_times()
        counts = tracer.counts
        # Layer times in the same drift-scaled seconds as the end-to-end
        # metrics, per round.
        scale = self.clock.factor / rounds

        def seconds(name):
            return (times.get(name, 0.0) * scale, "s")

        def per_round(value, unit="count"):
            return (value / rounds, unit)

        def ratio(num, den, unit="1"):
            return (num / den if den else 0.0, unit)

        return {
            "service.admit_s": seconds("service.admit"),
            "service.pop_s": seconds("service.pop"),
            "service.blocked_s": seconds("service.blocked"),
            "service.waits": per_round(self.layer_counts["service.waits"]),
            "runtime.feed_s": seconds("runtime.feed"),
            "runtime.rotate_s": seconds("runtime.rotate"),
            "runtime.candidates": per_round(
                self.layer_counts["runtime.candidates"]),
            "runtime.new_key_ratio": ratio(counts["runtime.batch_keys"],
                                           counts["runtime.batch_packets"]),
            "runtime.heavy_change_s": seconds("runtime.heavy_change"),
            "runtime.heavy_changes": per_round(
                counts["runtime.heavy_changes"]),
            "engine.ingest_s": seconds("engine.ingest"),
            "engine.seal_s": seconds("engine.seal"),
            "sketch.ingest_s": seconds("sketch.ingest"),
            "sketch.packets_per_call": ratio(counts["sketch.packets"],
                                             counts["sketch.calls"],
                                             "packets"),
            "hashing.index_s": seconds("hashing.index"),
            "hashing.keys": per_round(counts["hashing.keys"]),
            "topk.replay_s": seconds("topk.replay"),
            "topk.flows_replayed": per_round(counts["topk.flows_replayed"]),
            "codec.encode_s": seconds("codec.encode"),
            "codec.decode_s": seconds("codec.decode"),
            "codec.state_bytes": per_round(counts["codec.state_bytes"], "B"),
            "control.virtual_s": seconds("control.virtual"),
            "control.em_prepare_s": seconds("control.em_prepare"),
            "control.em_run_s": seconds("control.em_run"),
            "control.em_iterations": per_round(
                counts["control.em_iterations"]),
            "control.enum_hit_ratio": (enum_hit_ratio, "1"),
            "control.virtual_counters": per_round(
                counts["control.virtual_counters"]),
            "control.hh_s": seconds("control.hh"),
            "control.cardinality_s": seconds("control.cardinality"),
            "query.api_s": seconds("query.api"),
            "query.sketch_s": seconds("query.sketch"),
            "query.keys": per_round(counts["query.keys"]),
        }


def alone() -> list:
    """Problems if the process is not alone: a second Python thread or
    any child process (running or exited)."""
    problems = []
    if threading.active_count() != 1:
        names = [t.name for t in threading.enumerate()]
        problems.append(f"Python threads alive at exit: {names}")
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
        problems.append(f"a child process exists (reaped pid {pid})"
                        if pid else "a child process is still running")
    except ChildProcessError:
        pass
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}; run from "
              f"a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import repro
    from repro.core.em import enumerate_combinations

    from workloads import WORKLOADS

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not "
              f"{SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose "
              f"from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    imports_s = time.perf_counter() - T0

    # Set-up stays unscaled: a probe after the imports says little about
    # the speed during them (README.md).  Input generation comes after.
    workload = WORKLOADS[args.workload]
    started = time.perf_counter()
    runtime = workload.build()
    setup_s = imports_s + time.perf_counter() - started
    keys = workload.generate(args.seed)
    clock = DriftClock()

    tracer = None
    if args.trace:
        from spans import Tracer, instrument
        tracer = Tracer()
        instrument(tracer)

    bench = Bench(workload, keys, clock, tracer)
    cache_before = enumerate_combinations.cache_info()
    enum_hit_ratio = None
    measure_started = time.perf_counter()
    while True:
        bench.round(runtime)
        if enum_hit_ratio is None:
            info = enumerate_combinations.cache_info()
            hits = info.hits - cache_before.hits
            misses = info.misses - cache_before.misses
            enum_hit_ratio = hits / (hits + misses) if hits + misses else 0.0
        if time.perf_counter() - measure_started >= args.seconds:
            break
        runtime = workload.build()
    measured_s = time.perf_counter() - measure_started

    if tracer is not None:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"spans-{args.workload}-seed{args.seed}.json")
        metrics = bench.per_layer(enum_hit_ratio)
    else:
        metrics = bench.end_to_end(setup_s)

    problems = alone()
    if problems:
        for problem in problems:
            print(f"perfbench: {problem}", file=sys.stderr)
        return 1
    tally = bench.tally
    for message in tally.messages[:20]:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: {bench.rounds} "
          f"rounds in {measured_s:.1f} s; timed phases {clock.raw_s:.2f} s "
          f"raw, {clock.scaled_s:.2f} s scaled ({clock.probes} probes); "
          f"setup {setup_s:.3f} s (imports {imports_s:.3f} s)",
          file=sys.stderr)
    print("perfbench: largest relative errors " + json.dumps(bench.worst),
          file=sys.stderr)
    raw = bench.raw
    print("perfbench: unscaled " + json.dumps({
        "ingest_pps": bench.packets / raw["ingest_s"],
        "answer_s": statistics.median(raw["answers"]),
        "query_kps": bench.keys_queried / raw["query_s"] / 1e3}),
        file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
