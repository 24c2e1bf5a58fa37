"""Sketch collection across measurement windows (Figure 1's "Collect").

The data plane accumulates one FCM-Sketch per measurement window
(15 s in the paper's CAIDA setup); the control plane periodically
drains the sketch, converts it to virtual counters, runs the complex
measurements and rotates in a fresh sketch.  :class:`SketchCollector`
simulates that loop over a packet trace at a single vantage point;
:class:`NetworkSketchCollector` drains *every* switch of a
:class:`~repro.network.simulator.NetworkSimulator` per window, under
configurable retry/timeout/circuit-breaker policies, and degrades
gracefully instead of raising when parts of the fabric fail.

Every report carries a :class:`~repro.robustness.policy.CollectionHealth`
record: which switches were reached, how many retries it took, and how
stale the data of failing switches has become.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.controlplane.distribution import estimate_distribution
from repro.controlplane.heavychange import HeavyChangeDetector
from repro.core.em import EMConfig, EMResult
from repro.errors import (
    CollectionTimeoutError,
    InvalidWindowError,
    SketchCompatibilityError,
    StateCodecError,
    SwitchUnreachableError,
)
from repro.robustness.guards import (
    EMGuardConfig,
    guarded_estimate_distribution,
)
from repro.robustness.policy import (
    CircuitBreaker,
    CollectionHealth,
    CollectionPolicy,
)
from repro.sketches.base import distinct_keys
from repro.telemetry import MetricsRegistry
from repro.telemetry.health import SketchHealthMonitor, SketchHealthReport
from repro.telemetry.tracing import maybe_span
from repro.traffic.trace import Trace


@dataclass
class WindowReport:
    """Control-plane output for one measurement window."""

    window_index: int
    total_packets: int
    cardinality_estimate: float
    distribution: Optional[EMResult] = None
    heavy_changes: set = field(default_factory=set)
    health: Optional[CollectionHealth] = None
    collected_sketches: Dict[str, object] = field(default_factory=dict)
    sketch_health: Optional[SketchHealthReport] = None
    audit: Optional[object] = None      # AuditReport (auditor wired)
    snapshot_bytes: Dict[str, int] = field(default_factory=dict)

    @property
    def healthy(self) -> bool:
        """True when collection of this window saw no degradation.

        Collection health only — the accuracy verdict, when a
        :class:`~repro.telemetry.health.SketchHealthMonitor` is wired
        in, lives in :attr:`sketch_health`.
        """
        return self.health is None or self.health.healthy


def _window_traces(trace: Trace, num_windows: int) -> List[Trace]:
    """Split into ``num_windows`` contiguous windows, allowing empty
    ones (unlike :func:`repro.traffic.trace.split_windows`, which
    refuses) — a quiet fabric still produces a report per window."""
    if num_windows <= 0:
        raise InvalidWindowError("num_windows must be positive")
    chunks = np.array_split(trace.keys, num_windows)
    return [Trace(chunk, name=f"{trace.name}[{i}]")
            for i, chunk in enumerate(chunks)]


class SketchCollector:
    """Drives window-by-window collection over a trace.

    Args:
        sketch_factory: builds a fresh data-plane sketch per window
            (e.g. ``lambda: FCMSketch.with_memory(256 * 1024)``).
        em_config: EM options used for per-window distribution
            estimation; ``None`` skips the (expensive) EM step.
        change_threshold: if set, adjacent windows are compared for
            heavy changes at this packet-count threshold.
        em_guard: when set, EM runs under divergence guards and falls
            back to the pre-EM histogram instead of serving NaNs (the
            fallback is counted in ``report.health.em_fallbacks``).
        telemetry: optional metrics registry; the collector counts
            windows/packets, forwards the registry to EM, emits one
            ``window`` event per report (health fields included) and
            wraps every window in a ``collector.window`` span.
        health_monitor: :class:`~repro.telemetry.health
            .SketchHealthMonitor`; each window's drained sketch is
            assessed and the verdict stored in
            ``report.sketch_health``.  A default monitor is created
            when none is given; a monitor without its own registry
            inherits ``telemetry``.
        auditor: optional :class:`~repro.telemetry.obsplane.audit
            .AccuracyAuditor`; each window's packets feed its exact
            oracle and the drained sketch is audited at the window
            boundary (``report.audit``), calibrating the predicted
            ARE envelope against observed error.
    """

    def __init__(self, sketch_factory: Callable[[], object],
                 em_config: Optional[EMConfig] = None,
                 run_em: bool = False,
                 change_threshold: Optional[int] = None,
                 em_guard: Optional[EMGuardConfig] = None,
                 telemetry: Optional[MetricsRegistry] = None,
                 health_monitor: Optional[SketchHealthMonitor] = None,
                 auditor=None):
        self.sketch_factory = sketch_factory
        self.em_config = em_config
        self.run_em = run_em
        self.change_threshold = change_threshold
        self.em_guard = em_guard
        self.telemetry = telemetry
        if health_monitor is None:
            health_monitor = SketchHealthMonitor()
        self.health_monitor = health_monitor
        if health_monitor.telemetry is None:
            health_monitor.telemetry = telemetry
        self.auditor = auditor
        if auditor is not None and auditor.telemetry is None:
            auditor.telemetry = telemetry
        self.sketches: List[object] = []

    def process(self, trace: Trace, num_windows: int) -> List[WindowReport]:
        """Split the trace into windows and collect each one.

        Degenerate inputs are guarded: ``num_windows <= 0`` raises
        :class:`InvalidWindowError`, and empty windows (an empty trace,
        or more windows than packets) yield empty-but-healthy reports
        instead of reaching EM.
        """
        windows = _window_traces(trace, num_windows)
        reports: List[WindowReport] = []
        previous_sketch = None
        previous_keys: Optional[np.ndarray] = None
        for index, window in enumerate(windows):
            health = CollectionHealth.fresh(index, ["collector"])
            if len(window) == 0:
                self.sketches.append(None)
                reports.append(WindowReport(
                    window_index=index, total_packets=0,
                    cardinality_estimate=0.0, health=health))
                self._record_window(reports[-1])
                continue
            with maybe_span(self.telemetry, "collector.window",
                            window=index, packets=len(window)):
                sketch = self.sketch_factory()
                sketch.ingest(window.keys)
                self.sketches.append(sketch)
                if self.auditor is not None:
                    self.auditor.observe(window.keys)
                report = WindowReport(
                    window_index=index,
                    total_packets=len(window),
                    cardinality_estimate=float(sketch.cardinality()),
                    health=health,
                )
                if self.run_em:
                    report.distribution = self._estimate(sketch, health)
                if self.change_threshold is not None \
                        and previous_sketch is not None:
                    detector = HeavyChangeDetector(previous_sketch, sketch)
                    candidates = distinct_keys(np.concatenate(
                        [previous_keys, window.ground_truth.keys_array()]))
                    report.heavy_changes = detector.detect(
                        candidates, self.change_threshold)
                if self.health_monitor is not None:
                    report.sketch_health = self.health_monitor.assess(
                        sketch, window_index=index,
                        collection_health=health)
                if self.auditor is not None:
                    report.audit = self.auditor.seal(
                        index, sketch, health=report.sketch_health)
            previous_sketch = sketch
            previous_keys = window.ground_truth.keys_array()
            reports.append(report)
            self._record_window(report)
        return reports

    def _record_window(self, report: WindowReport) -> None:
        t = self.telemetry
        if t is None:
            return
        t.inc("collector.windows")
        t.inc("collector.packets", report.total_packets)
        if report.heavy_changes:
            t.inc("collector.heavy_changes", len(report.heavy_changes))
        fields = dict(
            packets=report.total_packets,
            cardinality=report.cardinality_estimate,
            heavy_changes=len(report.heavy_changes),
        )
        if report.distribution is not None:
            fields["em_iterations"] = report.distribution.iterations
            fields["em_converged"] = report.distribution.converged
        if report.health is not None:
            fields.update(report.health.event_fields())
        if report.sketch_health is not None:
            fields["sketch_status"] = report.sketch_health.status.name
        t.emit("window", "collector.window", **fields)

    def _estimate(self, sketch, health: CollectionHealth) -> EMResult:
        if self.em_guard is None:
            return estimate_distribution(sketch, config=self.em_config,
                                         telemetry=self.telemetry)
        outcome = guarded_estimate_distribution(
            sketch, config=self.em_config, guard=self.em_guard,
            telemetry=self.telemetry)
        if outcome.fell_back:
            health.em_fallbacks += 1
        return outcome.result


class NetworkSketchCollector:
    """Drains every switch of a fabric once per measurement window.

    The control-plane loop of the paper's Figure 1, hardened for an
    imperfect fabric: each window routes its share of the trace, then
    every switch is drained (sketch rotated out) under the
    :class:`CollectionPolicy` — per-attempt timeout, retry with
    exponential backoff, and a per-switch circuit breaker that stops
    hammering persistently-failing switches for a cooldown.  Failures
    never raise; they are recorded in the window's
    :class:`CollectionHealth`, and un-drained switches keep
    accumulating (their next successful drain returns the backlog,
    whose staleness the health record tracks).

    Args:
        simulator: the fabric (its ``fault_injector`` supplies chaos).
        policy: retry/timeout/breaker knobs.
        run_em: estimate a flow-size distribution per window from the
            drained sketch of ``em_switch`` (guarded EM, histogram
            fallback on divergence).
        em_config / em_guard: EM options for that estimate.
        em_switch: vantage point for the distribution estimate
            (default: the first leaf).
        telemetry: optional metrics registry; drains, retries, skips
            and per-window health are counted and emitted as events,
            and every window becomes one trace — a ``collector.window``
            root span over the ``network.route`` child, one
            ``collector.drain`` child per switch (annotated with the
            retry/breaker outcome) and the EM spans.
        health_monitor: :class:`~repro.telemetry.health
            .SketchHealthMonitor`; each window the EM vantage point's
            drained sketch (when reached) plus the window's
            :class:`CollectionHealth` are assessed, the verdict stored
            in ``report.sketch_health`` — this is what makes
            chaos-injected fault windows visibly flip status.  A
            default monitor is created when none is given; a monitor
            without its own registry inherits ``telemetry``.
        auditor: optional :class:`~repro.telemetry.obsplane.audit
            .AccuracyAuditor`.  The collector taps the simulator's
            routing (``simulator.route_tap``) so the oracle counts
            exactly what the EM vantage switch's sketch ingested —
            re-routes, link thinning and drops included — and audits
            that switch's drained sketch each window
            (``report.audit``).
    """

    def __init__(self, simulator,
                 policy: Optional[CollectionPolicy] = None,
                 run_em: bool = False,
                 em_config: Optional[EMConfig] = None,
                 em_guard: Optional[EMGuardConfig] = None,
                 em_switch: Optional[str] = None,
                 telemetry: Optional[MetricsRegistry] = None,
                 health_monitor: Optional[SketchHealthMonitor] = None,
                 auditor=None):
        self.simulator = simulator
        self.policy = policy if policy is not None else CollectionPolicy()
        self.run_em = run_em
        self.em_config = em_config
        self.em_guard = em_guard if em_guard is not None else EMGuardConfig()
        self.em_switch = em_switch if em_switch is not None \
            else simulator.leaves[0]
        self.telemetry = telemetry
        if health_monitor is None:
            health_monitor = SketchHealthMonitor()
        self.health_monitor = health_monitor
        if health_monitor.telemetry is None:
            health_monitor.telemetry = telemetry
        self.auditor = auditor
        if auditor is not None:
            if auditor.telemetry is None:
                auditor.telemetry = telemetry
            simulator.route_tap = self._route_tap
        self.breaker = CircuitBreaker(self.policy.breaker_threshold,
                                      self.policy.breaker_cooldown)
        self._last_success: Dict[str, int] = {}

    def _route_tap(self, switch: str, keys, counts) -> None:
        """Feed the auditor's oracle with the vantage switch's exact
        per-window (flow, count) deliveries."""
        if switch == self.em_switch:
            self.auditor.observe_counts(keys, counts)

    def process(self, trace: Trace, num_windows: int) -> List[WindowReport]:
        """Route and collect window by window; never raises on faults."""
        windows = _window_traces(trace, num_windows)
        reports: List[WindowReport] = []
        for index, window in enumerate(windows):
            reports.append(self._collect_window(window, index))
        return reports

    # ------------------------------------------------------------------

    def _collect_window(self, window: Trace, index: int) -> WindowReport:
        sim = self.simulator
        t = self.telemetry
        with maybe_span(t, "collector.window", window=index,
                        packets=len(window)) as window_span:
            drops_before = sim.packets_dropped
            if len(window) > 0:
                sim.route_trace(window, window=index)
            else:
                sim.apply_faults(index)
            health = CollectionHealth(
                window_index=index, switches_total=len(sim.switches))
            health.packets_dropped = sim.packets_dropped - drops_before
            report = self._drain_and_report(
                index, len(window), health, window_span,
                run_em=self.run_em and len(window) > 0)
        self._record_network_window(report, health)
        return report

    def drain_epoch(self, index: int, total_packets: int = 0,
                    run_em: Optional[bool] = None) -> WindowReport:
        """Drain every switch *now*, without routing any traffic.

        The epoch-streaming runtime (:mod:`repro.runtime`) routes
        packets continuously and calls this at each epoch boundary, so
        sealed-epoch snapshots travel the same hardened path as
        windowed collection: per-attempt timeout, retry with backoff,
        per-switch circuit breaker, staleness accounting and the
        sketch-health verdict all apply to the returned
        :class:`WindowReport`.

        Args:
            index: epoch/window number (drives breaker cooldowns and
                staleness ages).
            total_packets: packets routed since the previous drain,
                recorded on the report.
            run_em: override the collector's ``run_em`` (default:
                follow it, skipping EM for empty epochs).
        """
        t = self.telemetry
        if run_em is None:
            run_em = self.run_em and total_packets > 0
        with maybe_span(t, "collector.drain_epoch", epoch=index,
                        packets=total_packets) as window_span:
            health = CollectionHealth(
                window_index=index,
                switches_total=len(self.simulator.switches))
            report = self._drain_and_report(
                index, total_packets, health, window_span, run_em=run_em)
        self._record_network_window(report, health)
        return report

    def _drain_and_report(self, index: int, total_packets: int,
                          health: CollectionHealth, window_span,
                          run_em: bool) -> WindowReport:
        """The per-switch drain loop plus report assembly, shared by
        routed windows and route-free epoch drains."""
        sim = self.simulator
        t = self.telemetry
        collected: Dict[str, object] = {}
        snapshot_bytes: Dict[str, int] = {}
        for name in sorted(sim.switches):
            if not self.breaker.allows(name, index):
                health.switches_skipped.append(name)
                self._note_stale(name, index, health)
                with maybe_span(t, "collector.drain", switch=name,
                                outcome="skipped",
                                breaker_open=True):
                    pass
                continue
            retries_before = health.retries
            with maybe_span(t, "collector.drain",
                            switch=name) as drain_span:
                sketch, reason = self._drain_switch(
                    name, index, health)
                drain_span.annotate(
                    retries=health.retries - retries_before,
                    breaker_open=False)
                if sketch is not None:
                    sketch, nbytes = self._transport(name, sketch)
                    collected[name] = sketch
                    if nbytes is not None:
                        snapshot_bytes[name] = nbytes
                        drain_span.annotate(snapshot_bytes=nbytes)
                    self.breaker.record_success(name)
                    self._last_success[name] = index
                    drain_span.annotate(outcome="ok")
                else:
                    health.switches_failed[name] = reason
                    self.breaker.record_failure(name, index)
                    self._note_stale(name, index, health)
                    drain_span.annotate(outcome="failed",
                                        reason=reason)
        health.switches_reached = sorted(collected)

        report = WindowReport(
            window_index=index,
            total_packets=total_packets,
            cardinality_estimate=self._cardinality(collected),
            health=health,
            collected_sketches=collected,
            snapshot_bytes=snapshot_bytes,
        )
        if run_em and self.em_switch in collected:
            outcome = guarded_estimate_distribution(
                collected[self.em_switch], config=self.em_config,
                guard=self.em_guard, telemetry=self.telemetry)
            if outcome.fell_back:
                health.em_fallbacks += 1
            report.distribution = outcome.result
        if self.health_monitor is not None:
            report.sketch_health = self.health_monitor.assess(
                collected.get(self.em_switch), window_index=index,
                collection_health=health)
            window_span.annotate(
                sketch_status=report.sketch_health.status.name)
        if self.auditor is not None \
                and self.em_switch in collected:
            report.audit = self.auditor.seal(
                index, collected[self.em_switch],
                health=report.sketch_health)
        return report

    def _record_network_window(self, report: WindowReport,
                               health: CollectionHealth) -> None:
        t = self.telemetry
        if t is not None:
            t.inc("collector.windows")
            t.inc("collector.packets", report.total_packets)
            t.inc("collector.drains_ok", len(health.switches_reached))
            t.inc("collector.drains_failed", len(health.switches_failed))
            t.inc("collector.drains_skipped", len(health.switches_skipped))
            t.inc("collector.retries", health.retries)
            t.inc("collector.packets_dropped", health.packets_dropped)
            t.observe("collector.backoff_seconds", health.backoff_seconds)
            t.set_gauge("collector.last_degradation",
                        float(health.degradation.value))
            fields = dict(packets=report.total_packets,
                          cardinality=report.cardinality_estimate)
            if report.distribution is not None:
                fields["em_iterations"] = report.distribution.iterations
                fields["em_converged"] = report.distribution.converged
            fields.update(health.event_fields())
            if report.sketch_health is not None:
                fields["sketch_status"] = report.sketch_health.status.name
            t.emit("window", "collector.network_window", **fields)

    def _transport(self, name: str, sketch):
        """How a drained sketch reaches the control plane.

        The base collector hands the in-process object straight
        through.  Returns ``(sketch, bytes_moved_or_None)``;
        :class:`ParallelSketchCollector` overrides this to move codec
        bytes instead.
        """
        return sketch, None

    def _drain_switch(self, name: str, window: int,
                      health: CollectionHealth):
        """One switch's drain under retry/backoff.  Returns
        ``(sketch, None)`` on success, ``(None, reason)`` on failure.
        All timing is simulated — nothing sleeps."""
        sim = self.simulator
        injector = sim.fault_injector
        switch = sim.switches[name]
        last_reason = "no attempt made"
        for attempt, backoff in enumerate(self.policy.retry.backoffs()):
            health.backoff_seconds += backoff
            if attempt > 0:
                health.retries += 1
            if not switch.alive:
                # A dead switch will not answer a retry this window.
                return None, str(SwitchUnreachableError(name))
            delay = (injector.collection_delay(name, window, attempt)
                     if injector is not None else 0.0)
            if delay > self.policy.timeout:
                last_reason = str(
                    CollectionTimeoutError(name, delay, self.policy.timeout))
                continue
            try:
                return switch.rotate(), None
            except SwitchUnreachableError as err:
                last_reason = str(err)
        return None, last_reason

    def _note_stale(self, name: str, window: int,
                    health: CollectionHealth) -> None:
        health.staleness[name] = window - self._last_success.get(name, -1)

    def _cardinality(self, collected: Dict[str, object]) -> float:
        """Distinct-flow estimate from the drained leaf sketches,
        extrapolated over unreachable leaves (as in
        :meth:`NetworkSimulator.total_flows_resilient`)."""
        leaves = self.simulator.leaves
        reached = [l for l in leaves if l in collected]
        if not reached:
            return 0.0
        total = sum(float(collected[l].cardinality()) for l in reached)
        return total * (len(leaves) / len(reached)) / 2.0


class ParallelSketchCollector(NetworkSketchCollector):
    """Network collector whose drain path moves snapshot bytes.

    Same retry/backoff/circuit-breaker/health machinery as
    :class:`NetworkSketchCollector`, but each successfully drained
    sketch crosses the data-plane/control-plane boundary as the
    engine's versioned codec bytes rather than an in-process object
    handle — the transport a real deployment uses, where the
    controller receives raw counter arrays over the wire.  Per switch:

    1. the drained sketch is serialized with ``to_state()``,
    2. an empty replica is built via ``switch.fresh_sketch()``,
    3. the replica is rehydrated with ``from_state(blob)``.

    ``report.collected_sketches`` then holds the rehydrated replicas
    and ``report.snapshot_bytes`` the per-switch codec sizes (also
    annotated on each ``collector.drain`` span and counted in the
    ``collector.snapshot_bytes`` metric).  Sketches whose type has no
    codec — or whose replica rejects the state — fall back to the
    object handle, counted in ``collector.snapshot_fallbacks``; the
    window never fails because of transport.
    """

    def _transport(self, name: str, sketch):
        t = self.telemetry
        try:
            blob = sketch.to_state()
            rebuilt = self.simulator.switches[name].fresh_sketch()
            rebuilt.from_state(blob)
        except (SketchCompatibilityError, StateCodecError,
                AttributeError, SwitchUnreachableError):
            if t is not None:
                t.inc("collector.snapshot_fallbacks")
            return sketch, None
        if t is not None:
            t.inc("collector.snapshots_ok")
            t.inc("collector.snapshot_bytes", len(blob))
        return rebuilt, len(blob)
