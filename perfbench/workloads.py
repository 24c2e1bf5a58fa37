"""The benchmark's workloads: inputs from a seed, and the runtime they feed.

Load means distinct flows of a window per stage-1 counter of one tree;
the paper's 0.5-2.5 MB for 0.5 M flows is a load of 0.5-2.5.  Windows
are scaled down from CAIDA's 2e7 packets so that one run answers a
dozen windows or more, and everything that sets accuracy is scaled with
them: memory keeps the paper's load, and the largest flow keeps the
share of a window that CAIDA's 1e5-packet elephants have (0.5%).
Without that, one 1e5-packet flow in a 2.5e5-packet window moves the
count ARE by about 25% from one seed to the next.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from repro.core import FCMSketch
from repro.core.topk import FCMTopK
from repro.runtime import EpochConfig, EpochManager
from repro.service import MeasurementService, PressureConfig
from repro.traffic import caida_like_trace


@dataclass(frozen=True)
class Workload:
    """One input mix and the runtime configuration that measures it.

    Attributes:
        name: the ``--workload`` value.
        windows: packet-bounded windows per round.
        window_packets: packets per window.
        batch: packets per batch offered.
        memory_kb: sketch memory per window.
        avg_flow_size: mean flow size of the generated trace.
        topk: FCM+TopK (k = 16) instead of FCM-Sketch (k = 8).
        sources: closed-loop service sources (0 = fed straight to the
            runtime).
        query_passes: scope-``all`` query passes over every flow key
            per round.
        query_chunk: keys per ``query_many`` call.
    """

    name: str
    windows: int
    window_packets: int
    batch: int
    memory_kb: int
    avg_flow_size: float
    topk: bool = False
    sources: int = 0
    query_passes: int = 1
    query_chunk: int = 1 << 20

    @property
    def packets(self) -> int:
        return self.windows * self.window_packets

    @property
    def threshold(self) -> int:
        """Heavy-hitter and heavy-change threshold: 0.05% of a window."""
        return self.window_packets // 2_000

    @property
    def max_flow(self) -> int:
        """Largest flow: 0.5% of a window, as 1e5 of 2e7 in CAIDA."""
        return self.window_packets // 200

    def generate(self, seed: int) -> np.ndarray:
        """The round's packet keys; the same seed gives the same keys."""
        return caida_like_trace(self.packets,
                                avg_flow_size=self.avg_flow_size,
                                max_size=self.max_flow, seed=seed).keys

    def sketch_factory(self) -> Callable[[], object]:
        budget = self.memory_kb * 1024
        if self.topk:
            return lambda: FCMTopK(budget, k=16)
        return lambda: FCMSketch.with_memory(budget, num_trees=2, k=8,
                                             stage_bits=(8, 16, 32))

    def build(self) -> Tuple[EpochManager, Optional[MeasurementService]]:
        """A fresh runtime (and service front end) for one round."""
        manager = EpochManager(
            self.sketch_factory(),
            config=EpochConfig(epoch_packets=self.window_packets,
                               retention=self.windows,
                               change_threshold=self.threshold),
            backend="inline")
        service = None
        if self.sources:
            service = MeasurementService(
                manager, pressure=PressureConfig(policy="block"))
        return manager, service


WORKLOADS = {w.name: w for w in (
    # The paper's measurement loop: heavy-tailed windows straight into
    # the runtime; EM dominates, service and Top-K are bypassed.
    Workload("caida_windows", windows=8, window_packets=250_000,
             batch=32_768, memory_kb=32, avg_flow_size=40.0,
             query_passes=10),
    # Mice churn through the service under lossless BLOCK admission:
    # per-batch and per-key costs (candidate sets, seal-time heavy
    # change) dominate.
    Workload("service_mice", windows=4, window_packets=250_000,
             batch=4_096, memory_kb=96, avg_flow_size=6.0, sources=2,
             query_passes=8, query_chunk=65_536),
    # FCM+TopK: the only workload that runs the Top-K run replay and
    # the per-key resident lookup of FCMTopK.query_many.
    Workload("topk_windows", windows=4, window_packets=250_000,
             batch=10_000, memory_kb=32, avg_flow_size=40.0, topk=True,
             query_passes=2, query_chunk=4_096),
)}
