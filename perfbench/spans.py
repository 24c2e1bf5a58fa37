"""In-memory span tracer wrapped around the program's layer entry points.

Only traced runs (``--trace 1``) install it.  :func:`instrument`
replaces public methods of each layer with wrappers that record one
span ``(name, start, end, parent)`` per call; the parent comes from a
context variable, so each asyncio task (service sources, the ingest
worker) keeps its own nesting.  Spans stay in memory and are written
once, at the end of the run.

A layer's self time is the sum of its spans' durations minus the
durations of their direct children.  Two layers are *opaque*: heavy
change detection at seal and the heavy-hitter answer.  Calls made
inside them (count-queries, hashing) are not recorded separately, so
their whole cost stays with the layer that asked for it.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: (index of the innermost open span or -1, inside an opaque span)
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=(-1, False))

OPAQUE = frozenset({"runtime.heavy_change", "control.hh"})


class Tracer:
    """Span recorder plus named counters, enabled per timed phase."""

    def __init__(self):
        self.spans: List[Optional[Tuple[str, float, float, int]]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.enabled = False
        self.origin = time.perf_counter()

    # -- recording -----------------------------------------------------

    def wrap(self, owner, attr: str, name: Optional[str],
             when: Optional[Callable] = None,
             after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``name=None`` records no span, only the ``after`` counter hook.
        ``when(args)`` False passes the call straight through (scalar
        hashes inside per-key loops stay with their caller).
        ``after(tracer, args, result)`` updates counters.
        """
        original = getattr(owner, attr)
        tracer = self
        muting = name in OPAQUE

        def recording(args) -> bool:
            return (tracer.enabled and not _CURRENT.get()[1]
                    and (when is None or when(args)))

        if inspect.iscoroutinefunction(original):
            async def wrapper(*args, **kwargs):
                if not recording(args):
                    return await original(*args, **kwargs)
                parent = _CURRENT.get()[0]
                index = len(tracer.spans)
                tracer.spans.append(None)
                token = _CURRENT.set((index, muting))
                start = time.perf_counter()
                try:
                    result = await original(*args, **kwargs)
                finally:
                    tracer.spans[index] = (name, start,
                                           time.perf_counter(), parent)
                    _CURRENT.reset(token)
                if after is not None:
                    after(tracer, args, result)
                return result
        else:
            def wrapper(*args, **kwargs):
                if not recording(args):
                    return original(*args, **kwargs)
                if name is None:
                    result = original(*args, **kwargs)
                else:
                    parent = _CURRENT.get()[0]
                    index = len(tracer.spans)
                    tracer.spans.append(None)
                    token = _CURRENT.set((index, muting))
                    start = time.perf_counter()
                    try:
                        result = original(*args, **kwargs)
                    finally:
                        tracer.spans[index] = (name, start,
                                               time.perf_counter(), parent)
                        _CURRENT.reset(token)
                if after is not None:
                    after(tracer, args, result)
                return result

        functools.update_wrapper(wrapper, original)
        setattr(owner, attr, wrapper)

    # -- results -------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name, each span minus its direct children."""
        spans = [s for s in self.spans if s is not None]
        children = [0.0] * len(self.spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                children[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            if span is not None:
                name, start, end, _ = span
                totals[name] += (end - start) - children[index]
        return totals

    def write(self, path) -> None:
        """Write the spans as JSON: ``[name, start_s, end_s, parent]``."""
        rows = [[n, round(s - self.origin, 7), round(e - self.origin, 7), p]
                for n, s, e, p in (x for x in self.spans if x is not None)]
        with open(path, "w") as handle:
            json.dump({"spans": rows, "counts": dict(self.counts)}, handle)


# ----------------------------------------------------------------------
# counter hooks
# ----------------------------------------------------------------------

def _is_array(args) -> bool:
    return isinstance(args[1], np.ndarray)


def _count(key: str, measure: Callable) -> Callable:
    def hook(tracer, args, result):
        tracer.counts[key] += measure(args, result)
    return hook


def _count_batch(tracer, args, result) -> None:
    keys = np.asarray(args[1])
    tracer.counts["runtime.batch_packets"] += keys.size
    tracer.counts["runtime.batch_keys"] += np.unique(keys).size


def _count_ingest(tracer, args, result) -> None:
    tracer.counts["sketch.calls"] += 1
    tracer.counts["sketch.packets"] += np.asarray(args[1]).size


def instrument(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer on the measured path."""
    from repro.controlplane import distribution
    from repro.controlplane.heavychange import HeavyChangeDetector
    from repro.core.em import EMEstimator
    from repro.core.fcm import FCMSketch
    from repro.core.topk import FCMTopK
    from repro.engine.backends import InlineBackend
    from repro.hashing.family import HashFamily
    from repro.runtime.epochs import EpochManager
    from repro.runtime.query import StreamingQueryAPI
    from repro.service.pressure import ServiceQueues
    from repro.service.service import MeasurementService
    from repro.sketches import base, batching

    wrap = tracer.wrap
    # service/
    wrap(MeasurementService, "admit", "service.admit")
    wrap(ServiceQueues, "pop", "service.pop")
    # submit's self time is what is left once admission is taken out:
    # the time a source waits for queue room under BLOCK.
    wrap(MeasurementService, "submit", "service.blocked")
    # runtime/epochs.py and the heavy change it runs at seal
    wrap(EpochManager, "feed", "runtime.feed", after=_count_batch)
    wrap(EpochManager, "rotate", "runtime.rotate")
    wrap(HeavyChangeDetector, "detect", "runtime.heavy_change",
         after=_count("runtime.heavy_changes", lambda a, r: len(r)))
    # engine/backends.py
    wrap(InlineBackend, "ingest_batch", "engine.ingest")
    wrap(InlineBackend, "seal", "engine.seal")
    # core/fcm.py, core/tree.py, hashing/
    wrap(FCMSketch, "ingest", "sketch.ingest", after=_count_ingest)
    wrap(FCMSketch, "ingest_weighted", "sketch.ingest", after=_count_ingest)
    wrap(HashFamily, "index", "hashing.index", when=_is_array,
         after=_count("hashing.keys", lambda a, r: a[1].size))
    # core/topk.py, sketches/batching.py
    wrap(FCMTopK, "ingest", "topk.replay")
    wrap(batching, "aggregate_batch", None,
         after=_count("topk.flows_replayed", lambda a, r: r[0].size))
    # engine/codec.py through the sketches' state protocol
    wrap(base.MergeableStateMixin, "to_state", "codec.encode",
         after=_count("codec.state_bytes", lambda a, r: len(r)))
    wrap(base.MergeableStateMixin, "from_state", "codec.decode")
    # core/virtual.py, core/em.py, controlplane/distribution.py
    wrap(distribution, "convert_sketch", "control.virtual",
         after=_count("control.virtual_counters",
                      lambda a, r: sum(len(array) for array in r)))
    wrap(EMEstimator, "__init__", "control.em_prepare")
    wrap(EMEstimator, "run", "control.em_run",
         after=_count("control.em_iterations", lambda a, r: r.iterations))
    for sketch in (FCMSketch, FCMTopK):
        wrap(sketch, "heavy_hitters", "control.hh")
        wrap(sketch, "cardinality", "control.cardinality")
        wrap(sketch, "query_many", "query.sketch")
    # runtime/query.py
    wrap(StreamingQueryAPI, "query_many", "query.api",
         after=_count("query.keys", lambda a, r: r.size))
