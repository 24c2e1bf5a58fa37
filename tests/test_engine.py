"""The engine's ingest entry point on an empty stream.

Whatever local backend :func:`repro.engine.make_backend` builds, a
stream with no packets must seal to the state of a fresh sketch, and
the pool must not spawn a worker for it.
"""

import numpy as np

from repro.core import FCMSketch
from repro.engine import make_backend

MEMORY = 16 * 1024


def fcm_factory():
    return FCMSketch.with_memory(MEMORY, seed=3)


def test_empty_stream():
    for spec in ("inline", "pool:4"):
        with make_backend(spec, sketch_factory=fcm_factory) as backend:
            backend.ingest_batch(np.array([], dtype=np.uint64))
            assert backend.seal() == fcm_factory().to_state(), spec
            info = backend.describe()
            if info["kind"] == "pool":
                assert not info["pool"]["started"]
                assert info["pool"]["published_packets"] == 0
