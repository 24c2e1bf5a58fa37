"""Drift-cancelling timing for the benchmark's timed steps.

The speed of the virtual CPU this benchmark was built on is not
constant: a fixed pure-Python+numpy kernel flips between about 2.3 ms
and 3.4 ms per call, staying in one state for a fraction of a second to
a few seconds, and process CPU time drifts exactly as wall time does,
so neither a longer run nor ``process_time`` removes it.  Pure-Python
code slows down more than numpy code does.

:class:`DriftClock` therefore times a fixed reference kernel right
after every timed step: a pure-Python part (dict updates over Python
ints) and a numpy part (sort and bincount over a uint64 array), each
timed on its own, best of two calls.  Their geometric mean weighs both
kinds of work equally, and each step is reported as

    raw wall seconds * REFERENCE_S / mean(probe before, probe after)

that is, in seconds of a host whose probe reads ``REFERENCE_S``.
Probes run between steps, never inside them, so the program's own time
is untouched; the kernel reads only the benchmark's own arrays.
"""

from __future__ import annotations

import math
import time

import numpy as np

#: Reference probe time that timed steps are scaled to.  Any fixed value works; this one is the kernel's median probe on
#: the host the reference figures in README.md come from, so scaled
#: times read close to that host's wall times.
REFERENCE_S = 0.0015


class DriftClock:
    """Times steps and scales them by the host's momentary speed.

    Usage::

        clock = DriftClock()
        started = clock.start()
        work()
        seconds = clock.stop(started)   # scaled to REFERENCE_S

    Consecutive steps share probes: the probe taken after one step is
    the "before" probe of the next.
    """

    def __init__(self):
        rng = np.random.default_rng(20201201)
        self._keys = rng.integers(0, 1 << 32, size=16_384, dtype=np.uint64)
        self._ints = self._keys[:4_000].tolist()
        self._modulus = np.uint64(4_093)
        #: Raw and scaled seconds summed over every timed step.
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self.probes = 0
        self.last_raw = 0.0
        self._last = self.probe()

    def _python_part(self) -> int:
        counts = {}
        for key in self._ints:
            slot = key & 1023
            counts[slot] = counts.get(slot, 0) + 1
        return len(counts)

    def _numpy_part(self) -> int:
        uniq = np.unique(self._keys)
        cells = np.bincount((self._keys % self._modulus).astype(np.int64),
                            minlength=4_093)
        return int(uniq.size) + int(cells[0])

    def probe(self) -> float:
        """Geometric mean of the two parts' times (each best of two)."""
        times = []
        for part in (self._python_part, self._numpy_part):
            best = float("inf")
            for _ in range(2):
                started = time.perf_counter()
                part()
                best = min(best, time.perf_counter() - started)
            times.append(best)
        self.probes += 1
        return math.sqrt(times[0] * times[1])

    @staticmethod
    def start() -> float:
        return time.perf_counter()

    def stop(self, started: float) -> float:
        """End a step begun at ``started``; return its scaled seconds."""
        raw = time.perf_counter() - started
        after = self.probe()
        speed = 0.5 * (self._last + after)
        self._last = after
        scaled = raw * REFERENCE_S / speed
        self.raw_s += raw
        self.scaled_s += scaled
        self.last_raw = raw
        return scaled

    @property
    def factor(self) -> float:
        """Mean scale applied so far (scaled / raw seconds)."""
        return self.scaled_s / self.raw_s if self.raw_s > 0 else 1.0


if __name__ == "__main__":
    # Regenerates REFERENCE_S: the median probe on this host.
    import statistics

    clock = DriftClock()
    probes = [clock.probe() for _ in range(500)]
    print(f"median probe {statistics.median(probes):.6f} s "
          f"(REFERENCE_S = {REFERENCE_S})")
