"""Output checks, computed apart from the program under test.

Every exact value here comes from ``np.unique`` over the keys that
reached the runtime; error metrics are re-implemented rather than taken
from ``repro.metrics``.  Each check returns a list of failure messages
(empty when it passes) so the runner can count failed operations, and
``test_checks.py`` shows each one failing on a corrupted answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

#: Relative bounds for the per-window accuracy check.  README.md gives
#: the measured errors they are set against.
CARDINALITY_BOUND = 0.05
FLOWS_BOUND = 0.35
ENTROPY_BOUND = 0.05
#: EM conserves mass: sum_j j * n_j equals the window's packets up to
#: float64 summation error.
MASS_RTOL = 1e-9


@dataclass(frozen=True)
class WindowTruth:
    """Exact per-flow counts of one window."""

    keys: np.ndarray      # distinct flow keys, ascending
    counts: np.ndarray    # packets per key

    @classmethod
    def of(cls, packets: np.ndarray) -> "WindowTruth":
        keys, counts = np.unique(packets, return_counts=True)
        return cls(keys, counts.astype(np.int64))

    @property
    def packets(self) -> int:
        return int(self.counts.sum())

    @property
    def flows(self) -> int:
        return int(self.keys.size)

    def size_histogram(self) -> np.ndarray:
        """Exact flow-size distribution: ``h[j]`` flows of size ``j``."""
        return np.bincount(self.counts).astype(np.float64)

    def entropy(self) -> float:
        """Shannon entropy (bits) of the packet-to-flow distribution."""
        p = self.counts / float(self.counts.sum())
        return float(-(p * np.log2(p)).sum())


# ----------------------------------------------------------------------
# error metrics
# ----------------------------------------------------------------------

def average_relative_error(estimates: np.ndarray,
                           truth: np.ndarray) -> float:
    """Mean of ``|estimate - true| / true`` over flows (paper Fig. 6)."""
    truth = truth.astype(np.float64)
    return float(np.mean(np.abs(estimates - truth) / truth))


def wmre(truth: np.ndarray, estimate: np.ndarray) -> float:
    """Weighted mean relative error of two size histograms (Fig. 7)."""
    size = max(truth.size, estimate.size)
    t = np.pad(truth, (0, size - truth.size))
    e = np.pad(estimate, (0, size - estimate.size))
    t, e = t[1:], e[1:]
    return float(np.abs(t - e).sum() / ((t + e).sum() / 2.0))


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------

def check_no_underestimate(estimates: np.ndarray, truth: WindowTruth,
                           what: str) -> List[str]:
    """No count-query may fall below the exact count."""
    low = np.flatnonzero(estimates < truth.counts)
    if low.size == 0:
        return []
    first = int(low[0])
    return [f"{what}: {low.size} count-queries below the exact count "
            f"(key {int(truth.keys[first])}: {int(estimates[first])} < "
            f"{int(truth.counts[first])})"]


def check_heavy_hitters(reported, truth: WindowTruth, threshold: int,
                        what: str) -> List[str]:
    """Every exact heavy hitter must be reported."""
    exact = truth.keys[truth.counts >= threshold]
    missing = [int(k) for k in exact if int(k) not in reported]
    if not missing:
        return []
    return [f"{what}: {len(missing)} of {exact.size} heavy hitters "
            f"missing (first {missing[0]})"]


def check_ledger(window_packets: Sequence[int], sketch_packets: Sequence[int],
                 generated: int, what: str) -> List[str]:
    """Sealed windows hold every generated packet, and each sealed
    sketch holds exactly its window's packets."""
    failures = []
    if sum(window_packets) != generated:
        failures.append(f"{what}: sealed windows hold "
                        f"{sum(window_packets)} packets, {generated} "
                        f"were generated")
    for index, (window, sketch) in enumerate(zip(window_packets,
                                                 sketch_packets)):
        if window != sketch:
            failures.append(f"{what}: window {index} sealed {window} "
                            f"packets but its sketch holds {sketch}")
    return failures


def check_fed_multiset(fed: np.ndarray, generated: np.ndarray,
                       what: str) -> List[str]:
    """The keys that reached the runtime are exactly the generated
    multiset: nothing lost, nothing duplicated."""
    if fed.size != generated.size:
        return [f"{what}: {fed.size} packets reached the runtime, "
                f"{generated.size} were generated"]
    if not np.array_equal(np.sort(fed), np.sort(generated)):
        return [f"{what}: the keys fed differ from the keys generated"]
    return []


def check_service_ledger(report, generated: int, what: str) -> List[str]:
    """Lossless BLOCK admission: accepted == ingested == generated,
    nothing shed, no stall, no failover."""
    failures = []
    if not (report.accepted == report.ingested == generated):
        failures.append(f"{what}: accepted {report.accepted}, ingested "
                        f"{report.ingested}, generated {generated}")
    if report.shed:
        failures.append(f"{what}: {report.shed} packets shed")
    if report.stalls or report.failovers:
        failures.append(f"{what}: {report.stalls} stalls, "
                        f"{report.failovers} failovers")
    return failures


def check_em_mass(size_counts: np.ndarray, packets: int,
                  what: str) -> List[str]:
    """EM on FCM conserves mass: sum_j j * n_j == packets."""
    mass = float(np.dot(np.arange(size_counts.size), size_counts))
    if abs(mass - packets) <= MASS_RTOL * packets:
        return []
    return [f"{what}: EM mass {mass:.3f} != {packets} packets"]


ACCURACY_BOUNDS = {"cardinality": CARDINALITY_BOUND,
                   "EM flow total": FLOWS_BOUND,
                   "entropy": ENTROPY_BOUND}


def accuracy_errors(cardinality: float, em_flows: float, em_entropy: float,
                    truth: WindowTruth) -> Dict[str, float]:
    """Relative errors of one window's cardinality, EM flow total and
    entropy against the exact values."""
    flows, entropy = truth.flows, truth.entropy()
    return {"cardinality": abs(cardinality - flows) / flows,
            "EM flow total": abs(em_flows - flows) / flows,
            "entropy": abs(em_entropy - entropy) / entropy}


def check_accuracy(cardinality: float, em_flows: float, em_entropy: float,
                   truth: WindowTruth, what: str) -> List[str]:
    """Cardinality, EM flow total and entropy within their bounds."""
    errors = accuracy_errors(cardinality, em_flows, em_entropy, truth)
    return [f"{what}: {label} error {errors[label]:.3f} > {bound}"
            for label, bound in ACCURACY_BOUNDS.items()
            if not errors[label] <= bound]
