"""Each output check passes on the program's real answer and fails once
that answer is corrupted: a count lowered by one, a heavy hitter
dropped, a packet missing from the ledger, a key lost or duplicated on
the way to the runtime, mass moved between EM sizes, an estimate pushed
out of its accuracy bound.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import asyncio
import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from checks import WindowTruth  # noqa: E402
from repro.controlplane.distribution import estimate_distribution  # noqa: E402
from repro.core import FCMSketch  # noqa: E402
from repro.runtime import EpochConfig, EpochManager  # noqa: E402
from repro.service import (  # noqa: E402
    MeasurementService,
    PressureConfig,
    trace_sources,
)
from repro.traffic import caida_like_trace  # noqa: E402

WINDOW = 20_000
THRESHOLD = 20


@pytest.fixture(scope="module")
def keys():
    return caida_like_trace(2 * WINDOW, max_size=WINDOW // 200, seed=7).keys


@pytest.fixture(scope="module")
def sealed(keys):
    """The first of two sealed windows, its exact counts and its answer."""
    manager = EpochManager(lambda: FCMSketch.with_memory(16 * 1024),
                           config=EpochConfig(epoch_packets=WINDOW,
                                              retention=2))
    manager.feed(keys)
    epoch = manager.store[0]
    sketch = epoch.sketch()
    result = estimate_distribution(sketch)
    return epoch, sketch, WindowTruth.of(keys[:WINDOW]), result


@pytest.fixture(scope="module")
def drained(keys):
    """A lossless BLOCK service run and the keys it fed the runtime."""
    manager = EpochManager(lambda: FCMSketch.with_memory(16 * 1024),
                           config=EpochConfig(epoch_packets=WINDOW))
    fed = []
    feed = manager.feed

    def recording_feed(batch):
        fed.append(batch)
        feed(batch)

    manager.feed = recording_feed
    service = MeasurementService(manager,
                                 pressure=PressureConfig(policy="block"))
    report = asyncio.run(service.run(trace_sources(keys, 2, batch=512)))
    return report, np.concatenate(fed)


def test_no_underestimate_catches_a_count_lowered_by_one(sealed):
    _, sketch, truth, _ = sealed
    estimates = sketch.query_many(truth.keys)
    assert checks.check_no_underestimate(estimates, truth, "w") == []
    exact = np.flatnonzero(estimates == truth.counts)[0]
    estimates[exact] -= 1
    assert checks.check_no_underestimate(estimates, truth, "w")


def test_heavy_hitters_catches_a_missing_hitter(sealed):
    epoch, sketch, truth, _ = sealed
    reported = sketch.heavy_hitters(epoch.candidates, THRESHOLD)
    assert checks.check_heavy_hitters(reported, truth, THRESHOLD, "w") == []
    heaviest = int(truth.keys[np.argmax(truth.counts)])
    assert checks.check_heavy_hitters(reported - {heaviest}, truth,
                                      THRESHOLD, "w")


def test_ledger_catches_a_missing_packet(sealed, keys):
    epoch, sketch, _, _ = sealed
    assert checks.check_ledger([epoch.packets, WINDOW],
                               [sketch.total_packets, WINDOW],
                               keys.size, "r") == []
    assert checks.check_ledger([epoch.packets - 1, WINDOW],
                               [sketch.total_packets - 1, WINDOW],
                               keys.size, "r")
    assert checks.check_ledger([epoch.packets, WINDOW],
                               [sketch.total_packets - 1, WINDOW],
                               keys.size, "r")


def test_fed_multiset_catches_a_lost_or_duplicated_key(drained, keys):
    _, fed = drained
    assert checks.check_fed_multiset(fed, keys, "r") == []
    assert checks.check_fed_multiset(fed[1:], keys, "r")
    duplicated = fed.copy()
    duplicated[0] = duplicated[-1] if fed[0] != fed[-1] else fed[0] + 1
    assert checks.check_fed_multiset(duplicated, keys, "r")


def test_service_ledger_catches_loss_shedding_and_failover(drained, keys):
    report, _ = drained
    assert checks.check_service_ledger(report, keys.size, "r") == []
    for corrupted in (
            dataclasses.replace(report, ingested=report.ingested - 1),
            dataclasses.replace(report, shed=1),
            dataclasses.replace(report, stalls=1),
            dataclasses.replace(report, failovers=1)):
        assert checks.check_service_ledger(corrupted, keys.size, "r")


def test_em_mass_catches_mass_moved_between_sizes(sealed):
    epoch, _, _, result = sealed
    counts = result.size_counts.copy()
    assert checks.check_em_mass(counts, epoch.packets, "w") == []
    counts[1] -= 1.0
    counts[2] += 1.0
    assert checks.check_em_mass(counts, epoch.packets, "w")


def test_accuracy_catches_estimates_out_of_bounds(sealed):
    epoch, _, truth, result = sealed
    answer = (epoch.cardinality, result.total_flows, result.entropy)
    assert checks.check_accuracy(*answer, truth, "w") == []
    for index, bound in enumerate((checks.CARDINALITY_BOUND,
                                   checks.FLOWS_BOUND,
                                   checks.ENTROPY_BOUND)):
        exact = (truth.flows, truth.flows, truth.entropy())[index]
        corrupted = list(answer)
        corrupted[index] = exact * (1 + 1.01 * bound)
        assert checks.check_accuracy(*corrupted, truth, "w")


def test_error_metrics_read_zero_on_exact_answers(sealed):
    _, _, truth, result = sealed
    assert checks.average_relative_error(truth.counts, truth.counts) == 0
    histogram = truth.size_histogram()
    assert checks.wmre(histogram, histogram) == 0
    assert checks.wmre(histogram, result.size_counts) > 0
