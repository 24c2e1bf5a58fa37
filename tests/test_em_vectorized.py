"""Differential suite for the vectorized EM E-step.

The estimator evaluates each ``(tree, degree, chunk)`` unit with two
sparse products over flat combination tables, and prepares a tree with
one ``np.unique`` over its counters.  This suite keeps the per-group,
per-counter implementation they replaced as a test-side reference and
pins the new code against it:

* ``unit_partial`` equals the per-group posterior to ``rtol=1e-12``
  on a multi-tree zipf sketch, on the 4-leaf tree holding one degree-2
  counter, and on a group with no support (uniform fallback);
* preparation yields the same ``(value, degree, multiplicity)`` groups
  and the same deterministic vector as the per-counter loop;
* the ``np.bincount`` initial guess equals the per-counter loop
  exactly, half-to-even rounding included.
"""

import math

import numpy as np
import pytest
from scipy.special import gammaln

from repro.core import FCMSketch
from repro.core.em import (
    EMConfig,
    EMEstimator,
    _combinations,
    combination_table,
    enumerate_combinations,
)
from repro.core.em_parallel import unit_partial
from repro.core.virtual import VirtualCounterArray, convert_sketch
from tests.test_em_degree2 import force_degree2_state
from tests.test_em_parallel import zipf_arrays

RTOL = 1e-12


# ----------------------------------------------------------------------
# the per-group / per-counter reference implementation
# ----------------------------------------------------------------------

class ReferenceGroup:
    """One (value, degree) group's posterior, one group at a time."""

    def __init__(self, multiplicity, combos):
        self.multiplicity = multiplicity
        sizes, mults, ids = [], [], []
        for cid, (c_sizes, c_mults) in enumerate(combos):
            sizes.extend(c_sizes)
            mults.extend(c_mults)
            ids.extend([cid] * len(c_sizes))
        self.sizes = np.array(sizes, dtype=np.int64)
        self.mults = np.array(mults, dtype=np.float64)
        self.combo_ids = np.array(ids, dtype=np.int64)
        self.num_combos = len(combos)
        self.log_fact = np.zeros(self.num_combos, dtype=np.float64)
        np.add.at(self.log_fact, self.combo_ids, gammaln(self.mults + 1.0))

    def contribute(self, log_n, log_rate, out):
        if self.num_combos == 0:
            return
        term = self.mults * (log_n[self.sizes] + log_rate)
        log_w = np.zeros(self.num_combos, dtype=np.float64)
        np.add.at(log_w, self.combo_ids, term)
        log_w -= self.log_fact
        peak = log_w.max()
        if not np.isfinite(peak):
            weights = np.full(self.num_combos, 1.0 / self.num_combos)
        else:
            weights = np.exp(log_w - peak)
            weights /= weights.sum()
        np.add.at(out, self.sizes,
                  self.multiplicity * weights[self.combo_ids] * self.mults)


def group_min_path(degree, array):
    return 1 if degree == 1 else array.thetas[0] + 1


def reference_partial(unit, log_n, size, array, config):
    out = np.zeros(size, dtype=np.float64)
    log_rate = math.log(unit.degree / unit.leaf_width)
    for group in unit.groups:
        combos = enumerate_combinations(
            group.value, group.degree, group_min_path(group.degree, array),
            config.max_flows_for(group.value, group.degree))
        ReferenceGroup(group.multiplicity, combos).contribute(
            log_n, log_rate, out)
    return out


def reference_add_deterministic(out, value, degree, min_path):
    if value <= 0:
        return
    mice = max(degree - 1, 0)
    elephant = value - mice * min_path
    if elephant <= 0:
        share = max(value // max(degree, 1), 1)
        out[min(share, out.shape[0] - 1)] += degree
        return
    if mice:
        out[min(min_path, out.shape[0] - 1)] += mice
    out[min(elephant, out.shape[0] - 1)] += 1


def reference_prepare(array, config, size):
    grouped = {}
    deterministic = np.zeros(size, dtype=np.float64)
    for value, degree, stage in zip(array.values, array.degrees,
                                    array.stages):
        value, degree, stage = int(value), int(degree), int(stage)
        min_path = array.min_path_count(stage)
        max_flows = config.max_flows_for(value, degree)
        combos = (tuple(_combinations(value, degree, min_path, max_flows))
                  if max_flows else ())
        if combos:
            grouped[(value, degree)] = grouped.get((value, degree), 0) + 1
        else:
            reference_add_deterministic(deterministic, value, degree,
                                        min_path)
    groups = [(value, degree, mult)
              for (value, degree), mult in sorted(grouped.items())]
    return groups, deterministic


def reference_initial_guess(arrays, size, config):
    n0 = np.zeros(size, dtype=np.float64)
    for array in arrays:
        for value, degree in zip(array.values, array.degrees):
            value, degree = int(value), int(degree)
            if value <= 0:
                continue
            share = max(1, int(round(value / degree)))
            n0[min(share, size - 1)] += degree
    n0 /= len(arrays)
    floor_top = min(config.exact_threshold + 1, size)
    n0[1:floor_top] += config.epsilon
    n0[0] = 0.0
    return n0


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------

def no_support_state():
    """One counter of value 10; the estimate supports only size 3."""
    sketch = FCMSketch.with_memory(16 * 1024, seed=2)
    sketch.update(1, count=10)
    arrays = convert_sketch(sketch)
    estimator = EMEstimator(arrays, EMConfig(epsilon=0.0))
    n_j = np.zeros(estimator._size)
    n_j[3] = 1.0
    return estimator, n_j


@pytest.fixture(scope="module")
def cases():
    """name -> (estimator, n_j) for the three inputs."""
    zipf = EMEstimator(zipf_arrays())
    degree2 = EMEstimator([force_degree2_state()])
    degenerate, n_j = no_support_state()
    return {
        "zipf-initial": (zipf, zipf.initial_guess()),
        "zipf-iterated": (zipf, zipf.run(iterations=3).size_counts),
        "degree2": (degree2, degree2.initial_guess()),
        "degree2-iterated": (degree2,
                             degree2.run(iterations=3).size_counts),
        "no-support": (degenerate, n_j),
    }


@pytest.fixture(params=["zipf-initial", "zipf-iterated", "degree2",
                        "degree2-iterated", "no-support"])
def case(request, cases):
    estimator, n_j = cases[request.param]
    with np.errstate(divide="ignore"):
        return estimator, np.log(n_j)


# ----------------------------------------------------------------------
# the unit kernel
# ----------------------------------------------------------------------

class TestUnitKernel:
    def test_matches_per_group_posterior(self, case):
        estimator, log_n = case
        assert estimator._units
        for unit in estimator._units:
            array = estimator.arrays[unit.tree]
            got = unit_partial(unit, log_n, estimator._size)
            want = reference_partial(unit, log_n, estimator._size, array,
                                     estimator.config)
            np.testing.assert_allclose(got, want, rtol=RTOL, atol=0)

    def test_unit_preserves_counter_mass(self, case):
        """Every combination of a group sums to its value, so a unit's
        response carries exactly the value of its counters."""
        estimator, log_n = case
        sizes = np.arange(estimator._size, dtype=np.float64)
        for unit in estimator._units:
            mass = float(sizes @ unit_partial(unit, log_n, estimator._size))
            expected = sum(g.value * g.multiplicity for g in unit.groups)
            assert mass == pytest.approx(expected, rel=RTOL)

    def test_no_support_falls_back_to_uniform(self):
        estimator, n_j = no_support_state()
        with np.errstate(divide="ignore"):
            log_n = np.log(n_j)
        # One counter per tree: one unit of one group each.
        assert len(estimator._units) == len(estimator.arrays)
        for unit in estimator._units:
            (group,) = unit.groups
            got = unit_partial(unit, log_n, estimator._size)
            assert np.isfinite(got).all()
            # Uniform over the combinations: each is weighted 1/count.
            table = group.table
            want = np.zeros(estimator._size)
            np.add.at(want, table.sizes,
                      table.mults * group.multiplicity / table.num_combos)
            np.testing.assert_allclose(got, want, rtol=RTOL, atol=0)


# ----------------------------------------------------------------------
# preparation and the initial guess
# ----------------------------------------------------------------------

class TestPreparation:
    @pytest.mark.parametrize("name", ["zipf-initial", "degree2"])
    def test_groups_and_deterministic_match_counter_loop(self, name,
                                                         cases):
        estimator, _ = cases[name]
        for array, work in zip(estimator.arrays, estimator._work):
            groups, deterministic = reference_prepare(
                array, estimator.config, estimator._size)
            assert [(g.value, g.degree, g.multiplicity)
                    for g in work.groups] == groups
            assert np.array_equal(work.deterministic, deterministic)

    def test_deterministic_tier_is_exercised(self):
        arrays = zipf_arrays()
        estimator = EMEstimator(arrays, EMConfig(tight_threshold=40))
        for array, work in zip(arrays, estimator._work):
            _, deterministic = reference_prepare(
                array, estimator.config, estimator._size)
            assert deterministic.sum() > 0
            assert np.array_equal(work.deterministic, deterministic)


class TestInitialGuess:
    @pytest.mark.parametrize("name", ["zipf-initial", "degree2",
                                      "no-support"])
    def test_bincount_equals_counter_loop(self, name, cases):
        estimator, _ = cases[name]
        want = reference_initial_guess(estimator.arrays, estimator._size,
                                       estimator.config)
        assert np.array_equal(estimator.initial_guess(), want)

    def test_halves_round_to_even(self):
        # Shares 2.5, 3.5, 1.5 and 4.5 round to 2, 4, 2 and 4.
        array = VirtualCounterArray(
            values=np.array([5, 7, 3, 9]), degrees=np.array([2, 2, 2, 2]),
            stages=np.array([2, 2, 2, 2]), leaf_width=8, thetas=[2, 14],
            num_empty_leaves=0)
        estimator = EMEstimator([array])
        got = estimator.initial_guess()
        want = reference_initial_guess([array], estimator._size,
                                       estimator.config)
        assert np.array_equal(got, want)
        assert got[2] == pytest.approx(4.0) and got[4] == pytest.approx(4.0)


class TestCombinationTable:
    @pytest.mark.parametrize("key", [(9, 2, 3, 3), (40, 1, 1, 4),
                                     (30, 3, 3, 5), (300, 1, 255, 1),
                                     (4, 2, 3, 4), (0, 1, 1, 4)])
    def test_table_matches_generator(self, key):
        table = combination_table(*key)
        assert table.combinations() == tuple(_combinations(*key))
        assert enumerate_combinations(*key) == table.combinations()
        if table.num_combos:
            assert table.flows.tolist() == [
                sum(m) for _, m in table.combinations()]

    def test_tables_are_shared_and_read_only(self):
        table = combination_table(20, 1, 1, 4)
        assert combination_table(20, 1, 1, 4) is table
        with pytest.raises(ValueError):
            table.sizes[0] = 1
        info = enumerate_combinations.cache_info()
        assert info.hits >= 1
