"""Parallel EM work distribution over (tree, degree-group) units (§7.3.2).

The paper runs EM on a 64-core Xeon by exploiting the natural
independence inside one iteration's response step: every virtual
counter's posterior depends only on the *previous* estimate ``n_j``,
so the per-counter contributions can be computed in any partition.
This module carries that decomposition onto the worker core it
shares with shard ingest (:mod:`repro.engine.workers`):

* The estimator splits each tree's value/degree groups into
  :class:`EMUnit` work units — all groups of one tree with one merge
  degree, chunked so a degree-1-heavy sketch still yields enough
  units to busy every worker.  Each unit packs its groups'
  combination tables once into a sparse combinations × sizes matrix,
  so :func:`unit_partial` is a few whole-unit numpy passes.
* :class:`EMWorkerPool` forks long-lived workers once per estimator.
  Each iteration broadcasts ``log(n_j)`` through a shared input
  array, workers write each unit's partial histogram into its own
  float64 row of a shared contribution array, and the coordinator
  reduces the rows **in canonical unit order**.

Bit-exactness contract: a unit's partial is a pure function of
``log_n`` (same numpy ops, same dtypes, same accumulation order
whether it runs inline or in a worker), and the coordinator performs
the identical ordered float64 reduction the serial path performs.
Shared-memory transport copies the float64 bits verbatim, so parallel
and serial runs return ``np.array_equal`` estimates — the
differential suite in ``tests/test_em_parallel.py`` pins this across
worker counts.

Failure semantics: a worker death or wedge surfaces as
:class:`~repro.errors.WorkerPoolError`; the estimator catches it,
terminates the pool, and recomputes the iteration inline
(breaker-style, like :class:`~repro.engine.backends.PoolBackend`) —
the run completes with the exact same result, only slower.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from repro.engine.workers import WorkerGroup, shared_array

__all__ = ["EMUnit", "EMWorkerPool", "build_units", "unit_partial"]

#: Groups per work unit: large degree-1 populations are chunked so a
#: single-degree sketch still fans out across all workers.
DEFAULT_CHUNK_GROUPS = 64

_FLOAT = np.float64


@dataclass
class EMUnit:
    """One independent slice of an EM iteration's response step.

    All value-groups of one tree sharing one merge degree (or a chunk
    of them).  ``index`` is the unit's position in the canonical
    reduction order: ascending (tree, degree, chunk).

    ``groups`` keeps the per-group records; the kernel reads only the
    flat arrays built from them once per estimator.  Row ``c`` of
    ``matrix`` is the unit's ``c``-th combination over flow sizes,
    holding how many of its flows have each size; ``offset[c]`` is
    the size-independent part of its log prior; group ``g`` owns the
    ``counts[g]`` rows from ``starts[g]`` on and stands for
    ``scale[g]`` counters.
    """

    index: int
    tree: int
    degree: int
    chunk: int
    leaf_width: int
    groups: List  # List[_Group]; untyped to avoid a circular import
    matrix: "scipy.sparse.csr_matrix" = field(repr=False)
    offset: np.ndarray = field(repr=False)
    starts: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)
    scale: np.ndarray = field(repr=False)


def _make_unit(index: int, tree: int, degree: int, chunk: int,
               leaf_width: int, groups: Sequence) -> EMUnit:
    """Concatenate the groups' combination tables into one unit.

    The Poisson prior of a combination with ``m_j`` flows of size
    ``j`` is, up to a per-counter constant,
    ``sum_j m_j * (log n_j + log_rate) - sum_j log(m_j!)``; all but
    ``sum_j m_j * log n_j`` is fixed for the estimator's lifetime.
    """
    # Imported here: only EM needs scipy.sparse, and every importer of
    # the package would otherwise pay for it at start-up.
    from scipy.sparse import csr_matrix

    tables = [group.table for group in groups]
    counts = np.array([t.num_combos for t in tables], dtype=np.int64)
    starts = np.zeros_like(counts)
    np.cumsum(counts[:-1], out=starts[1:])
    indptr = np.zeros(int(counts.sum()) + 1, dtype=np.int64)
    np.cumsum(np.concatenate([np.diff(t.indptr) for t in tables]),
              out=indptr[1:])
    sizes = np.concatenate([t.sizes for t in tables])
    mults = np.concatenate([t.mults for t in tables]).astype(_FLOAT)
    matrix = csr_matrix((mults, sizes, indptr),
                       shape=(indptr.shape[0] - 1, int(sizes.max()) + 1))
    log_rate = math.log(degree / leaf_width)
    offset = (log_rate * np.concatenate([t.flows for t in tables])
              - np.concatenate([t.log_fact for t in tables]))
    return EMUnit(index=index, tree=tree, degree=degree, chunk=chunk,
                  leaf_width=leaf_width, groups=list(groups),
                  matrix=matrix, offset=offset, starts=starts,
                  counts=counts,
                  scale=np.array([g.multiplicity for g in groups],
                                 dtype=_FLOAT))


def build_units(works: Sequence, *,
                chunk_groups: int = DEFAULT_CHUNK_GROUPS) -> List[EMUnit]:
    """Decompose per-tree E-step work into canonical (tree, degree,
    chunk) units.

    ``works`` is the estimator's list of ``_TreeWork`` (one per tree,
    groups already sorted by (value, degree)).  The returned list *is*
    the reduction order: the serial and parallel paths both sum unit
    partials in this order, which is what makes them bit-identical.
    """
    if chunk_groups <= 0:
        raise ValueError("chunk_groups must be positive")
    units: List[EMUnit] = []
    for tree_idx, work in enumerate(works):
        by_degree: dict = {}
        for group in work.groups:
            by_degree.setdefault(group.degree, []).append(group)
        for degree in sorted(by_degree):
            groups = by_degree[degree]
            for chunk, start in enumerate(range(0, len(groups),
                                                chunk_groups)):
                units.append(_make_unit(
                    len(units), tree_idx, degree, chunk, work.leaf_width,
                    groups[start:start + chunk_groups]))
    return units


def unit_partial(unit: EMUnit, log_n: np.ndarray,
                 size: int) -> np.ndarray:
    """One unit's partial response histogram (pure in ``log_n``).

    Runs identically inline and in a worker process: the log prior of
    every combination in one sparse product, a per-group softmax, and
    the posterior-expected flow counts in one transposed product.
    """
    width = unit.matrix.shape[1]
    log_w = unit.matrix @ log_n[:width] + unit.offset
    peak = np.maximum.reduceat(log_w, unit.starts)
    dead = ~np.isfinite(peak)
    if dead.any():
        # No combination of the group has support under the current
        # estimate; fall back to a uniform posterior to keep EM moving.
        peak[dead] = 0.0
        log_w[np.repeat(dead, unit.counts)] = 0.0
    weights = np.exp(log_w - np.repeat(peak, unit.counts))
    weights *= np.repeat(unit.scale / np.add.reduceat(weights, unit.starts),
                         unit.counts)
    out = np.zeros(size, dtype=_FLOAT)
    out[:width] = unit.matrix.T @ weights
    return out


class _UnitWorker:
    """One worker's handler: fill its units' rows for one iteration.

    ``("iter", seq)`` reads the freshly broadcast ``log(n_j)``, writes
    each assigned unit's partial into its row of the shared
    contribution array, and replies ``seq``.
    """

    def __init__(self, assigned: List[EMUnit], log_n: np.ndarray,
                 rows: np.ndarray):
        self.assigned = assigned
        self.log_n = log_n
        self.rows = rows

    def __call__(self, msg) -> int:
        size = self.rows.shape[1]
        for unit in self.assigned:
            self.rows[unit.index] = unit_partial(unit, self.log_n, size)
        return msg[1]


class EMWorkerPool:
    """Persistent EM response-step workers over shared arrays.

    Args:
        units: canonical unit list from :func:`build_units`; unit
            ``i`` owns row ``i`` of the contribution array.
        size: dense histogram length (``max_value + 1``).
        num_workers: worker process count (units are assigned
            round-robin, so worker loads interleave degree tiers).
        timeout: seconds to wait for an iteration's replies before
            declaring the pool wedged (:class:`WorkerPoolError`).
        telemetry: optional registry; gauges worker count and the
            per-iteration fan-out latency.
        name: metric name prefix.

    Workers exist from construction until :meth:`close` (or
    :meth:`terminate` on the failover path); iterations reuse them, so
    the prepared units reach the workers once, at fork, not once per
    iteration.
    """

    def __init__(self, units: Sequence[EMUnit], size: int,
                 num_workers: int, *, timeout: float = 60.0,
                 telemetry=None, name: str = "em.parallel"):
        if not units:
            raise ValueError("need at least one work unit")
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        self.units = list(units)
        self.size = int(size)
        self.num_workers = min(int(num_workers), len(self.units))
        self._telemetry = telemetry
        self._tname = name
        self._seq = 0
        self._log_n = shared_array((self.size,), _FLOAT)
        self._rows = shared_array((len(self.units), self.size), _FLOAT)
        self._group = WorkerGroup(
            [_UnitWorker(self.units[wid::self.num_workers], self._log_n,
                         self._rows)
             for wid in range(self.num_workers)],
            timeout=timeout, name=name)
        if telemetry is not None:
            telemetry.set_gauge(f"{name}.workers", float(self.num_workers))
            telemetry.set_gauge(f"{name}.units", float(len(self.units)))

    @property
    def closed(self) -> bool:
        return self._group.closed

    def worker_pids(self) -> List[int]:
        """PIDs of the live workers (chaos tests kill these)."""
        return self._group.worker_pids()

    def iterate(self, log_n: np.ndarray) -> List[np.ndarray]:
        """Fan one response step out and return per-unit partials.

        Broadcasts ``log_n`` through the shared input array, waits for
        every worker's reply, and returns copies of the contribution
        rows in canonical unit order (the caller owns the reduction).

        Raises:
            WorkerPoolError: a worker died, errored, or the wait
                exceeded ``timeout`` — callers fail over to inline
                computation after :meth:`terminate`.
        """
        self._group.check_alive()
        self._seq += 1
        start = time.perf_counter()
        self._log_n[:] = log_n
        self._group.broadcast(("iter", self._seq))
        pending = set(range(self.num_workers))
        while pending:
            wid, seq = self._group.recv()
            if seq == self._seq:  # else stale, from a failed iteration
                pending.discard(wid)
        partials = [row.copy() for row in self._rows]
        if self._telemetry is not None:
            self._telemetry.observe(f"{self._tname}.iterate_seconds",
                                    time.perf_counter() - start)
        return partials

    def close(self) -> None:
        """Stop and join the workers (idempotent)."""
        self._group.close()
        if self._telemetry is not None:
            self._telemetry.set_gauge(f"{self._tname}.workers", 0.0)

    def terminate(self) -> None:
        """Hard stop (failover path): kill and join the workers."""
        self._group.terminate()
        if self._telemetry is not None:
            self._telemetry.set_gauge(f"{self._tname}.workers", 0.0)

    def __enter__(self) -> "EMWorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
