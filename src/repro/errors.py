"""Shared exception hierarchy.

Everything raised by this package derives from :class:`MeasurementError`
so callers can catch the whole family with one clause.  Validation
errors additionally subclass :class:`ValueError` to stay compatible
with pre-existing ``except ValueError`` call sites.

The fault/degradation branch (:class:`NetworkFaultError` and below) is
what the robustness layer (:mod:`repro.robustness`) raises and catches:
resilient collectors convert these into per-window
``CollectionHealth`` records instead of letting them escape.
"""


class MeasurementError(Exception):
    """Base class of every error raised by the repro package."""


# ----------------------------------------------------------------------
# validation errors (also ValueError for backwards compatibility)
# ----------------------------------------------------------------------

class SketchMemoryError(MeasurementError, ValueError):
    """Raised when a memory budget is too small to build a sketch."""


class TopologyError(MeasurementError, ValueError):
    """Raised for malformed topologies (too few leaves, odd fat-tree k)."""


class RoutingError(MeasurementError, ValueError):
    """Raised when routing is impossible or a path selector misbehaves."""


class InvalidWindowError(MeasurementError, ValueError):
    """Raised for degenerate measurement-window requests."""


class FaultPlanError(MeasurementError, ValueError):
    """Raised for inconsistent fault-plan specifications."""


class SketchCompatibilityError(MeasurementError, ValueError):
    """Raised when two sketches cannot be merged or a serialized state
    cannot be loaded.

    Covers both *structural* incompatibility (the sketch type is
    order-dependent or otherwise has no lossless merge — the message
    names the structural reason) and *configuration* incompatibility
    (same type, but mismatched geometry, counter widths or hash seeds).
    Subclasses :class:`ValueError` so pre-existing
    ``except ValueError`` call sites around ``merge`` keep working.
    """


class StateCodecError(MeasurementError, ValueError):
    """Raised for malformed serialized sketch state (bad magic bytes,
    unsupported codec version, truncated payload)."""


class IngestTypeError(MeasurementError, TypeError):
    """Raised when a bulk-ingest key batch has an unusable dtype.

    The vectorized batch paths key everything on exact ``uint64``
    values; a float or negative-signed array would previously be
    ``astype``-cast — truncating ``1.9`` to ``1`` and wrapping ``-1``
    to ``2**64 - 1`` — and silently corrupt the per-flow grouping.
    Subclasses :class:`TypeError` so generic callers can keep a single
    ``except TypeError`` clause.
    """


# ----------------------------------------------------------------------
# runtime faults (the robustness layer's vocabulary)
# ----------------------------------------------------------------------

class NetworkFaultError(MeasurementError):
    """Base class for data-plane / collection faults."""


class SwitchUnreachableError(NetworkFaultError):
    """Raised when a switch is dead or unreachable for query/collection."""

    def __init__(self, switch: str, message: str = ""):
        self.switch = switch
        super().__init__(message or f"switch {switch!r} is unreachable")


class CollectionTimeoutError(NetworkFaultError):
    """Raised when draining a switch's sketch exceeds the timeout."""

    def __init__(self, switch: str, elapsed: float, timeout: float):
        self.switch = switch
        self.elapsed = float(elapsed)
        self.timeout = float(timeout)
        super().__init__(
            f"collecting {switch!r} took {elapsed:.3f}s "
            f"(timeout {timeout:.3f}s)"
        )


class CircuitOpenError(NetworkFaultError):
    """Raised when a circuit breaker short-circuits a collection."""

    def __init__(self, switch: str, open_until_window: int):
        self.switch = switch
        self.open_until_window = int(open_until_window)
        super().__init__(
            f"circuit for {switch!r} open until window {open_until_window}"
        )


class EpochSnapshotUnavailableError(NetworkFaultError):
    """Raised when a query scope covers a sealed epoch whose codec
    snapshot was never captured (e.g. the network vantage switch was
    unreachable for the whole drain window)."""

    def __init__(self, epoch: int, message: str = ""):
        self.epoch = int(epoch)
        super().__init__(
            message or f"epoch {epoch} has no vantage snapshot to query")


class ConcurrencyError(MeasurementError, RuntimeError):
    """Raised when :class:`~repro.runtime.epochs.EpochManager` mutation
    (``feed`` / ``rotate`` / ``close``) is entered from a second thread
    while another mutation is still in progress.

    The epoch runtime is single-writer by design: the sealed+live
    packet ledger is updated in several steps and a concurrent writer
    could observe (and persist) a torn intermediate state.  Reentrant
    calls from the *same* thread (``feed`` rotating at an epoch
    boundary) are always allowed.
    """


class ServiceClosedError(MeasurementError, RuntimeError):
    """Raised when packets are submitted to a measurement service that
    is draining or already shut down.  Accepted packets are never
    dropped by shutdown; packets offered *after* shutdown began are
    refused loudly instead of being silently lost."""


class WorkerPoolError(MeasurementError, RuntimeError):
    """Raised when a pool worker (ingest or EM) dies, errors, or times
    out.  The worker core (:mod:`repro.engine.workers`) raises this on
    the *parent* side; :class:`~repro.engine.backends.PoolBackend`
    catches it and fails over to serial direct-feed so the live epoch
    is re-ingested rather than lost, and the EM estimator recomputes
    the iteration inline (breaker-style: the pool stays down for the
    owner's remaining lifetime)."""

    def __init__(self, message: str, worker_id=None, exitcode=None):
        self.worker_id = worker_id
        self.exitcode = exitcode
        super().__init__(message)


class EMDivergenceError(MeasurementError):
    """Raised when EM produces NaN/inf mass or runaway flow counts."""

    def __init__(self, iteration: int, reason: str):
        self.iteration = int(iteration)
        self.reason = reason
        super().__init__(f"EM diverged at iteration {iteration}: {reason}")


class EMWarmStartError(MeasurementError, ValueError):
    """Raised when a warm-start seed for EM is unusable.

    Degenerate seeds — all-zero mass, a dense vector of the wrong
    length, or non-finite entries — are rejected up front so a bad
    seed can never silently corrupt the estimate; the estimator is
    left untouched and a cold :meth:`~repro.core.em.EMEstimator.run`
    still works afterwards."""
