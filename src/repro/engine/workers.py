"""One worker core under the ingest and EM process pools.

Shard ingest (:mod:`repro.engine.pool`) and the EM response step
(:mod:`repro.core.em_parallel`) need the same process machinery; it
lives here once:

* :func:`shared_array` — a numpy array over an anonymous shared
  ``mmap``.  Allocated *before* the fork, it is inherited by every
  worker: there is no name to attach, no file to unlink, and so no
  ``multiprocessing.resource_tracker`` process.
* :class:`WorkerGroup` — forks one worker per handler, gives each its
  own command queue, and funnels every reply through one reply queue.
  The parent's waits poll with liveness checks and a deadline; a dead,
  failed or wedged worker surfaces as
  :class:`~repro.errors.WorkerPoolError`, which both pools turn into
  serial failover.  :meth:`~WorkerGroup.close` and
  :meth:`~WorkerGroup.terminate` join every worker, so no process
  outlives either.

A handler is any callable ``handler(msg) -> reply``.  The fork gives
each worker its own copy, so handler state (a shard sketch, a slice of
EM units) is private to its worker while the shared arrays it holds
are not.  ``multiprocessing`` is imported only when a group starts.
"""

from __future__ import annotations

import mmap
import os
import queue as _queue
import time
from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.errors import WorkerPoolError

__all__ = ["WorkerGroup", "shared_array", "usable_cpus"]

#: How often a waiting parent re-checks worker liveness.
_POLL_SECONDS = 0.05


def usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware).

    ``os.cpu_count()`` reports the machine; a container or taskset can
    pin us to fewer.  The bench records this so a ``cpus: 1`` run can
    never masquerade as a parallel measurement.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def shared_array(shape, dtype) -> np.ndarray:
    """A zeroed array over an anonymous ``MAP_SHARED`` mapping.

    Allocate it before the :class:`WorkerGroup` that uses it: forked
    workers inherit the mapping, so a write on either side is seen by
    the other.  The memory goes with the last reference to the array.
    """
    dtype = np.dtype(dtype)
    nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
    return np.ndarray(shape, dtype=dtype, buffer=mmap.mmap(-1, nbytes))


def _worker_main(worker_id: int, handler: Callable, commands,
                 replies) -> None:
    """Reply to each command with ``handler(msg)`` until ``None``."""
    while True:
        msg = commands.get()
        if msg is None:
            return
        try:
            reply = handler(msg)
        except Exception as exc:  # pragma: no cover - worker path
            import traceback

            replies.put((worker_id, False, f"{type(exc).__name__}: {exc}\n"
                         f"{traceback.format_exc()}"))
            return
        replies.put((worker_id, True, reply))


class WorkerGroup:
    """Forked workers: one command queue each, one reply queue.

    Args:
        handlers: one callable per worker; worker ``i`` answers every
            command sent to it with ``handlers[i](msg)``.
        timeout: seconds :meth:`recv` waits for the next reply before
            declaring the group wedged.
        name: worker-name prefix, also used in error messages.

    Workers start at construction and run until :meth:`close` (stop
    commands, then join) or :meth:`terminate` (kill, then join; safe
    with dead or wedged workers).  Both are idempotent.
    """

    def __init__(self, handlers: Sequence[Callable], *,
                 timeout: float = 60.0, name: str = "workers"):
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        self.name = name
        self.timeout = float(timeout)
        self.closed = False
        self._owner = os.getpid()
        self._commands = [ctx.SimpleQueue() for _ in handlers]
        self._replies = ctx.Queue()
        self._procs = []
        try:
            for wid, handler in enumerate(handlers):
                proc = ctx.Process(
                    target=_worker_main,
                    args=(wid, handler, self._commands[wid], self._replies),
                    daemon=True, name=f"{name}-worker-{wid}")
                proc.start()
                self._procs.append(proc)
        except BaseException:
            self.terminate()
            raise

    def worker_pids(self) -> List[int]:
        """PIDs of the live workers (empty once stopped)."""
        return [proc.pid for proc in self._procs]

    def send(self, worker_id: int, msg) -> None:
        self._commands[worker_id].put(msg)

    def broadcast(self, msg) -> None:
        for commands in self._commands:
            commands.put(msg)

    def check_alive(self) -> None:
        """Raise :class:`WorkerPoolError` if any worker has exited."""
        if self.closed:
            raise WorkerPoolError(f"{self.name} is closed")
        for proc in self._procs:
            if not proc.is_alive():
                raise WorkerPoolError(
                    f"{self.name} worker {proc.name} died "
                    f"(exitcode {proc.exitcode})",
                    worker_id=proc.name, exitcode=proc.exitcode)

    def recv(self) -> Tuple[int, object]:
        """The next ``(worker_id, reply)``.

        Raises :class:`WorkerPoolError` when a worker dies or fails, or
        when no reply arrives within ``timeout``.
        """
        if self.closed:
            raise WorkerPoolError(f"{self.name} is closed")
        deadline = time.monotonic() + self.timeout
        while True:
            try:
                wid, ok, reply = self._replies.get(timeout=_POLL_SECONDS)
            except _queue.Empty:
                self.check_alive()
                if time.monotonic() > deadline:
                    raise WorkerPoolError(
                        f"{self.name}: no reply within "
                        f"{self.timeout:.0f}s") from None
                continue
            if not ok:
                raise WorkerPoolError(
                    f"{self.name} worker {wid} failed: {reply}",
                    worker_id=wid)
            return wid, reply

    def close(self) -> None:
        """Stop every worker after its queued commands; join them."""
        if self.closed:
            return
        self.closed = True
        for commands in self._commands:
            commands.put(None)
        self._join()

    def terminate(self) -> None:
        """Kill every worker now and join them (failover path)."""
        self.closed = True
        for proc in self._procs:
            proc.terminate()
        self._join()

    def _join(self) -> None:
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - wedged worker
                proc.kill()
                proc.join()
        self._procs = []
        for commands in self._commands:
            commands.close()
        self._replies.close()
        self._replies.join_thread()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            if os.getpid() == self._owner and not self.closed:
                self.terminate()
        except Exception:
            pass
