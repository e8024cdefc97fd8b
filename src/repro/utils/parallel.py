"""The submit/collect worker pool of the asynchronous BO engine.

A tuning session runs on its caller's thread: parameter selection and
the BO loop are serial work, and so is a comparison study, which runs
its sessions one after another.  The one pool left is
:class:`WorkerPool`, which keeps an asynchronous session's evaluations
in flight (``async_workers``) so their latencies overlap.
"""

from __future__ import annotations

import queue
import threading
from collections import deque
from typing import Any, Callable

from ..obs import NULL_TRACER

__all__ = ["PoolTimeout", "WorkerPool"]


class PoolTimeout(TimeoutError):
    """Raised by :meth:`WorkerPool.next_completed` when its wait expires."""


class WorkerPool:
    """Submit/collect pool for asynchronous evaluation loops.

    A ``WorkerPool`` keeps tasks in flight and hands back whichever one
    finishes first, so a caller can fold a result in and dispatch a
    replacement without waiting on the round's stragglers — the core of the
    asynchronous BO engine (see docs/PERFORMANCE.md).

    The thread backend runs every task on its own daemon thread feeding a
    completion queue, rather than a shared executor: a hung task then
    wedges only its own (abandonable) thread, never the pool.  That is
    what makes :meth:`abandon` and the bounded :meth:`close` possible —
    the supervision layer (``repro.supervise``, docs/ROBUSTNESS.md)
    depends on both.

    Parameters
    ----------
    n_workers:
        Concurrent task capacity.  This is an explicit count, never derived
        from CPUs: async evaluation overlaps *latency* (simulated cluster
        runs, sleeps), which threads do regardless of core count.
    backend:
        ``"thread"`` (default) runs each task on a daemon thread;
        ``"serial"`` defers execution to :meth:`next_completed` (FIFO), on
        the collecting thread — the BO engine's one-worker loop, and
        tests that exercise the submit/collect protocol with no threads
        at all.
    drain_timeout_s:
        Total time :meth:`close` will spend joining still-running task
        threads before abandoning them (they are daemons, so they can
        never block interpreter exit).
    tracer:
        Optional :class:`repro.obs.Tracer`; task execution time accumulates
        in the ``pool.task`` timer (the clock read stays inside the tracer,
        rule RPD005), and every task given up on bumps the
        ``pool.abandoned_tasks`` counter.

    Completion-order determinism is the *caller's* problem: tags let the
    caller re-associate results with submissions regardless of which
    finishes first.
    """

    def __init__(self, n_workers: int, *, backend: str = "thread",
                 drain_timeout_s: float = 5.0, tracer=None):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if backend not in ("thread", "serial"):
            raise ValueError(
                f"backend must be 'thread' or 'serial', got {backend!r}")
        if drain_timeout_s < 0:
            raise ValueError("drain_timeout_s must be >= 0")
        self.n_workers = int(n_workers)
        self.backend = backend
        self.drain_timeout_s = float(drain_timeout_s)
        self._tracer = NULL_TRACER if tracer is None else tracer
        self._queue: deque = deque()          # serial backend: (tag, thunk)
        self._completions: queue.Queue = queue.Queue()  # (seq, result, exc)
        self._inflight: dict[int, Any] = {}   # seq -> tag
        self._threads: dict[int, threading.Thread] = {}
        self._ready: dict[int, tuple[Any, BaseException | None]] = {}
        self._discard: set[int] = set()       # abandoned seqs: drop late results
        self._n_submitted = 0
        self.abandoned_tasks = 0

    # -- protocol -----------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Tasks submitted but not yet collected."""
        return len(self._inflight) + len(self._queue)

    @property
    def free_workers(self) -> int:
        return max(self.n_workers - self.pending, 0)

    def submit(self, fn: Callable[[], Any], *, tag: Any = None) -> None:
        """Dispatch a zero-argument task; *tag* identifies it on collection."""
        if self.pending >= self.n_workers:
            raise RuntimeError(
                f"pool is full ({self.n_workers} tasks in flight); "
                "collect with next_completed() before submitting more")
        seq = self._n_submitted
        self._n_submitted += 1

        def _run() -> Any:
            with self._tracer.timer("pool.task"):
                return fn()

        if self.backend == "serial":
            self._queue.append((tag, _run))
            return

        def _worker() -> None:
            try:
                result: Any = _run()
                exc: BaseException | None = None
            except BaseException as e:  # noqa: BLE001 - relayed to collector
                result, exc = None, e
            self._completions.put((seq, result, exc))

        self._inflight[seq] = tag
        thread = threading.Thread(target=_worker, daemon=True,
                                  name=f"WorkerPool-task-{seq}")
        self._threads[seq] = thread
        thread.start()

    def _absorb(self, seq: int, result: Any,
                exc: BaseException | None) -> None:
        """File one completion-queue entry; late abandoned results drop."""
        if seq in self._discard:
            self._discard.discard(seq)
            return
        self._ready[seq] = (result, exc)

    def next_completed(self, timeout: float | None = None) -> tuple[Any, Any]:
        """Block until any in-flight task finishes; returns ``(tag, result)``.

        Ties (several tasks already done) resolve in submission order, so
        replaying a trace where everything completed "instantly" is
        deterministic.  A task that raised re-raises here, after being
        removed from the pool.  With *timeout* (seconds), a wait that
        expires raises :class:`PoolTimeout` and leaves every task in
        flight — the caller decides whether to keep waiting or
        :meth:`abandon`.
        """
        if self.backend == "serial":
            if not self._queue:
                raise RuntimeError("no tasks in flight")
            tag, run = self._queue.popleft()
            return tag, run()
        if not self._inflight:
            raise RuntimeError("no tasks in flight")
        while True:
            try:
                while True:
                    self._absorb(*self._completions.get_nowait())
            except queue.Empty:
                pass
            live = [seq for seq in self._ready if seq in self._inflight]
            if live:
                seq = min(live)  # submission-order tie-break
                tag = self._inflight.pop(seq)
                self._threads.pop(seq, None)
                result, exc = self._ready.pop(seq)
                if exc is not None:
                    raise exc
                return tag, result
            try:
                entry = self._completions.get(timeout=timeout)
            except queue.Empty:
                raise PoolTimeout(
                    f"no task completed within {timeout}s "
                    f"({len(self._inflight)} in flight)") from None
            self._absorb(*entry)

    def abandon(self, tag: Any) -> bool:
        """Give up on the in-flight task with *tag*; frees its slot.

        The task's thread is left to finish (or hang) on its own — it is a
        daemon, so it cannot block exit — and any result it eventually
        produces is silently dropped.  Returns True if a matching task was
        found.  Each abandonment bumps the audible ``pool.abandoned_tasks``
        counter.
        """
        if self.backend == "serial":
            for entry in list(self._queue):
                if entry[0] == tag:
                    self._queue.remove(entry)
                    self.abandoned_tasks += 1
                    self._tracer.count("pool.abandoned_tasks")
                    return True
            return False
        for seq, t in list(self._inflight.items()):
            if t == tag:
                del self._inflight[seq]
                self._threads.pop(seq, None)
                if seq in self._ready:
                    del self._ready[seq]  # completed, never collected
                else:
                    self._discard.add(seq)
                self.abandoned_tasks += 1
                self._tracer.count("pool.abandoned_tasks")
                return True
        return False

    def close(self) -> None:
        """Shut the pool down; never blocks longer than ``drain_timeout_s``.

        Queued serial work is dropped; running threads get a bounded join
        (the drain budget split across them) and anything still alive
        after that is abandoned — counted in ``pool.abandoned_tasks`` —
        rather than waited on forever.
        """
        self._queue.clear()
        threads = list(self._threads.items())
        if threads:
            share = self.drain_timeout_s / len(threads)
            for _, thread in threads:
                thread.join(timeout=share)
        for seq, thread in threads:
            if thread.is_alive() and seq in self._inflight:
                self._discard.add(seq)
                self.abandoned_tasks += 1
                self._tracer.count("pool.abandoned_tasks")
        self._inflight.clear()
        self._threads.clear()
        self._ready.clear()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
