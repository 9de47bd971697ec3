"""The supervised worker pool every process fan-out in this repo rides.

One substrate instead of three: the batch CRP pipeline
(:class:`~repro.ppuf.batch.BatchEvaluator`), the auth server's
verification pool and the fleet load generator all used to hand-roll
their own ``ProcessPoolExecutor`` plumbing — submission, ordering,
timeouts, drain and crash handling each wired three times.
:class:`WorkerPool` centralises it:

* **backends** — ``workers >= 1`` runs tasks in a process pool (the
  verify/solve hot paths are CPU-bound); ``workers == 0`` runs them in a
  thread pool (cheap devices, tests, anything that must share the
  caller's memory).
* **bounded queues** — the sync :meth:`map` keeps a bounded window of
  futures in flight instead of submitting everything up front; the async
  :meth:`run` bounds admission with a semaphore.  A flood degrades into
  backpressure, never unbounded memory growth.
* **per-task timeouts** — a wedged task raises
  :class:`~repro.errors.ServiceTimeout` to its caller instead of holding
  a slot forever.
* **crash supervision** — a worker process dying (OOM kill, segfault,
  chaos test) breaks a ``ProcessPoolExecutor`` permanently; the pool
  replaces the broken executor with a fresh one and raises
  :class:`~repro.errors.WorkerCrash` for each task that was lost, so the
  *caller* decides the containment (the auth server turns it into a
  rejected verdict) and the *next* task runs on a healthy pool.
* **telemetry** — every submission, completion, failure, timeout, crash
  and restart lands in a mergeable :class:`~repro.runtime.stats.RuntimeStats`.

Thread-model note: a pool instance is driven either from one sync thread
(:meth:`map`) or from one event loop (:meth:`run`); the restart path is
locked because crashed futures can surface from either side.
"""

from __future__ import annotations

import asyncio
import threading
from collections import deque
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, Optional

from repro.errors import ServiceError, ServiceTimeout, WorkerCrash

from repro.runtime.stats import RuntimeStats


class WorkerPool:
    """Supervised, bounded executor with a sync and an async face.

    Parameters
    ----------
    workers:
        Process count; ``0`` selects the thread backend (tasks run in
        the calling process — the right mode for toy devices and for
        tests that monkeypatch task functions).
    initializer, initargs:
        Forwarded to the executor: run once per worker before any task
        (the batch pipeline uses this to attach the shared artifact).
    max_pending:
        Admission bound: how many tasks may be in flight at once
        (defaults to ``max(4, 2 * workers)``).
    task_timeout:
        Per-task wall-clock cutoff [s]; blown → :class:`ServiceTimeout`.
        ``None`` disables.
    task_name:
        Noun used in timeout messages (``"verification exceeded 5 s"``).
    """

    def __init__(
        self,
        workers: int,
        *,
        initializer: Optional[Callable] = None,
        initargs: tuple = (),
        max_pending: Optional[int] = None,
        task_timeout: Optional[float] = None,
        task_name: str = "task",
    ):
        if workers < 0:
            raise ServiceError(f"workers must be >= 0, got {workers}")
        if task_timeout is not None and task_timeout <= 0:
            raise ServiceError(
                f"task timeout must be positive, got {task_timeout}"
            )
        if max_pending is not None and max_pending < 1:
            raise ServiceError(f"max_pending must be >= 1, got {max_pending}")
        self.workers = int(workers)
        self.task_timeout = task_timeout
        self.task_name = task_name
        self.max_pending = max_pending or max(4, 2 * self.workers)
        self.stats = RuntimeStats()
        self.active = 0
        self._initializer = initializer
        self._initargs = tuple(initargs)
        self._restart_lock = threading.Lock()
        self._semaphore = asyncio.Semaphore(self.max_pending)
        self._executor = self._make_executor()

    # ------------------------------------------------------------------
    # executor lifecycle
    # ------------------------------------------------------------------
    def _make_executor(self):
        if self.workers == 0:
            return ThreadPoolExecutor(
                initializer=self._initializer, initargs=self._initargs
            )
        return ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=self._initializer,
            initargs=self._initargs,
        )

    def _crashed(self, error: BaseException) -> WorkerCrash:
        """Count one lost task, restart the executor if broken, and build
        the :class:`WorkerCrash` for the caller to raise.

        Identity-guarded: N tasks dying with one worker count N crashes
        but trigger at most one restart — ``ProcessPoolExecutor`` marks
        itself broken, and a freshly rebuilt executor is not.
        """
        self.stats.worker_crashes += 1
        with self._restart_lock:
            executor = self._executor
            if getattr(executor, "_broken", True):
                executor.shutdown(wait=False, cancel_futures=True)
                self._executor = self._make_executor()
                self.stats.pool_restarts += 1
        return WorkerCrash(f"worker process died mid-{self.task_name}: {error}")

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        self._executor.shutdown(wait=wait, cancel_futures=cancel_futures)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(wait=True)

    def worker_pids(self) -> list:
        """PIDs of live pool processes (empty for the thread backend)."""
        processes = getattr(self._executor, "_processes", None)
        return sorted(processes) if processes else []

    # ------------------------------------------------------------------
    # sync face (batch pipeline, load generator)
    # ------------------------------------------------------------------
    def map(self, fn: Callable, iterable: Iterable) -> list:
        """Ordered results of ``fn`` over ``iterable``; bounded in flight.

        Unlike ``Executor.map`` this never enqueues the whole input: at
        most :attr:`max_pending` tasks are submitted ahead of the oldest
        unfinished one, so a million-chunk batch holds a window of
        futures, not a million.  Results come back in submission order
        regardless of completion order.
        """
        items = iter(iterable)
        window: deque = deque()
        results: list = []
        exhausted = False
        try:
            while True:
                while not exhausted and len(window) < self.max_pending:
                    try:
                        item = next(items)
                    except StopIteration:
                        exhausted = True
                        break
                    window.append(self._submit(fn, item))
                    self.stats.queue_high_water = max(
                        self.stats.queue_high_water, len(window)
                    )
                if not window:
                    return results
                results.append(self._result(window.popleft()))
        except BaseException:
            for future in window:
                future.cancel()
            raise

    def _submit(self, fn: Callable, *args):
        self.stats.tasks_submitted += 1
        try:
            return self._executor.submit(fn, *args)
        except BrokenProcessPool as error:
            raise self._crashed(error) from error

    def _result(self, future):
        try:
            result = future.result(self.task_timeout)
        except FuturesTimeout:
            self.stats.task_timeouts += 1
            raise ServiceTimeout(
                f"{self.task_name} exceeded {self.task_timeout:g} s"
            ) from None
        except BrokenProcessPool as error:
            raise self._crashed(error) from error
        except Exception:
            self.stats.tasks_failed += 1
            raise
        self.stats.tasks_completed += 1
        return result

    # ------------------------------------------------------------------
    # async face (auth server)
    # ------------------------------------------------------------------
    async def run(self, fn: Callable, *args):
        """Run one task off-loop; semaphore-bounded, timeout-cut.

        :attr:`active` counts tasks past admission — the drain gauge the
        server's graceful stop polls.
        """
        async with self._semaphore:
            loop = asyncio.get_running_loop()
            self.stats.tasks_submitted += 1
            self.active += 1
            self.stats.queue_high_water = max(
                self.stats.queue_high_water, self.active
            )
            try:
                try:
                    future = loop.run_in_executor(self._executor, fn, *args)
                except BrokenProcessPool as error:
                    raise self._crashed(error) from error
                try:
                    if self.task_timeout is None:
                        result = await future
                    else:
                        try:
                            result = await asyncio.wait_for(
                                future, timeout=self.task_timeout
                            )
                        except asyncio.TimeoutError:
                            self.stats.task_timeouts += 1
                            raise ServiceTimeout(
                                f"{self.task_name} exceeded "
                                f"{self.task_timeout:g} s"
                            ) from None
                except BrokenProcessPool as error:
                    raise self._crashed(error) from error
                except ServiceTimeout:
                    raise
                except Exception:
                    self.stats.tasks_failed += 1
                    raise
            finally:
                self.active -= 1
            self.stats.tasks_completed += 1
            return result
