"""The unified worker pool: ordering, bounding, timeouts, crash supervision.

:class:`~repro.runtime.pool.WorkerPool` is the one substrate every process
fan-out rides (batch pipeline, auth server, load generator), so its
contracts are tested directly: ordered bounded :meth:`map`, per-task
timeouts surfacing as :class:`ServiceTimeout`, a dead worker surfacing as
:class:`WorkerCrash` while the pool restarts underneath, and the async
face's admission/drain accounting.
"""

import asyncio
import os
import signal
import time

import pytest

from repro.errors import ServiceError, ServiceTimeout, WorkerCrash
from repro.runtime.pool import WorkerPool


# ----------------------------------------------------------------------
# task functions (module level: the process backend pickles them)
# ----------------------------------------------------------------------
def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"bad item {x}")


def _sleepy(seconds):
    time.sleep(seconds)
    return seconds


def _die(_):
    os.kill(os.getpid(), signal.SIGKILL)


def run(coroutine):
    return asyncio.run(coroutine)


class TestValidation:
    def test_negative_workers_rejected(self):
        with pytest.raises(ServiceError, match="workers"):
            WorkerPool(-1)

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ServiceError, match="timeout"):
            WorkerPool(0, task_timeout=0)

    def test_bad_max_pending_rejected(self):
        with pytest.raises(ServiceError, match="max_pending"):
            WorkerPool(0, max_pending=0)


class TestSyncMap:
    def test_thread_backend_ordered_results(self):
        with WorkerPool(0) as pool:
            assert pool.map(_square, range(10)) == [x * x for x in range(10)]
        assert pool.stats.tasks_submitted == 10
        assert pool.stats.tasks_completed == 10
        assert pool.stats.tasks_failed == 0
        assert pool.worker_pids() == []

    def test_process_backend_ordered_results(self):
        with WorkerPool(2) as pool:
            assert pool.map(_square, range(20)) == [x * x for x in range(20)]
            assert len(pool.worker_pids()) >= 1
        assert pool.stats.tasks_completed == 20

    def test_window_never_exceeds_max_pending(self):
        with WorkerPool(0, max_pending=3) as pool:
            pool.map(_square, range(25))
        assert 1 <= pool.stats.queue_high_water <= 3

    def test_task_exception_propagates_and_counts(self):
        with WorkerPool(0) as pool:
            with pytest.raises(ValueError, match="bad item"):
                pool.map(_boom, [1])
        assert pool.stats.tasks_failed == 1
        assert pool.stats.tasks_completed == 0

    def test_timeout_becomes_service_timeout(self):
        with WorkerPool(0, task_timeout=0.05, task_name="probe") as pool:
            with pytest.raises(ServiceTimeout, match="probe exceeded"):
                pool.map(_sleepy, [5.0])
        assert pool.stats.task_timeouts == 1

    def test_worker_death_raises_crash_and_pool_recovers(self):
        with WorkerPool(1, task_name="solve") as pool:
            with pytest.raises(WorkerCrash, match="mid-solve"):
                pool.map(_die, [None])
            # The broken executor was replaced: the next map succeeds.
            assert pool.map(_square, [3]) == [9]
        assert pool.stats.worker_crashes >= 1
        assert pool.stats.pool_restarts >= 1


class TestAsyncRun:
    def test_run_returns_result(self):
        async def go():
            pool = WorkerPool(0)
            try:
                return await pool.run(_square, 7)
            finally:
                pool.shutdown(wait=True)

        assert run(go()) == 49

    def test_run_timeout_becomes_service_timeout(self):
        async def go():
            pool = WorkerPool(0, task_timeout=0.05, task_name="verification")
            try:
                with pytest.raises(ServiceTimeout, match="verification"):
                    await pool.run(_sleepy, 5.0)
                return pool.stats
            finally:
                pool.shutdown(wait=False, cancel_futures=True)

        stats = run(go())
        assert stats.task_timeouts == 1

    def test_run_crash_becomes_worker_crash_then_recovers(self):
        async def go():
            pool = WorkerPool(1)
            try:
                with pytest.raises(WorkerCrash):
                    await pool.run(_die, None)
                return await pool.run(_square, 5), pool.stats
            finally:
                pool.shutdown(wait=True)

        result, stats = run(go())
        assert result == 25
        assert stats.worker_crashes >= 1
        assert stats.pool_restarts >= 1

    def test_active_gauge(self):
        async def go():
            pool = WorkerPool(0)
            try:
                task = asyncio.ensure_future(pool.run(_sleepy, 0.1))
                await asyncio.sleep(0.02)
                active_mid_flight = pool.active
                await task
                return active_mid_flight, pool.active
            finally:
                pool.shutdown(wait=True)

        active_mid_flight, active_after = run(go())
        assert active_mid_flight == 1
        assert active_after == 0

    def test_concurrent_runs_bounded_by_semaphore(self):
        async def go():
            pool = WorkerPool(0, max_pending=2)
            try:
                await asyncio.gather(
                    *(pool.run(_sleepy, 0.02) for _ in range(8))
                )
                return pool.stats
            finally:
                pool.shutdown(wait=True)

        stats = run(go())
        assert stats.tasks_completed == 8
        assert stats.queue_high_water <= 2
