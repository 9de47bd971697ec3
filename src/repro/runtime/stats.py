"""Runtime telemetry: what the worker pools did.

Every :class:`~repro.runtime.pool.WorkerPool` fills one
:class:`RuntimeStats`, a :class:`~repro.metrics.Metrics` record: its
snapshot is the ``runtime`` entry of a ``STATS`` wire reply, and the one
exact fold (:func:`repro.metrics.merge`) sums its counters and takes the
max of its gauge, so a fleet router folding per-shard ``runtime`` entries
gets what one observer of every pool would have counted.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.metrics import Metrics


@dataclass
class RuntimeStats(Metrics):
    """Counters for one worker pool's lifetime.

    Attributes
    ----------
    tasks_submitted / tasks_completed / tasks_failed:
        Tasks handed to the executor, tasks that returned a result, and
        tasks that raised (fault-contained exceptions count as failed
        even though the caller received a verdict).
    task_timeouts:
        Tasks cut off by the pool's per-task timeout
        (:class:`~repro.errors.ServiceTimeout` raised to the caller).
    worker_crashes:
        Tasks lost to a worker process dying (each failing task counts
        once — a single SIGKILL with three tasks in flight is three).
    pool_restarts:
        Times the pool replaced a broken executor with a fresh one.
    queue_high_water:
        Most tasks ever simultaneously in flight (a gauge: merges by max).
    """

    tasks_submitted: int = 0
    tasks_completed: int = 0
    tasks_failed: int = 0
    task_timeouts: int = 0
    worker_crashes: int = 0
    pool_restarts: int = 0
    queue_high_water: int = 0
