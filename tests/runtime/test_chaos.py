"""Runtime chaos: a pool worker SIGKILLed mid-batch is contained.

The crash-supervision contract end-to-end over the wire: with a
one-worker process pool, a task occupies the worker and kills it while a
real claim verification is queued behind it.  The server must (a) turn
the lost verification into a contained *rejected* verdict — the claim's
session ends in ``infeasible``, the connection survives, and the fault is
counted in ``worker_faults``; (b) restart the pool underneath
(``pool_restarts`` in the runtime telemetry); and (c) verify the very
next authentication normally on the fresh worker.

This is the test CI's chaos step runs.
"""

import asyncio
import os
import signal
import time

import numpy as np
import pytest

from repro.errors import WorkerCrash
from repro.ppuf import Ppuf
from repro.service import PpufAuthServer, ServiceClient


def _occupy_then_die(delay):
    """Hold the pool's only worker, then die the way an OOM kill looks."""
    time.sleep(delay)
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.fixture(scope="module")
def device():
    return Ppuf.create(8, 2, np.random.default_rng(61))


class TestWorkerKilledMidBatch:
    def test_crash_is_contained_and_pool_recovers(self, device):
        async def go():
            async with PpufAuthServer(workers=1, rounds=1, seed=7) as server:
                async with ServiceClient("127.0.0.1", server.port) as client:
                    await client.enroll(device)
                    # Warm-up: the worker process boots and verifies once.
                    warm = await client.authenticate(device)
                    # Occupy the lone worker with a task that will SIGKILL
                    # it; the claim submitted next queues behind it and
                    # dies with the worker.
                    killer = asyncio.ensure_future(
                        server.pool.run(_occupy_then_die, 0.75)
                    )
                    await asyncio.sleep(0.05)
                    crashed = await client.authenticate(device)
                    with pytest.raises(WorkerCrash):
                        await killer
                    # The pool restarted underneath: the next session
                    # verifies on a fresh worker, same connection.
                    recovered = await client.authenticate(device)
                    runtime_stats = server.pool.stats
                return warm, crashed, recovered, server.stats, runtime_stats

        warm, crashed, recovered, stats, runtime_stats = asyncio.run(go())
        assert warm.accepted
        # crash-to-verdict: rejected, not a dead connection or a hang
        assert not crashed.accepted
        assert crashed.reason == "infeasible"
        assert recovered.accepted
        assert stats.worker_faults >= 1
        assert runtime_stats.worker_crashes >= 1
        assert runtime_stats.pool_restarts >= 1
