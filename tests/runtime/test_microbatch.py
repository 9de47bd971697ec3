"""Generic micro-batching.

The :class:`MicroBatcher` contract: concurrent submits coalesce into list
dispatches (size/linger triggers), each submitter gets *its own* result
back in order, a failing dispatch fails exactly its batch with the typed
error preserved, and a wrong-length dispatch is rejected rather than
silently misassigning results.
"""

import asyncio

import pytest

from repro.errors import ServiceError, ServiceTimeout, WorkerCrash
from repro.runtime.microbatch import MicroBatcher


def run(coroutine):
    return asyncio.run(coroutine)


class TestMicroBatcher:
    def test_validation(self):
        async def nop(items):
            return items

        with pytest.raises(ServiceError, match="batch_size"):
            MicroBatcher(nop, batch_size=0)
        with pytest.raises(ServiceError, match="linger"):
            MicroBatcher(nop, linger_seconds=-1)

    def test_coalesces_at_batch_size(self):
        sizes = []

        async def go():
            async def double(items):
                return [item * 2 for item in items]

            batcher = MicroBatcher(
                double, batch_size=4, linger_seconds=5.0,
                on_dispatch=sizes.append,
            )
            return await asyncio.gather(
                *(batcher.submit(i) for i in range(8))
            )

        assert run(go()) == [i * 2 for i in range(8)]
        # linger is huge, so only the size trigger can have fired
        assert sizes == [4, 4]

    def test_linger_dispatches_a_lone_item(self):
        async def go():
            async def double(items):
                return [item * 2 for item in items]

            batcher = MicroBatcher(double, batch_size=64, linger_seconds=0.005)
            return await batcher.submit(21)

        assert run(go()) == 42

    def test_flush_skips_the_linger(self):
        async def go():
            async def double(items):
                return [item * 2 for item in items]

            batcher = MicroBatcher(double, batch_size=64, linger_seconds=60.0)
            pending = asyncio.ensure_future(batcher.submit(1))
            await asyncio.sleep(0)
            assert batcher.queued == 1
            batcher.flush()
            return await asyncio.wait_for(pending, timeout=5.0)

        assert run(go()) == 2

    def test_wrong_length_dispatch_fails_batch(self):
        async def go():
            async def truncating(items):
                return items[:-1]

            batcher = MicroBatcher(truncating, batch_size=2, linger_seconds=0)
            results = await asyncio.gather(
                batcher.submit(1), batcher.submit(2), return_exceptions=True
            )
            return results

        results = run(go())
        assert all(isinstance(r, ServiceError) for r in results)
        assert all("2 items" in str(r) for r in results)

    @pytest.mark.parametrize(
        "raised, expected",
        [
            (ServiceTimeout("slow"), ServiceTimeout),
            (WorkerCrash("dead"), WorkerCrash),
            (RuntimeError("boom"), ServiceError),
        ],
    )
    def test_dispatch_errors_stay_typed(self, raised, expected):
        async def go():
            async def failing(items):
                raise raised

            batcher = MicroBatcher(failing, batch_size=2, linger_seconds=0)
            return await asyncio.gather(
                batcher.submit(1), batcher.submit(2), return_exceptions=True
            )

        results = run(go())
        assert all(type(r) is expected for r in results)

    def test_failed_batch_does_not_poison_the_next(self):
        async def go():
            calls = []

            async def flaky(items):
                calls.append(list(items))
                if len(calls) == 1:
                    raise RuntimeError("first batch dies")
                return [item + 100 for item in items]

            batcher = MicroBatcher(flaky, batch_size=1, linger_seconds=0)
            first = await asyncio.gather(
                batcher.submit(1), return_exceptions=True
            )
            second = await batcher.submit(2)
            return first, second

        first, second = run(go())
        assert isinstance(first[0], ServiceError)
        assert second == 102

    def test_busy_settles_after_batches_land(self):
        async def go():
            async def double(items):
                await asyncio.sleep(0.01)
                return [item * 2 for item in items]

            batcher = MicroBatcher(double, batch_size=1, linger_seconds=0)
            pending = asyncio.ensure_future(batcher.submit(1))
            await asyncio.sleep(0.001)
            busy_mid_flight = batcher.busy
            await pending
            await asyncio.sleep(0.001)
            return busy_mid_flight, batcher.busy

        busy_mid_flight, busy_after = run(go())
        assert busy_mid_flight is True
        assert busy_after is False
