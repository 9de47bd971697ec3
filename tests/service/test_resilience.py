"""Client resilience: timeouts, retry policy, backoff determinism.

Acceptance pins: every client network operation has a finite default
timeout (no path can block forever on a dead or silent server), idempotent
verbs reconnect-and-retry under a seeded deterministic policy, and CLAIM
is never auto-retried.
"""

import asyncio

import numpy as np
import pytest

from repro.errors import ConnectionLost, ServiceError, ServiceTimeout
from repro.ppuf import Ppuf
from repro.service import PpufAuthServer, RetryPolicy, ServiceClient
from repro.service.faults import C2S, S2C, FaultPlan, FaultyTransport
from repro.service.resilience import (
    DEFAULT_TIMEOUT,
    IDEMPOTENT_TYPES,
    is_retryable,
    with_timeout,
)


@pytest.fixture(scope="module")
def device():
    return Ppuf.create(8, 2, np.random.default_rng(21))


def run(coroutine):
    return asyncio.run(coroutine)


FAST_RETRY = dict(base_delay=0.01, max_delay=0.05, seed=3)


class TestRetryPolicy:
    def test_schedule_is_deterministic_under_seed(self):
        a = RetryPolicy(attempts=6, jitter=0.3, seed=42).schedule()
        b = RetryPolicy(attempts=6, jitter=0.3, seed=42).schedule()
        assert a == b
        assert len(a) == 5  # attempts - 1 retries

    def test_different_seeds_differ(self):
        a = RetryPolicy(attempts=6, jitter=0.3, seed=1).schedule()
        b = RetryPolicy(attempts=6, jitter=0.3, seed=2).schedule()
        assert a != b

    def test_exponential_growth_and_cap(self):
        policy = RetryPolicy(
            attempts=8, base_delay=0.1, multiplier=2.0, max_delay=0.9, jitter=0.0
        )
        schedule = policy.schedule()
        assert schedule[0] == pytest.approx(0.1)
        assert schedule[1] == pytest.approx(0.2)
        assert schedule[2] == pytest.approx(0.4)
        assert all(delay <= 0.9 for delay in schedule)
        assert schedule[-1] == pytest.approx(0.9)

    def test_jitter_stays_within_fraction(self):
        policy = RetryPolicy(
            attempts=50, base_delay=0.1, multiplier=1.0, jitter=0.2, seed=9
        )
        for delay in policy.schedule():
            assert 0.08 <= delay <= 0.12

    def test_no_retry_policy(self):
        policy = RetryPolicy.no_retry()
        assert policy.attempts == 1
        assert policy.schedule() == ()

    def test_validation(self):
        with pytest.raises(ServiceError):
            RetryPolicy(attempts=0)
        with pytest.raises(ServiceError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ServiceError):
            RetryPolicy(base_delay=-1.0)

    def test_retryable_classification(self):
        assert is_retryable(ServiceTimeout("t"))
        assert is_retryable(ConnectionLost("c"))
        assert is_retryable(ConnectionResetError())
        assert is_retryable(asyncio.IncompleteReadError(b"", 1))
        # Server answered: resending the same bytes cannot help.
        assert not is_retryable(ServiceError("server error: nope"))
        assert not is_retryable(ValueError("bug"))

    def test_claim_is_not_idempotent(self):
        assert "claim" not in IDEMPOTENT_TYPES
        assert IDEMPOTENT_TYPES == {"enroll", "hello", "stats"}

    def test_default_timeout_is_finite(self):
        assert 0 < DEFAULT_TIMEOUT < float("inf")
        assert ServiceClient("h", 1).timeout == DEFAULT_TIMEOUT


class TestWithTimeout:
    def test_timeout_raises_named_service_timeout(self):
        async def go():
            await with_timeout(asyncio.sleep(10), 0.05, "the stalled thing")

        with pytest.raises(ServiceTimeout, match="the stalled thing"):
            run(go())

    def test_none_disables(self):
        async def go():
            return await with_timeout(asyncio.sleep(0, result=7), None, "x")

        assert run(go()) == 7


class TestClientTimeouts:
    def test_silent_server_times_out_finitely(self):
        """A server that accepts but never replies must not hang the client."""

        async def mute(reader, writer):
            try:
                await reader.read()  # EOF arrives when the client gives up
            finally:
                writer.close()

        async def go():
            server = await asyncio.start_server(mute, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                client = ServiceClient(
                    "127.0.0.1",
                    port,
                    timeout=0.2,
                    retry=RetryPolicy(attempts=2, **FAST_RETRY),
                )
                async with client:
                    with pytest.raises(ServiceTimeout):
                        await client.stats()
            finally:
                server.close()
                await server.wait_closed()

        run(go())

    def test_dead_server_raises_connection_lost(self):
        async def go():
            # Bind-and-close to get a port that refuses connections.
            probe = await asyncio.start_server(lambda r, w: None, "127.0.0.1", 0)
            port = probe.sockets[0].getsockname()[1]
            probe.close()
            await probe.wait_closed()
            client = ServiceClient(
                "127.0.0.1",
                port,
                timeout=0.5,
                retry=RetryPolicy(attempts=2, **FAST_RETRY),
            )
            with pytest.raises(ConnectionLost):
                await client.connect()

        run(go())

    def test_non_idempotent_retry_refused(self):
        async def go():
            client = ServiceClient("127.0.0.1", 1)
            with pytest.raises(ServiceError, match="non-idempotent"):
                await client._request_idempotent({"type": "claim"})

        run(go())


class TestReconnectAndRetry:
    def test_hello_retries_through_dropped_frame(self, device):
        """A dropped HELLO is retried on a fresh connection and succeeds,
        and the server's telemetry sees the retry marker."""

        async def go():
            async with PpufAuthServer(workers=0, rounds=2, seed=5) as server:
                plan = FaultPlan().inject("drop", direction=C2S, message_type="hello")
                async with FaultyTransport(server.port, plan) as proxy:
                    client = ServiceClient(
                        "127.0.0.1",
                        proxy.port,
                        timeout=0.4,
                        retry=RetryPolicy(attempts=3, **FAST_RETRY),
                    )
                    async with client:
                        await client.enroll(device)
                        outcome = await client.authenticate(device)
                    retries = client.retries_performed
                stats = server.stats
            return outcome, retries, proxy.injected, stats

        outcome, retries, injected, stats = run(go())
        assert outcome.accepted
        assert injected["drop"] == 1
        assert retries >= 1
        assert stats.retries_observed >= 1

    def test_claim_reply_loss_is_not_retried(self, device):
        """Losing the reply to a CLAIM raises instead of resending: the
        nonce is consumed, so a blind resend would be a replay."""

        async def go():
            async with PpufAuthServer(workers=0, rounds=1, seed=5) as server:
                plan = FaultPlan().inject(
                    "drop", direction=S2C, message_type="verdict"
                )
                async with FaultyTransport(server.port, plan) as proxy:
                    client = ServiceClient(
                        "127.0.0.1",
                        proxy.port,
                        timeout=0.3,
                        retry=RetryPolicy(attempts=3, **FAST_RETRY),
                    )
                    async with client:
                        await client.enroll(device)
                        with pytest.raises(ServiceTimeout):
                            await client.authenticate(device)
                stats = server.stats
            return stats

        stats = run(go())
        # Exactly one claim reached the server; nothing was resent.
        assert stats.claims_verified == 1
        assert stats.replays_rejected == 0

    def test_enroll_retry_is_idempotent(self, device):
        """Enrolling twice (as a retry would) yields the same device id."""

        async def go():
            async with PpufAuthServer(workers=0, seed=5) as server:
                async with ServiceClient("127.0.0.1", server.port) as client:
                    first = await client.enroll(device)
                    second = await client.enroll(device)
                stats = server.stats
            return first, second, stats

        first, second, stats = run(go())
        assert first == second
        assert stats.enrollments == 2  # counted, but the registry deduplicated


class TestBlockingHelpers:
    def test_blocking_helpers_accept_resilience_kwargs(self, device):
        import threading

        from repro.service import authenticate_device, enroll_device, fetch_stats

        server = PpufAuthServer(workers=0, rounds=1, seed=5)
        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()

        async def start():
            await server.start()
            return server.port

        try:
            port = asyncio.run_coroutine_threadsafe(start(), loop).result(10)
            retry = RetryPolicy(attempts=2, **FAST_RETRY)
            enroll_device("127.0.0.1", port, device, timeout=5.0, retry=retry)
            outcome = authenticate_device(
                "127.0.0.1", port, device, timeout=5.0, retry=retry
            )
            stats = fetch_stats("127.0.0.1", port, timeout=5.0, retry=retry)
        finally:
            asyncio.run_coroutine_threadsafe(server.stop(), loop).result(10)
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=10)
            loop.close()
        assert outcome.accepted
        assert stats["sessions_accepted"] == 1
