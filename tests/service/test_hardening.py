"""Server fault containment: the satellite-bug regressions.

Each class pins one hardening guarantee: dispatch shape validation (the
missing-``type`` KeyError), worker-exception containment (a structurally
broken claim must not kill the connection), sweeper survival, the bounded
worker device cache, connection limits, verification timeouts, and
graceful drain on stop.
"""

import asyncio
import json
import time

import numpy as np
import pytest

from repro.errors import ServiceError
from repro.ppuf import Ppuf
from repro.service import PpufAuthServer, ServiceClient
from repro.runtime import provision as provision_module
from repro.service import server as server_module
from repro.service.sessions import SessionLimitExceeded, SessionManager
from repro.service import wire


@pytest.fixture(scope="module")
def device():
    return Ppuf.create(8, 2, np.random.default_rng(41))


@pytest.fixture(scope="module")
def devices():
    return [Ppuf.create(8, 2, np.random.default_rng(100 + k)) for k in range(3)]


def run(coroutine):
    return asyncio.run(coroutine)


class TestDispatchShapeValidation:
    """Regression: a message without a 'type' key crashed ``_dispatch``."""

    @pytest.mark.parametrize(
        "message",
        [{}, {"typ": "hello"}, {"type": None}, {"type": 3}, {"type": ["hello"]}],
    )
    def test_missing_or_nonstring_type_is_protocol_error(self, message):
        server = PpufAuthServer(workers=0)
        reply = run(server._dispatch(message))
        assert reply["type"] == wire.ERROR
        assert "type" in reply["error"]
        assert server.stats.protocol_errors == 1

    def test_over_the_wire_missing_type(self, device):
        """Raw frame without 'type': an ERROR reply, not a dead handler."""

        async def go():
            async with PpufAuthServer(workers=0, seed=5) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b'{"no_type_here": 1}\n')
                await writer.drain()
                reply = json.loads(await reader.readline())
                writer.close()
                stats = server.stats
            return reply, stats

        reply, stats = run(go())
        assert reply["type"] == "error"
        assert stats.protocol_errors == 1
        assert stats.internal_errors == 0

    def test_client_rejects_typeless_reply(self):
        """``request_ok`` treats a typeless server reply as a protocol error."""

        async def fake_server(reader, writer):
            await reader.readline()
            writer.write(b"{}\n")
            await writer.drain()
            writer.close()

        async def go():
            server = await asyncio.start_server(fake_server, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                async with ServiceClient("127.0.0.1", port, timeout=2.0) as client:
                    with pytest.raises(ServiceError, match="'type'"):
                        await client.request_ok({"type": wire.STATS})
            finally:
                server.close()
                await server.wait_closed()

        run(go())


class TestWorkerFaultContainment:
    """Regression: an exception escaping the claim-verify task killed the
    connection.  ``float(10**400)`` raises ``OverflowError`` — outside the
    old ``(VerificationError, ServiceError)`` catch."""

    def test_structurally_broken_claim_is_contained(self, device):
        def break_claim(claim_wire):
            claim_wire = dict(claim_wire)
            claim_wire["value"] = 10**400  # OverflowError in claim_from_wire
            return claim_wire

        async def go():
            async with PpufAuthServer(workers=0, rounds=1, seed=5) as server:
                async with ServiceClient("127.0.0.1", server.port) as client:
                    await client.enroll(device)
                    outcome = await client.authenticate(device, tamper=break_claim)
                    # Same connection still works: the handler survived.
                    stats = await client.stats()
            return outcome, stats

        outcome, stats = run(go())
        assert not outcome.accepted
        assert outcome.reason == "infeasible"
        assert stats["worker_faults"] == 1
        assert stats["sessions_rejected"] == 1

    def test_verify_task_returns_fault_marker(self, device, tmp_path):
        from repro.ppuf.challenge import ChallengeSpace
        from repro.ppuf.pack import build_pack

        artifact = device.compile(include_circuit=False)
        pack_path = str(tmp_path / "device.pack")
        build_pack(pack_path, [artifact])
        challenge = ChallengeSpace(device.crossbar).random(
            np.random.default_rng(0)
        )
        claim_wire = {
            "challenge": wire.challenge_to_wire(challenge),
            "paths": [],
            "value": 10**400,  # float() of this raises OverflowError
        }
        [(accepted, reason, seconds, fault)] = server_module._verify_claims_task(
            [(artifact.device_id, pack_path, "a", claim_wire)]
        )
        assert (accepted, reason) == (False, "infeasible")
        assert seconds >= 0
        assert fault is not None and "OverflowError" in fault

    def test_expected_rejections_are_not_faults(self, device):
        """Malformed-but-anticipated claims count as infeasible, not faults."""

        def overflow_paths(claim):
            claim = dict(claim)
            claim["paths"] = [
                {**p, "value": p["value"] * 100.0} for p in claim["paths"]
            ]
            return claim

        async def go():
            async with PpufAuthServer(workers=0, rounds=1, seed=5) as server:
                async with ServiceClient("127.0.0.1", server.port) as client:
                    await client.enroll(device)
                    outcome = await client.authenticate(
                        device, tamper=overflow_paths
                    )
                    stats = await client.stats()
            return outcome, stats

        outcome, stats = run(go())
        assert not outcome.accepted and outcome.reason == "infeasible"
        assert stats["worker_faults"] == 0

    def test_failed_batch_is_a_worker_fault_not_a_client_error(
        self, device, monkeypatch
    ):
        """Regression: a batch that failed as a whole (here a wrong-length
        result) reached the client as an ERROR, was counted as a protocol
        error, and left its session open in ``verifying``."""

        def empty_batch(jobs):
            return []

        monkeypatch.setattr(server_module, "_verify_claims_task", empty_batch)

        async def go():
            async with PpufAuthServer(workers=0, rounds=1, seed=5) as server:
                async with ServiceClient("127.0.0.1", server.port) as client:
                    await client.enroll(device)
                    outcome = await client.authenticate(device)
                    stats = await client.stats()
            return outcome, stats

        outcome, stats = run(go())
        assert not outcome.accepted and outcome.reason == "infeasible"
        assert stats["protocol_errors"] == 0
        assert stats["worker_faults"] == 1
        assert stats["sessions_rejected"] == 1
        assert stats["active_sessions"] == 0


class TestSweeperSurvival:
    """Regression: one ``expire_idle`` exception silently killed the sweeper."""

    def test_sweeper_survives_and_keeps_sweeping(self, device):
        async def go():
            async with PpufAuthServer(
                workers=0, seed=5, idle_timeout=0.1
            ) as server:
                real_expire = server.sessions.expire_idle
                failures = iter([RuntimeError("boom"), RuntimeError("boom again")])

                def flaky_expire():
                    try:
                        raise next(failures)
                    except StopIteration:
                        return real_expire()

                server.sessions.expire_idle = flaky_expire
                # Park a session so a later sweep has something to expire.
                async with ServiceClient("127.0.0.1", server.port) as client:
                    await client.enroll(device)
                    from repro.ppuf.io import ppuf_to_dict
                    from repro.service.registry import device_id_for

                    await client.request_ok(
                        {
                            "type": wire.HELLO,
                            "device_id": device_id_for(ppuf_to_dict(device)),
                            "network": "a",
                        }
                    )
                await asyncio.sleep(0.5)  # several sweep intervals
                assert not server._sweeper.done()
                stats = server.stats
            return stats

        stats = run(go())
        assert stats.sweeper_faults == 2
        assert stats.sessions_expired >= 1  # it kept sweeping afterwards


class TestWorkerDeviceCache:
    """Regression: the per-worker device cache grew with the enrolled fleet.

    The cache is now each mapped pack's own LRU, bounded by
    :data:`repro.runtime.provision.WORKER_DEVICE_CACHE_SIZE`; the server's
    verify tasks resolve every device through it.
    """

    def test_cache_is_bounded_and_eviction_preserves_correctness(
        self, devices, monkeypatch
    ):
        monkeypatch.setattr(provision_module, "WORKER_DEVICE_CACHE_SIZE", 2)
        provision_module.clear_cache()

        async def go():
            # workers=0 verifies in-thread, sharing this process's cache.
            async with PpufAuthServer(workers=0, rounds=1, seed=5) as server:
                async with ServiceClient("127.0.0.1", server.port) as client:
                    for ppuf in devices:
                        await client.enroll(ppuf)
                    outcomes = [
                        await client.authenticate(ppuf) for ppuf in devices
                    ]
                    # The first device was evicted (3 devices, cap 2):
                    # re-verification must re-slice it and still accept.
                    outcomes.append(await client.authenticate(devices[0]))
                    path = server.registry.path
                    cached = len(provision_module._WORKER_PACKS[path]._cache)
            return outcomes, cached

        outcomes, cached = run(go())
        assert all(outcome.accepted for outcome in outcomes)
        assert cached <= 2
        provision_module.clear_cache()

    def test_lru_order(self, devices, monkeypatch, tmp_path):
        from repro.ppuf.pack import build_pack

        monkeypatch.setattr(provision_module, "WORKER_DEVICE_CACHE_SIZE", 2)
        provision_module.clear_cache()
        artifacts = [ppuf.compile(include_circuit=False) for ppuf in devices]
        path = str(tmp_path / "fleet.pack")
        build_pack(path, artifacts)
        a, b, c = (artifact.device_id for artifact in artifacts)
        first = provision_module.pack_device(path, a)
        second = provision_module.pack_device(path, b)
        # hit, bumps a
        assert provision_module.pack_device(path, a) is first
        provision_module.pack_device(path, c)  # evicts b (LRU)
        assert list(provision_module._WORKER_PACKS[path]._cache) == [a, c]
        # rebuilt from the mapping, not served from the cache
        assert provision_module.pack_device(path, b) is not second
        provision_module.clear_cache()


class TestConnectionLimits:
    def test_total_connection_limit_rejects_with_error(self, device):
        async def go():
            async with PpufAuthServer(
                workers=0, seed=5, max_connections=1
            ) as server:
                async with ServiceClient("127.0.0.1", server.port) as holder:
                    await holder.enroll(device)
                    # Second concurrent connection is over the cap.
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", server.port
                    )
                    reply = json.loads(await reader.readline())
                    writer.close()
                    stats_mid = server.stats.connections_rejected
                # Holder gone: the server accepts again.
                async with ServiceClient("127.0.0.1", server.port) as client:
                    outcome = await client.authenticate(device)
                stats = server.stats
            return reply, stats_mid, outcome, stats

        reply, rejected_mid, outcome, stats = run(go())
        assert reply["type"] == "error"
        assert "capacity" in reply["error"]
        assert rejected_mid == 1
        assert outcome.accepted
        assert stats.connections_rejected == 1

    def test_per_connection_message_limit(self, device):
        async def go():
            async with PpufAuthServer(
                workers=0, seed=5, max_messages_per_connection=3
            ) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                replies = []
                for _ in range(4):
                    writer.write(b'{"type": "stats"}\n')
                    await writer.drain()
                    line = await reader.readline()
                    if not line:
                        break
                    replies.append(json.loads(line))
                writer.close()
                stats = server.stats
            return replies, stats

        replies, stats = run(go())
        assert [r["type"] for r in replies[:3]] == ["stats"] * 3
        assert replies[3]["type"] == "error"
        assert "limit" in replies[3]["error"]
        assert stats.connections_rejected == 1

    def test_session_limit_backpressure(self, device):
        manager = SessionManager(max_sessions=2, seed=0)
        space = device.challenge_space()
        manager.open("d", space, "a", 1)
        manager.open("d", space, "a", 1)
        with pytest.raises(SessionLimitExceeded):
            manager.open("d", space, "a", 1)
        # Closing frees capacity.
        session = next(iter(manager._sessions.values()))
        manager.close(session)
        manager.open("d", space, "a", 1)

    def test_session_limit_over_the_wire_is_an_error_reply(self, device):
        async def go():
            async with PpufAuthServer(
                workers=0, seed=5, max_sessions=1, idle_timeout=60.0
            ) as server:
                async with ServiceClient("127.0.0.1", server.port) as client:
                    await client.enroll(device)
                    from repro.ppuf.io import ppuf_to_dict
                    from repro.service.registry import device_id_for

                    hello = {
                        "type": wire.HELLO,
                        "device_id": device_id_for(ppuf_to_dict(device)),
                        "network": "a",
                    }
                    await client.request_ok(hello)
                    with pytest.raises(ServiceError, match="capacity"):
                        await client.request_ok(hello)
                    stats = await client.stats()
            return stats

        stats = run(go())
        assert stats["active_sessions"] == 1


class TestVerifyTimeout:
    def test_wedged_verification_is_cut_off(self, device, monkeypatch):
        def wedged_batch(jobs):
            time.sleep(0.5)
            return [(True, "ok", 0.0, None) for _ in jobs]

        monkeypatch.setattr(server_module, "_verify_claims_task", wedged_batch)

        async def go():
            async with PpufAuthServer(
                workers=0, rounds=1, seed=5, verify_timeout=0.1
            ) as server:
                async with ServiceClient("127.0.0.1", server.port) as client:
                    await client.enroll(device)
                    outcome = await client.authenticate(device)
                    stats = await client.stats()
            return outcome, stats

        outcome, stats = run(go())
        assert not outcome.accepted
        assert outcome.reason == "verify_timeout"
        assert stats["verify_timeouts"] == 1
        assert stats["sessions_rejected"] == 1

    def test_pool_validates_timeout(self):
        with pytest.raises(ServiceError):
            PpufAuthServer(verify_timeout=-1.0)


class TestConnectionIdleTimeout:
    def test_stalled_connection_is_disconnected(self, device):
        async def go():
            async with PpufAuthServer(
                workers=0, seed=5, connection_timeout=0.15
            ) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                # Say nothing; the server should cut us off.
                line = await asyncio.wait_for(reader.readline(), timeout=2.0)
                reply = json.loads(line)
                tail = await asyncio.wait_for(reader.readline(), timeout=2.0)
                writer.close()
                stats = server.stats
            return reply, tail, stats

        reply, tail, stats = run(go())
        assert reply["type"] == "error"
        assert "idle" in reply["error"]
        assert tail == b""  # connection closed after the error
        assert stats.connection_timeouts == 1


class TestGracefulDrain:
    def test_stop_waits_for_inflight_verification(self, device, monkeypatch):
        completed = []

        def slow_verify_batch(jobs):
            time.sleep(0.3)
            completed.extend(job[0] for job in jobs)
            return [(True, "ok", 0.3, None) for _ in jobs]

        monkeypatch.setattr(server_module, "_verify_claims_task", slow_verify_batch)

        async def go():
            server = PpufAuthServer(workers=0, rounds=1, seed=5, drain_seconds=5.0)
            await server.start()
            async with ServiceClient("127.0.0.1", server.port) as client:
                await client.enroll(device)
                task = asyncio.create_task(client.authenticate(device))
                # Let the claim reach the pool, then stop the server.
                while server.pool.active == 0:
                    await asyncio.sleep(0.01)
                await server.stop()
                # The in-flight verification was drained, not abandoned.
                assert len(completed) == 1
                outcome = await asyncio.wait_for(task, timeout=2.0)
            return outcome, list(completed)

        outcome, done = run(go())
        assert len(done) == 1
        assert outcome.accepted


    def test_claim_in_flight_across_stop_gets_its_verdict(
        self, device, monkeypatch
    ):
        def slow_verify_batch(jobs):
            time.sleep(0.4)
            return [(True, "ok", 0.4, None) for _ in jobs]

        monkeypatch.setattr(server_module, "_verify_claims_task", slow_verify_batch)

        async def go():
            server = PpufAuthServer(workers=0, rounds=1, seed=5, drain_seconds=5.0)
            await server.start()
            async with ServiceClient("127.0.0.1", server.port) as client:
                await client.enroll(device)
                claim = asyncio.create_task(client.authenticate(device))
                while server.pool.active == 0:
                    await asyncio.sleep(0.01)
                await asyncio.wait_for(server.stop(), timeout=10.0)
                # Every connection handler finished inside stop(); only
                # this task and the client's own are still running.
                left = asyncio.all_tasks() - {asyncio.current_task(), claim}
                outcome = await asyncio.wait_for(claim, timeout=2.0)
            return outcome, left

        outcome, left = run(go())
        assert outcome.accepted and outcome.reason == "ok"
        assert left == set()

    def test_idle_client_does_not_hold_stop(self, device):
        async def go():
            server = PpufAuthServer(workers=0, seed=5, drain_seconds=1.0)
            await server.start()
            async with ServiceClient("127.0.0.1", server.port) as client:
                await client.stats()  # served, now idle and still connected
                loop = asyncio.get_running_loop()
                started = loop.time()
                await asyncio.wait_for(server.stop(), timeout=10.0)
                elapsed = loop.time() - started
                left = asyncio.all_tasks() - {asyncio.current_task()}
            return elapsed, left

        elapsed, left = run(go())
        assert elapsed < 1.0
        assert left == set()


class TestCliResilienceFlags:
    def test_auth_flags_parse(self):
        from repro.cli import build_parser

        arguments = build_parser().parse_args(
            ["auth", "--timeout", "5", "--retries", "4"]
        )
        assert arguments.timeout == 5.0
        assert arguments.retries == 4

    def test_serve_flags_parse(self):
        from repro.cli import build_parser

        arguments = build_parser().parse_args(
            [
                "serve",
                "--timeout",
                "10",
                "--verify-timeout",
                "0",
                "--max-connections",
                "8",
            ]
        )
        assert arguments.timeout == 10.0
        assert arguments.verify_timeout == 0.0
        assert arguments.max_connections == 8
