"""End-to-end loopback: enroll → authenticate → tamper → deadline → stats.

Every test spins up a real ``PpufAuthServer`` on an ephemeral loopback
port and talks to it through ``ServiceClient`` — the full wire path, with
devices kept tiny (n=8) so tier-1 stays fast.  Verification runs in the
thread executor (``workers=0``) except for the dedicated process-pool
test.
"""

import asyncio

import numpy as np
import pytest

from repro.errors import ServiceError
from repro.ppuf import Ppuf
from repro.service import PpufAuthServer, ServiceClient, wire


@pytest.fixture(scope="module")
def device():
    return Ppuf.create(8, 2, np.random.default_rng(11))


@pytest.fixture(scope="module")
def other_device():
    return Ppuf.create(8, 2, np.random.default_rng(12))


def run(coroutine):
    return asyncio.run(coroutine)


async def serve(**kwargs):
    defaults = dict(workers=0, rounds=3, seed=5, deadline_seconds=30.0)
    defaults.update(kwargs)
    return PpufAuthServer(**defaults)


class TestHappyPath:
    def test_enroll_then_authenticate(self, device):
        async def go():
            async with await serve() as server:
                async with ServiceClient("127.0.0.1", server.port) as client:
                    device_id = await client.enroll(device)
                    assert len(device_id) == 64
                    outcome = await client.authenticate(device)
                    stats = await client.stats()
            return outcome, stats

        outcome, stats = run(go())
        assert outcome.accepted and outcome.reason == "ok"
        assert outcome.rounds_run == 3
        assert len(outcome.transcript) == 3
        assert stats["enrollments"] == 1
        assert stats["sessions_opened"] == 1
        assert stats["sessions_accepted"] == 1
        assert stats["sessions_rejected"] == 0
        assert stats["claims_verified"] == 3
        assert stats["verify_latency"]["observations"] == 3
        assert stats["verify_latency"]["mean_seconds"] > 0
        assert stats["solver_latency"]["dinic"]["observations"] == 3
        assert stats["active_sessions"] == 0

    def test_per_algorithm_verify_telemetry(self, device):
        async def go():
            async with await serve() as server:
                async with ServiceClient("127.0.0.1", server.port) as client:
                    await client.enroll(device)
                    for algorithm in ("dinic", "push_relabel", "push_relabel"):
                        outcome = await client.authenticate(
                            device, rounds=1, algorithm=algorithm
                        )
                        assert outcome.accepted

                    # A spoofed solver label must not grow the snapshot —
                    # unregistered names share the "unknown" bucket.
                    def spoof(claim_wire):
                        claim_wire["algorithm"] = "totally-made-up"
                        return claim_wire

                    outcome = await client.authenticate(
                        device, rounds=1, tamper=spoof
                    )
                    assert outcome.accepted  # label is telemetry, not auth
                    return await client.stats()

        stats = run(go())
        latency = stats["solver_latency"]
        assert latency["dinic"]["observations"] == 1
        assert latency["push_relabel"]["observations"] == 2
        assert latency["unknown"]["observations"] == 1
        assert "totally-made-up" not in latency
        assert stats["claims_verified"] == 4

    def test_both_networks_authenticate(self, device):
        async def go():
            async with await serve(rounds=2) as server:
                async with ServiceClient("127.0.0.1", server.port) as client:
                    await client.enroll(device)
                    a = await client.authenticate(device, network="a")
                    b = await client.authenticate(device, network="b")
            return a, b

        a, b = run(go())
        assert a.accepted and b.accepted

    def test_process_pool_verification(self, device):
        async def go():
            async with await serve(workers=1, rounds=2) as server:
                async with ServiceClient("127.0.0.1", server.port) as client:
                    await client.enroll(device)
                    return await client.authenticate(device)

        assert run(go()).accepted


class TestCompiledVerification:
    """The server's compiled fast path must not change any verdict."""

    def test_verdict_identical_with_and_without_compiled(self, device, tmp_path):
        # With: the device arrives precompiled in a fleet pack.  Without:
        # it is enrolled as public JSON and compiled on its first claim
        # into the server's enrollment pack.
        from repro.ppuf.pack import build_pack
        from repro.service import DeviceRegistry

        pack_path = str(tmp_path / "fleet.pack")
        build_pack(pack_path, [device.compile(include_circuit=False)])

        async def authenticate(precompiled):
            registry = DeviceRegistry(pack=pack_path if precompiled else None)
            async with await serve(registry=registry) as server:
                async with ServiceClient("127.0.0.1", server.port) as client:
                    if not precompiled:
                        await client.enroll(device)
                    honest = await client.authenticate(device)
                    tampered = await client.authenticate(
                        device, tamper=lambda c: {**c, "value": c["value"] * 2.0}
                    )
            return honest, tampered

        for precompiled in (True, False):
            honest, tampered = run(authenticate(precompiled))
            assert honest.accepted and honest.reason == "ok"
            assert not tampered.accepted and tampered.reason == "incorrect"

    def test_device_enrolled_after_the_worker_mapped_the_pack(
        self, device, other_device
    ):
        # The worker maps the enrollment pack on the first claim; the
        # second device is appended afterwards and must still resolve
        # (the worker re-scans its mapping on the miss).
        async def go():
            async with await serve(workers=1, rounds=2) as server:
                async with ServiceClient("127.0.0.1", server.port) as client:
                    await client.enroll(device)
                    first = await client.authenticate(device)
                    await client.enroll(other_device)
                    second = await client.authenticate(other_device)
                    again = await client.authenticate(device)
            return first, second, again

        outcomes = run(go())
        assert all(o.accepted and o.reason == "ok" for o in outcomes)

    def test_enrollment_pack_is_removed_when_the_server_stops(self, device):
        import os

        async def go():
            async with await serve() as server:
                async with ServiceClient("127.0.0.1", server.port) as client:
                    await client.enroll(device)
                    outcome = await client.authenticate(device)
                path = server.registry._enrollment.path
                assert os.path.exists(path)
            return outcome, path

        outcome, path = run(go())
        assert outcome.accepted
        assert not os.path.exists(path)

    def test_compiled_with_process_pool(self, device):
        async def go():
            async with await serve(workers=1, rounds=2) as server:
                async with ServiceClient("127.0.0.1", server.port) as client:
                    await client.enroll(device)
                    return await client.authenticate(device)

        assert run(go()).accepted

    def test_prover_can_run_off_the_artifact(self, device):
        # A holder carrying only the compiled artifact (repro auth
        # --pack) authenticates like one holding the full description.
        artifact = device.compile(include_circuit=False)

        async def go():
            async with await serve(rounds=2) as server:
                async with ServiceClient("127.0.0.1", server.port) as client:
                    await client.enroll(device)
                    return await client.authenticate(artifact)

        outcome = run(go())
        assert outcome.accepted and outcome.reason == "ok"


class TestRejections:
    def test_tampered_value_rejected(self, device):
        async def go():
            async with await serve() as server:
                async with ServiceClient("127.0.0.1", server.port) as client:
                    await client.enroll(device)
                    outcome = await client.authenticate(
                        device, tamper=lambda c: {**c, "value": c["value"] * 2.0}
                    )
                    stats = await client.stats()
            return outcome, stats

        outcome, stats = run(go())
        assert not outcome.accepted
        assert outcome.reason == "incorrect"
        assert stats["sessions_rejected"] == 1
        assert stats["sessions_accepted"] == 0

    def test_submaximal_flow_rejected(self, device):
        def halve_paths(claim):
            claim = dict(claim)
            claim["paths"] = [
                {**p, "value": p["value"] * 0.5} for p in claim["paths"]
            ]
            claim["value"] = claim["value"] * 0.5
            return claim

        async def go():
            async with await serve() as server:
                async with ServiceClient("127.0.0.1", server.port) as client:
                    await client.enroll(device)
                    return await client.authenticate(device, tamper=halve_paths)

        outcome = run(go())
        assert not outcome.accepted
        assert outcome.reason == "incorrect"

    def test_infeasible_flow_rejected(self, device):
        def overflow_paths(claim):
            claim = dict(claim)
            claim["paths"] = [
                {**p, "value": p["value"] * 100.0} for p in claim["paths"]
            ]
            return claim

        async def go():
            async with await serve() as server:
                async with ServiceClient("127.0.0.1", server.port) as client:
                    await client.enroll(device)
                    return await client.authenticate(device, tamper=overflow_paths)

        outcome = run(go())
        assert not outcome.accepted
        assert outcome.reason == "infeasible"

    def test_deadline_overrun_rejected(self, device):
        async def go():
            async with await serve(deadline_seconds=0.05) as server:
                async with ServiceClient("127.0.0.1", server.port) as client:
                    await client.enroll(device)
                    outcome = await client.authenticate(device, delay=0.2)
                    stats = await client.stats()
            return outcome, stats

        outcome, stats = run(go())
        assert not outcome.accepted
        assert outcome.reason == "deadline"
        assert stats["deadline_misses"] == 1
        assert stats["sessions_rejected"] == 1
        # a deadline miss is rejected without wasting a verification
        assert stats["claims_verified"] == 0

    def test_unknown_device_rejected(self, device, other_device):
        async def go():
            async with await serve() as server:
                async with ServiceClient("127.0.0.1", server.port) as client:
                    await client.enroll(device)
                    with pytest.raises(ServiceError):
                        await client.authenticate(other_device)
                    return await client.stats()

        stats = run(go())
        assert stats["unknown_devices"] == 1

    def test_wire_enrollment_can_be_disabled(self, device):
        async def go():
            async with await serve(allow_enroll=False) as server:
                async with ServiceClient("127.0.0.1", server.port) as client:
                    with pytest.raises(ServiceError):
                        await client.enroll(device)

        run(go())


class TestReplayAndExpiry:
    def test_replayed_claim_rejected(self, device):
        async def go():
            async with await serve(rounds=2) as server:
                async with ServiceClient("127.0.0.1", server.port) as client:
                    await client.enroll(device)
                    from repro.ppuf import PpufProver
                    from repro.service.registry import device_id_for
                    from repro.ppuf.io import ppuf_to_dict

                    device_id = device_id_for(ppuf_to_dict(device))
                    challenge_msg = await client.request_ok(
                        {"type": wire.HELLO, "device_id": device_id, "network": "a"}
                    )
                    challenge = wire.challenge_from_wire(challenge_msg["challenge"])
                    claim = PpufProver(device.network_a).answer_compact(challenge)
                    claim_msg = {
                        "type": wire.CLAIM,
                        "session": challenge_msg["session"],
                        "nonce": challenge_msg["nonce"],
                        "claim": wire.claim_to_wire(claim),
                    }
                    second_challenge = await client.request_ok(claim_msg)
                    assert second_challenge["type"] == wire.CHALLENGE
                    replay_reply = await client.request(claim_msg)  # verbatim replay
                    stats = await client.stats()
            return replay_reply, stats

        reply, stats = run(go())
        assert reply["type"] == wire.ERROR
        assert "consumed" in reply["error"]
        assert stats["replays_rejected"] == 1
        assert stats["protocol_errors"] == 0

    def test_idle_session_expires(self, device):
        async def go():
            async with await serve(idle_timeout=0.1) as server:
                async with ServiceClient("127.0.0.1", server.port) as client:
                    await client.enroll(device)
                    from repro.service.registry import device_id_for
                    from repro.ppuf.io import ppuf_to_dict

                    device_id = device_id_for(ppuf_to_dict(device))
                    challenge_msg = await client.request_ok(
                        {"type": wire.HELLO, "device_id": device_id, "network": "a"}
                    )
                    await asyncio.sleep(0.4)  # sweeper interval is idle/4
                    reply = await client.request(
                        {
                            "type": wire.CLAIM,
                            "session": challenge_msg["session"],
                            "nonce": challenge_msg["nonce"],
                            "claim": {"challenge": {}, "paths": [], "value": 0.0},
                        }
                    )
                    stats = await client.stats()
            return reply, stats

        reply, stats = run(go())
        assert reply["type"] == wire.ERROR
        assert stats["sessions_expired"] >= 1
        assert stats["active_sessions"] == 0


class TestConcurrency:
    def test_eight_simultaneous_sessions(self, device):
        """≥8 concurrent sessions, each on its own connection, no leakage."""

        async def one_session(port):
            async with ServiceClient("127.0.0.1", port) as client:
                return await client.authenticate(device, rounds=2)

        async def go():
            async with await serve(rounds=2) as server:
                async with ServiceClient("127.0.0.1", server.port) as client:
                    await client.enroll(device)
                outcomes = await asyncio.gather(
                    *(one_session(server.port) for _ in range(8))
                )
                async with ServiceClient("127.0.0.1", server.port) as client:
                    stats = await client.stats()
            return outcomes, stats

        outcomes, stats = run(go())
        assert len(outcomes) == 8
        assert all(outcome.accepted for outcome in outcomes)
        # distinct sessions, distinct nonces: nothing shared across sessions
        session_ids = {outcome.session_id for outcome in outcomes}
        assert len(session_ids) == 8
        nonces = {
            entry["nonce"] for outcome in outcomes for entry in outcome.transcript
        }
        assert len(nonces) == 16  # 8 sessions x 2 rounds, all unique
        assert stats["sessions_opened"] == 8
        assert stats["sessions_accepted"] == 8
        assert stats["sessions_rejected"] == 0
        assert stats["claims_verified"] == 16
