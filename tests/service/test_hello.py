"""HELLO is served from the device header.

Opening a session needs only the header's ``n`` and ``l``.  These tests
pin that HELLO never builds a device and never runs device physics (for
a wire-enrolled or a pre-packed device alike), that a header without a
technology card still authenticates, that the registry keeps no rebuilt
devices resident, and that a malformed ``rounds`` is a protocol error.
"""

import asyncio
import gc
import weakref

import numpy as np
import pytest

from repro.blocks import edge as edge_module
from repro.circuit.ptm32 import NOMINAL_CONDITIONS, PTM32
from repro.ppuf import Ppuf
from repro.ppuf import delay as delay_module
from repro.ppuf import device as device_module
from repro.ppuf.compiled import CompiledDevice
from repro.ppuf.pack import ArtifactPack, build_pack
from repro.ppuf.verification import PpufProver
from repro.runtime import provision
from repro.service import DeviceRegistry, PpufAuthServer, ServiceClient, wire
from repro.service import registry as registry_module

#: Every key a CHALLENGE carries: the enforced deadline, and nothing modeled.
CHALLENGE_KEYS = {
    "type", "session", "nonce", "round", "rounds", "challenge", "deadline_seconds",
}


def run(coroutine):
    return asyncio.run(coroutine)


@pytest.fixture(scope="module")
def enrolled():
    return Ppuf.create(6, 2, np.random.default_rng(61))


@pytest.fixture(scope="module")
def packed():
    # A different technology corner and supply from the enrolled device.
    return Ppuf.create(
        8,
        2,
        np.random.default_rng(62),
        tech=PTM32.at_temperature(330.0),
        conditions=NOMINAL_CONDITIONS.with_supply_scale(1.1),
    )


@pytest.fixture
def registry(tmp_path, enrolled, packed):
    pack_path = str(tmp_path / "fleet.pack")
    build_pack(pack_path, [packed.compile(include_circuit=False)])
    registry = DeviceRegistry(pack=pack_path)
    registry.enroll_ppuf(enrolled)
    yield registry
    registry.close()
    provision.clear_cache()


def hello(device_id, **extra):
    return {"type": wire.HELLO, "device_id": device_id, "network": "a", **extra}


async def challenges_of(client, device, rounds):
    """Run one honest session by hand; returns every CHALLENGE reply."""
    prover = PpufProver(device.network_a)
    reply = await client.request_ok(hello(device.device_id, rounds=rounds))
    seen = []
    while reply["type"] == wire.CHALLENGE:
        seen.append(reply)
        claim = prover.answer_compact(wire.challenge_from_wire(reply["challenge"]))
        reply = await client.request_ok(
            {
                "type": wire.CLAIM,
                "session": reply["session"],
                "nonce": reply["nonce"],
                "claim": wire.claim_to_wire(claim),
            }
        )
    assert reply["type"] == wire.VERDICT and reply["accepted"]
    return seen


class TestHelloFromHeader:
    def test_hello_builds_no_device(self, registry, enrolled, packed, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("HELLO built a device")

        monkeypatch.setattr(registry_module, "ppuf_from_dict", forbidden)
        monkeypatch.setattr(ArtifactPack, "device", forbidden)

        async def go():
            async with PpufAuthServer(registry, workers=0, seed=5) as server:
                async with ServiceClient("127.0.0.1", server.port) as client:
                    replies = [
                        await client.request_ok(hello(device.device_id))
                        for device in (enrolled, packed)
                    ]
                return replies, server.stats.internal_errors

        replies, internal_errors = run(go())
        assert [reply["type"] for reply in replies] == [wire.CHALLENGE] * 2
        assert internal_errors == 0

    def test_hello_runs_no_device_physics(
        self, registry, enrolled, packed, monkeypatch
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("the session path ran device physics")

        # The provers hold their public models before the tripwires go in.
        for device in (enrolled, packed):
            device.network_a.capacities(np.zeros(device.crossbar.num_edges))
        monkeypatch.setattr(edge_module, "edge_currents_at_voltage", forbidden)
        monkeypatch.setattr(device_module, "edge_currents_at_voltage", forbidden)
        monkeypatch.setattr(delay_module, "lin_mead_delay_bound", forbidden)

        async def go():
            async with PpufAuthServer(
                registry, workers=0, seed=5, deadline_seconds=30.0
            ) as server:
                async with ServiceClient("127.0.0.1", server.port) as client:
                    seen = [
                        await challenges_of(client, device, rounds=3)
                        for device in (enrolled, packed)
                    ]
                return seen, server.stats.internal_errors

        seen, internal_errors = run(go())
        assert internal_errors == 0
        for challenges in seen:
            assert len(challenges) == 3
            assert all(set(challenge) == CHALLENGE_KEYS for challenge in challenges)

    def test_header_without_technology_authenticates(self, tmp_path, packed):
        # HELLO reads only n and l, so a header without a technology card
        # or operating point opens sessions like any other.
        source = packed.compile(include_circuit=False)
        bare = CompiledDevice(
            n=source.n, l=source.l, cap0=source.cap0, cap1=source.cap1,
            device_id="bare",
        )
        path = str(tmp_path / "bare.pack")
        build_pack(path, [bare])
        registry = DeviceRegistry(pack=path)

        async def go():
            async with PpufAuthServer(
                registry, workers=0, seed=5, deadline_seconds=30.0
            ) as server:
                async with ServiceClient("127.0.0.1", server.port) as client:
                    outcome = await client.authenticate(bare, rounds=2)
                return outcome, server.stats

        try:
            outcome, stats = run(go())
        finally:
            registry.close()
            provision.clear_cache()
        assert outcome.accepted
        assert (stats.internal_errors, stats.protocol_errors) == (0, 0)

    def test_registry_keeps_no_rebuilt_devices(self, monkeypatch):
        built = []
        real = registry_module.ppuf_from_dict

        def tracking(public):
            device = real(public)
            built.append(weakref.ref(device))
            return device

        monkeypatch.setattr(registry_module, "ppuf_from_dict", tracking)
        rng = np.random.default_rng(63)
        devices = [Ppuf.create(6, 2, rng) for _ in range(3)]
        registry = DeviceRegistry()
        server = PpufAuthServer(
            registry, workers=0, rounds=1, seed=5, deadline_seconds=30.0
        )

        async def go():
            async with server:
                async with ServiceClient("127.0.0.1", server.port) as client:
                    for device in devices:
                        await client.enroll(device)
                    return [await client.authenticate(d) for d in devices]

        try:
            outcomes = run(go())
            gc.collect()
            assert all(outcome.accepted for outcome in outcomes)
            assert len(registry) == 3
            # Enrollment rebuilt each device to validate it; the registry
            # (still alive here) kept none of them.
            assert len(built) >= 3
            assert all(ref() is None for ref in built)
        finally:
            registry.close()
            provision.clear_cache()


class TestHelloRounds:
    @pytest.mark.parametrize(
        "rounds", ["x", [1], {"a": 1}, 2.5, True, "3", 0, 1025],
        ids=repr,
    )
    def test_malformed_rounds_is_a_protocol_error(self, registry, enrolled, rounds):
        async def go():
            async with PpufAuthServer(
                registry, workers=0, seed=5, deadline_seconds=30.0
            ) as server:
                async with ServiceClient("127.0.0.1", server.port) as client:
                    reply = await client.request(
                        hello(enrolled.device_id, rounds=rounds)
                    )
                    # The same connection still authenticates.
                    outcome = await client.authenticate(enrolled, rounds=1)
                return reply, outcome, server.stats

        reply, outcome, stats = run(go())
        assert reply["type"] == wire.ERROR
        assert "rounds" in reply["error"]
        assert stats.internal_errors == 0
        assert stats.protocol_errors == 1
        assert outcome.accepted
