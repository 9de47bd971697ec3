"""HELLO is served from the device header.

Opening a session needs only ``n``, ``l``, the technology card and the
operating point.  These tests pin that HELLO never builds a device (for
a wire-enrolled or a pre-packed device alike), that the registry keeps no
rebuilt devices resident, that the relayed paper deadline is the device's
Lin–Mead bound, and that a malformed ``rounds`` is a protocol error.
"""

import asyncio
import gc
import weakref

import numpy as np
import pytest

from repro.circuit.ptm32 import NOMINAL_CONDITIONS, PTM32
from repro.ppuf import Ppuf
from repro.ppuf.compiled import CompiledDevice
from repro.ppuf.delay import lin_mead_delay_bound
from repro.ppuf.pack import ArtifactPack, build_pack
from repro.ppuf.verification import PpufProver
from repro.runtime import provision
from repro.service import DeviceRegistry, PpufAuthServer, ServiceClient, wire
from repro.service import registry as registry_module
from repro.service.server import PAPER_DEADLINE_SLACK


def run(coroutine):
    return asyncio.run(coroutine)


@pytest.fixture(scope="module")
def enrolled():
    return Ppuf.create(6, 2, np.random.default_rng(61))


@pytest.fixture(scope="module")
def packed():
    # A different technology corner and supply, so the two devices'
    # deadlines differ and each must come from its own header.
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

    def test_header_without_technology_is_refused(self, tmp_path, packed):
        # No silent default: the paper deadline needs the device's own card.
        source = packed.compile(include_circuit=False)
        bare = CompiledDevice(
            n=source.n, l=source.l, cap0=source.cap0, cap1=source.cap1,
            device_id="bare",
        )
        path = str(tmp_path / "bare.pack")
        build_pack(path, [bare])
        registry = DeviceRegistry(pack=path)

        async def go():
            async with PpufAuthServer(registry, workers=0, seed=5) as server:
                async with ServiceClient("127.0.0.1", server.port) as client:
                    reply = await client.request(hello("bare"))
                return reply, server.stats

        reply, stats = run(go())
        assert reply["type"] == wire.ERROR
        assert "technology" in reply["error"]
        assert (stats.internal_errors, stats.protocol_errors) == (0, 1)

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

    def test_paper_deadline_is_the_lin_mead_bound(self, registry, enrolled, packed):
        async def go():
            async with PpufAuthServer(
                registry, workers=0, seed=5, deadline_seconds=30.0
            ) as server:
                async with ServiceClient("127.0.0.1", server.port) as client:
                    return [
                        await challenges_of(client, device, rounds=3)
                        for device in (enrolled, packed)
                    ]

        deadlines = []
        for device, challenges in zip((enrolled, packed), run(go())):
            assert len(challenges) == 3
            expected = PAPER_DEADLINE_SLACK * lin_mead_delay_bound(
                device.n, device.network_a.tech, device.network_a.conditions
            )
            assert [c["paper_deadline_seconds"] for c in challenges] == [expected] * 3
            deadlines.append(expected)
        assert deadlines[0] != deadlines[1]


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
