"""Wire enrollment into the one registry pack.

``ENROLL`` validates the public description, compiles it once and appends
it to the registry pack, all in the default executor; claims and HELLO
then only read that pack.  These tests pin that no part of enrollment
runs on the event loop, that no claim compiles, that a HELLO for an
unknown id never rescans the pack, that a named pack outlives a server
restart, and that a bad description or a failed append is a typed
protocol error, never an internal one.
"""

import asyncio
import errno
import threading

import numpy as np
import pytest

from repro.ppuf import Ppuf
from repro.ppuf import pack as pack_module
from repro.ppuf.io import ppuf_to_dict
from repro.ppuf.pack import PackWriter
from repro.runtime import provision
from repro.service import DeviceRegistry, PpufAuthServer, ServiceClient, wire
from repro.service import registry as registry_module


@pytest.fixture(scope="module")
def device():
    return Ppuf.create(8, 2, np.random.default_rng(71))


@pytest.fixture(autouse=True)
def fresh_worker_mappings():
    provision.clear_cache()
    yield
    provision.clear_cache()


def run(coroutine):
    return asyncio.run(coroutine)


def serve(registry=None):
    return PpufAuthServer(
        registry, workers=0, rounds=2, seed=5, deadline_seconds=30.0
    )


def test_enroll_validates_and_compiles_off_the_event_loop(device, monkeypatch):
    threads = []
    real = registry_module.ppuf_from_dict

    def tracking(public):
        threads.append(threading.get_ident())
        return real(public)

    monkeypatch.setattr(registry_module, "ppuf_from_dict", tracking)

    async def go():
        async with serve() as server:
            async with ServiceClient("127.0.0.1", server.port) as client:
                await client.enroll(device)
        return threading.get_ident()

    loop_thread = run(go())
    assert threads and loop_thread not in threads


def test_first_claim_never_compiles(device, monkeypatch):
    async def go():
        async with serve() as server:
            async with ServiceClient("127.0.0.1", server.port) as client:
                await client.enroll(device)
                monkeypatch.setattr(
                    Ppuf, "compile", lambda *a, **k: pytest.fail("claim compiled")
                )
                outcome = await client.authenticate(device)
        return outcome, server.stats

    outcome, stats = run(go())
    assert outcome.accepted and outcome.reason == "ok"
    assert stats.internal_errors == 0


def test_unknown_hello_never_rescans_the_pack(device, monkeypatch):
    async def go():
        async with serve() as server:
            async with ServiceClient("127.0.0.1", server.port) as client:
                await client.enroll(device)
                monkeypatch.setattr(
                    pack_module, "_scan", lambda *a, **k: pytest.fail("rescanned")
                )
                reply = await client.request(
                    {"type": wire.HELLO, "device_id": "ab" * 32, "network": "a"}
                )
        return reply, server.stats

    reply, stats = run(go())
    assert reply["type"] == wire.ERROR and "unknown device" in reply["error"]
    assert stats.unknown_devices == 1


def test_restarted_server_serves_devices_enrolled_before(device, tmp_path):
    path = str(tmp_path / "registry.pack")

    async def enroll():
        async with serve(DeviceRegistry(pack=path)) as server:
            async with ServiceClient("127.0.0.1", server.port) as client:
                return await client.enroll(device)

    async def authenticate():
        async with serve(DeviceRegistry(pack=path)) as server:
            async with ServiceClient("127.0.0.1", server.port) as client:
                return await client.authenticate(device), server.stats

    device_id = run(enroll())
    outcome, stats = run(authenticate())
    assert device_id == device.device_id
    assert outcome.accepted and outcome.reason == "ok"
    assert stats.enrollments == 0


def test_malformed_descriptions_are_protocol_errors(device):
    public = ppuf_to_dict(device)
    bad = [
        {},
        {"n": "x"},
        {**public, "sample_a": {**public["sample_a"], "delta_vt": "x"}},
    ]

    async def go():
        async with serve() as server:
            async with ServiceClient("127.0.0.1", server.port) as client:
                replies = [
                    await client.request({"type": wire.ENROLL, "device": description})
                    for description in bad
                ]
                await client.enroll(device)
                outcome = await client.authenticate(device)
        return replies, outcome, server.stats

    replies, outcome, stats = run(go())
    assert [reply["type"] for reply in replies] == [wire.ERROR] * 3
    assert all("cannot enroll" in reply["error"] for reply in replies)
    assert (stats.protocol_errors, stats.internal_errors) == (3, 0)
    assert outcome.accepted


def test_failed_append_is_a_protocol_error(device, monkeypatch):
    def full_disk(path):
        raise OSError(errno.ENOSPC, "No space left on device", path)

    async def go():
        async with serve() as server:
            monkeypatch.setattr(PackWriter, "open", staticmethod(full_disk))
            async with ServiceClient("127.0.0.1", server.port) as client:
                reply = await client.request(
                    {"type": wire.ENROLL, "device": ppuf_to_dict(device)}
                )
        return reply, server.stats, len(server.registry)

    reply, stats, enrolled = run(go())
    assert reply["type"] == wire.ERROR and "cannot enroll" in reply["error"]
    assert (stats.protocol_errors, stats.internal_errors) == (1, 0)
    assert stats.enrollments == 0 and enrolled == 0
