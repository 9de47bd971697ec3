"""FleetRouter against in-process shard servers: routing, stats, failure.

These tests keep every shard in-process (real ``PpufAuthServer``s on
ephemeral loopback ports) so the wire path is identical to production
while tier-1 stays fast; the subprocess supervisor is exercised
separately in ``test_fleet.py``.
"""

import asyncio

import numpy as np
import pytest

from repro.errors import ServiceError
from repro.ppuf import Ppuf
from repro.ppuf.io import ppuf_to_dict
from repro.service import PpufAuthServer, ServiceClient, wire
from repro.service.fleet import FleetRouter, ShardDescriptor, ShardMap
from repro.service.fleet import router as router_module
from repro.service.fleet.router import probe_stats
from repro.service.registry import device_id_for
from repro.service.stats import ServerStats


@pytest.fixture(scope="module")
def devices():
    # Seed base 60: the six ids split 3/3 across two rendezvous shards.
    return [Ppuf.create(8, 2, np.random.default_rng(60 + i)) for i in range(6)]


def run(coroutine):
    return asyncio.run(coroutine)


class Fleet:
    """Two in-process shards behind a router, torn down in one place."""

    def __init__(self, shard_count=2):
        self.shard_count = shard_count
        self.shard_map = ShardMap()
        self.servers = []
        self.router = None

    async def __aenter__(self):
        for index in range(self.shard_count):
            server = PpufAuthServer(workers=0, rounds=2, seed=5)
            await server.start()
            self.servers.append(server)
            self.shard_map.add(
                ShardDescriptor(name=f"shard-{index}", port=server.port)
            )
        self.router = await FleetRouter(
            self.shard_map, shard_connect_timeout=1.0, stats_timeout=1.0
        ).start()
        return self

    async def __aexit__(self, *exc_info):
        await self.router.stop()
        for server in self.servers:
            await server.stop()

    def owner_index(self, device) -> int:
        device_id = device_id_for(ppuf_to_dict(device))
        return int(self.shard_map.shard_for(device_id).name.split("-")[1])


class TestRoutedEnrollment:
    def test_one_connection_enrolls_onto_owner_shards(self, devices):
        """Each ENROLL on a shared connection lands on its own owner."""

        async def go():
            async with Fleet() as fleet:
                async with ServiceClient("127.0.0.1", fleet.router.port) as client:
                    for device in devices:
                        device_id = await client.enroll(device)
                        assert device_id == device_id_for(ppuf_to_dict(device))
                placements = [set(s.registry.ids()) for s in fleet.servers]
                owners = [fleet.owner_index(d) for d in devices]
            return placements, owners

        placements, owners = run(go())
        for device_index, owner in enumerate(owners):
            for shard_index, ids in enumerate(placements):
                device = devices[device_index]
                device_id = device_id_for(ppuf_to_dict(device))
                assert (device_id in ids) == (shard_index == owner)
        assert len({*owners}) > 1, "fixture devices all hash to one shard"

    def test_authenticate_through_router(self, devices):
        async def go():
            async with Fleet() as fleet:
                async with ServiceClient("127.0.0.1", fleet.router.port) as client:
                    for device in devices:
                        await client.enroll(device)
                outcomes = []
                for device in devices:
                    async with ServiceClient(
                        "127.0.0.1", fleet.router.port
                    ) as client:
                        outcomes.append(await client.authenticate(device, rounds=1))
                per_shard = [s.stats.snapshot() for s in fleet.servers]
                owners = [fleet.owner_index(d) for d in devices]
            return outcomes, per_shard, owners

        outcomes, per_shard, owners = run(go())
        assert all(o.accepted for o in outcomes)
        # Sessions landed exactly where rendezvous says they must.
        for shard_index, snapshot in enumerate(per_shard):
            want = sum(1 for owner in owners if owner == shard_index)
            assert snapshot["sessions_accepted"] == want

    def test_tampered_claim_rejected_through_router(self, devices):
        async def go():
            async with Fleet() as fleet:
                async with ServiceClient("127.0.0.1", fleet.router.port) as client:
                    await client.enroll(devices[0])
                async with ServiceClient("127.0.0.1", fleet.router.port) as client:
                    return await client.authenticate(
                        devices[0],
                        rounds=1,
                        tamper=lambda c: {**c, "value": c["value"] * 2.0},
                    )

        outcome = run(go())
        assert not outcome.accepted and outcome.reason == "incorrect"


class TestFleetStats:
    def test_merged_equals_sum_of_shards(self, devices):
        async def go():
            async with Fleet() as fleet:
                async with ServiceClient("127.0.0.1", fleet.router.port) as client:
                    for device in devices:
                        await client.enroll(device)
                for device in devices:
                    async with ServiceClient(
                        "127.0.0.1", fleet.router.port
                    ) as client:
                        await client.authenticate(device, rounds=1)
                async with ServiceClient("127.0.0.1", fleet.router.port) as client:
                    reply = await client.request_ok({"type": wire.STATS})
                per_shard = [s.stats.snapshot() for s in fleet.servers]
            return reply, per_shard

        reply, per_shard = run(go())
        merged, fleet_info = reply["stats"], reply["fleet"]
        for counter in (
            "enrollments",
            "sessions_opened",
            "sessions_accepted",
            "claims_verified",
        ):
            assert merged[counter] == sum(s[counter] for s in per_shard), counter
        assert merged["enrollments"] == len(devices)
        assert merged["verify_latency"]["observations"] == sum(
            s["verify_latency"]["observations"] for s in per_shard
        )
        assert fleet_info["healthy_shards"] == 2
        assert len(fleet_info["shards"]) == 2
        assert fleet_info["router"]["connections_routed"] == len(devices)
        assert fleet_info["router"]["protocol_errors"] == 0

    def test_existing_client_stats_helper_works_on_a_fleet(self, devices):
        """ServiceClient.stats() sees a fleet exactly like one server."""

        async def go():
            async with Fleet() as fleet:
                async with ServiceClient("127.0.0.1", fleet.router.port) as client:
                    await client.enroll(devices[0])
                    return await client.stats()

        stats = run(go())
        assert stats["enrollments"] == 1
        assert "verify_latency" in stats

    def test_down_shard_reported_not_fatal(self, devices):
        async def go():
            async with Fleet() as fleet:
                await fleet.servers[0].stop()  # shard dies, router stays up
                async with ServiceClient("127.0.0.1", fleet.router.port) as client:
                    return await client.request_ok({"type": wire.STATS})

        reply = run(go())
        assert reply["fleet"]["healthy_shards"] == 1
        states = {s["name"]: s["healthy"] for s in reply["fleet"]["shards"]}
        assert states == {"shard-0": False, "shard-1": True}


class TestRouterStop:
    def test_stop_returns_with_a_client_pinned_through_it(self, devices):
        # Server.wait_closed() waits for open client connections on Python
        # 3.12+: stop() must cancel the pinned splices before awaiting it.
        async def go():
            async with Fleet() as fleet:
                async with ServiceClient("127.0.0.1", fleet.router.port) as client:
                    await client.enroll(devices[0])  # pins the connection
                    loop = asyncio.get_running_loop()
                    started = loop.time()
                    await asyncio.wait_for(fleet.router.stop(), timeout=5.0)
                    return loop.time() - started

        assert run(go()) < 5.0


class FakeShard:
    """A loopback peer that answers every frame with one canned reply."""

    def __init__(self, reply):
        self.reply = reply
        self.port = None
        self._server = None

    async def _answer(self, reader, writer):
        while await reader.readline():
            await wire.write_message(writer, self.reply)
        writer.close()

    async def __aenter__(self):
        self._server = await asyncio.start_server(self._answer, "127.0.0.1", 0)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def __aexit__(self, *exc_info):
        self._server.close()
        await self._server.wait_closed()


def _poisoned(key, value):
    """A full shard snapshot with busy counters and one poisoned key: a
    fold that stopped halfway would leak the counters into the fleet."""
    stats = ServerStats(enrollments=1000, sessions_opened=1000).snapshot()
    stats[key] = value
    return {"type": wire.STATS, "stats": stats}


def _other_buckets():
    stats = _poisoned("claims_verified", 1000)
    stats["stats"]["verify_latency"]["buckets"] = {"le_1": 0, "inf": 0}
    return stats


#: Six malformed STATS replies; each used to take the fleet STATS down or
#: to be folded in partly and reported healthy.
MALFORMED_REPLIES = {
    "other_buckets": _other_buckets(),
    "histogram_is_a_number": _poisoned("verify_latency", 5),
    "runtime_is_a_list": _poisoned("runtime", [1, 2]),
    "string_counter": _poisoned("sessions_opened", "7"),
    "stats_not_a_dict": {"type": wire.STATS, "stats": [1, 2]},
    "no_stats": {"type": wire.STATS},
}


class TestUnmergeableShardContained:
    @pytest.mark.parametrize("fake_index", [0, 1])
    @pytest.mark.parametrize("malformation", sorted(MALFORMED_REPLIES))
    def test_fleet_stats_survive_a_malformed_shard(
        self, devices, malformation, fake_index
    ):
        async def go():
            real = PpufAuthServer(workers=0, rounds=1, seed=5)
            await real.start()
            try:
                async with ServiceClient("127.0.0.1", real.port) as client:
                    await client.enroll(devices[0])
                async with FakeShard(MALFORMED_REPLIES[malformation]) as fake:
                    ports = [real.port, real.port]
                    ports[fake_index] = fake.port
                    shard_map = ShardMap()
                    for index, port in enumerate(ports):
                        shard_map.add(
                            ShardDescriptor(name=f"shard-{index}", port=port)
                        )
                    async with FleetRouter(shard_map, stats_timeout=2.0) as router:
                        async with ServiceClient(
                            "127.0.0.1", router.port, timeout=5.0
                        ) as client:
                            return await client.request_ok({"type": wire.STATS})
            finally:
                await real.stop()

        reply = run(go())
        fleet = reply["fleet"]
        assert fleet["healthy_shards"] == 1
        fake, real = fleet["shards"][fake_index], fleet["shards"][1 - fake_index]
        assert fake["healthy"] is False and fake["error"]
        assert real["healthy"] is True
        # The fleet view is exactly the real shard's: nothing of the fake.
        assert reply["stats"] == real["stats"]
        assert reply["stats"]["enrollments"] == 1

    def test_probe_rejects_a_reply_without_stats(self):
        async def go():
            async with FakeShard(MALFORMED_REPLIES["no_stats"]) as fake:
                await probe_stats("127.0.0.1", fake.port, timeout=2.0)

        with pytest.raises(ServiceError, match="unhealthy stats reply"):
            run(go())

    def test_timed_out_probe_still_names_a_reason(self, monkeypatch):
        # str(TimeoutError()) is empty; an unhealthy entry must say why.
        async def timed_out(*args, **kwargs):
            raise asyncio.TimeoutError()

        monkeypatch.setattr(router_module, "probe_stats", timed_out)
        router = FleetRouter(ShardMap())
        entry = run(router._shard_snapshot(ShardDescriptor(name="shard-0", port=1)))
        assert entry["healthy"] is False
        assert "TimeoutError" in entry["error"]


class TestRouterFailureModes:
    def test_hello_for_down_shard_gets_clean_error(self, devices):
        async def go():
            async with Fleet() as fleet:
                async with ServiceClient("127.0.0.1", fleet.router.port) as client:
                    for device in devices:
                        await client.enroll(device)
                victim = fleet.owner_index(devices[0])
                await fleet.servers[victim].stop()
                async with ServiceClient(
                    "127.0.0.1", fleet.router.port, timeout=5.0
                ) as client:
                    with pytest.raises(ServiceError, match="unavailable"):
                        await client.authenticate(devices[0], rounds=1)
                router_stats = fleet.router.stats.snapshot()
            return router_stats

        stats = run(go())
        assert stats["shard_unavailable"] >= 1

    def test_unroutable_first_frame_gets_error_not_hang(self):
        async def go():
            async with Fleet() as fleet:
                async with ServiceClient(
                    "127.0.0.1", fleet.router.port, timeout=5.0
                ) as client:
                    reply = await client.request(
                        {"type": wire.CLAIM, "session": "x", "nonce": "y"}
                    )
                router_stats = fleet.router.stats.snapshot()
            return reply, router_stats

        reply, stats = run(go())
        assert reply["type"] == wire.ERROR
        assert "hello" in reply["error"]
        assert stats["unroutable_frames"] == 1

    def test_malformed_hello_counted_as_protocol_error(self):
        async def go():
            async with Fleet() as fleet:
                async with ServiceClient(
                    "127.0.0.1", fleet.router.port, timeout=5.0
                ) as client:
                    reply = await client.request(
                        {"type": wire.HELLO, "device_id": 17}
                    )
                router_stats = fleet.router.stats.snapshot()
            return reply, router_stats

        reply, stats = run(go())
        assert reply["type"] == wire.ERROR
        assert stats["protocol_errors"] == 1

    def test_all_draining_fleet_error_names_the_drain(self, devices):
        """The ERROR frame distinguishes a planned drain from an outage."""

        async def go():
            shard_map = ShardMap()
            shard_map.add(ShardDescriptor(name="shard-0", port=1))
            shard_map.drain("shard-0")
            async with FleetRouter(shard_map) as router:
                async with ServiceClient(
                    "127.0.0.1", router.port, timeout=5.0
                ) as client:
                    return await client.request(
                        {"type": wire.HELLO, "device_id": "ab" * 32}
                    )

        reply = run(go())
        assert reply["type"] == wire.ERROR
        assert "fleet is draining" in reply["error"]

    def test_empty_map_error_names_the_emptiness(self):
        async def go():
            async with FleetRouter(ShardMap()) as router:
                async with ServiceClient(
                    "127.0.0.1", router.port, timeout=5.0
                ) as client:
                    return await client.request(
                        {"type": wire.HELLO, "device_id": "ab" * 32}
                    )

        reply = run(go())
        assert reply["type"] == wire.ERROR
        assert "shard map is empty" in reply["error"]

    def test_concurrent_sessions_through_router(self, devices):
        async def one(port, device):
            async with ServiceClient("127.0.0.1", port) as client:
                return await client.authenticate(device, rounds=1)

        async def go():
            async with Fleet() as fleet:
                async with ServiceClient("127.0.0.1", fleet.router.port) as client:
                    for device in devices:
                        await client.enroll(device)
                outcomes = await asyncio.gather(
                    *(
                        one(fleet.router.port, devices[i % len(devices)])
                        for i in range(16)
                    )
                )
                per_shard = [s.stats.snapshot() for s in fleet.servers]
            return outcomes, per_shard

        outcomes, per_shard = run(go())
        assert len(outcomes) == 16
        assert all(o.accepted for o in outcomes)
        assert sum(s["sessions_accepted"] for s in per_shard) == 16
