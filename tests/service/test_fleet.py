"""Fleet acceptance: supervised subprocess shards behind the router.

The full production topology on loopback — a shared artifact pack, two
``repro serve`` worker subprocesses spawned and babysat by
:class:`FleetSupervisor`, and a :class:`FleetRouter` front door.  Pinned
here: ≥16 concurrent clients authenticate with deterministic routing,
merged fleet STATS equal the sum of per-shard counters, and a shard
killed outright is restarted by the supervisor with service restored.
"""

import asyncio

import numpy as np
import pytest

from repro.ppuf import Ppuf, build_pack
from repro.service import RetryPolicy, ServiceClient, wire
from repro.service.fleet import (
    ACTIVE,
    FleetRouter,
    FleetSupervisor,
    ShardMap,
    ShardWorkerSpec,
    probe_stats,
)

DEVICE_COUNT = 6


@pytest.fixture(scope="module")
def fleet_pack(tmp_path_factory):
    """A pack of tiny devices plus the live Ppufs that prove against it."""
    # Seed base 60: ids split 3/3 over two rendezvous shards (see
    # test_fleet_router.py).
    devices = [
        Ppuf.create(8, 2, np.random.default_rng(60 + index))
        for index in range(DEVICE_COUNT)
    ]
    path = str(tmp_path_factory.mktemp("fleet") / "fleet.pack")
    build_pack(path, [device.compile(include_circuit=False) for device in devices])
    return path, devices


def run(coroutine):
    return asyncio.run(coroutine)


async def _authenticate(port, device, *, timeout=30.0):
    async with ServiceClient(
        "127.0.0.1", port, timeout=timeout, retry=RetryPolicy.no_retry()
    ) as client:
        return await client.authenticate(device, rounds=1)


async def _wait_for(predicate, *, timeout, interval=0.05, what="condition"):
    deadline = asyncio.get_running_loop().time() + timeout
    while True:
        if predicate():
            return
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError(f"timed out waiting for {what}")
        await asyncio.sleep(interval)


class TestSupervisedFleet:
    def test_e2e_routing_stats_and_restart(self, fleet_pack):
        pack_path, devices = fleet_pack

        async def go():
            shard_map = ShardMap()
            spec = ShardWorkerSpec(pack=pack_path, rounds=1, seed=13)
            supervisor = FleetSupervisor(
                2,
                spec,
                shard_map=shard_map,
                probe_interval=0.25,
                restart_policy=RetryPolicy(
                    base_delay=0.05, max_delay=0.2, seed=0
                ),
            )
            results = {}
            await supervisor.start()
            try:
                async with FleetRouter(shard_map) as router:
                    # --- ≥16 concurrent clients through the front door ---
                    outcomes = await asyncio.gather(
                        *(
                            _authenticate(
                                router.port, devices[index % len(devices)]
                            )
                            for index in range(16)
                        )
                    )
                    results["outcomes"] = outcomes

                    # --- deterministic routing + merged == sum ---
                    per_shard = {
                        shard.name: await probe_stats(shard.host, shard.port)
                        for shard in shard_map.shards()
                    }
                    results["per_shard"] = per_shard
                    results["expected"] = {
                        shard.name: 0 for shard in shard_map.shards()
                    }
                    for index in range(16):
                        device = devices[index % len(devices)]
                        owner = shard_map.shard_for(device.compile().device_id)
                        results["expected"][owner.name] += 1
                    async with ServiceClient("127.0.0.1", router.port) as client:
                        results["merged"] = await client.request_ok(
                            {"type": wire.STATS}
                        )

                    # --- kill one shard; the supervisor must restore it ---
                    victim = shard_map.shard_for(
                        devices[0].compile().device_id
                    ).name
                    old_port = shard_map.get(victim).port
                    supervisor.workers[victim].process.kill()
                    await _wait_for(
                        lambda: (
                            shard_map.get(victim).state == ACTIVE
                            and shard_map.get(victim).port != old_port
                        ),
                        timeout=30.0,
                        what=f"supervisor restart of {victim}",
                    )
                    results["restarts"] = supervisor.restarts()
                    results["events"] = list(supervisor.events)
                    # The restarted shard serves its devices again.
                    results["after_restart"] = await _authenticate(
                        router.port, devices[0]
                    )
            finally:
                await supervisor.stop()
            results["exit_codes"] = {
                name: worker.process.returncode
                for name, worker in supervisor.workers.items()
            }
            return results

        results = run(go())

        # 16/16 accepted.
        assert len(results["outcomes"]) == 16
        assert all(outcome.accepted for outcome in results["outcomes"])

        # Every session landed on the shard rendezvous hashing names.
        for name, snapshot in results["per_shard"].items():
            assert snapshot["sessions_accepted"] == results["expected"][name], name
        assert all(count > 0 for count in results["expected"].values()), (
            "fixture must exercise both shards"
        )

        # Merged fleet STATS == sum of the per-shard counters.
        merged = results["merged"]["stats"]
        for counter in ("sessions_opened", "sessions_accepted", "claims_verified"):
            assert merged[counter] == sum(
                snapshot[counter] for snapshot in results["per_shard"].values()
            ), counter
        assert merged["verify_latency"]["observations"] == sum(
            snapshot["verify_latency"]["observations"]
            for snapshot in results["per_shard"].values()
        )
        assert results["merged"]["fleet"]["healthy_shards"] == 2

        # The kill was noticed, restarted exactly once, and service restored.
        assert sum(results["restarts"].values()) == 1
        assert {event["event"] for event in results["events"]} >= {
            "spawned",
            "died",
            "restarting",
        }
        assert results["after_restart"].accepted

        # Shutdown was graceful: SIGTERM → drain → exit 0.
        assert set(results["exit_codes"].values()) == {0}

    def test_wire_enrollment_survives_a_shard_respawn(self, tmp_path):
        # Shards append wire enrollments to the fleet's pack, so the
        # replacement of a killed shard still serves them.
        device = Ppuf.create(8, 2, np.random.default_rng(59))
        pack_path = str(tmp_path / "registry.pack")  # the shard creates it

        async def go():
            shard_map = ShardMap()
            supervisor = FleetSupervisor(
                1,
                ShardWorkerSpec(pack=pack_path, rounds=1, seed=13),
                shard_map=shard_map,
                probe_interval=0.25,
                restart_policy=RetryPolicy(base_delay=0.05, max_delay=0.2, seed=0),
            )
            await supervisor.start()
            try:
                async with FleetRouter(shard_map) as router:
                    async with ServiceClient("127.0.0.1", router.port) as client:
                        await client.enroll(device)
                    (victim,) = [shard.name for shard in shard_map.shards()]
                    old_port = shard_map.get(victim).port
                    supervisor.workers[victim].process.kill()
                    await _wait_for(
                        lambda: (
                            shard_map.get(victim).state == ACTIVE
                            and shard_map.get(victim).port != old_port
                        ),
                        timeout=30.0,
                        what=f"supervisor restart of {victim}",
                    )
                    return await _authenticate(router.port, device)
            finally:
                await supervisor.stop()

        outcome = run(go())
        assert outcome.accepted and outcome.reason == "ok"
