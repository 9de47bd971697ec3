"""Device registry: content-derived ids, one artifact pack, withdrawal."""

import json
import os

import numpy as np
import pytest

from repro.errors import ReproError, ServiceError
from repro.ppuf import Ppuf
from repro.ppuf.io import ppuf_to_dict, save_ppuf
from repro.ppuf.pack import ArtifactPack, PackWriter
from repro.runtime import provision
from repro.service import DeviceRegistry, device_id_for


@pytest.fixture(scope="module")
def tiny_ppuf():
    return Ppuf.create(6, 2, np.random.default_rng(31))


class TestDeviceIds:
    def test_id_is_stable_across_json_roundtrip(self, tiny_ppuf):
        public = ppuf_to_dict(tiny_ppuf)
        assert device_id_for(public) == device_id_for(json.loads(json.dumps(public)))

    def test_different_devices_get_different_ids(self, tiny_ppuf):
        other = Ppuf.create(6, 2, np.random.default_rng(32))
        assert device_id_for(ppuf_to_dict(tiny_ppuf)) != device_id_for(ppuf_to_dict(other))


class TestEnrollment:
    def test_enroll_and_lookup(self, tiny_ppuf, rng):
        registry = DeviceRegistry()
        device_id = registry.enroll_ppuf(tiny_ppuf)
        assert device_id in registry
        assert len(registry) == 1
        restored = registry.pack.device(device_id)
        challenges = tiny_ppuf.challenge_space().random_batch(5, rng)
        assert np.array_equal(
            restored.response_bits(challenges), tiny_ppuf.response_bits(challenges)
        )

    def test_reenroll_is_idempotent(self, tiny_ppuf):
        registry = DeviceRegistry()
        first = registry.enroll_ppuf(tiny_ppuf)
        assert registry.enroll_ppuf(tiny_ppuf) == first
        assert len(registry) == 1

    def test_unknown_device_raises(self):
        registry = DeviceRegistry()
        with pytest.raises(ServiceError):
            registry.header("deadbeef")

    def test_malformed_description_rejected(self):
        registry = DeviceRegistry()
        with pytest.raises(ReproError):
            registry.enroll({"n": 5})


class TestCompiledArtifacts:
    def test_compiled_once_then_cached(self, tiny_ppuf, rng, monkeypatch):
        # Enrollment compiles once; re-enrolling and resolving the device
        # the way a claim's verify worker does both read the pack record.
        compiles = []
        real = Ppuf.compile

        def counting(device, **kwargs):
            compiles.append(kwargs)
            return real(device, **kwargs)

        monkeypatch.setattr(Ppuf, "compile", counting)
        registry = DeviceRegistry()
        device_id = registry.enroll_ppuf(tiny_ppuf)
        assert compiles == [{"include_circuit": False, "device_id": device_id}]
        monkeypatch.setattr(
            Ppuf, "compile", lambda *a, **k: pytest.fail("compiled twice")
        )
        try:
            assert registry.enroll_ppuf(tiny_ppuf) == device_id
            artifact = provision.pack_device(registry.path, device_id)
            assert artifact.device_id == device_id
            assert not artifact.has_circuit_tables  # verification-only build
            challenges = tiny_ppuf.challenge_space().random_batch(8, rng)
            assert np.array_equal(
                artifact.response_bits(challenges),
                tiny_ppuf.response_bits(challenges),
            )
        finally:
            registry.close()
            provision.clear_cache()

    def test_compiled_persists_in_enrollment_pack(
        self, tiny_ppuf, rng, monkeypatch
    ):
        # Without a named pack the registry enrolls into a scratch pack,
        # which close() removes.
        registry = DeviceRegistry()
        device_id = registry.enroll_ppuf(tiny_ppuf)
        path = registry.path
        assert ArtifactPack(path).ids() == [device_id]

        other = Ppuf.create(6, 2, np.random.default_rng(34))
        other_id = registry.enroll_ppuf(other)
        assert other_id == device_id_for(ppuf_to_dict(other))
        assert ArtifactPack(path).ids() == sorted([device_id, other_id])
        # The artifact must come back from the pack — recompiling here
        # would mean the append was for nothing.
        monkeypatch.setattr(
            Ppuf, "compile", lambda *a, **k: pytest.fail("recompiled from scratch")
        )
        artifact = registry.pack.device(device_id)
        challenges = tiny_ppuf.challenge_space().random_batch(8, rng)
        assert np.array_equal(
            artifact.response_bits(challenges), tiny_ppuf.response_bits(challenges)
        )
        registry.close()
        assert not os.path.exists(path)

    def test_compiled_unknown_device_raises(self):
        registry = DeviceRegistry()
        try:
            with pytest.raises(ReproError):
                registry.pack.device("deadbeef")
        finally:
            registry.close()

    def test_unknown_device_payload_raises(self):
        # The payload a claim's verify worker receives is the pack path:
        # an id the pack does not hold fails typed, also after the one
        # re-scan a miss on a mapped pack triggers.
        registry = DeviceRegistry()
        try:
            for _ in range(2):
                with pytest.raises(ReproError):
                    provision.pack_device(registry.path, "deadbeef")
        finally:
            registry.close()
            provision.clear_cache()

    def test_enrolling_a_packed_device_writes_nothing(
        self, tiny_ppuf, tmp_path, monkeypatch
    ):
        from repro.ppuf.pack import build_pack

        pack_path = str(tmp_path / "fleet.pack")
        build_pack(pack_path, [tiny_ppuf.compile(include_circuit=False)])
        size = os.path.getsize(pack_path)
        registry = DeviceRegistry(pack=pack_path)
        # A known id neither compiles nor takes the append lock.
        monkeypatch.setattr(
            Ppuf, "compile", lambda *a, **k: pytest.fail("compiled")
        )
        monkeypatch.setattr(
            PackWriter, "open", lambda *a, **k: pytest.fail("opened for append")
        )
        assert registry.enroll_ppuf(tiny_ppuf) == tiny_ppuf.device_id
        assert os.path.getsize(pack_path) == size

    def test_concurrent_enrollments_append_whole_records(self, tmp_path):
        # enroll() runs on executor threads, and several registries (the
        # shards of one fleet) may append to one pack: interleaved appends
        # would corrupt the pack that workers scan.  Two registries on one
        # path hold separate thread locks, so only the pack's file lock
        # keeps their appends apart.
        import sys
        from concurrent.futures import ThreadPoolExecutor

        rng = np.random.default_rng(35)
        devices = [Ppuf.create(6, 2, rng) for _ in range(6)]
        path = str(tmp_path / "shared.pack")
        registries = [DeviceRegistry(pack=path), DeviceRegistry(pack=path)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [
                    pool.submit(registries[k % 2].enroll_ppuf, device)
                    for k, device in enumerate(devices * 4)
                ]
                ids = {future.result(timeout=60) for future in futures}
        finally:
            sys.setswitchinterval(previous)
        pack = ArtifactPack(path)
        assert len(ids) == len(devices)
        assert pack.ids() == sorted(ids)
        assert os.path.getsize(path) == pack.stats()["data_end"]
        probe = devices[0].challenge_space().random_batch(4, rng)
        for device in devices:
            assert np.array_equal(
                pack.device(device.device_id).response_bits(probe),
                device.response_bits(probe),
            )


class TestReload:
    """The pack is append-only: a device is withdrawn by rebuilding the
    pack from the descriptions that are kept (``repro pack build
    --registry DIR``) and restarting on it."""

    @staticmethod
    def build(directory, path):
        from repro.cli import main

        command = ["pack", "build", "--registry", str(directory), "--output", path]
        assert main(command) == 0

    def test_reload_drops_deleted_devices(self, tiny_ppuf, tmp_path):
        directory = tmp_path / "descriptions"
        directory.mkdir()
        other = Ppuf.create(6, 2, np.random.default_rng(33))
        for device in (tiny_ppuf, other):
            save_ppuf(device, str(directory / f"{device.device_id}.json"))
        path = str(tmp_path / "registry.pack")
        self.build(directory, path)
        assert len(DeviceRegistry(pack=path)) == 2

        os.unlink(directory / f"{other.device_id}.json")
        self.build(directory, path)
        restarted = DeviceRegistry(pack=path)
        assert tiny_ppuf.device_id in restarted
        assert other.device_id not in restarted
        with pytest.raises(ServiceError):
            restarted.header(other.device_id)

    def test_renamed_description_packs_under_its_content_digest(
        self, tiny_ppuf, tmp_path
    ):
        # A renamed (or tampered-and-renamed) file can never enroll under
        # the id written on its name: records are keyed by content.
        directory = tmp_path / "descriptions"
        directory.mkdir()
        save_ppuf(tiny_ppuf, str(directory / ("ab" * 32 + ".json")))
        path = str(tmp_path / "registry.pack")
        self.build(directory, path)
        assert DeviceRegistry(pack=path).ids() == [tiny_ppuf.device_id]


class TestPackBackedRegistry:
    @pytest.fixture()
    def fleet(self):
        rng = np.random.default_rng(55)
        return [Ppuf.create(6, 2, rng) for _ in range(3)]

    @pytest.fixture()
    def pack_path(self, tmp_path, fleet):
        from repro.ppuf.pack import build_pack

        path = str(tmp_path / "fleet.pack")
        build_pack(path, (d.compile(include_circuit=False) for d in fleet))
        return path

    def test_pack_devices_count_as_enrolled(self, pack_path, fleet):
        registry = DeviceRegistry(pack=pack_path)
        assert len(registry) == 3
        for device in fleet:
            assert device_id_for(ppuf_to_dict(device)) in registry

    def test_compiled_serves_mmap_slices(self, pack_path, fleet, rng):
        registry = DeviceRegistry(pack=pack_path)
        for device in fleet:
            artifact = registry.pack.device(device_id_for(ppuf_to_dict(device)))
            challenges = device.challenge_space().random_batch(4, rng)
            assert np.array_equal(
                artifact.response_bits(challenges), device.response_bits(challenges)
            )

    def test_device_falls_back_to_pack_artifact(self, pack_path, fleet):
        registry = DeviceRegistry(pack=pack_path)
        device_id = device_id_for(ppuf_to_dict(fleet[0]))
        served = registry.pack.device(device_id)
        assert served.crossbar.n == 6
        header = registry.header(device_id)  # what HELLO reads
        assert (header["n"], header["l"]) == (6, 2)
        assert header["technology"] and header["conditions"]

    def test_wire_enrollment_appends_to_the_served_pack(
        self, pack_path, fleet, tiny_ppuf, rng
    ):
        # A device absent from the pack is compiled once and appended to
        # the very pack the registry serves, next to the fleet.
        registry = DeviceRegistry(pack=pack_path)
        device_id = registry.enroll_ppuf(tiny_ppuf)
        assert device_id in registry and len(registry) == 4
        reopened = ArtifactPack(pack_path)
        assert reopened.ids() == sorted(
            [device_id] + [device.device_id for device in fleet]
        )
        artifact = reopened.device(device_id)
        challenges = tiny_ppuf.challenge_space().random_batch(4, rng)
        assert np.array_equal(
            artifact.response_bits(challenges), tiny_ppuf.response_bits(challenges)
        )

    def test_pack_device_cache_is_bounded_and_optional(self, pack_path, fleet):
        ids = [device_id_for(ppuf_to_dict(d)) for d in fleet]
        pack = ArtifactPack(pack_path, cache_devices=1)
        first = pack.device(ids[0])
        assert pack.device(ids[0]) is first  # warm hit
        pack.device(ids[1])  # evicts ids[0]
        assert len(pack._cache) == 1
        assert pack.device(ids[0]) is not first  # rebuilt after eviction
        uncached = ArtifactPack(pack_path, cache_devices=0)
        assert uncached.device(ids[0]) is not uncached.device(ids[0])

    def test_loopback_auth_verifies_off_pack_slices(self, pack_path, fleet):
        import asyncio

        from repro.service import PpufAuthServer, ServiceClient

        async def go():
            registry = DeviceRegistry(pack=pack_path)
            server = PpufAuthServer(
                registry, workers=0, rounds=2, seed=5, deadline_seconds=30.0
            )
            async with server:
                async with ServiceClient("127.0.0.1", server.port) as client:
                    return await client.authenticate(fleet[0])

        outcome = asyncio.run(go())
        assert outcome.accepted and outcome.reason == "ok"


class TestPersistence:
    def test_enrollment_persists_and_reloads(self, tiny_ppuf, tmp_path):
        # A named pack keeps its enrollments across registries (restarts).
        path = str(tmp_path / "registry.pack")
        registry = DeviceRegistry(pack=path)  # created when missing
        device_id = registry.enroll_ppuf(tiny_ppuf)
        registry.close()
        assert os.path.exists(path)
        assert os.listdir(tmp_path) == ["registry.pack"]  # no stray temp files

        reloaded = DeviceRegistry(pack=path)
        assert device_id in reloaded
        assert len(reloaded) == 1

    def test_corrupt_entry_is_skipped_on_reload(self, tiny_ppuf, tmp_path):
        path = str(tmp_path / "registry.pack")
        device_id = DeviceRegistry(pack=path).enroll_ppuf(tiny_ppuf)
        with open(path, "ab") as handle:
            handle.write(b"PKR1\x00torn")  # a writer killed mid-append
        reloaded = DeviceRegistry(pack=path)
        assert device_id in reloaded
        assert len(reloaded) == 1
        # The next enrollment cuts the torn tail before it appends.
        other_id = reloaded.enroll_ppuf(Ppuf.create(6, 2, np.random.default_rng(36)))
        pack = ArtifactPack(path)
        assert pack.ids() == sorted([device_id, other_id])
        assert os.path.getsize(path) == pack.stats()["data_end"]
