"""Device registry: content-derived ids, persistence, reload."""

import json
import os

import numpy as np
import pytest

from repro.errors import ReproError, ServiceError
from repro.ppuf import Ppuf
from repro.ppuf.io import ppuf_to_dict
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
        restored = registry.device(device_id)
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
            registry.public("deadbeef")
        with pytest.raises(ServiceError):
            registry.device("deadbeef")

    def test_malformed_description_rejected(self):
        registry = DeviceRegistry()
        with pytest.raises(ReproError):
            registry.enroll({"n": 5})


class TestCompiledArtifacts:
    def test_compiled_once_then_cached(self, tiny_ppuf, rng):
        registry = DeviceRegistry()
        device_id = registry.enroll_ppuf(tiny_ppuf)
        artifact = registry.compiled(device_id)
        assert artifact is registry.compiled(device_id)
        assert artifact.device_id == device_id
        assert not artifact.has_circuit_tables  # verification-only build
        challenges = tiny_ppuf.challenge_space().random_batch(8, rng)
        assert np.array_equal(
            artifact.response_bits(challenges), tiny_ppuf.response_bits(challenges)
        )

    def test_compiled_unknown_device_raises(self):
        with pytest.raises(ServiceError):
            DeviceRegistry().compiled("deadbeef")

    def test_compiled_persists_in_enrollment_pack(
        self, tiny_ppuf, rng, monkeypatch
    ):
        from repro.ppuf.pack import ArtifactPack

        registry = DeviceRegistry(compiled_cache_size=1)
        device_id = registry.enroll_ppuf(tiny_ppuf)
        kind, path = registry.artifact_payload(device_id)
        assert kind == "pack"
        assert ArtifactPack(path).ids() == [device_id]

        other = Ppuf.create(6, 2, np.random.default_rng(34))
        registry.compiled(registry.enroll_ppuf(other))  # evicts device_id
        other_id = device_id_for(ppuf_to_dict(other))
        assert ArtifactPack(path).ids() == sorted([device_id, other_id])
        # The evicted artifact must come back from the enrollment pack —
        # recompiling here would mean the append was for nothing.
        monkeypatch.setattr(
            Ppuf, "compile", lambda *a, **k: pytest.fail("recompiled from scratch")
        )
        artifact = registry.compiled(device_id)
        challenges = tiny_ppuf.challenge_space().random_batch(8, rng)
        assert np.array_equal(
            artifact.response_bits(challenges), tiny_ppuf.response_bits(challenges)
        )
        registry.close()
        assert not os.path.exists(path)

    def test_npz_files_do_not_break_directory_reload(self, tiny_ppuf, tmp_path):
        registry = DeviceRegistry(str(tmp_path))
        device_id = registry.enroll_ppuf(tiny_ppuf)
        registry.compiled(device_id)
        # Compiled artifacts never land in the directory; a leftover
        # per-device archive from an older release is not an entry either.
        assert os.listdir(tmp_path) == [f"{device_id}.json"]
        (tmp_path / f"{device_id}.npz").write_bytes(b"old archive")
        reloaded = DeviceRegistry(str(tmp_path))
        assert len(reloaded) == 1

    def test_corrupt_artifact_is_recompiled(self, tiny_ppuf, tmp_path, rng):
        # A corrupt per-device archive left by an older release is never
        # read: the device compiles into the enrollment pack instead.
        registry = DeviceRegistry(str(tmp_path))
        device_id = registry.enroll_ppuf(tiny_ppuf)
        (tmp_path / f"{device_id}.npz").write_bytes(b"not an archive")
        artifact = registry.compiled(device_id)
        challenges = tiny_ppuf.challenge_space().random_batch(8, rng)
        assert np.array_equal(
            artifact.response_bits(challenges), tiny_ppuf.response_bits(challenges)
        )
        registry.close()

    def test_lost_enrollment_pack_is_rebuilt(self, tiny_ppuf, tmp_path, rng):
        registry = DeviceRegistry(str(tmp_path))
        device_id = registry.enroll_ppuf(tiny_ppuf)
        # The enrollment pack is scratch: once closed, the next cold miss
        # compiles into a new one.
        _, lost = registry.artifact_payload(device_id)
        registry.close()
        assert not os.path.exists(lost)
        _, path = registry.artifact_payload(device_id)
        assert path != lost and os.path.exists(path)
        artifact = registry.compiled(device_id)
        challenges = tiny_ppuf.challenge_space().random_batch(8, rng)
        assert np.array_equal(
            artifact.response_bits(challenges), tiny_ppuf.response_bits(challenges)
        )
        registry.close()

    def test_artifact_payload_prefers_the_fleet_pack(self, tiny_ppuf, tmp_path):
        from repro.ppuf.pack import build_pack

        pack_path = str(tmp_path / "fleet.pack")
        build_pack(pack_path, [tiny_ppuf.compile(include_circuit=False)])
        registry = DeviceRegistry(pack=pack_path)
        device_id = registry.enroll_ppuf(tiny_ppuf)
        assert registry.artifact_payload(device_id) == ("pack", pack_path)
        assert registry._enrollment is None  # nothing compiled, nothing written

    def test_unknown_device_payload_raises(self):
        with pytest.raises(ServiceError):
            DeviceRegistry().artifact_payload("deadbeef")

    def test_concurrent_first_claims_append_whole_records(self):
        # compiled() runs on executor threads; interleaved appends would
        # corrupt the enrollment pack that workers scan.
        import sys
        from concurrent.futures import ThreadPoolExecutor

        from repro.ppuf.pack import ArtifactPack

        rng = np.random.default_rng(35)
        devices = [Ppuf.create(6, 2, rng) for _ in range(6)]
        registry = DeviceRegistry(compiled_cache_size=2)
        ids = [registry.enroll_ppuf(device) for device in devices]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [
                    pool.submit(registry.artifact_payload, device_id)
                    for device_id in ids * 8
                ]
                payloads = {future.result(timeout=60) for future in futures}
        finally:
            sys.setswitchinterval(previous)
        try:
            (_, path), = payloads
            pack = ArtifactPack(path)
            assert pack.ids() == sorted(ids)
            assert os.path.getsize(path) == pack.stats()["data_end"]
            probe = devices[0].challenge_space().random_batch(4, rng)
            for device, device_id in zip(devices, ids):
                assert np.array_equal(
                    pack.device(device_id).response_bits(probe),
                    device.response_bits(probe),
                )
        finally:
            registry.close()


class TestReload:
    """(Re)load must rebuild the fleet, not merge into stale state."""

    def test_reload_drops_deleted_devices(self, tiny_ppuf, tmp_path):
        registry = DeviceRegistry(str(tmp_path))
        other = Ppuf.create(6, 2, np.random.default_rng(33))
        kept = registry.enroll_ppuf(tiny_ppuf)
        dropped = registry.enroll_ppuf(other)
        os.unlink(tmp_path / f"{dropped}.json")
        assert registry.load_directory() == 1
        assert kept in registry
        assert dropped not in registry
        assert len(registry) == 1
        with pytest.raises(ServiceError):
            registry.device(dropped)

    def test_reload_invalidates_cached_compiled_artifacts(self, tiny_ppuf, tmp_path):
        registry = DeviceRegistry(str(tmp_path))
        device_id = registry.enroll_ppuf(tiny_ppuf)
        registry.compiled(device_id)
        os.unlink(tmp_path / f"{device_id}.json")
        registry.load_directory()
        # The warm artifact must not survive the fleet it belonged to: a
        # deleted-then-unknown id serves nothing, stale or otherwise.
        with pytest.raises(ServiceError):
            registry.compiled(device_id)

    def test_reenrolled_id_is_not_served_a_stale_artifact(self, tiny_ppuf, tmp_path, rng):
        registry = DeviceRegistry(str(tmp_path))
        device_id = registry.enroll_ppuf(tiny_ppuf)
        registry.compiled(device_id)
        # Simulate the fleet directory being re-provisioned out from under
        # a running server: same id re-enrolled after a reload cycle.
        registry.load_directory()
        artifact = registry.compiled(device_id)
        assert artifact.device_id == device_id
        challenges = tiny_ppuf.challenge_space().random_batch(4, rng)
        assert np.array_equal(
            artifact.response_bits(challenges), tiny_ppuf.response_bits(challenges)
        )

    def test_mismatched_filename_is_skipped_with_warning(
        self, tiny_ppuf, tmp_path, caplog
    ):
        registry = DeviceRegistry(str(tmp_path))
        device_id = registry.enroll_ppuf(tiny_ppuf)
        # A renamed (or tampered-and-renamed) file must not enroll under an
        # id other than the digest its name claims.
        os.rename(tmp_path / f"{device_id}.json", tmp_path / ("ab" * 32 + ".json"))
        with caplog.at_level("WARNING"):
            loaded = registry.load_directory()
        assert loaded == 0
        assert device_id not in registry
        assert any("does not match" in record.message for record in caplog.records)

    def test_enroll_restores_missing_file(self, tiny_ppuf, tmp_path):
        registry = DeviceRegistry(str(tmp_path))
        device_id = registry.enroll_ppuf(tiny_ppuf)
        os.unlink(tmp_path / f"{device_id}.json")
        assert registry.enroll_ppuf(tiny_ppuf) == device_id
        assert os.path.exists(tmp_path / f"{device_id}.json")


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
            artifact = registry.compiled(device_id_for(ppuf_to_dict(device)))
            challenges = device.challenge_space().random_batch(4, rng)
            assert np.array_equal(
                artifact.response_bits(challenges), device.response_bits(challenges)
            )

    def test_device_falls_back_to_pack_artifact(self, pack_path, fleet):
        registry = DeviceRegistry(pack=pack_path)
        device_id = device_id_for(ppuf_to_dict(fleet[0]))
        served = registry.device(device_id)
        assert served.crossbar.n == 6  # challenge-issuing surface works
        with pytest.raises(ServiceError):
            registry.public(device_id)  # no public JSON was ever enrolled

    def test_directory_fallback_still_compiles(self, pack_path, tiny_ppuf, tmp_path, rng):
        # A device enrolled via JSON but absent from the pack is compiled
        # into the enrollment pack transparently.
        registry = DeviceRegistry(str(tmp_path / "reg"), pack=pack_path)
        device_id = registry.enroll_ppuf(tiny_ppuf)
        artifact = registry.compiled(device_id)
        challenges = tiny_ppuf.challenge_space().random_batch(4, rng)
        assert np.array_equal(
            artifact.response_bits(challenges), tiny_ppuf.response_bits(challenges)
        )

    def test_warm_lru_is_bounded(self, pack_path, fleet, rng):
        registry = DeviceRegistry(pack=pack_path, compiled_cache_size=1)
        ids = [device_id_for(ppuf_to_dict(d)) for d in fleet]
        first = registry.compiled(ids[0])
        assert registry.compiled(ids[0]) is first  # warm hit
        registry.compiled(ids[1])  # evicts ids[0]
        assert len(registry._compiled) == 1
        # Cold in the registry again; the pack's own device LRU may still
        # hold the (immutable) view, so identity is allowed — what matters
        # is the bound above and that the served bits stay correct.
        refetched = registry.compiled(ids[0])
        challenges = fleet[0].challenge_space().random_batch(3, rng)
        assert np.array_equal(
            refetched.response_bits(challenges), fleet[0].response_bits(challenges)
        )

    def test_pack_device_cache_is_bounded_and_optional(self, pack_path, fleet):
        from repro.ppuf.pack import ArtifactPack

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
        registry = DeviceRegistry(str(tmp_path))
        device_id = registry.enroll_ppuf(tiny_ppuf)
        assert os.path.exists(tmp_path / f"{device_id}.json")
        # no stray temp files from the atomic writer
        assert all(not name.endswith(".tmp") for name in os.listdir(tmp_path))

        reloaded = DeviceRegistry(str(tmp_path))
        assert device_id in reloaded
        assert len(reloaded) == 1

    def test_corrupt_entry_is_skipped_on_reload(self, tiny_ppuf, tmp_path):
        registry = DeviceRegistry(str(tmp_path))
        device_id = registry.enroll_ppuf(tiny_ppuf)
        (tmp_path / "corrupt.json").write_text("{truncated")
        reloaded = DeviceRegistry(str(tmp_path))
        assert device_id in reloaded
        assert len(reloaded) == 1
