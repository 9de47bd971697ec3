"""Worker-side provisioning: one transport, one cache.

:func:`pack_device` serves a device from a pack path plus the device
id, and re-scans a mapped pack once when the id was appended after the
mapping.  The per-worker device cache is each mapped pack's own bounded,
recency-ordered LRU, and producer-side :func:`ship_compiled` owns the
temporary pack's lifecycle.
"""

import os

import numpy as np
import pytest

from repro.errors import ReproError
from repro.ppuf import Ppuf
from repro.ppuf.compiled import compile_ppuf
from repro.ppuf.pack import SCRATCH_DIR, PackWriter, build_pack
from repro.runtime import provision
from repro.runtime.provision import ShippedArtifact, pack_device, ship_compiled


@pytest.fixture(scope="module")
def device():
    return Ppuf.create(8, 2, np.random.default_rng(71))


@pytest.fixture(scope="module")
def compiled(device):
    return compile_ppuf(device, include_circuit=False)


@pytest.fixture(scope="module")
def fleet():
    rng = np.random.default_rng(73)
    return [compile_ppuf(Ppuf.create(6, 2, rng), include_circuit=False) for _ in range(3)]


@pytest.fixture
def fleet_pack(tmp_path, fleet):
    path = str(tmp_path / "fleet.pack")
    build_pack(path, fleet)
    return path


@pytest.fixture(scope="module")
def probe(device):
    space = device.challenge_space()
    rng = np.random.default_rng(72)
    return [space.random(rng) for _ in range(4)]


@pytest.fixture(autouse=True)
def fresh_cache():
    provision.clear_cache()
    yield
    provision.clear_cache()


class TestMaterialise:
    def test_shm_payload_maps_same_bits(self, device, compiled, probe):
        shipped = ship_compiled(compiled)
        try:
            attached = pack_device(shipped.path, shipped.device_id)
            for challenge in probe:
                assert attached.response(challenge) == device.response(challenge)
        finally:
            shipped.close()

    def test_appended_device_is_found_after_one_refresh(
        self, tmp_path, fleet, monkeypatch
    ):
        path = str(tmp_path / "growing.pack")
        with PackWriter.open(path) as writer:
            writer.add(fleet[0])
        pack_device(path, fleet[0].device_id)  # maps it
        with PackWriter.open(path) as writer:
            writer.add(fleet[1])
        pack = provision._WORKER_PACKS[path]
        refreshes = []
        original = pack.refresh
        monkeypatch.setattr(pack, "refresh", lambda: (refreshes.append(1), original()))
        served = pack_device(path, fleet[1].device_id)
        assert np.array_equal(served.cap0, fleet[1].cap0)
        assert refreshes == [1]
        with pytest.raises(ReproError, match="holds no device"):
            pack_device(path, "absent")
        assert refreshes == [1, 1]  # one re-scan per miss, then the error


class TestShipping:
    def test_close_is_idempotent(self, compiled):
        shipped = ship_compiled(compiled)
        shipped.close()
        shipped.close()
        assert not os.path.exists(shipped.path)

    def test_artifact_without_shm(self, tmp_path):
        # A shipped artifact whose file is already gone closes quietly.
        ShippedArtifact(str(tmp_path / "gone.pack"), "x").close()

    def test_shipped_pack_holds_exactly_the_device(self, compiled):
        from repro.ppuf.pack import ArtifactPack

        shipped = ship_compiled(compiled)
        try:
            if os.access(SCRATCH_DIR, os.W_OK):
                assert os.path.dirname(shipped.path) == SCRATCH_DIR
            pack = ArtifactPack(shipped.path)
            assert pack.ids() == [compiled.device_id] == [shipped.device_id]
        finally:
            shipped.close()

    def test_unkeyed_artifact_ships_under_a_placeholder_id(self, device, probe):
        anonymous = compile_ppuf(device, include_circuit=False, device_id="")
        shipped = ship_compiled(anonymous)
        try:
            served = pack_device(shipped.path, shipped.device_id)
            assert served.response(probe[0]) == device.response(probe[0])
        finally:
            shipped.close()


class TestCache:
    def test_lru_bound_and_recency(self, monkeypatch, fleet, fleet_pack):
        monkeypatch.setattr(provision, "WORKER_DEVICE_CACHE_SIZE", 2)
        a, b, c = (artifact.device_id for artifact in fleet)
        pack_device(fleet_pack, a)
        pack_device(fleet_pack, b)
        pack_device(fleet_pack, a)  # refresh a
        pack_device(fleet_pack, c)  # evicts b
        assert list(provision._WORKER_PACKS[fleet_pack]._cache) == [a, c]

    def test_hit_skips_materialisation(self, fleet, fleet_pack):
        device_id = fleet[0].device_id
        first = pack_device(fleet_pack, device_id)
        assert pack_device(fleet_pack, device_id) is first

    def test_clear_cache_empties_everything(self, fleet, fleet_pack):
        pack_device(fleet_pack, fleet[0].device_id)
        provision.clear_cache()
        assert provision._WORKER_PACKS == {}
