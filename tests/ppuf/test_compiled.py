"""CompiledDevice unit contract: immutability, transports, formats.

Covers what the conformance suite does not: pickle payload weights (the
lazy caches must never ride along), the shipped tmpfs pack (workers map
the tables, they do not copy them), the versioned-format error contract
and the pack round trip.
"""

import json
import pickle

import numpy as np
import pytest

from repro.errors import ReproError
from repro.ppuf import CRPDataset, Ppuf
from repro.ppuf.compiled import CompiledDevice, NetworkModel
from repro.ppuf.formats import FORMAT_VERSION
from repro.ppuf.io import load_crps, load_ppuf, ppuf_from_dict, ppuf_to_dict
from repro.ppuf.pack import PACK_MAGIC, ArtifactPack, build_pack
from repro.runtime import provision
from repro.runtime.provision import pack_device, ship_compiled


@pytest.fixture(scope="module")
def tiny_ppuf():
    return Ppuf.create(6, 2, np.random.default_rng(51))


@pytest.fixture(scope="module")
def compiled(tiny_ppuf):
    return tiny_ppuf.compile()


@pytest.fixture(scope="module")
def capacity_only(tiny_ppuf):
    return tiny_ppuf.compile(include_circuit=False)


def challenges_for(ppuf, count, seed=9):
    return ppuf.challenge_space().random_batch(count, np.random.default_rng(seed))


class TestArtifactInvariants:
    def test_arrays_are_frozen(self, compiled):
        for name in ("cap0", "cap1", "edge_src", "edge_dst", "v_grid"):
            with pytest.raises(ValueError):
                getattr(compiled, name)[0] = 0

    def test_device_id_is_content_derived(self, tiny_ppuf, compiled):
        from repro.service.registry import device_id_for

        assert compiled.device_id == device_id_for(ppuf_to_dict(tiny_ppuf))

    def test_capacity_only_circuit_engine_raises(self, capacity_only, tiny_ppuf):
        challenge = challenges_for(tiny_ppuf, 1)[0]
        assert not capacity_only.has_circuit_tables
        with pytest.raises(ReproError, match="include_circuit=False"):
            capacity_only.response(challenge, engine="circuit")

    def test_partial_circuit_arrays_rejected(self, capacity_only):
        with pytest.raises(ReproError, match="all five"):
            CompiledDevice(
                n=capacity_only.n,
                l=capacity_only.l,
                cap0=capacity_only.cap0,
                cap1=capacity_only.cap1,
                v_grid=np.linspace(0.0, 1.0, 4),
            )

    def test_missing_array_entry_raises(self, compiled):
        arrays = compiled.to_arrays()
        del arrays["cap1"]
        with pytest.raises(ReproError, match="missing entry 'cap1'"):
            CompiledDevice.from_arrays(compiled.header(), arrays)


#: The evaluation spine: defined once on the shared bases, inherited as-is
#: by the live device and the compiled artifact.
DEVICE_SPINE = (
    "n", "l", "network", "challenge_space", "currents", "response",
    "response_bits", "responses", "_check_challenge",
)
NETWORK_SPINE = (
    "capacities", "capacity_matrix", "flow_network", "maxflow_current",
    "edge_table", "circuit_current", "dc_solution",
)


class TestOneSpine:
    @pytest.mark.parametrize("name", DEVICE_SPINE)
    def test_device_method_is_defined_once(self, name):
        assert getattr(Ppuf, name) is getattr(CompiledDevice, name)

    @pytest.mark.parametrize("name", NETWORK_SPINE)
    def test_network_method_is_defined_once(self, name, tiny_ppuf, compiled):
        # One network class: both device kinds hold NetworkModel views.
        for device in (tiny_ppuf, compiled):
            for network in (device.network_a, device.network_b):
                assert type(network) is NetworkModel
                assert network.device is device
                assert getattr(type(network), name) is getattr(NetworkModel, name)

    def test_artifact_compiles_to_itself(self, compiled, capacity_only):
        assert compiled.compile() is compiled
        assert capacity_only.compile(include_circuit=False) is capacity_only
        with pytest.raises(ReproError, match="include_circuit=False"):
            capacity_only.compile()

    def test_device_id_and_network_lookup(self, tiny_ppuf, compiled):
        assert tiny_ppuf.device_id == compiled.device_id
        for device in (tiny_ppuf, compiled):
            assert device.network("a") is device.network_a
            assert device.network("b") is device.network_b
            assert device.network(1) is device.network_b
            with pytest.raises(ReproError, match="unknown network"):
                device.network("c")


class TestPicklePayloads:
    def test_network_pickle_drops_lazy_caches(self):
        # Warm every derived table (capacities and I-V tables), then check
        # the wire weight: the tables never travel, so a warmed device
        # pickles to exactly its cold size, and so does a network view.
        device = Ppuf.create(6, 2, np.random.default_rng(51))
        cold = len(pickle.dumps(device))
        cold_network = len(pickle.dumps(device.network_a))
        device.compile(include_circuit=True)
        assert len(pickle.dumps(device)) == cold
        payload = pickle.dumps(device.network_a)
        assert len(payload) == cold_network < 100_000
        clone = pickle.loads(payload)
        challenge = challenges_for(device, 1)[0]
        edge_bits = device.crossbar.bits_for_edges(challenge.bits)
        assert np.array_equal(
            clone.capacities(edge_bits), device.network_a.capacities(edge_bits)
        )

    def test_capacity_artifact_pickles_in_kilobytes(self, capacity_only):
        # Index arrays are functions of (n, l); they must not ship.
        assert len(pickle.dumps(capacity_only)) < 20_000

    def test_artifact_pickle_roundtrip_is_bit_identical(
        self, tiny_ppuf, capacity_only
    ):
        clone = pickle.loads(pickle.dumps(capacity_only))
        challenges = challenges_for(tiny_ppuf, 16)
        assert np.array_equal(
            clone.response_bits(challenges), capacity_only.response_bits(challenges)
        )
        assert np.array_equal(clone.edge_src, capacity_only.edge_src)
        assert np.array_equal(clone.edge_cells, capacity_only.edge_cells)


class TestSharedMemory:
    """The shipped pack is shared memory: a tmpfs file every worker maps."""

    def test_attached_arrays_map_the_block(self, capacity_only):
        shipped = ship_compiled(capacity_only)
        try:
            attached = pack_device(shipped.path, shipped.device_id)
            block = provision._WORKER_PACKS[shipped.path]._data
            # Mapped, not copied: the attached tables alias the mapping.
            assert np.shares_memory(attached.cap0, block)
            assert np.shares_memory(attached.cap1, block)
            assert np.array_equal(attached.cap0, capacity_only.cap0)
        finally:
            provision.clear_cache()
            shipped.close()

    def test_attached_device_answers_identically(self, tiny_ppuf, capacity_only):
        shipped = ship_compiled(capacity_only)
        try:
            attached = pack_device(shipped.path, shipped.device_id)
            challenges = challenges_for(tiny_ppuf, 16, seed=10)
            assert np.array_equal(
                attached.response_bits(challenges),
                capacity_only.response_bits(challenges),
            )
        finally:
            provision.clear_cache()
            shipped.close()


class TestRoundTrips:
    def test_dict_roundtrip_bit_identical_both_engines(self, tiny_ppuf):
        restored = ppuf_from_dict(ppuf_to_dict(tiny_ppuf))
        challenges = challenges_for(tiny_ppuf, 12, seed=11)
        for engine in ("maxflow", "circuit"):
            assert np.array_equal(
                restored.response_bits(challenges, engine=engine),
                tiny_ppuf.response_bits(challenges, engine=engine),
            )

    def test_pack_roundtrip_bit_identical_both_engines(
        self, tiny_ppuf, compiled, tmp_path
    ):
        path = str(tmp_path / "device.pack")
        build_pack(path, [compiled])
        restored = ArtifactPack(path).device(compiled.device_id)
        assert restored.device_id == compiled.device_id
        challenges = challenges_for(tiny_ppuf, 12, seed=12)
        for engine in ("maxflow", "circuit"):
            assert np.array_equal(
                restored.response_bits(challenges, engine=engine),
                compiled.response_bits(challenges, engine=engine),
            )


class TestFormatVersioning:
    def test_dicts_carry_the_format_field(self, tiny_ppuf, compiled):
        assert ppuf_to_dict(tiny_ppuf)["format"] == FORMAT_VERSION
        assert compiled.header()["format"] == FORMAT_VERSION
        assert json.loads(CRPDataset([]).to_json())["format"] == FORMAT_VERSION

    def test_legacy_unversioned_inputs_still_load(self, tiny_ppuf):
        legacy = ppuf_to_dict(tiny_ppuf)
        del legacy["format"]
        restored = ppuf_from_dict(legacy)
        assert restored.n == tiny_ppuf.n
        assert len(CRPDataset.from_json("[]")) == 0

    def test_ppuf_format_mismatch_names_path_and_version(self, tiny_ppuf, tmp_path):
        data = ppuf_to_dict(tiny_ppuf)
        data["format"] = 99
        path = tmp_path / "future.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ReproError, match="future.json.*99"):
            load_ppuf(str(path))

    def test_crp_format_mismatch_names_path_and_version(self, tmp_path):
        path = tmp_path / "future-crps.json"
        path.write_text(json.dumps({"format": 99, "crps": []}))
        with pytest.raises(ReproError, match="future-crps.json.*99"):
            load_crps(str(path))

    def test_compiled_format_mismatch_names_path_and_version(
        self, compiled, tmp_path
    ):
        path = tmp_path / "future.pack"
        build_pack(str(path), [compiled])
        data = bytearray(path.read_bytes())
        data[len(PACK_MAGIC):len(PACK_MAGIC) + 4] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(ReproError, match="future.pack.*99"):
            ArtifactPack(str(path))

    def test_compiled_garbage_file_names_path(self, tmp_path):
        path = tmp_path / "noise.pack"
        path.write_bytes(b"this is not an artifact pack")
        with pytest.raises(ReproError, match="noise.pack"):
            ArtifactPack(str(path))

    def test_compiled_missing_header_names_path(self, tmp_path):
        path = tmp_path / "headless.pack"
        path.write_bytes(b"PPUF")
        with pytest.raises(ReproError, match="headless.pack.*header"):
            ArtifactPack(str(path))
