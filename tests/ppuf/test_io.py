"""Persistence error contract and atomic writes."""

import json
import os

import numpy as np
import pytest

from repro.errors import ReproError
from repro.ppuf import CRP, CRPDataset, Ppuf
from repro.ppuf.io import (
    atomic_write_text,
    load_crps,
    load_ppuf,
    save_crps,
    save_ppuf,
)
from repro.ppuf.pack import ArtifactPack, build_pack


@pytest.fixture(scope="module")
def tiny_ppuf():
    return Ppuf.create(6, 2, np.random.default_rng(41))


class TestLoadPpufErrorContract:
    def test_missing_file_raises_repro_error_with_path(self, tmp_path):
        path = str(tmp_path / "nope.json")
        with pytest.raises(ReproError, match="nope.json"):
            load_ppuf(path)

    def test_unparseable_json_raises_repro_error_with_path(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json at all")
        with pytest.raises(ReproError, match="garbage.json"):
            load_ppuf(str(path))

    def test_wrong_schema_still_raises_repro_error(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps({"n": 5}))
        with pytest.raises(ReproError):
            load_ppuf(str(path))


class TestAtomicWrites:
    def test_atomic_write_replaces_content(self, tmp_path):
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, "first")
        atomic_write_text(path, "second")
        with open(path) as handle:
            assert handle.read() == "second"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, "intact")
        monkeypatch.setattr(os, "replace", _boom)
        with pytest.raises(RuntimeError):
            atomic_write_text(path, "lost")
        # old content survives, nothing truncated, no droppings
        with open(path) as handle:
            assert handle.read() == "intact"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_save_ppuf_is_atomic_roundtrip(self, tiny_ppuf, tmp_path, rng):
        path = str(tmp_path / "device.json")
        save_ppuf(tiny_ppuf, path)
        assert os.listdir(tmp_path) == ["device.json"]
        restored = load_ppuf(path)
        challenges = tiny_ppuf.challenge_space().random_batch(4, rng)
        assert np.array_equal(
            restored.response_bits(challenges), tiny_ppuf.response_bits(challenges)
        )

    def test_save_crps_is_atomic_roundtrip(self, tiny_ppuf, tmp_path, rng):
        challenge = tiny_ppuf.challenge_space().random(rng)
        dataset = CRPDataset([CRP(challenge, tiny_ppuf.response(challenge))])
        path = str(tmp_path / "crps.json")
        save_crps(dataset, path)
        assert os.listdir(tmp_path) == ["crps.json"]
        assert len(load_crps(path)) == 1


class TestSaveCompiledDurability:
    """Saving compiled artifacts (a fresh pack) honours the module-wide
    atomic-write contract."""

    def test_crash_between_write_and_replace_keeps_old_artifact(
        self, tiny_ppuf, tmp_path, monkeypatch, rng
    ):
        path = str(tmp_path / "device.pack")
        original = tiny_ppuf.compile(include_circuit=False)
        build_pack(path, [original])
        monkeypatch.setattr(os, "replace", _boom)
        with pytest.raises(RuntimeError):
            build_pack(path, [tiny_ppuf.compile(include_circuit=True)])
        monkeypatch.undo()
        survivor = ArtifactPack(path).device(original.device_id)
        assert not survivor.has_circuit_tables  # the old artifact, intact
        challenges = tiny_ppuf.challenge_space().random_batch(4, rng)
        assert np.array_equal(
            survivor.response_bits(challenges), tiny_ppuf.response_bits(challenges)
        )
        assert os.listdir(tmp_path) == ["device.pack"]  # no temp droppings

    def test_temp_file_is_fsynced_before_publish(
        self, tiny_ppuf, tmp_path, monkeypatch
    ):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))
        )
        build_pack(
            str(tmp_path / "d.pack"), [tiny_ppuf.compile(include_circuit=False)]
        )
        assert synced  # durability: content reaches disk before the rename

    def test_published_mode_respects_umask(self, tiny_ppuf, tmp_path):
        # mkstemp's 0600 must not leak through to the published artifact.
        previous = os.umask(0o022)
        try:
            path = str(tmp_path / "d.pack")
            build_pack(path, [tiny_ppuf.compile(include_circuit=False)])
            assert os.stat(path).st_mode & 0o777 == 0o644
            text_path = str(tmp_path / "d.json")
            atomic_write_text(text_path, "{}")
            assert os.stat(text_path).st_mode & 0o777 == 0o644
        finally:
            os.umask(previous)


def _boom(src, dst):
    raise RuntimeError("simulated crash at replace time")
