"""Packed artifact fleets: round-trip, append protocol, conformance.

The pack is the one artifact container (format 2): one mmap'd file must
serve every device bit-exactly — against the live device and through the
batch pipeline — while holding O(1) file descriptors and surviving
interrupted appends.
"""

import json
import os

import numpy as np
import pytest

from repro.errors import ReproError
from repro.ppuf import BatchEvaluator, Ppuf
from repro.ppuf.pack import (
    PACK_MAGIC,
    ArtifactPack,
    PackWriter,
    append_pack,
    build_pack,
)
from repro.ppuf.verification import PpufProver, PpufVerifier

FLEET = 5


@pytest.fixture(scope="module")
def fleet():
    rng = np.random.default_rng(77)
    return [Ppuf.create(6, 2, rng) for _ in range(FLEET)]


@pytest.fixture(scope="module")
def compiled_fleet(fleet):
    return [device.compile(include_circuit=False) for device in fleet]


@pytest.fixture()
def pack_path(tmp_path, compiled_fleet):
    path = str(tmp_path / "fleet.pack")
    assert build_pack(path, compiled_fleet) == FLEET
    return path


class TestRoundTrip:
    def test_every_device_reads_back_bit_exact(self, pack_path, fleet, compiled_fleet, rng):
        pack = ArtifactPack(pack_path)
        assert len(pack) == FLEET
        assert sorted(c.device_id for c in compiled_fleet) == pack.ids()
        for device, compiled in zip(fleet, compiled_fleet):
            served = pack.device(compiled.device_id)
            assert served.device_id == compiled.device_id
            challenges = device.challenge_space().random_batch(6, rng)
            assert np.array_equal(
                served.response_bits(challenges), device.response_bits(challenges)
            )

    def test_rows_are_mmap_views_not_copies(self, pack_path, compiled_fleet):
        pack = ArtifactPack(pack_path)
        device = pack.device(compiled_fleet[0].device_id)
        assert np.shares_memory(device.cap0, pack._data)
        assert np.shares_memory(device.cap1, pack._data)
        assert not device.cap0.flags.writeable

    def test_open_pack_holds_o1_descriptors(self, pack_path, compiled_fleet):
        # np.memmap releases its descriptor after mapping: opening the pack
        # and serving every device must not scale the FD table with the
        # fleet (the per-device-npz design opens one file per device).
        before = len(os.listdir("/proc/self/fd"))
        pack = ArtifactPack(pack_path)
        devices = [pack.device(device_id) for device_id in pack.ids()]
        after = len(os.listdir("/proc/self/fd"))
        assert after - before <= 1
        assert len(devices) == FLEET

    def test_header_and_stats_surfaces(self, pack_path, compiled_fleet):
        pack = ArtifactPack(pack_path)
        header = pack.header(compiled_fleet[0].device_id)
        assert header["n"] == 6 and header["l"] == 2
        stats = pack.stats()
        assert stats["devices"] == FLEET
        assert stats["format"] == 2
        assert stats["file_bytes"] == os.path.getsize(pack_path)

    def test_unknown_device_raises_with_path(self, pack_path):
        with pytest.raises(ReproError, match="fleet.pack"):
            ArtifactPack(pack_path).device("deadbeef")

    def test_circuit_tables_round_trip(self, tmp_path, fleet, rng):
        path = str(tmp_path / "circuit.pack")
        compiled = fleet[0].compile(include_circuit=True)
        build_pack(path, [compiled])
        served = ArtifactPack(path).device(compiled.device_id)
        assert served.has_circuit_tables
        challenge = fleet[0].challenge_space().random(rng)
        assert served.response(challenge, engine="circuit") == fleet[0].response(
            challenge, engine="circuit"
        )


class TestAppendProtocol:
    def test_append_never_rewrites_existing_bytes(self, tmp_path, compiled_fleet):
        path = str(tmp_path / "grow.pack")
        build_pack(path, compiled_fleet[:2])
        with open(path, "rb") as handle:
            before = handle.read()
        assert append_pack(path, compiled_fleet[2:]) == FLEET - 2
        with open(path, "rb") as handle:
            after = handle.read(len(before))
        assert after == before
        assert len(ArtifactPack(path)) == FLEET

    def test_reappended_device_supersedes(self, tmp_path, compiled_fleet):
        path = str(tmp_path / "dup.pack")
        build_pack(path, compiled_fleet[:1])
        size = os.path.getsize(path)
        append_pack(path, compiled_fleet[:1])
        pack = ArtifactPack(path)
        assert len(pack) == 1  # one id, last record wins
        assert os.path.getsize(path) > size  # append-only: nothing rewritten

    def test_truncated_tail_is_skipped_with_warning(self, pack_path, caplog):
        with open(pack_path, "ab") as handle:
            handle.write(b"\x13" * 9)  # an interrupted append's footprint
        with caplog.at_level("WARNING"):
            pack = ArtifactPack(pack_path)
        assert len(pack) == FLEET
        assert any("truncated" in record.message for record in caplog.records)

    def test_partial_record_is_skipped(self, pack_path, compiled_fleet, caplog):
        # Cut the last record mid-data: the scan must keep everything
        # before it and drop only the partial row.
        full = ArtifactPack(pack_path)
        last_id = max(full._index, key=lambda i: full._index[i].data_start)
        entry = full._index[last_id]
        with open(pack_path, "rb+") as handle:
            handle.truncate(entry.data_start + entry.data_bytes // 2)
        with caplog.at_level("WARNING"):
            pack = ArtifactPack(pack_path)
        assert len(pack) == FLEET - 1
        assert last_id not in pack

    def test_open_truncates_interrupted_append_then_extends(
        self, pack_path, compiled_fleet
    ):
        with open(pack_path, "ab") as handle:
            handle.write(b"half a record")
        with PackWriter.open(pack_path) as writer:
            writer.add(compiled_fleet[0])
        pack = ArtifactPack(pack_path)
        assert len(pack) == FLEET  # garbage gone, re-append superseded

    def test_create_is_atomic(self, tmp_path, compiled_fleet):
        path = str(tmp_path / "atomic.pack")

        class Boom(RuntimeError):
            pass

        def explode():
            with PackWriter.create(path) as writer:
                writer.add(compiled_fleet[0])
                raise Boom()

        with pytest.raises(Boom):
            explode()
        assert not os.path.exists(path)  # aborted stage never published
        assert [n for n in os.listdir(tmp_path) if n.startswith("atomic")] == []

    def test_refresh_sees_flushed_appends_to_a_live_mapping(
        self, tmp_path, compiled_fleet
    ):
        path = str(tmp_path / "live.pack")
        open(path, "wb").close()  # a reserved, empty file gets a header
        with PackWriter.open(path) as writer:
            writer.add(compiled_fleet[0])
        reader = ArtifactPack(path)
        first = reader.device(compiled_fleet[0].device_id)
        with PackWriter.open(path) as writer:
            writer.add(compiled_fleet[1])
        assert compiled_fleet[1].device_id not in reader
        reader.refresh()
        assert compiled_fleet[1].device_id in reader
        assert np.array_equal(
            reader.device(compiled_fleet[1].device_id).cap0,
            compiled_fleet[1].cap0,
        )
        assert np.array_equal(first.cap1, compiled_fleet[0].cap1)

    def test_open_blocks_while_another_writer_holds_the_pack(
        self, tmp_path, compiled_fleet
    ):
        # Two writers (two fleet shards, or a shard and `repro pack
        # append`) take turns: the second open waits for the first close,
        # then scans and extends the first writer's records rather than
        # truncating them as a torn tail.  The path starts missing, so the
        # second open must not truncate the file the first one created.
        import threading

        path = str(tmp_path / "locked.pack")
        first = PackWriter.open(path)
        first.add(compiled_fleet[0])
        opened = threading.Event()
        seen = []

        def second_writer():
            with PackWriter.open(path) as writer:
                opened.set()
                seen.extend(c.device_id in writer for c in compiled_fleet[:2])
                writer.add(compiled_fleet[1])

        thread = threading.Thread(target=second_writer)
        thread.start()
        try:
            assert not opened.wait(0.5)
        finally:
            first.close()
        thread.join(timeout=10)
        assert opened.is_set() and not thread.is_alive()
        assert seen == [True, False]
        pack = ArtifactPack(path)
        assert pack.ids() == sorted(c.device_id for c in compiled_fleet[:2])
        assert os.path.getsize(path) == pack.stats()["data_end"]

    def test_scratch_path_is_a_fresh_empty_file(self):
        from repro.ppuf.pack import scratch_pack_path

        first, second = scratch_pack_path("t-"), scratch_pack_path("t-")
        try:
            assert first != second
            assert os.path.getsize(first) == 0
        finally:
            os.unlink(first)
            os.unlink(second)


class TestFormatErrors:
    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.pack"
        path.write_bytes(b"NOTAPACK" + b"\0" * 8)
        with pytest.raises(ReproError, match="bad magic"):
            ArtifactPack(str(path))

    def test_wrong_version_rejected_by_name(self, pack_path):
        with open(pack_path, "rb+") as handle:
            handle.seek(len(PACK_MAGIC))
            handle.write((99).to_bytes(4, "little"))
        with pytest.raises(ReproError, match="format 99"):
            ArtifactPack(pack_path)

    def test_short_file_rejected(self, tmp_path):
        path = tmp_path / "short.pack"
        path.write_bytes(b"PP")
        with pytest.raises(ReproError, match="too short"):
            ArtifactPack(str(path))

    def test_missing_file_raises_repro_error(self, tmp_path):
        with pytest.raises(ReproError, match="nope.pack"):
            ArtifactPack(str(tmp_path / "nope.pack"))

    def test_unkeyed_artifact_rejected(self, tmp_path, fleet):
        from repro.ppuf.compiled import compile_ppuf

        anonymous = compile_ppuf(fleet[0], include_circuit=False, device_id="")
        with pytest.raises(ReproError, match="no device id"):
            build_pack(str(tmp_path / "x.pack"), [anonymous])


class TestConformance:
    """Pack slice vs in-memory artifact vs live device: one truth."""

    def test_pack_live_agree_on_responses(
        self, pack_path, fleet, compiled_fleet, rng
    ):
        pack = ArtifactPack(pack_path)
        for device, compiled in zip(fleet[:3], compiled_fleet[:3]):
            from_pack = pack.device(compiled.device_id)
            challenges = device.challenge_space().random_batch(8, rng)
            live = device.response_bits(challenges)
            assert np.array_equal(compiled.response_bits(challenges), live)
            assert np.array_equal(from_pack.response_bits(challenges), live)

    def test_claim_verification_off_pack_slice(self, pack_path, fleet, compiled_fleet, rng):
        device, compiled = fleet[0], compiled_fleet[0]
        challenge = device.challenge_space().random(rng)
        claim = PpufProver(device.network_a).answer_compact(challenge)
        served = ArtifactPack(pack_path).device(compiled.device_id)
        assert PpufVerifier(served.network_a).verify_compact(claim)

    def test_batch_evaluator_accepts_pack_backed_device(
        self, pack_path, fleet, compiled_fleet, rng
    ):
        device, compiled = fleet[1], compiled_fleet[1]
        served = ArtifactPack(pack_path).device(compiled.device_id)
        challenges = device.challenge_space().random_batch(12, rng)
        inline, _ = BatchEvaluator(device).evaluate(challenges)
        packed, report = BatchEvaluator(served, chunk_size=4).evaluate(challenges)
        assert np.array_equal(packed, inline)
        assert report.challenges == 12

    def test_batch_fanout_from_pack_backed_device(
        self, pack_path, fleet, compiled_fleet, rng
    ):
        # Multi-process path: the pack-backed views are shipped to the pool
        # as a temporary single-device pack — workers must answer identically.
        device, compiled = fleet[2], compiled_fleet[2]
        served = ArtifactPack(pack_path).device(compiled.device_id)
        challenges = device.challenge_space().random_batch(8, rng)
        inline = device.response_bits(challenges)
        bits, _ = BatchEvaluator(served, workers=2, chunk_size=4).evaluate(challenges)
        assert np.array_equal(bits, inline)


class TestCliPack:
    def test_build_inspect_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        out = str(tmp_path / "cli.pack")
        assert main([
            "pack", "build", "--output", out,
            "--create", "2", "--nodes", "6", "--grid", "2", "--seed", "3",
        ]) == 0
        assert main(["pack", "inspect", out, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["devices"] == 2
        assert report["format"] == 2
        assert len(report["ids"]) == 2

    def test_append_from_saved_ppuf(self, tmp_path, capsys):
        from repro.cli import main

        out = str(tmp_path / "cli.pack")
        device_json = str(tmp_path / "dev.json")
        assert main([
            "pack", "build", "--output", out,
            "--create", "1", "--nodes", "6", "--grid", "2", "--seed", "4",
        ]) == 0
        assert main([
            "create", "--nodes", "6", "--grid", "2", "--seed", "5",
            "--output", device_json,
        ]) == 0
        assert main(["pack", "append", "--output", out, "--ppuf", device_json]) == 0
        capsys.readouterr()
        assert main(["pack", "inspect", out, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["devices"] == 2

    def test_empty_build_is_an_error(self, tmp_path):
        from repro.cli import main

        assert main(["pack", "build", "--output", str(tmp_path / "x.pack")]) == 2
