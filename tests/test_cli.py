"""Command-line interface and PPUF persistence."""

import json

import numpy as np
import pytest

from repro.cli import (
    load_crps,
    load_ppuf,
    main,
    ppuf_from_dict,
    ppuf_to_dict,
    save_ppuf,
)
from repro.errors import ReproError
from repro.ppuf import Ppuf


class TestPersistence:
    def test_roundtrip_preserves_responses(self, tmp_path, rng):
        ppuf = Ppuf.create(10, 3, rng)
        path = tmp_path / "device.json"
        save_ppuf(ppuf, str(path))
        restored = load_ppuf(str(path))
        challenges = ppuf.challenge_space().random_batch(10, rng)
        assert np.array_equal(
            ppuf.response_bits(challenges), restored.response_bits(challenges)
        )

    def test_roundtrip_preserves_variation(self, rng):
        ppuf = Ppuf.create(6, 2, rng)
        restored = ppuf_from_dict(ppuf_to_dict(ppuf))
        assert np.allclose(
            restored.network_a.sample.delta_vt, ppuf.network_a.sample.delta_vt
        )
        assert np.allclose(
            restored.network_b.sample.systematic, ppuf.network_b.sample.systematic
        )

    def test_malformed_save_rejected(self):
        with pytest.raises(ReproError):
            ppuf_from_dict({"n": 5})


class TestCommands:
    def test_create_then_respond(self, tmp_path, capsys):
        path = tmp_path / "device.json"
        assert main(["create", "--nodes", "8", "--grid", "2", "--output", str(path)]) == 0
        assert main(["respond", "--ppuf", str(path), "--count", "3"]) == 0
        lines = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("{")
        ]
        assert len(lines) == 3
        for line in lines:
            record = json.loads(line)
            assert record["response"] in (0, 1)

    def test_respond_is_deterministic_across_processes(self, tmp_path, capsys):
        path = tmp_path / "device.json"
        main(["create", "--nodes", "8", "--grid", "2", "--output", str(path)])
        capsys.readouterr()
        main(["respond", "--ppuf", str(path), "--count", "4", "--seed", "3"])
        first = capsys.readouterr().out
        main(["respond", "--ppuf", str(path), "--count", "4", "--seed", "3"])
        second = capsys.readouterr().out
        assert first == second

    def test_respond_batch_matches_sequential_output(self, tmp_path, capsys):
        path = tmp_path / "device.json"
        main(["create", "--nodes", "8", "--grid", "2", "--output", str(path)])
        capsys.readouterr()
        main(["respond", "--ppuf", str(path), "--count", "6", "--seed", "11"])
        sequential = capsys.readouterr().out
        main(
            ["respond", "--ppuf", str(path), "--count", "6", "--seed", "11", "--batch"]
        )
        batched = capsys.readouterr().out
        assert batched == sequential

    def test_respond_batch_crp_roundtrip(self, tmp_path, capsys):
        device = tmp_path / "device.json"
        first_file = tmp_path / "crps.json"
        second_file = tmp_path / "again.json"
        main(["create", "--nodes", "8", "--grid", "2", "--output", str(device)])
        assert (
            main(
                [
                    "respond", "--ppuf", str(device), "--count", "5",
                    "--batch", "--output", str(first_file),
                ]
            )
            == 0
        )
        # Re-evaluate the saved challenges through the multi-process path.
        assert (
            main(
                [
                    "respond", "--ppuf", str(device), "--input", str(first_file),
                    "--batch", "--workers", "2", "--output", str(second_file),
                ]
            )
            == 0
        )
        first = load_crps(str(first_file))
        second = load_crps(str(second_file))
        assert [crp.challenge.key() for crp in first] == [
            crp.challenge.key() for crp in second
        ]
        assert [crp.response for crp in first] == [crp.response for crp in second]

    def test_malformed_crp_input_rejected(self, tmp_path, capsys):
        device = tmp_path / "device.json"
        main(["create", "--nodes", "8", "--grid", "2", "--output", str(device)])
        bad = tmp_path / "bad.json"
        bad.write_text('{"nope": 1}')
        assert main(["respond", "--ppuf", str(device), "--input", str(bad)]) == 2
        assert "malformed CRP file" in capsys.readouterr().err

    def test_protocol_accepts_self(self, tmp_path, capsys):
        path = tmp_path / "device.json"
        main(["create", "--nodes", "8", "--grid", "2", "--output", str(path)])
        assert main(["protocol", "--ppuf", str(path), "--rounds", "2"]) == 0
        assert "ACCEPTED" in capsys.readouterr().out

    def test_protocol_with_registry_algorithm(self, tmp_path, capsys):
        path = tmp_path / "device.json"
        main(["create", "--nodes", "8", "--grid", "2", "--output", str(path)])
        assert (
            main(
                [
                    "protocol", "--ppuf", str(path), "--rounds", "2",
                    "--algorithm", "push_relabel",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "algorithm=push_relabel" in out
        assert "ACCEPTED" in out

    def test_respond_algorithm_selects_solver(self, tmp_path, capsys):
        path = tmp_path / "device.json"
        main(["create", "--nodes", "8", "--grid", "2", "--output", str(path)])
        capsys.readouterr()
        main(["respond", "--ppuf", str(path), "--count", "4", "--seed", "3"])
        default = capsys.readouterr()
        main(
            [
                "respond", "--ppuf", str(path), "--count", "4", "--seed", "3",
                "--algorithm", "highest_label",
            ]
        )
        other = capsys.readouterr()
        assert default.out == other.out  # same bits whatever the solver
        assert '"algorithm": "highest_label"' in other.err

    def test_solvers_lists_registry(self, capsys):
        assert main(["solvers"]) == 0
        out = capsys.readouterr().out
        for name in (
            "approx", "batched_dinic", "capacity_scaling", "dinic",
            "edmonds_karp", "highest_label", "push_relabel",
        ):
            assert name in out
        assert "complexity" in out

    def test_solvers_json_capabilities(self, capsys):
        assert main(["solvers", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) >= 6
        by_name = {entry["name"]: entry for entry in payload}
        assert by_name["batched_dinic"]["supports_batch"] is True
        assert by_name["batched_dinic"]["tensor"] == "edge"
        assert "batched" not in by_name
        assert by_name["approx"]["kind"] == "approx"
