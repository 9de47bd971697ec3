"""Self-test of the benchmark (not collected by the tier-1 suite).

Run it explicitly from the repository root::

    python3 -m pytest benchmarks/suite/test_suite.py -q

It runs every workload in ``--smoke`` mode (about 2 s of load each) and
checks what the benchmark promises: every ``BENCHMARK.json`` metric is
emitted with its unit, span trees are well formed, a hostile session
that gets accepted fails the run, and the comparison verdicts follow
the bounds.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

SUITE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(SUITE))
sys.path.insert(0, os.path.join(ROOT, "src"))

import generator  # noqa: E402
import run  # noqa: E402

RUN = [sys.executable, os.path.join(SUITE, "run.py")]


def benchmark_file() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One traced smoke run of every workload."""
    out = tmp_path_factory.mktemp("smoke")
    completed = subprocess.run(
        RUN + ["--smoke", "--trace", "--out", str(out / "smoke.json"),
               "--trace-dir", str(out)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return out, completed.stdout


def test_every_benchmark_metric_is_emitted(smoke):
    out, stdout = smoke
    assert run.validate(str(out / "smoke.json"), benchmark_file()) == []
    summary = json.loads(stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True and summary["attempted"] >= 1
    spec = benchmark_file()
    for workload in spec["workloads"]:
        for entry in spec["per_layer"]:
            key = f"{workload['name']}/{entry['name']}"
            assert summary["metrics"][key]["unit"] == entry["unit"]
        for entry in spec["end_to_end"] + spec["per_layer"]:
            assert f"{workload['name']} {entry['name']} " in stdout


def test_span_trees_are_well_formed(smoke):
    out, _ = smoke
    traces = sorted(name for name in os.listdir(out) if name.startswith("trace-"))
    assert traces == [
        "trace-auth_direct.json", "trace-auth_fleet.json", "trace-auth_rounds.json"
    ]
    for name in traces:
        with open(out / name) as handle:
            sessions = json.load(handle)["sessions"]
        assert sessions
        for session in sessions:
            spans = session["spans"]
            ids = {span["id"] for span in spans}
            assert len(ids) == len(spans)
            roots = [span for span in spans if span["parent"] is None]
            assert [root["name"] for root in roots] == ["session"]
            assert all(span["parent"] in ids for span in spans if span is not roots[0])
            own = generator.self_times(spans)
            assert min(own.values()) >= -1e-9
            duration = roots[0]["end_ms"] - roots[0]["start_ms"]
            assert sum(own.values()) == pytest.approx(duration, abs=1e-6)


def test_hostile_accept_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(generator, "HOSTILE_FACTOR", 1.0)  # hostile = honest
    code = run.main(["--smoke", "--workload", "auth_direct", "--seed", "3"])
    stdout = capsys.readouterr().out
    summary = json.loads(stdout.strip().splitlines()[-1])
    assert code == 1
    assert summary["correct"] is False
    assert "PROBLEM hostile session accepted" in stdout


def test_smoke_run_is_never_a_baseline(tmp_path):
    completed = subprocess.run(
        RUN + ["--smoke", "--workload", "auth_direct",
               "--out", str(tmp_path / "baseline-x.json")],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert completed.returncode != 0
    assert not (tmp_path / "baseline-x.json").exists()


def _result(values: dict) -> dict:
    return {
        "schema": run.SCHEMA, "env": {}, "smoke": False, "seed": 0, "trace": False,
        "workloads": {"auth_direct": {"metrics": {
            name: {"value": value, "unit": "ms", "n": 1}
            for name, value in values.items()
        }}},
    }


def test_compare_verdicts(tmp_path, capsys):
    spec = {
        "workloads": [{"name": "auth_direct"}],
        "end_to_end": [
            {"name": "steady", "better": "lower", "bound": 0.1},
            {"name": "slower", "better": "lower", "bound": 0.1},
            {"name": "noisy", "better": "higher", "bound": 0.1},
        ],
    }
    paths = {}
    for side, runs in {
        "a": [(10.0, 10.0, 10.0), (10.1, 10.1, 14.0), (9.9, 9.9, 7.0)],
        "b": [(10.2, 12.0, 10.0), (10.1, 12.1, 13.0), (10.0, 11.9, 8.0)],
    }.items():
        paths[side] = []
        for index, (steady, slower, noisy) in enumerate(runs):
            path = tmp_path / f"{side}{index}.json"
            path.write_text(json.dumps(
                _result({"steady": steady, "slower": slower, "noisy": noisy})
            ))
            paths[side].append(str(path))
    assert run.compare(paths["a"], paths["b"], spec) == 1
    verdicts = {
        line.split()[1]: line.split()[-1]
        for line in capsys.readouterr().out.splitlines()[1:]
    }
    assert verdicts == {"steady": "ok", "slower": "regressed", "noisy": "unresolved"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(SUITE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", "auth_direct",
         "--seed", "1", "--seconds", "12", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
