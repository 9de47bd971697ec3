"""Timing instrumentation and the SolveStats telemetry spine."""

import numpy as np
import pytest

from repro.flow import (
    SolveStats,
    get_solver,
    random_complete_network,
    time_solver,
)


class TestSolveStats:
    def test_count_accumulates(self):
        stats = SolveStats()
        stats.count("pushes", 3)
        stats.count("relabels")
        stats.merge(SolveStats(counters={"pushes": 2, "gap_events": 5}))
        assert stats.counters == {"pushes": 5, "relabels": 1, "gap_events": 5}
        assert stats.operations == 11

    def test_empty_stats(self):
        stats = SolveStats()
        assert stats.operations == 0
        assert stats.total_seconds == 0.0
        assert stats.phase_total() == 0.0

    def test_phase_records_elapsed(self):
        stats = SolveStats()
        with stats.phase("prepare"):
            pass
        with stats.phase("prepare"):
            pass
        with stats.phase("solve"):
            pass
        assert set(stats.phase_seconds) == {"prepare", "solve"}
        assert all(seconds >= 0 for seconds in stats.phase_seconds.values())
        assert stats.phase_total() == pytest.approx(
            sum(stats.phase_seconds.values())
        )

    def test_merge_combines_and_flags_mixed_algorithms(self):
        left = SolveStats(algorithm="dinic", solves=2, total_seconds=1.0)
        left.count("augmentations", 4)
        right = SolveStats(algorithm="push_relabel", solves=1, total_seconds=0.5)
        right.count("pushes", 7)
        left.merge(right)
        assert left.algorithm == "mixed"
        assert left.solves == 3
        assert left.total_seconds == pytest.approx(1.5)
        assert left.counters == {"augmentations": 4, "pushes": 7}

    def test_snapshot_roundtrips_fields(self):
        stats = SolveStats(algorithm="dinic", solves=1, total_seconds=0.25)
        stats.count("augmentations", 2)
        payload = stats.snapshot()
        assert payload == {
            "algorithm": "dinic",
            "solves": 1,
            "total_seconds": 0.25,
            "phase_seconds": {},
            "counters": {"augmentations": 2},
        }
        assert SolveStats(**payload) == stats
        # The snapshot is a copy, not a view of the record.
        payload["counters"]["augmentations"] = 99
        assert stats.counters == {"augmentations": 2}


class TestTimeSolver:
    def test_collects_samples_per_size(self):
        rng = np.random.default_rng(0)

        def make(n):
            return random_complete_network(n, rng)

        samples = time_solver("dinic", make, sizes=(4, 8), repeats=2)
        assert [s.n for s in samples] == [4, 8]
        for sample in samples:
            assert len(sample.seconds) == 2
            assert all(t >= 0 for t in sample.seconds)
            assert all(ops > 0 for ops in sample.operations)
            assert sample.mean_seconds >= 0
            assert sample.mean_operations > 0

    def test_accepts_registry_names_and_specs(self):
        rng = np.random.default_rng(2)

        def make(n):
            return random_complete_network(n, rng)

        by_name = time_solver("dinic", make, sizes=(4,), repeats=1)
        by_spec = time_solver(get_solver("dinic"), make, sizes=(4,), repeats=1)
        assert by_name[0].n == by_spec[0].n == 4
        assert by_name[0].mean_operations > 0
        assert by_spec[0].mean_operations > 0

    def test_operations_grow_with_size(self):
        rng = np.random.default_rng(1)

        def make(n):
            return random_complete_network(n, rng)

        samples = time_solver("dinic", make, sizes=(4, 16), repeats=2)
        assert samples[1].mean_operations > samples[0].mean_operations
