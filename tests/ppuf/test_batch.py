"""The batched CRP pipeline: equivalence with the sequential path.

The contract under test: :meth:`Ppuf.responses` (and the underlying
:class:`BatchEvaluator`) returns bit-for-bit the same responses as looping
:meth:`Ppuf.response`, for every engine, every algorithm, and every worker
count / chunking.
"""

import numpy as np
import pytest

from repro.errors import ChallengeError, SolverError
from repro.ppuf import BatchEvaluator, Challenge


@pytest.fixture(scope="module")
def challenges(small_ppuf):
    return small_ppuf.challenge_space().random_batch(
        24, np.random.default_rng(4242)
    )


@pytest.fixture(scope="module")
def looped_bits(small_ppuf, challenges):
    return small_ppuf.response_bits(challenges)


class TestEquivalence:
    def test_batched_algorithm_matches_looped(
        self, small_ppuf, challenges, looped_bits
    ):
        bits = small_ppuf.responses(challenges)
        assert bits.dtype == np.uint8
        assert np.array_equal(bits, looped_bits)

    @pytest.mark.parametrize(
        "algorithm", ["dinic", "edmonds_karp", "push_relabel"]
    )
    def test_exact_solver_paths_match_looped(
        self, small_ppuf, challenges, looped_bits, algorithm
    ):
        bits = small_ppuf.responses(challenges, algorithm=algorithm)
        assert np.array_equal(bits, looped_bits)

    def test_workers_do_not_change_bits(
        self, small_ppuf, challenges, looped_bits
    ):
        serial = small_ppuf.responses(challenges, workers=1, chunk_size=6)
        fanned = small_ppuf.responses(challenges, workers=4, chunk_size=6)
        assert np.array_equal(serial, looped_bits)
        assert np.array_equal(fanned, looped_bits)

    def test_chunk_size_does_not_change_bits(
        self, small_ppuf, challenges, looped_bits
    ):
        one_at_a_time = small_ppuf.responses(challenges[:8], chunk_size=1)
        assert np.array_equal(one_at_a_time, looped_bits[:8])

    def test_circuit_engine_matches_looped(self, small_ppuf, challenges):
        subset = challenges[:3]
        looped = small_ppuf.response_bits(subset, engine="circuit")
        batched = small_ppuf.responses(subset, engine="circuit")
        assert np.array_equal(batched, looped)

    def test_medium_device_matches_looped(self, medium_ppuf):
        batch = medium_ppuf.challenge_space().random_batch(
            10, np.random.default_rng(77)
        )
        assert np.array_equal(
            medium_ppuf.responses(batch), medium_ppuf.response_bits(batch)
        )


class TestEvaluator:
    def test_report_accounting(self, small_ppuf, challenges):
        evaluator = BatchEvaluator(small_ppuf, chunk_size=10)
        bits, report = evaluator.evaluate(challenges)
        assert bits.shape == (len(challenges),)
        assert report.challenges == len(challenges)
        assert report.engine == "maxflow"
        assert report.algorithm == "batched_dinic"
        assert report.chunks == 3  # ceil(24 / 10)
        assert report.workers == 1
        assert report.total_seconds > 0
        assert report.throughput > 0
        assert set(report.phase_seconds) == {"prepare", "solve", "compare"}
        assert all(stage >= 0 for stage in report.phase_seconds.values())
        assert report.solve_seconds == report.phase_seconds["solve"]
        assert report.solves == 2 * len(challenges)
        assert report.counters["augmentations"] > 0
        assert report.counters["bfs_edge_visits"] > 0

    def test_evaluator_reuse_is_stable(self, small_ppuf, challenges):
        # The dense buffers are reused across calls; results must not be.
        evaluator = BatchEvaluator(small_ppuf)
        first, _ = evaluator.evaluate(challenges)
        second, _ = evaluator.evaluate(challenges)
        assert np.array_equal(first, second)

    def test_circuit_report_counts_dc_solves(self, small_ppuf, challenges):
        evaluator = BatchEvaluator(small_ppuf, engine="circuit")
        _, report = evaluator.evaluate(challenges[:2])
        assert report.counters == {"dc_solves": 4}

    def test_empty_batch(self, small_ppuf):
        bits, report = BatchEvaluator(small_ppuf).evaluate([])
        assert bits.shape == (0,)
        assert report.challenges == 0
        assert report.chunks == 0

    def test_throughput_of_empty_report_is_zero(self, small_ppuf):
        _, report = BatchEvaluator(small_ppuf).evaluate([])
        report.total_seconds = 0.0
        assert report.throughput == 0.0


class TestValidation:
    def test_wrong_bit_count_rejected(self, small_ppuf):
        bad = Challenge(source=0, sink=1, bits=np.zeros(4, dtype=np.uint8))
        with pytest.raises(ChallengeError):
            small_ppuf.responses([bad])

    def test_out_of_range_terminals_rejected(self, small_ppuf):
        bits = np.zeros(small_ppuf.crossbar.num_control_bits, dtype=np.uint8)
        bad = Challenge(source=0, sink=99, bits=bits)
        with pytest.raises(ChallengeError):
            small_ppuf.responses([bad])

    def test_unknown_engine_rejected(self, small_ppuf):
        with pytest.raises(SolverError):
            BatchEvaluator(small_ppuf, engine="spice")

    def test_unknown_algorithm_rejected(self, small_ppuf):
        with pytest.raises(SolverError):
            BatchEvaluator(small_ppuf, algorithm="simplex")

    def test_bad_worker_and_chunk_counts_rejected(self, small_ppuf):
        with pytest.raises(SolverError):
            BatchEvaluator(small_ppuf, workers=0)
        with pytest.raises(SolverError):
            BatchEvaluator(small_ppuf, chunk_size=0)


class TestShortCircuit:
    """B=0 / B=1 (and single-chunk) inputs must never spawn a pool.

    The guard is enforced, not assumed: WorkerPool is monkeypatched to
    explode on construction, so any short-circuit regression fails loudly
    on both the lockstep edge-table ("batched_dinic") and row-by-row
    scalar ("dinic") solver paths.
    """

    @pytest.fixture
    def no_pool(self, monkeypatch):
        from repro.ppuf import batch as batch_module

        class ExplodingPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError(
                    "short-circuit path must not construct a WorkerPool"
                )

        monkeypatch.setattr(batch_module, "WorkerPool", ExplodingPool)

    @pytest.mark.parametrize("algorithm", ["batched_dinic", "dinic"])
    def test_empty_batch_spawns_no_pool(self, small_ppuf, no_pool, algorithm):
        evaluator = BatchEvaluator(small_ppuf, workers=4, algorithm=algorithm)
        bits, report = evaluator.evaluate([])
        assert bits.shape == (0,)
        assert report.chunks == 0
        assert report.workers == 4

    @pytest.mark.parametrize("algorithm", ["batched_dinic", "dinic"])
    def test_single_challenge_spawns_no_pool(
        self, small_ppuf, challenges, no_pool, algorithm
    ):
        evaluator = BatchEvaluator(small_ppuf, workers=4, algorithm=algorithm)
        bits, report = evaluator.evaluate(challenges[:1])
        assert bits.shape == (1,)
        assert report.chunks == 1
        assert bits[0] == small_ppuf.response(challenges[0])

    def test_single_chunk_spawns_no_pool(self, small_ppuf, challenges, no_pool):
        # B > 1 but one chunk: still inline — chunk count, not B, decides.
        evaluator = BatchEvaluator(small_ppuf, workers=4, chunk_size=64)
        bits, _ = evaluator.evaluate(challenges[:6])
        assert np.array_equal(bits, small_ppuf.response_bits(challenges[:6]))


def _failing_chunk(challenges):
    raise RuntimeError("chunk evaluation failed")


class TestShippedPackLifecycle:
    """Pool fan-out ships a temporary pack; it never outlives evaluate()."""

    @pytest.fixture
    def shipped_paths(self, monkeypatch):
        from repro.ppuf import batch as batch_module

        paths = []
        real = batch_module.ship_compiled

        def recording(device):
            shipped = real(device)
            paths.append(shipped.path)
            return shipped

        monkeypatch.setattr(batch_module, "ship_compiled", recording)
        return paths

    def test_temp_pack_removed_after_evaluate(
        self, small_ppuf, challenges, looped_bits, shipped_paths
    ):
        import os

        bits, report = BatchEvaluator(
            small_ppuf, workers=2, chunk_size=8
        ).evaluate(challenges)
        assert report.workers == 2
        assert np.array_equal(bits, looped_bits)
        assert len(shipped_paths) == 1
        assert not os.path.exists(shipped_paths[0])

    def test_temp_pack_removed_after_a_pool_task_raises(
        self, small_ppuf, challenges, shipped_paths, monkeypatch
    ):
        import os

        from repro.ppuf import batch as batch_module

        monkeypatch.setattr(batch_module, "_worker_chunk", _failing_chunk)
        with pytest.raises(RuntimeError, match="chunk evaluation failed"):
            BatchEvaluator(small_ppuf, workers=2, chunk_size=8).evaluate(challenges)
        assert len(shipped_paths) == 1
        assert not os.path.exists(shipped_paths[0])
