"""Batched CRP throughput versus the looped single-challenge baseline.

The acceptance bar for the batched pipeline (repro.ppuf.batch): on the
paper-scale 16-node crossbar, evaluating 256 challenges through the
vectorised lockstep solver must be at least 5x faster than looping
``Ppuf.response`` — with identical response bits, or the speed is
meaningless.

Run with ``pytest benchmarks/bench_batch.py --benchmark-only -s``.
"""

import time

import numpy as np
import pytest

from repro.ppuf import BatchEvaluator, Ppuf

NODES = 16
GRID = 4
CHALLENGES = 256
REQUIRED_SPEEDUP = 5.0


@pytest.fixture(scope="module")
def device():
    return Ppuf.create(NODES, GRID, np.random.default_rng(2016))


@pytest.fixture(scope="module")
def challenges(device):
    return device.challenge_space().random_batch(
        CHALLENGES, np.random.default_rng(7)
    )


def test_batched_throughput_at_least_5x(benchmark, device, challenges):
    # Warm the per-bit capacity caches so both paths start from the same
    # state and neither pays the one-off table build inside its timing.
    device.response(challenges[0])
    evaluator = BatchEvaluator(device)
    evaluator.evaluate(challenges[:2])

    start = time.perf_counter()
    looped = np.array(
        [device.response(c) for c in challenges], dtype=np.uint8
    )
    looped_seconds = time.perf_counter() - start

    batched, report = benchmark.pedantic(
        evaluator.evaluate, args=(challenges,), rounds=1, iterations=1
    )

    speedup = looped_seconds / report.total_seconds
    phases = ", ".join(
        f"{name}={seconds:.3f}s"
        for name, seconds in sorted(report.phase_seconds.items())
    )
    print(
        f"\nlooped: {looped_seconds:.3f} s  "
        f"batched: {report.total_seconds:.3f} s ({phases})  "
        f"speedup: {speedup:.1f}x  throughput: {report.throughput:.0f}/s"
    )
    print(
        f"solve stats [{report.algorithm}]: {report.solves} solves, "
        f"{report.operations} operations"
    )
    assert np.array_equal(batched, looped)
    assert speedup >= REQUIRED_SPEEDUP
