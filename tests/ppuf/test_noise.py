"""Comparator noise, majority voting and the analytic flip probability."""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import DeviceError
from repro.ppuf import CurrentComparator


class TestNoisyComparator:
    def test_zero_noise_matches_ideal(self, rng):
        comparator = CurrentComparator(noise_sigma=0.0)
        assert comparator.compare_noisy(2e-6, 1e-6, rng) == comparator.compare(2e-6, 1e-6)

    def test_small_margin_flips_sometimes(self, rng):
        comparator = CurrentComparator(noise_sigma=1e-8)
        decisions = [comparator.compare_noisy(1.0e-8, 1.05e-8, rng) for _ in range(400)]
        rate = np.mean(decisions)
        assert 0.05 < rate < 0.6  # noise sometimes overturns the 0.05e-8 margin

    def test_large_margin_never_flips(self, rng):
        comparator = CurrentComparator(noise_sigma=1e-9)
        decisions = [comparator.compare_noisy(5e-7, 1e-7, rng) for _ in range(200)]
        assert all(d == 1 for d in decisions)

    def test_analytic_flip_probability_matches_monte_carlo(self, rng):
        comparator = CurrentComparator(noise_sigma=2e-8)
        margin_a, margin_b = 3e-8, 1e-8
        analytic = comparator.flip_probability(margin_a, margin_b)
        samples = [
            comparator.compare_noisy(margin_a, margin_b, rng) == 0 for _ in range(4000)
        ]
        assert np.mean(samples) == pytest.approx(analytic, abs=0.03)

    def test_flip_probability_zero_without_noise(self):
        assert CurrentComparator().flip_probability(2e-6, 1e-6) == 0.0

    def test_majority_vote_reduces_errors(self, rng):
        comparator = CurrentComparator(noise_sigma=2e-8)
        margin_a, margin_b = 3e-8, 1e-8  # single-shot flip prob ~0.24
        single = np.mean(
            [comparator.compare_noisy(margin_a, margin_b, rng) == 0 for _ in range(800)]
        )
        voted = np.mean(
            [
                comparator.majority_decision(margin_a, margin_b, rng, votes=9) == 0
                for _ in range(800)
            ]
        )
        assert voted < single

    def test_validation(self, rng):
        with pytest.raises(DeviceError):
            CurrentComparator(noise_sigma=-1.0)
        with pytest.raises(DeviceError):
            CurrentComparator().majority_decision(1.0, 2.0, rng, votes=0)


class TestNoisyPpufResponse:
    def test_noiseless_matches_deterministic(self, small_ppuf, rng):
        challenge = small_ppuf.challenge_space().random(rng)
        assert small_ppuf.noisy_response(challenge, rng) == small_ppuf.response(challenge)

    def test_votes_restore_reliability(self, small_ppuf, rng):
        noisy = replace(small_ppuf, comparator=CurrentComparator(noise_sigma=3e-8))
        challenges = small_ppuf.challenge_space().random_batch(15, rng)
        reference = small_ppuf.response_bits(challenges)
        single_errors = sum(
            noisy.noisy_response(c, rng) != r for c, r in zip(challenges, reference)
        )
        voted_errors = sum(
            noisy.noisy_response(c, rng, votes=15) != r
            for c, r in zip(challenges, reference)
        )
        assert voted_errors <= single_errors
