"""Key derivation from PPUF responses."""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ReproError
from repro.ppuf import CurrentComparator, Ppuf, derive_key, key_agreement_rate, seed_challenges


@pytest.fixture(scope="module")
def device():
    return Ppuf.create(12, 3, np.random.default_rng(21))


class TestSeedChallenges:
    def test_deterministic(self, device):
        a = seed_challenges(device, b"abc", 5)
        b = seed_challenges(device, b"abc", 5)
        assert [c.key() for c in a] == [c.key() for c in b]

    def test_seed_sensitivity(self, device):
        a = seed_challenges(device, b"abc", 5)
        b = seed_challenges(device, b"abd", 5)
        assert [c.key() for c in a] != [c.key() for c in b]

    def test_validation(self, device):
        with pytest.raises(ReproError):
            seed_challenges(device, b"x", 0)
        with pytest.raises(ReproError):
            seed_challenges(device, "not-bytes", 3)


class TestDeriveKey:
    def test_deterministic_without_noise(self, device):
        assert derive_key(device, b"k").key == derive_key(device, b"k").key

    def test_key_is_32_bytes(self, device):
        assert len(derive_key(device, b"k").key) == 32

    def test_different_seeds_different_keys(self, device):
        assert derive_key(device, b"k1").key != derive_key(device, b"k2").key

    def test_different_devices_different_keys(self, device):
        other = Ppuf.create(12, 3, np.random.default_rng(99))
        assert derive_key(device, b"k").key != derive_key(other, b"k").key

    def test_dark_bit_masking_drops_marginal_bits(self, device):
        coarse = replace(device, comparator=CurrentComparator(resolution=1e-7))
        material = derive_key(coarse, b"k", num_bits=48)
        assert material.retained < 48

    def test_noisy_comparator_requires_rng(self, device):
        noisy = replace(device, comparator=CurrentComparator(noise_sigma=1e-9))
        with pytest.raises(ReproError):
            derive_key(noisy, b"k")


class TestAgreementRate:
    def test_noise_free_always_agrees(self, device, rng):
        rate, material = key_agreement_rate(device, b"k", 3, rng, num_bits=24)
        assert rate == 1.0
        assert material.retained > 0

    def test_masking_plus_votes_beats_raw_noise(self, device):
        """With noise comparable to weak margins, masking + voting keeps
        key agreement higher than unmasked single-shot decisions."""
        rng = np.random.default_rng(5)
        fragile = replace(
            device, comparator=CurrentComparator(noise_sigma=1.5e-8, resolution=0.0)
        )
        robust = replace(
            device, comparator=CurrentComparator(noise_sigma=1.5e-8, resolution=5e-8)
        )
        fragile_rate, _ = key_agreement_rate(fragile, b"k", 8, rng, num_bits=32, votes=1)
        robust_rate, _ = key_agreement_rate(robust, b"k", 8, rng, num_bits=32, votes=9)
        assert robust_rate >= fragile_rate

    def test_validation(self, device, rng):
        with pytest.raises(ReproError):
            key_agreement_rate(device, b"k", 0, rng)
