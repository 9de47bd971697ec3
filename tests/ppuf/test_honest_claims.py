"""Honest compact claims must always verify.

Regression for the decomposition tolerance: ``decompose_flow`` and
``cancel_cycles`` used an absolute floor of 1e-12, which at PPUF current
scales (~1e-8 A) let the prover leave up to ``n * 1e-12`` A of flow out of
its path decomposition — enough for the verifier to reject an honest claim
because its value no longer matched the shipped paths.
"""

import numpy as np
import pytest

from repro.ppuf import Ppuf
from repro.ppuf.verification import PpufProver, verify_compact_claims

CHALLENGES = 500


@pytest.fixture(scope="module")
def device():
    return Ppuf.create(16, 4, np.random.default_rng(1212))


@pytest.mark.parametrize("network", ["a", "b"])
def test_every_honest_claim_verifies(device, network):
    net = device.network_a if network == "a" else device.network_b
    prover = PpufProver(net)
    challenges = device.challenge_space().random_batch(
        CHALLENGES, np.random.default_rng(1313)
    )
    claims = [prover.answer_compact(challenge) for challenge in challenges]
    rejected = [
        (index, verdict.reason)
        for index, verdict in enumerate(verify_compact_claims(net, claims))
        if not verdict.accepted
    ]
    assert rejected == []
