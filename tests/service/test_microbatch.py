"""Claim micro-batching: verdicts are batch-composition invariant.

The contract the server's claim batcher rests on: verifying a claim
coalesced with 1..K strangers yields a verdict *bit-identical* to
verifying it alone — including when a neighbouring claim is poisoned and
dies with a worker fault.  The property is exercised at three layers: the
pure :func:`verify_compact_claims` verifier, the batch accounting the
server's :class:`~repro.runtime.microbatch.MicroBatcher` feeds into
``ServerStats``, and the full loopback server under concurrent sessions.
The batcher's own coalescing, linger, flush and failure semantics are
pinned in ``tests/runtime/test_microbatch.py``.
"""

import asyncio
import dataclasses

import numpy as np
import pytest

from repro.flow.decomposition import PathFlow
from repro.metrics import merge
from repro.ppuf import Ppuf
from repro.ppuf.verification import (
    ClaimVerdict,
    PpufProver,
    PpufVerifier,
    verify_compact_claims,
)
from repro.runtime.microbatch import MicroBatcher
from repro.service import PpufAuthServer, ServiceClient
from repro.service.stats import ServerStats


@pytest.fixture(scope="module")
def ppuf():
    return Ppuf.create(10, 3, np.random.default_rng(21))


@pytest.fixture(scope="module")
def claim_pool(ppuf):
    """A mix of honest, tampered, sub-maximal, poisoned and faulting claims."""
    rng = np.random.default_rng(22)
    prover = PpufProver(ppuf.network_a)
    space = ppuf.challenge_space()
    honest = [prover.answer_compact(space.random(rng)) for _ in range(6)]

    tampered_value = dataclasses.replace(honest[0], value=honest[0].value * 1.25)
    submaximal = dataclasses.replace(
        honest[1],
        paths=[
            PathFlow(vertices=p.vertices, value=p.value * 0.5)
            for p in honest[1].paths
        ],
        value=honest[1].value * 0.5,
    )
    # Poisoned: a path through a vertex that does not exist — the solo
    # verifier raises VerificationError ("infeasible", no fault).
    poisoned = dataclasses.replace(
        honest[2], paths=[PathFlow(vertices=(0, 99, 9), value=1.0)]
    )
    # Faulting: malformed beyond what validation anticipates — the worker
    # trips an unexpected exception, contained into a per-claim fault.
    faulting = dataclasses.replace(honest[3], paths=None)
    return honest + [tampered_value, submaximal, poisoned, faulting]


class TestCompositionInvariance:
    def test_solo_equals_coalesced_for_every_claim(self, ppuf, claim_pool):
        network = ppuf.network_a
        rng = np.random.default_rng(23)
        solo = {
            index: verify_compact_claims(network, [claim])[0]
            for index, claim in enumerate(claim_pool)
        }
        for index, claim in enumerate(claim_pool):
            for strangers in range(1, 5):
                others = [
                    claim_pool[int(i)]
                    for i in rng.integers(0, len(claim_pool), size=strangers)
                ]
                position = int(rng.integers(0, strangers + 1))
                batch = others[:position] + [claim] + others[position:]
                verdicts = verify_compact_claims(network, batch)
                assert verdicts[position] == solo[index], (index, strangers)

    def test_verdict_taxonomy(self, ppuf, claim_pool):
        verdicts = verify_compact_claims(ppuf.network_a, claim_pool)
        for verdict in verdicts[:6]:  # the honest claims
            assert verdict == ClaimVerdict(accepted=True)
        tampered, submaximal, poisoned, faulting = verdicts[6:]
        assert not tampered.accepted and tampered.kind == "incorrect"
        assert not submaximal.accepted and submaximal.kind == "incorrect"
        assert "not maximal" in submaximal.reason
        assert not poisoned.accepted and poisoned.kind == "infeasible"
        assert poisoned.fault is None  # anticipated rejection, not a fault
        assert not faulting.accepted and faulting.kind == "infeasible"
        assert faulting.fault is not None  # contained worker fault

    def test_poisoned_neighbours_never_leak(self, ppuf, claim_pool):
        # Every honest claim sandwiched between the two worst neighbours
        # must still come back accepted with no fault.
        poisoned, faulting = claim_pool[8], claim_pool[9]
        for claim in claim_pool[:6]:
            verdicts = verify_compact_claims(
                ppuf.network_a, [poisoned, claim, faulting]
            )
            assert verdicts[1] == ClaimVerdict(accepted=True)

    def test_verifier_batch_matches_scalar_verify(self, ppuf, claim_pool):
        verifier = PpufVerifier(ppuf.network_a)
        verdicts = verifier.verify_compact_batch(claim_pool[:8])
        for claim, verdict in zip(claim_pool[:8], verdicts):
            assert verdict.accepted == verifier.verify_compact(claim)


async def verified(jobs):
    """Stand-in pool dispatch: every claim in the batch verifies."""
    return [(True, "ok", 0.0, None) for _ in jobs]


def claim_job(index):
    return (f"device-{index}", "fleet.pack", "a", {"claim": index})


class TestBatchAccounting:
    """The server's batcher records each dispatch in ``ServerStats``."""

    def test_full_batch_dispatches_immediately(self):
        async def go():
            stats = ServerStats()
            batcher = MicroBatcher(
                verified,
                batch_size=4,
                linger_seconds=60.0,
                on_dispatch=stats.observe_batch,
            )
            results = await asyncio.gather(
                *(batcher.submit(claim_job(i)) for i in range(4))
            )
            return stats, results, batcher

        stats, results, batcher = asyncio.run(go())
        assert all(result == (True, "ok", 0.0, None) for result in results)
        assert stats.claim_batches == 1
        assert stats.claims_batched == 4
        assert stats.claim_batch_occupancy == {"4": 1}
        assert not batcher.busy

    def test_lone_claim_pays_only_the_linger(self):
        async def go():
            stats = ServerStats()
            batches = []

            async def dispatch(jobs):
                batches.append(list(jobs))
                return await verified(jobs)

            batcher = MicroBatcher(
                dispatch,
                batch_size=16,
                linger_seconds=0.005,
                on_dispatch=stats.observe_batch,
            )
            loop = asyncio.get_running_loop()
            start = loop.time()
            result = await asyncio.wait_for(
                batcher.submit(claim_job(0)), timeout=2.0
            )
            return stats, result, loop.time() - start, batches

        stats, result, elapsed, batches = asyncio.run(go())
        assert result == (True, "ok", 0.0, None)
        assert stats.claim_batch_occupancy == {"1": 1}
        assert len(batches) == 1
        assert elapsed < 1.0  # linger-bounded, not stuck until batch_size


class TestServerMicroBatchE2E:
    SESSIONS = 32

    def test_concurrent_sessions_coalesce_and_all_verify(self, ppuf):
        async def go():
            server = PpufAuthServer(
                workers=0,
                rounds=1,
                seed=5,
                deadline_seconds=30.0,
                claim_batch_size=8,
                claim_batch_linger=0.005,
            )
            async with server:
                async with ServiceClient("127.0.0.1", server.port) as client:
                    await client.enroll(ppuf)

                async def one_session():
                    async with ServiceClient("127.0.0.1", server.port) as client:
                        return await client.authenticate(ppuf)

                outcomes = await asyncio.gather(
                    *(one_session() for _ in range(self.SESSIONS))
                )
                snapshot = server.stats.snapshot()
            return outcomes, snapshot

        outcomes, snapshot = asyncio.run(go())
        assert all(outcome.accepted for outcome in outcomes)
        assert snapshot["claims_verified"] == self.SESSIONS
        assert snapshot["claims_batched"] == self.SESSIONS
        assert 1 <= snapshot["claim_batches"] <= self.SESSIONS
        occupancy = snapshot["claim_batch_occupancy"]
        assert sum(occupancy.values()) == snapshot["claim_batches"]
        assert (
            sum(int(size) * count for size, count in occupancy.items())
            == self.SESSIONS
        )

    def test_batching_disabled_still_verifies(self, ppuf):
        async def go():
            server = PpufAuthServer(
                workers=0, rounds=2, seed=5, deadline_seconds=30.0, claim_batch_size=1
            )
            async with server:
                async with ServiceClient("127.0.0.1", server.port) as client:
                    await client.enroll(ppuf)
                    outcome = await client.authenticate(ppuf)
                snapshot = server.stats.snapshot()
            return outcome, snapshot

        outcome, snapshot = asyncio.run(go())
        assert outcome.accepted
        # Batch size 1: every claim is dispatched on its own.
        assert snapshot["claims_batched"] == 2
        assert snapshot["claim_batch_occupancy"] == {"1": 2}


class TestOccupancyMergesAcrossShards:
    def test_merge_snapshot_sums_occupancy_per_size(self):
        a = ServerStats()
        a.claim_batches, a.claims_batched = 3, 9
        a.claim_batch_occupancy = {"1": 1, "4": 2}
        b = ServerStats()
        b.claim_batches, b.claims_batched = 2, 9
        b.claim_batch_occupancy = {"4": 1, "5": 1}
        merged = merge(ServerStats().snapshot(), a.snapshot())
        merged = merge(merged, b.snapshot())
        assert merged["claim_batches"] == 5
        assert merged["claims_batched"] == 18
        assert merged["claim_batch_occupancy"] == {"1": 1, "4": 3, "5": 1}
