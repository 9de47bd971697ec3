"""Compiled-vs-legacy conformance: the artifact IS the device.

A :class:`~repro.ppuf.compiled.CompiledDevice` must answer bit-for-bit
identically to the live :class:`~repro.ppuf.device.Ppuf` it was compiled
from — for both engines, across device sizes, inline and through pool
workers (which map a temporary single-device pack, whatever the input
was).  These tests pin that equivalence; CI runs this module as a
dedicated step.
"""

import numpy as np
import pytest

from repro.ppuf import Ppuf
from repro.ppuf.batch import BatchEvaluator
from repro.ppuf.verification import PpufProver, PpufVerifier

#: (n, l, challenge count) per size; counts sum past the 200-CRP floor.
SIZES = [(10, 3, 100), (16, 4, 104)]


@pytest.fixture(scope="module")
def devices():
    return {
        (n, l): Ppuf.create(n, l, np.random.default_rng(7000 + n))
        for n, l, _ in SIZES
    }


@pytest.fixture(scope="module")
def circuit_ppuf():
    """Small device for the circuit engine (DC solves are the slow path)."""
    return Ppuf.create(8, 2, np.random.default_rng(7100))


def challenges_for(ppuf, count, seed):
    return ppuf.challenge_space().random_batch(count, np.random.default_rng(seed))


class TestMaxflowConformance:
    @pytest.mark.parametrize("n,l,count", SIZES)
    def test_response_bits_identical(self, devices, n, l, count):
        ppuf = devices[(n, l)]
        compiled = ppuf.compile(include_circuit=False)
        challenges = challenges_for(ppuf, count, seed=n)
        legacy = ppuf.response_bits(challenges)
        assert np.array_equal(compiled.response_bits(challenges), legacy)

    @pytest.mark.parametrize("n,l,count", SIZES)
    def test_currents_exactly_equal(self, devices, n, l, count):
        # Not just the sign (the response bit): the raw source currents of
        # both networks must match to the last ulp — same arrays, same solve.
        ppuf = devices[(n, l)]
        compiled = ppuf.compile(include_circuit=False)
        for challenge in challenges_for(ppuf, 10, seed=1000 + n):
            assert compiled.currents(challenge) == ppuf.currents(challenge)

    @pytest.mark.parametrize("n,l,count", SIZES)
    def test_batched_pipeline_identical(self, devices, n, l, count):
        ppuf = devices[(n, l)]
        compiled = ppuf.compile(include_circuit=False)
        challenges = challenges_for(ppuf, count, seed=2000 + n)
        legacy_bits, _ = BatchEvaluator(ppuf).evaluate(challenges)
        compiled_bits, _ = BatchEvaluator(compiled).evaluate(challenges)
        assert np.array_equal(compiled_bits, legacy_bits)


class TestCircuitConformance:
    def test_response_bits_identical(self, circuit_ppuf):
        compiled = circuit_ppuf.compile()
        challenges = challenges_for(circuit_ppuf, 24, seed=42)
        legacy = circuit_ppuf.response_bits(challenges, engine="circuit")
        got = compiled.response_bits(challenges, engine="circuit")
        assert np.array_equal(got, legacy)

    def test_dc_currents_exactly_equal(self, circuit_ppuf):
        compiled = circuit_ppuf.compile()
        for challenge in challenges_for(circuit_ppuf, 6, seed=43):
            assert compiled.currents(challenge, engine="circuit") == (
                circuit_ppuf.currents(challenge, engine="circuit")
            )


class TestWorkerTransportConformance:
    """Pool fan-out must be input-invariant: every device form == inline."""

    @pytest.fixture(scope="class")
    def sources(self, circuit_ppuf, tmp_path_factory):
        from repro.ppuf.pack import ArtifactPack, build_pack

        compiled = circuit_ppuf.compile()
        path = str(tmp_path_factory.mktemp("transport") / "device.pack")
        build_pack(path, [compiled])
        return {
            "ppuf": circuit_ppuf,
            "compiled": compiled,
            "pack": ArtifactPack(path).device(compiled.device_id),
        }

    @pytest.mark.parametrize("engine", ["maxflow", "circuit"])
    @pytest.mark.parametrize("source", ["ppuf", "compiled", "pack"])
    def test_pool_workers_match_inline(self, circuit_ppuf, sources, source, engine):
        challenges = challenges_for(circuit_ppuf, 16, seed=77)
        inline_bits, _ = BatchEvaluator(circuit_ppuf, engine=engine).evaluate(
            challenges
        )
        pooled_bits, report = BatchEvaluator(
            sources[source], engine=engine, workers=2, chunk_size=8
        ).evaluate(challenges)
        assert np.array_equal(pooled_bits, inline_bits)
        assert report.workers == 2

    def test_live_device_workers_compile_transparently(self, devices):
        # Handing a plain Ppuf to a multi-worker evaluator compiles it
        # behind the scenes; the bits must not notice.
        ppuf = devices[(10, 3)]
        challenges = challenges_for(ppuf, 64, seed=78)
        inline_bits, _ = BatchEvaluator(ppuf).evaluate(challenges)
        pooled_bits, _ = BatchEvaluator(
            ppuf, workers=2, chunk_size=16
        ).evaluate(challenges)
        assert np.array_equal(pooled_bits, inline_bits)


class TestVerificationConformance:
    def test_compiled_prover_claim_verifies_against_legacy(self, devices):
        # A prover running off the artifact and a verifier running off the
        # rebuilt device must agree — the service's cross-check in miniature.
        ppuf = devices[(10, 3)]
        compiled = ppuf.compile(include_circuit=False)
        for challenge in challenges_for(ppuf, 8, seed=99):
            claim = PpufProver(compiled.network_a).answer_compact(challenge)
            assert PpufVerifier(ppuf.network_a).verify_compact(claim)

    def test_legacy_prover_claim_verifies_against_compiled(self, devices):
        ppuf = devices[(10, 3)]
        compiled = ppuf.compile(include_circuit=False)
        for challenge in challenges_for(ppuf, 8, seed=100):
            claim = PpufProver(ppuf.network_b).answer_compact(challenge)
            assert PpufVerifier(compiled.network_b).verify_compact(claim)
