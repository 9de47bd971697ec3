"""PPUF core: the paper's primary contribution.

A :class:`~repro.ppuf.device.Ppuf` owns two nominally identical crossbar
networks (differing only through process variation), evaluates challenges
with either the *circuit* engine (the physical execution) or the *max-flow*
engine (the public simulation model), and exposes the ESG machinery:
delay bounds, feedback-loop amplification, and the residual-graph
verification protocol.
"""

from repro.ppuf.crossbar import Crossbar
from repro.ppuf.challenge import Challenge, ChallengeSpace
from repro.ppuf.comparator import CurrentComparator
from repro.ppuf.device import Ppuf
from repro.ppuf.batch import BatchEvaluator, BatchReport
from repro.ppuf.crp import CRP, CRPDataset
from repro.ppuf.pack import ArtifactPack, PackWriter, append_pack, build_pack
from repro.ppuf.delay import lin_mead_delay_bound, effective_edge_resistance
from repro.ppuf.esg import ESGModel, PowerLawFit, fit_power_law
from repro.ppuf.feedback import FeedbackChain, run_feedback_chain
from repro.ppuf.verification import (
    ClaimVerdict,
    CompactClaim,
    FlowClaim,
    PpufProver,
    PpufVerifier,
    verify_compact_claims,
)
from repro.ppuf.protocol import AuthenticationSession, RoundRecord, SessionResult
from repro.ppuf.identity import PublicRegistry, expected_match_separation, response_word
from repro.ppuf.keys import KeyMaterial, derive_key, key_agreement_rate, seed_challenges

__all__ = [
    "Crossbar",
    "Challenge",
    "ChallengeSpace",
    "CurrentComparator",
    "Ppuf",
    "BatchEvaluator",
    "BatchReport",
    "ArtifactPack",
    "PackWriter",
    "append_pack",
    "build_pack",
    "CRP",
    "CRPDataset",
    "lin_mead_delay_bound",
    "effective_edge_resistance",
    "ESGModel",
    "PowerLawFit",
    "fit_power_law",
    "FeedbackChain",
    "run_feedback_chain",
    "ClaimVerdict",
    "CompactClaim",
    "FlowClaim",
    "verify_compact_claims",
    "PpufProver",
    "PpufVerifier",
    "AuthenticationSession",
    "RoundRecord",
    "SessionResult",
    "PublicRegistry",
    "expected_match_separation",
    "response_word",
    "KeyMaterial",
    "derive_key",
    "key_agreement_rate",
    "seed_challenges",
]
