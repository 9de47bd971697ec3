"""Session state machine: nonces, replays, deadlines, idle expiry.

A fake monotonic clock drives the time-dependent paths deterministically.
"""

import numpy as np
import pytest

from repro.errors import ServiceError
from repro.ppuf import Ppuf
from repro.service import (
    ReplayRejected,
    SessionExpired,
    SessionManager,
    UnknownSession,
)


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now


@pytest.fixture(scope="module")
def space():
    return Ppuf.create(6, 2, np.random.default_rng(77)).challenge_space()


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def manager(clock):
    return SessionManager(
        deadline_seconds=2.0, idle_timeout=10.0, rounds=3, seed=1, clock=clock
    )


class TestStateMachine:
    def test_open_issues_challenge_and_nonce(self, manager, space):
        session = manager.open("dev", space, "a", None)
        assert session.challenge is not None
        assert len(session.nonce) == 32
        assert session.rounds_total == 3
        assert len(manager) == 1

    def test_claim_measures_elapsed_on_monotonic_clock(self, manager, space, clock):
        session = manager.open("dev", space, "a", None)
        clock.now += 1.5
        admitted, elapsed = manager.admit_claim(session.session_id, session.nonce)
        assert admitted is session
        assert elapsed == pytest.approx(1.5)

    def test_advance_rotates_nonce_and_challenge(self, manager, space):
        session = manager.open("dev", space, "a", None)
        first_nonce, first_challenge = session.nonce, session.challenge
        manager.admit_claim(session.session_id, session.nonce)
        assert manager.advance(session)
        assert session.nonce != first_nonce
        assert session.round_index == 1
        assert session.challenge.key() != first_challenge.key()

    def test_session_closes_after_final_round(self, manager, space):
        session = manager.open("dev", space, "a", 1)
        manager.admit_claim(session.session_id, session.nonce)
        assert not manager.advance(session)
        assert len(manager) == 0

    def test_unknown_session_rejected(self, manager):
        with pytest.raises(UnknownSession):
            manager.admit_claim("nope", "nonce")

    def test_invalid_network_rejected(self, manager, space):
        with pytest.raises(ServiceError):
            manager.open("dev", space, "c", None)


class TestReplayRejection:
    def test_consumed_nonce_is_replay(self, manager, space):
        session = manager.open("dev", space, "a", None)
        nonce = session.nonce
        manager.admit_claim(session.session_id, nonce)
        manager.advance(session)
        with pytest.raises(ReplayRejected):
            manager.admit_claim(session.session_id, nonce)

    def test_foreign_nonce_rejected(self, manager, space):
        session = manager.open("dev", space, "a", None)
        with pytest.raises(ServiceError):
            manager.admit_claim(session.session_id, "f" * 32)

    def test_nonces_are_unique_across_sessions(self, manager, space):
        nonces = {manager.open("dev", space, "a", None).nonce for _ in range(16)}
        assert len(nonces) == 16


class TestIdleExpiry:
    def test_idle_session_expires(self, manager, space, clock):
        session = manager.open("dev", space, "a", None)
        clock.now += 11.0
        with pytest.raises(SessionExpired):
            manager.admit_claim(session.session_id, session.nonce)
        assert len(manager) == 0

    def test_expire_idle_sweeps_only_stale(self, manager, space, clock):
        manager.open("dev", space, "a", None)
        clock.now += 11.0
        fresh = manager.open("dev", space, "a", None)
        assert manager.expire_idle() == 1
        assert len(manager) == 1
        manager.admit_claim(fresh.session_id, fresh.nonce)  # fresh one survives
