"""Verifier-side session state machine for the wire protocol.

One :class:`Session` tracks one authentication attempt::

    HELLO ──▶ CHALLENGED ──claim──▶ (verify) ──▶ CHALLENGED (next round)
                                          └────▶ CLOSED (verdict)

Security properties enforced here (the transport-independent part of the
time-bounded protocol):

* **per-session nonces** — every challenge carries a fresh random nonce;
  a claim must echo the nonce of the *outstanding* challenge;
* **replay rejection** — a nonce is consumed the moment a claim citing it
  is admitted, so replaying an old claim (same session or a recording of
  it) raises :class:`ReplayRejected`;
* **monotonic deadlines** — the elapsed time between challenge issue and
  claim arrival comes from :func:`time.monotonic`, immune to wall-clock
  steps; the caller compares it against the session's deadline;
* **idle expiry** — a session that stops talking is swept after
  ``idle_timeout`` seconds and cannot be resumed.
"""

from __future__ import annotations

import secrets
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Set

import numpy as np

from repro.errors import ServiceError
from repro.ppuf.challenge import Challenge, ChallengeSpace


class UnknownSession(ServiceError):
    """The claim cites a session id the server does not hold."""


class SessionExpired(ServiceError):
    """The session idled past its timeout before the claim arrived."""


class ReplayRejected(ServiceError):
    """The claim cites a nonce that was already consumed (or never issued)."""


class SessionLimitExceeded(ServiceError):
    """The manager is at ``max_sessions``; HELLO floods get backpressure."""


AWAITING_CLAIM = "awaiting_claim"
CLOSED = "closed"


@dataclass
class Session:
    """One in-flight authentication attempt.

    ``space`` is the device's challenge space, so issuing the next round
    never looks the device up again.  ``deadline_seconds`` is the enforced
    wire deadline.  The paper's modeled bound (the Lin–Mead delay bound)
    is a public function of the device that a prover computes from the
    model it already holds, so no session carries it.
    """

    session_id: str
    device_id: str
    network: str  # "a" or "b"
    rounds_total: int
    deadline_seconds: float
    space: ChallengeSpace
    round_index: int = 0
    state: str = AWAITING_CLAIM
    nonce: str = ""
    issued_at: float = 0.0  # monotonic, when the outstanding challenge left
    expires_at: float = 0.0  # monotonic idle deadline
    challenge: Optional[Challenge] = None
    used_nonces: Set[str] = field(default_factory=set)


class SessionManager:
    """Owns every live :class:`Session`; single-threaded (event loop) use.

    Parameters
    ----------
    deadline_seconds:
        Wall-clock response deadline enforced per round over the wire.
    idle_timeout:
        Seconds of silence after which a session is expirable.
    rounds:
        Default round count for sessions that don't request one.
    seed:
        Challenge-sampling seed (``None`` → OS entropy).  Nonces and
        session ids always come from :mod:`secrets`.
    max_sessions:
        Hard cap on concurrent sessions; :meth:`open` raises
        :class:`SessionLimitExceeded` beyond it, so a HELLO flood costs
        the server one error reply instead of unbounded session state.
        ``None`` disables the cap.
    """

    def __init__(
        self,
        *,
        deadline_seconds: float = 5.0,
        idle_timeout: float = 60.0,
        rounds: int = 4,
        seed: Optional[int] = None,
        max_sessions: Optional[int] = 4096,
        clock=time.monotonic,
    ):
        if deadline_seconds <= 0:
            raise ServiceError(f"deadline must be positive, got {deadline_seconds}")
        if idle_timeout <= 0:
            raise ServiceError(f"idle timeout must be positive, got {idle_timeout}")
        if max_sessions is not None and max_sessions < 1:
            raise ServiceError(f"max_sessions must be >= 1, got {max_sessions}")
        self.deadline_seconds = deadline_seconds
        self.idle_timeout = idle_timeout
        self.default_rounds = rounds
        self.max_sessions = max_sessions
        self.clock = clock
        self._rng = np.random.default_rng(seed)
        self._sessions: Dict[str, Session] = {}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._sessions)

    def get(self, session_id: str) -> Session:
        session = self._sessions.get(session_id)
        if session is None:
            raise UnknownSession(f"unknown session {session_id!r}")
        if self.clock() >= session.expires_at:
            self.close(session)
            raise SessionExpired(f"session {session_id!r} expired")
        return session

    # ------------------------------------------------------------------
    def open(
        self,
        device_id: str,
        space: ChallengeSpace,
        network: str,
        rounds: Optional[int],
    ) -> Session:
        """Create a session over ``space`` and issue its first challenge.

        ``network`` and ``rounds`` arrive from the wire: anything but
        ``"a"``/``"b"`` and an ``int`` (not a ``bool``) in [1, 1024] is a
        :class:`ServiceError`.  ``rounds=None`` takes the default.
        """
        if network not in ("a", "b"):
            raise ServiceError(f"network must be 'a' or 'b', got {network!r}")
        if rounds is None:
            rounds = self.default_rounds
        if (
            isinstance(rounds, bool)
            or not isinstance(rounds, int)
            or not 1 <= rounds <= 1024
        ):
            raise ServiceError(f"rounds must be an integer in [1, 1024], got {rounds!r}")
        if self.max_sessions is not None and len(self._sessions) >= self.max_sessions:
            # Expiry may free room before we refuse: sweep first.
            self.expire_idle()
            if len(self._sessions) >= self.max_sessions:
                raise SessionLimitExceeded(
                    f"session capacity {self.max_sessions} reached; retry later"
                )
        session = Session(
            session_id=secrets.token_hex(8),
            device_id=device_id,
            network=network,
            rounds_total=rounds,
            deadline_seconds=self.deadline_seconds,
            space=space,
        )
        self._sessions[session.session_id] = session
        self._issue(session)
        return session

    def _issue(self, session: Session) -> None:
        """Attach a fresh challenge + nonce and start the response clock."""
        session.challenge = session.space.random(self._rng)
        session.nonce = secrets.token_hex(16)
        session.state = AWAITING_CLAIM
        now = self.clock()
        session.issued_at = now
        session.expires_at = now + self.idle_timeout

    # ------------------------------------------------------------------
    def admit_claim(self, session_id: str, nonce: str) -> tuple:
        """Validate a claim's session/nonce; returns ``(session, elapsed)``.

        Consumes the nonce immediately — before any verification work — so
        a duplicate of the same claim is a replay even while the original
        is still being verified.  ``elapsed`` is the monotonic seconds since
        the outstanding challenge was issued; the caller compares it with
        ``session.deadline_seconds``.
        """
        session = self.get(session_id)
        if session.state != AWAITING_CLAIM:
            raise ServiceError(f"session {session_id!r} is not awaiting a claim")
        if nonce in session.used_nonces:
            raise ReplayRejected(f"nonce {nonce!r} was already consumed")
        if nonce != session.nonce:
            raise ServiceError(f"nonce {nonce!r} does not match the outstanding challenge")
        elapsed = self.clock() - session.issued_at
        session.used_nonces.add(nonce)
        session.state = "verifying"
        session.expires_at = self.clock() + self.idle_timeout
        return session, elapsed

    def advance(self, session: Session) -> bool:
        """After an accepted round: next challenge, or ``False`` if done."""
        session.round_index += 1
        if session.round_index >= session.rounds_total:
            self.close(session)
            return False
        self._issue(session)
        return True

    def close(self, session: Session) -> None:
        session.state = CLOSED
        self._sessions.pop(session.session_id, None)

    # ------------------------------------------------------------------
    def expire_idle(self) -> int:
        """Drop every session past its idle deadline; returns the count."""
        now = self.clock()
        stale = [s for s in self._sessions.values() if now >= s.expires_at]
        for session in stale:
            self.close(session)
        return len(stale)
