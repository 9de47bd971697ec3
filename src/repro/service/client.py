"""Client library: the honest prover side of the wire protocol.

An honest device holder answers each challenge by executing it on the
local :class:`~repro.ppuf.device.Ppuf` (here: solving the public max-flow
instance, the software stand-in for the circuit settling in O(n)) and
ships the compact path-decomposition claim back within the deadline.

Test hooks mirror the adversaries of the paper's argument: ``tamper``
mutates the outgoing wire claim (a cheating prover), ``delay`` stalls
before answering (a simulator paying the ESG and missing the deadline).

Resilience (:mod:`repro.service.resilience`): every network operation has
a finite per-operation ``timeout`` (default
:data:`~repro.service.resilience.DEFAULT_TIMEOUT`), transport failures are
classified — :class:`~repro.errors.ServiceTimeout` for a stalled peer,
:class:`~repro.errors.ConnectionLost` for a dropped connection, plain
:class:`~repro.errors.ServiceError` for a server-reported error — and
idempotent verbs (ENROLL / HELLO / STATS) are transparently
reconnected-and-retried under the client's :class:`RetryPolicy`.  CLAIM is
never auto-retried; its nonce is already consumed, so a resend would be
rejected as a replay.

Both an async :class:`ServiceClient` and blocking one-shot helpers
(:func:`enroll_device`, :func:`authenticate_device`, :func:`fetch_stats`)
are provided; the CLI and tests use the blocking forms.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.errors import ConnectionLost, ServiceError
from repro.flow.registry import DEFAULT_ALGORITHM
from repro.ppuf.device import Ppuf
from repro.ppuf.io import ppuf_to_dict
from repro.ppuf.verification import PpufProver
from repro.service import wire
from repro.service.resilience import (
    DEFAULT_TIMEOUT,
    IDEMPOTENT_TYPES,
    RetryPolicy,
    with_timeout,
)

#: Transport-level exceptions normalised into :class:`ConnectionLost`.
_CONNECTION_ERRORS = (
    ConnectionResetError,
    ConnectionRefusedError,
    BrokenPipeError,
    asyncio.IncompleteReadError,
)


@dataclass
class AuthOutcome:
    """What a full authentication attempt produced."""

    accepted: bool
    reason: str
    rounds_run: int
    session_id: str
    transcript: List[dict] = field(default_factory=list)


class ServiceClient:
    """One TCP connection to a :class:`~repro.service.server.PpufAuthServer`.

    Parameters
    ----------
    timeout:
        Per-operation deadline [s] applied to connect and to every
        request/response exchange.  Finite by default — a dead server
        surfaces as :class:`~repro.errors.ServiceTimeout`, never a hang.
    retry:
        Policy for reconnect-and-retry of idempotent verbs.  ``None``
        uses the default :class:`RetryPolicy`; pass
        ``RetryPolicy.no_retry()`` to disable.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = DEFAULT_TIMEOUT,
        retry: Optional[RetryPolicy] = None,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self.retries_performed = 0
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def connect(self) -> "ServiceClient":
        try:
            self._reader, self._writer = await with_timeout(
                asyncio.open_connection(
                    self.host, self.port, limit=wire.MAX_LINE_BYTES
                ),
                self.timeout,
                f"connect to {self.host}:{self.port}",
            )
        except OSError as error:
            raise ConnectionLost(
                f"cannot connect to {self.host}:{self.port}: {error}"
            ) from error
        return self

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except _CONNECTION_ERRORS:
                pass
            self._reader = self._writer = None

    async def __aenter__(self) -> "ServiceClient":
        return await self.connect()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------
    async def request(self, message: dict, *, timeout: Optional[float] = None) -> dict:
        """Send one message and read one reply within the deadline.

        Raises :class:`ServiceTimeout` on a stalled exchange and
        :class:`ConnectionLost` when the server drops the connection —
        both subclasses of :class:`ServiceError`, so existing handlers
        still work.  Never retries; see :meth:`request_ok`.
        """
        if self._writer is None:
            raise ServiceError("client is not connected")
        deadline = self.timeout if timeout is None else timeout
        try:
            reply = await with_timeout(
                self._exchange(message), deadline, f"{message.get('type')} exchange"
            )
        except _CONNECTION_ERRORS as error:
            raise ConnectionLost(f"connection lost mid-request: {error}") from error
        if reply is None:
            raise ConnectionLost("server closed the connection")
        return reply

    async def _exchange(self, message: dict) -> Optional[dict]:
        await wire.write_message(self._writer, message)
        return await wire.read_message(self._reader)

    async def request_ok(
        self,
        message: dict,
        *,
        timeout: Optional[float] = None,
        retry: bool = False,
    ) -> dict:
        """Request, raising :class:`ServiceError` on an ``error`` reply.

        With ``retry=True`` — allowed only for idempotent verbs — a
        transport failure tears the connection down, backs off per the
        policy, reconnects and resends.  Retried frames carry a ``retry``
        attempt counter so the server's ``retries_observed`` telemetry
        sees them.
        """
        if retry:
            reply = await self._request_idempotent(message, timeout=timeout)
        else:
            reply = await self.request(message, timeout=timeout)
        reply_type = reply.get("type")
        if not isinstance(reply_type, str):
            raise ServiceError(f"server reply missing a 'type' string: {reply!r}")
        if reply_type == wire.ERROR:
            raise ServiceError(f"server error: {reply.get('error')}")
        return reply

    async def _request_idempotent(
        self, message: dict, *, timeout: Optional[float] = None
    ) -> dict:
        message_type = message.get("type")
        if message_type not in IDEMPOTENT_TYPES:
            raise ServiceError(
                f"refusing to auto-retry non-idempotent verb {message_type!r}"
            )
        policy = self.retry
        last_error: Optional[BaseException] = None
        for attempt in range(policy.attempts):
            if attempt:
                await asyncio.sleep(policy.delay(attempt))
                self.retries_performed += 1
                message = {**message, "retry": attempt}
                try:
                    await self.close()
                    await self.connect()
                except ServiceError as error:
                    last_error = error
                    continue
            try:
                return await self.request(message, timeout=timeout)
            except ServiceError as error:
                if not policy.is_retryable(error):
                    raise
                last_error = error
        raise last_error  # type: ignore[misc]  # attempts >= 1 guarantees it's set

    # ------------------------------------------------------------------
    async def enroll(self, ppuf: Ppuf) -> str:
        """Publish the device description; returns the server's device id."""
        reply = await self.request_ok(
            {"type": wire.ENROLL, "device": ppuf_to_dict(ppuf)}, retry=True
        )
        return reply["device_id"]

    async def stats(self) -> dict:
        reply = await self.request_ok({"type": wire.STATS}, retry=True)
        return reply["stats"]

    async def authenticate(
        self,
        ppuf,
        *,
        network: str = "a",
        rounds: Optional[int] = None,
        algorithm: str = DEFAULT_ALGORITHM,
        tamper: Optional[Callable[[dict], dict]] = None,
        delay: float = 0.0,
    ) -> AuthOutcome:
        """Run one full authentication session as the device holder.

        ``ppuf`` may be a live :class:`~repro.ppuf.device.Ppuf` (identified
        by its content digest) or a
        :class:`~repro.ppuf.compiled.CompiledDevice` (whose stamped
        ``device_id`` identifies the enrolled silicon — ``repro pack
        build`` produces these and ``repro auth --pack`` loads them).

        ``tamper`` receives each outgoing wire-claim dict and returns the
        (possibly mutated) dict to send; ``delay`` sleeps that many seconds
        before answering each challenge.

        The opening HELLO is retried under the client policy (a fresh
        session costs the server nothing); once a challenge is
        outstanding, CLAIM goes out exactly once — a transport failure
        there raises and the whole authentication must be restarted.
        """
        prover = PpufProver(ppuf.network(network))
        message = {"type": wire.HELLO, "device_id": ppuf.device_id, "network": network}
        if rounds is not None:
            message["rounds"] = int(rounds)
        reply = await self.request_ok(message, retry=True)
        transcript: List[dict] = []
        while reply["type"] == wire.CHALLENGE:
            challenge = wire.challenge_from_wire(reply["challenge"])
            if delay:
                await asyncio.sleep(delay)
            claim = prover.answer_compact(challenge, algorithm=algorithm)
            claim_wire = wire.claim_to_wire(claim)
            if tamper is not None:
                claim_wire = tamper(claim_wire)
            transcript.append(
                {
                    "round": reply["round"],
                    "nonce": reply["nonce"],
                    "value": claim.value,
                    "deadline_seconds": reply["deadline_seconds"],
                }
            )
            reply = await self.request_ok(
                {
                    "type": wire.CLAIM,
                    "session": reply["session"],
                    "nonce": reply["nonce"],
                    "claim": claim_wire,
                }
            )
        if reply["type"] != wire.VERDICT:
            raise ServiceError(f"expected a verdict, got {reply['type']!r}")
        return AuthOutcome(
            accepted=bool(reply["accepted"]),
            reason=str(reply.get("reason", "")),
            rounds_run=int(reply.get("rounds_run", len(transcript))),
            session_id=str(reply.get("session", "")),
            transcript=transcript,
        )


# ----------------------------------------------------------------------
# blocking one-shot helpers (CLI entry points)
# ----------------------------------------------------------------------
async def _with_client(
    host: str,
    port: int,
    action,
    *,
    timeout: float = DEFAULT_TIMEOUT,
    retry: Optional[RetryPolicy] = None,
):
    async with ServiceClient(host, port, timeout=timeout, retry=retry) as client:
        return await action(client)


def enroll_device(
    host: str,
    port: int,
    ppuf: Ppuf,
    *,
    timeout: float = DEFAULT_TIMEOUT,
    retry: Optional[RetryPolicy] = None,
) -> str:
    """Blocking enroll of one device."""
    return asyncio.run(
        _with_client(host, port, lambda c: c.enroll(ppuf), timeout=timeout, retry=retry)
    )


def authenticate_device(
    host: str,
    port: int,
    ppuf,  # a Ppuf or a CompiledDevice
    *,
    timeout: float = DEFAULT_TIMEOUT,
    retry: Optional[RetryPolicy] = None,
    **kwargs,
) -> AuthOutcome:
    """Blocking authentication of one device (see :meth:`ServiceClient.authenticate`)."""
    return asyncio.run(
        _with_client(
            host,
            port,
            lambda c: c.authenticate(ppuf, **kwargs),
            timeout=timeout,
            retry=retry,
        )
    )


def fetch_stats(
    host: str,
    port: int,
    *,
    timeout: float = DEFAULT_TIMEOUT,
    retry: Optional[RetryPolicy] = None,
) -> dict:
    """Blocking ``STATS`` snapshot."""
    return asyncio.run(
        _with_client(host, port, lambda c: c.stats(), timeout=timeout, retry=retry)
    )
