"""The asyncio authentication server.

``PpufAuthServer`` glues the pieces together: a JSON-lines TCP listener
(:mod:`repro.service.wire`), the :class:`~repro.service.registry.DeviceRegistry`
(one artifact pack: HELLO reads its record headers, every claim hands the
pool that pack's path, and ``ENROLL`` validates, compiles and appends in
the default executor, off the event loop), the
:class:`~repro.service.sessions.SessionManager`, a bounded verification
pool, and :class:`~repro.service.stats.ServerStats`.

The verification pool matters because claim verification is the
O(n²/p) residual-graph check — microseconds on toy devices but the real
cost center at secure sizes.  Claims are therefore verified off-loop in
a supervised :class:`~repro.runtime.pool.WorkerPool` (process workers
for ``workers > 0``, threads for ``workers == 0``), never on the event
loop, and the pool's admission bound means a claim flood degrades into
backpressure instead of unbounded memory growth.  A worker process dying
mid-claim is contained the same way a worker exception is: the pool
restarts itself and the claim gets an ``infeasible`` verdict
(crash-to-verdict) instead of killing the connection.

Claim micro-batching: every claim is submitted to the server's
:class:`~repro.runtime.microbatch.MicroBatcher` (bounded batch size plus
a small linger); concurrent claims coalesce into one pool dispatch and
are verified as one lockstep pass over ``(B, E)`` edge arrays —
:func:`repro.ppuf.verification.verify_compact_claims` on the shared CSR
topology — before the per-claim verdicts are split back out.  Under load
this turns B pool round trips into one; a lone claim pays at most the
linger (2 ms by default).  Because no arithmetic in the batched verifier
couples claims, a verdict is bit-identical whether the claim rode solo or
coalesced, and one poisoned claim can only reject itself.  A batch that
fails as a whole (timeout aside) rejects each of its claims as a worker
fault.

Fault containment (the resilience layer): the server treats every remote
input and every internal worker as hostile or broken until proven
otherwise.  Malformed frames and unknown verbs are answered with wire
``ERROR`` replies and counted, worker exceptions become ``infeasible``
verdicts instead of dead connections, the idle-session sweeper logs and
survives its own failures, connection/session limits turn floods into
backpressure, stalled verifications and stalled connections are cut by
timeouts, and :meth:`PpufAuthServer.stop` drains in-flight verifications
and replies, then closes every connection, before tearing the pool down.
Every containment path increments a dedicated :class:`ServerStats`
counter exported over ``STATS``.
"""

from __future__ import annotations

import asyncio
import logging
from collections import OrderedDict
from typing import Dict, Optional

from repro.errors import ReproError, ServiceError, ServiceTimeout, VerificationError
from repro.ppuf.challenge import ChallengeSpace
from repro.ppuf.crossbar import Crossbar
from repro.ppuf.verification import verify_compact_claims
from repro.runtime.microbatch import MicroBatcher
from repro.runtime.pool import WorkerPool
from repro.runtime.provision import pack_device
from repro.service import wire
from repro.service.registry import DeviceRegistry
from repro.service.sessions import ReplayRejected, Session, SessionManager
from repro.service.stats import ServerStats

logger = logging.getLogger(__name__)


def _verify_claims_task(jobs) -> list:
    """Verify one coalesced claim batch; runs inside a pool worker.

    ``jobs`` is a list of ``(device_id, pack_path, network, claim_wire)``
    tuples.  Claims are grouped per ``(device, network)`` and each group
    runs through :func:`repro.ppuf.verification.verify_compact_claims` —
    one lockstep pass over ``(B, E)`` edge arrays.  Per-claim arithmetic in
    that pass never couples claims, so every verdict is exactly what the
    claim would have received alone, and a poisoned claim (malformed wire
    form, bad paths, device trouble) is contained to its own row.

    Returns one ``(accepted, reason, verify_seconds, fault)`` tuple per
    job, in order.  ``reason`` is ``"ok"``, ``"incorrect"`` (feasible but
    wrong) or ``"infeasible"`` (conservation/capacity violation or
    malformed paths); ``fault`` is ``None`` for expected outcomes and
    carries the error text of any *unexpected* exception, which still
    rejects only its own claims — a worker exception must never escape
    the pool and kill the connection.  ``verify_seconds`` is the batch
    wall clock amortised over its claims.
    """
    import time

    start = time.perf_counter()
    results: list = [None] * len(jobs)
    groups: "OrderedDict[tuple, list]" = OrderedDict()
    for index, (device_id, _, network, _) in enumerate(jobs):
        groups.setdefault((device_id, network), []).append(index)
    for (device_id, network), indices in groups.items():
        try:
            net = pack_device(jobs[indices[0]][1], device_id).network(network)
        except (VerificationError, ServiceError):
            for index in indices:
                results[index] = (False, "infeasible", None)
            continue
        except Exception as error:  # noqa: BLE001 — containment is the point
            fault = f"{type(error).__name__}: {error}"
            for index in indices:
                results[index] = (False, "infeasible", fault)
            continue
        claims, rows = [], []
        for index in indices:
            try:
                claims.append(wire.claim_from_wire(jobs[index][3]))
                rows.append(index)
            except (VerificationError, ServiceError):
                results[index] = (False, "infeasible", None)
            except Exception as error:  # noqa: BLE001
                results[index] = (
                    False, "infeasible", f"{type(error).__name__}: {error}"
                )
        if not rows:
            continue
        try:
            verdicts = verify_compact_claims(net, claims)
        except Exception as error:  # noqa: BLE001 — a verifier bug rejects
            fault = f"{type(error).__name__}: {error}"
            for index in rows:
                results[index] = (False, "infeasible", fault)
            continue
        for index, verdict in zip(rows, verdicts):
            results[index] = (verdict.accepted, verdict.kind, verdict.fault)
    share = (time.perf_counter() - start) / max(len(jobs), 1)
    return [
        (accepted, reason, share, fault)
        for accepted, reason, fault in results
    ]


class PpufAuthServer:
    """The networked verifier.

    Parameters
    ----------
    registry:
        Devices this verifier will challenge (may start empty when
        ``allow_enroll``); a scratch registry when omitted.
    host, port:
        Bind address; ``port=0`` picks a free port (see :attr:`port` after
        :meth:`start`).
    deadline_seconds, idle_timeout, rounds, seed, max_sessions:
        Session-manager knobs (see :class:`SessionManager`).
    workers:
        Verification processes; ``0`` verifies in the default thread
        executor (cheap devices / tests).
    allow_enroll:
        Accept ``enroll`` messages over the wire (disable for a
        pre-provisioned fleet).
    claim_batch_size:
        Micro-batching bound: up to this many concurrent claims coalesce
        into one pool dispatch (verified in lockstep by
        :func:`~repro.ppuf.verification.verify_compact_claims`, verdicts
        split back per claim).  ``1`` dispatches every claim alone.
    claim_batch_linger:
        How long [s] a forming batch waits for company before dispatching
        anyway.  Bounds the single-claim latency regression: a lone claim
        is delayed by at most this much (default 2 ms).
    verify_timeout:
        Per-claim verification cutoff [s]; blown → ``verify_timeout``
        verdict + ``stats.verify_timeouts``.  ``None`` disables.  With
        micro-batching the cutoff covers the claim's whole batch.
    connection_timeout:
        Per-read idle cutoff [s] on open connections; a peer that stalls
        mid-session is disconnected (``stats.connection_timeouts``).
        ``None`` disables (the session idle sweeper still applies).
    max_connections:
        Cap on concurrently open connections; excess connects get one
        wire ``ERROR`` and a close (``stats.connections_rejected``).
    max_messages_per_connection:
        Per-connection message budget — backpressure against a single
        connection monopolising the server.  ``None`` disables.
    drain_seconds:
        How long :meth:`stop` waits for in-flight verifications and
        replies to complete before it closes the connections.
    """

    def __init__(
        self,
        registry: Optional[DeviceRegistry] = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        deadline_seconds: float = 5.0,
        idle_timeout: float = 60.0,
        rounds: int = 4,
        workers: int = 0,
        seed: Optional[int] = None,
        allow_enroll: bool = True,
        claim_batch_size: int = 16,
        claim_batch_linger: float = 0.002,
        verify_timeout: Optional[float] = 60.0,
        connection_timeout: Optional[float] = 300.0,
        max_connections: int = 256,
        max_messages_per_connection: Optional[int] = 100_000,
        max_sessions: Optional[int] = 4096,
        drain_seconds: float = 5.0,
    ):
        if max_connections < 1:
            raise ServiceError(f"max_connections must be >= 1, got {max_connections}")
        self.registry = registry if registry is not None else DeviceRegistry()
        self.host = host
        self.port = port
        self.allow_enroll = allow_enroll
        self.connection_timeout = connection_timeout
        self.max_connections = max_connections
        self.max_messages_per_connection = max_messages_per_connection
        self.drain_seconds = drain_seconds
        self.sessions = SessionManager(
            deadline_seconds=deadline_seconds,
            idle_timeout=idle_timeout,
            rounds=rounds,
            seed=seed,
            max_sessions=max_sessions,
        )
        self.pool = WorkerPool(
            workers, task_timeout=verify_timeout, task_name="verification"
        )
        self.stats = ServerStats(runtime=self.pool.stats)
        self.batcher = MicroBatcher(
            self._verify_batch,
            batch_size=claim_batch_size,
            linger_seconds=claim_batch_linger,
            on_dispatch=self.stats.observe_batch,
        )
        self._connections = 0
        # Every live connection handler and its writer, and how many of
        # them hold a request they have not answered yet (stop() drains).
        self._handlers: Dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._replying = 0
        self._server: Optional[asyncio.base_events.Server] = None
        self._sweeper: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self._server is not None:
            raise ServiceError("server already started")
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=wire.MAX_LINE_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._sweeper = asyncio.create_task(self._sweep_idle_sessions())

    async def stop(self) -> None:
        """Stop losslessly: every request already read gets its reply.

        Stop accepting, then drain in-flight verifications and replies so
        a claim that already paid for its verify still gets its verdict,
        then close every connection (an idle handler reads EOF and exits)
        and await the handlers before tearing down the sweeper, the pool
        and the registry.  Handlers are never cancelled: a cancel right
        after the drain could drop a just-drained verdict.
        """
        server, self._server = self._server, None
        if server is not None:
            server.close()
        await self._drain()
        for writer in self._handlers.values():
            writer.close()
        await asyncio.gather(*self._handlers, return_exceptions=True)
        if server is not None:
            await server.wait_closed()
        if self._sweeper is not None:
            self._sweeper.cancel()
            try:
                await self._sweeper
            except asyncio.CancelledError:
                pass
            self._sweeper = None
        self.pool.shutdown(wait=False, cancel_futures=True)
        self.registry.close()

    async def _drain(self) -> None:
        """Wait up to ``drain_seconds`` for verifications and replies."""
        self.batcher.flush()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.drain_seconds

        def _in_flight() -> bool:
            return bool(self.pool.active or self.batcher.busy or self._replying)

        while _in_flight() and loop.time() < deadline:
            await asyncio.sleep(0.01)
        if self.pool.active or self._replying:
            logger.warning(
                "stop(): %d verification(s) and %d reply(ies) still in "
                "flight after %.1f s drain",
                self.pool.active,
                self._replying,
                self.drain_seconds,
            )

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def __aenter__(self) -> "PpufAuthServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    async def _sweep_idle_sessions(self) -> None:
        interval = max(self.sessions.idle_timeout / 4.0, 0.05)
        while True:
            await asyncio.sleep(interval)
            try:
                self.stats.sessions_expired += self.sessions.expire_idle()
            except asyncio.CancelledError:
                raise
            except Exception:  # noqa: BLE001 — the sweeper must keep sweeping
                self.stats.sweeper_faults += 1
                logger.exception("idle-session sweep failed; continuing")

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._handlers[task] = writer
        try:
            if self._connections >= self.max_connections:
                self.stats.connections_rejected += 1
                await wire.write_message(
                    writer,
                    {"type": wire.ERROR, "error": "server at connection capacity"},
                    timeout=self.connection_timeout,
                )
                return
            self._connections += 1
            self.stats.connections_opened += 1
            try:
                await self._serve_connection(reader, writer)
            finally:
                self._connections -= 1
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        except ServiceTimeout:
            pass  # counted where it was detected
        except Exception:  # noqa: BLE001 — one bad connection must not escape
            self.stats.internal_errors += 1
            logger.exception("connection handler failed")
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            finally:
                del self._handlers[task]

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        served = 0
        while True:
            if (
                self.max_messages_per_connection is not None
                and served >= self.max_messages_per_connection
            ):
                self.stats.connections_rejected += 1
                await wire.write_message(
                    writer,
                    {"type": wire.ERROR, "error": "per-connection message limit"},
                )
                break
            try:
                message = await wire.read_message(
                    reader, timeout=self.connection_timeout
                )
            except ServiceTimeout:
                self.stats.connection_timeouts += 1
                await wire.write_message(
                    writer, {"type": wire.ERROR, "error": "connection idle timeout"}
                )
                break
            except ServiceError as error:
                self.stats.protocol_errors += 1
                await wire.write_message(
                    writer, {"type": wire.ERROR, "error": str(error)}
                )
                break
            if message is None:
                break
            served += 1
            self._replying += 1
            try:
                reply = await self._dispatch(message)
                await wire.write_message(writer, reply)
            finally:
                self._replying -= 1

    async def _dispatch(self, message: dict) -> dict:
        handlers = {
            wire.ENROLL: self._on_enroll,
            wire.HELLO: self._on_hello,
            wire.CLAIM: self._on_claim,
            wire.STATS: self._on_stats,
        }
        message_type = message.get("type")
        if not isinstance(message_type, str):
            # Never key ``handlers`` with whatever arrived on the wire: a
            # frame without a "type" string is a protocol error, not a crash.
            self.stats.protocol_errors += 1
            return {
                "type": wire.ERROR,
                "error": "message must carry a 'type' string",
            }
        retry = message.get("retry")
        if isinstance(retry, int) and not isinstance(retry, bool) and retry > 0:
            self.stats.retries_observed += 1
        handler = handlers.get(message_type)
        if handler is None:
            self.stats.protocol_errors += 1
            return {"type": wire.ERROR, "error": f"unknown message type {message_type!r}"}
        try:
            return await handler(message)
        except ReplayRejected as error:
            # counted as replays_rejected by the claim handler, not as a
            # generic protocol error
            return {"type": wire.ERROR, "error": str(error)}
        except ServiceError as error:
            self.stats.protocol_errors += 1
            return {"type": wire.ERROR, "error": str(error)}
        except Exception:  # noqa: BLE001 — a handler bug yields ERROR, not EOF
            self.stats.internal_errors += 1
            logger.exception("handler for %r failed", message_type)
            return {"type": wire.ERROR, "error": "internal server error"}

    # ------------------------------------------------------------------
    # message handlers
    # ------------------------------------------------------------------
    async def _on_enroll(self, message: dict) -> dict:
        if not self.allow_enroll:
            raise ServiceError("this server does not accept wire enrollment")
        public = message.get("device")
        if not isinstance(public, dict):
            raise ServiceError("enroll requires a 'device' object")
        # Validation and the one compile run off the loop.
        loop = asyncio.get_running_loop()
        try:
            device_id = await loop.run_in_executor(
                None, self.registry.enroll, public
            )
        except ReproError as error:
            raise ServiceError(f"cannot enroll: {error}") from error
        except OSError as error:
            logger.warning("enrollment append failed: %s", error)
            raise ServiceError("cannot enroll: registry pack write failed") from error
        self.stats.enrollments += 1
        return {"type": wire.ENROLLED, "device_id": device_id}

    async def _on_hello(self, message: dict) -> dict:
        device_id = message.get("device_id")
        if not isinstance(device_id, str):
            raise ServiceError("hello requires a 'device_id' string")
        network = message.get("network", "a")
        if device_id not in self.registry:
            self.stats.unknown_devices += 1
            raise ServiceError(f"unknown device id {device_id!r}")
        # The header's n and l are all a session needs: no device is built
        # or cached, and no device physics runs.
        header = self.registry.header(device_id)
        crossbar = Crossbar(n=int(header["n"]), l=int(header["l"]))
        session = self.sessions.open(
            device_id, ChallengeSpace(crossbar), network, message.get("rounds")
        )
        self.stats.sessions_opened += 1
        self.stats.rounds_issued += 1
        return self._challenge_message(session)

    def _challenge_message(self, session: Session) -> dict:
        return {
            "type": wire.CHALLENGE,
            "session": session.session_id,
            "nonce": session.nonce,
            "round": session.round_index,
            "rounds": session.rounds_total,
            "challenge": wire.challenge_to_wire(session.challenge),
            "deadline_seconds": session.deadline_seconds,
        }

    async def _on_claim(self, message: dict) -> dict:
        session_id = message.get("session")
        nonce = message.get("nonce")
        if not isinstance(session_id, str) or not isinstance(nonce, str):
            raise ServiceError("claim requires 'session' and 'nonce' strings")
        claim_wire = message.get("claim")
        if not isinstance(claim_wire, dict):
            raise ServiceError("claim requires a 'claim' object")
        try:
            session, elapsed = self.sessions.admit_claim(session_id, nonce)
        except ReplayRejected:
            self.stats.replays_rejected += 1
            raise

        if elapsed > session.deadline_seconds:
            self.stats.deadline_misses += 1
            return self._verdict(session, False, "deadline", elapsed)

        # The claim must answer the outstanding challenge, not one of the
        # prover's choosing.
        challenged = wire.challenge_to_wire(session.challenge)
        if claim_wire.get("challenge") != challenged:
            return self._verdict(session, False, "wrong_challenge", elapsed)

        try:
            accepted, reason, verify_seconds, fault = await self.batcher.submit(
                (session.device_id, self.registry.path, session.network, claim_wire)
            )
        except ServiceTimeout:
            self.stats.verify_timeouts += 1
            logger.warning(
                "verification of session %s timed out after %g s",
                session.session_id,
                self.pool.task_timeout,
            )
            return self._verdict(session, False, "verify_timeout", elapsed)
        except ServiceError as error:
            # The claim's whole batch failed: a worker process died (the
            # runtime pool already restarted its executor, so the next
            # claim runs on a healthy worker) or the dispatch itself
            # failed.  The claim's work is gone; it is rejected like any
            # worker fault and its session closes.
            accepted, reason, verify_seconds = False, "infeasible", 0.0
            fault = f"{type(error).__name__}: {error}"
        if fault is not None:
            self.stats.worker_faults += 1
            logger.warning(
                "verification worker fault on session %s (rejected as "
                "infeasible): %s",
                session.session_id,
                fault,
            )
        # Claims name their solver; telemetry is per-algorithm (STATS verb).
        self.stats.observe_verify(claim_wire.get("algorithm"), verify_seconds)
        if not accepted:
            return self._verdict(session, False, reason, elapsed)
        if self.sessions.advance(session):
            self.stats.rounds_issued += 1
            return self._challenge_message(session)
        self.stats.sessions_accepted += 1
        return {
            "type": wire.VERDICT,
            "session": session.session_id,
            "accepted": True,
            "reason": "ok",
            "rounds_run": session.rounds_total,
        }

    async def _verify_batch(self, jobs: list) -> list:
        """Run :func:`_verify_claims_task` off-loop for a coalesced batch.

        One admission slot and one executor dispatch cover the whole
        batch — that is the micro-batching win: B claims pay one pool
        round trip.  The pool's ``task_timeout`` bounds the batch as a
        unit.  ``_verify_claims_task`` resolves as a module global at
        call time, so tests can swap the task function.
        """
        return await self.pool.run(_verify_claims_task, jobs)

    def _verdict(self, session: Session, accepted: bool, reason: str, elapsed: float) -> dict:
        self.sessions.close(session)
        if not accepted:
            self.stats.sessions_rejected += 1
        return {
            "type": wire.VERDICT,
            "session": session.session_id,
            "accepted": accepted,
            "reason": reason,
            "rounds_run": session.round_index,
            "elapsed_seconds": elapsed,
        }

    async def _on_stats(self, message: dict) -> dict:
        stats = self.stats
        stats.active_sessions = len(self.sessions)
        stats.devices = len(self.registry)
        stats.open_connections = self._connections
        stats.verifications_in_flight = self.pool.active + self.batcher.queued
        return {"type": wire.STATS, "stats": stats.snapshot()}
