"""The asyncio authentication server.

``PpufAuthServer`` glues the pieces together: a JSON-lines TCP listener
(:mod:`repro.service.wire`), the :class:`~repro.service.registry.DeviceRegistry`,
the :class:`~repro.service.sessions.SessionManager`, a bounded
verification pool, and :class:`~repro.service.stats.ServerStats`.

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

Claim micro-batching: concurrent claims coalesce in a
:class:`ClaimMicroBatcher` (bounded batch size plus a small linger) and
are verified as one lockstep pass over ``(B, E)`` edge arrays —
:func:`repro.ppuf.verification.verify_compact_claims` on the shared CSR
topology — before the per-claim verdicts are split back out.  Under load
this turns B pool round trips into one; a lone claim pays at most the
linger (2 ms by default).  Because no arithmetic in the batched verifier
couples claims, a verdict is bit-identical whether the claim rode solo or
coalesced, and one poisoned claim can only reject itself.

Fault containment (the resilience layer): the server treats every remote
input and every internal worker as hostile or broken until proven
otherwise.  Malformed frames and unknown verbs are answered with wire
``ERROR`` replies and counted, worker exceptions become ``infeasible``
verdicts instead of dead connections, the idle-session sweeper logs and
survives its own failures, connection/session limits turn floods into
backpressure, stalled verifications and stalled connections are cut by
timeouts, and :meth:`PpufAuthServer.stop` drains in-flight verifications
before tearing the pool down.  Every containment path increments a
dedicated :class:`ServerStats` counter exported over ``STATS``.
"""

from __future__ import annotations

import asyncio
import logging
from collections import OrderedDict
from typing import Optional

from repro.circuit.ptm32 import OperatingConditions, Technology
from repro.errors import ServiceError, ServiceTimeout, VerificationError, WorkerCrash
from repro.flow.graph import DEFAULT_RTOL
from repro.ppuf.challenge import ChallengeSpace
from repro.ppuf.crossbar import Crossbar
from repro.ppuf.delay import lin_mead_delay_bound
from repro.ppuf.verification import verify_compact_claims
from repro.runtime.microbatch import MicroBatcher
from repro.runtime.pool import WorkerPool
from repro.runtime.provision import materialise_payload
from repro.service import wire
from repro.service.registry import DeviceRegistry
from repro.service.sessions import ReplayRejected, Session, SessionManager
from repro.service.stats import ServerStats

logger = logging.getLogger(__name__)

#: Deadline slack relayed to clients as ``paper_deadline_seconds`` — the
#: modeled time bound of :class:`repro.ppuf.protocol.AuthenticationSession`.
PAPER_DEADLINE_SLACK = 100.0


def _verify_claims_task(jobs, rtol: float) -> list:
    """Verify one coalesced claim batch; runs inside a pool worker.

    ``jobs`` is a list of ``(device_id, payload, network, claim_wire)``
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
            net = materialise_payload(jobs[indices[0]][1], device_id).network(network)
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
            verdicts = verify_compact_claims(net, claims, rtol=rtol)
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


class VerificationPool:
    """The service face of :class:`~repro.runtime.pool.WorkerPool` for
    :func:`_verify_claims_task`.

    ``timeout`` cuts off any single verification: a claim that wedges a
    worker raises :class:`ServiceTimeout` to the caller instead of holding
    its connection (and an admission slot) forever.  ``active`` counts
    in-flight verifications so :meth:`PpufAuthServer.stop` can drain.  A
    worker process dying raises :class:`~repro.errors.WorkerCrash` (the
    runtime pool restarts itself first); the server contains it into a
    rejected verdict.
    """

    def __init__(
        self,
        workers: int = 0,
        *,
        max_pending: Optional[int] = None,
        timeout: Optional[float] = None,
    ):
        if timeout is not None and timeout <= 0:
            raise ServiceError(f"verify timeout must be positive, got {timeout}")
        self.workers = workers
        self.runtime = WorkerPool(
            workers,
            max_pending=max_pending,
            task_timeout=timeout,
            task_name="verification",
        )

    @property
    def timeout(self) -> Optional[float]:
        return self.runtime.task_timeout

    @property
    def active(self) -> int:
        return self.runtime.active

    async def verify_batch(self, jobs: list, rtol: float) -> list:
        """Run :func:`_verify_claims_task` off-loop for a coalesced batch.

        One admission slot and one executor dispatch cover the whole
        batch — that is the micro-batching win: B claims pay one pool
        round trip.  ``timeout`` bounds the batch as a unit; a blown
        deadline raises :class:`ServiceTimeout` for every claim in it.
        ``_verify_claims_task`` resolves as a module global at call time,
        so tests can swap the task function.
        """
        return await self.runtime.run(_verify_claims_task, list(jobs), rtol)

    def shutdown(self) -> None:
        self.runtime.shutdown(wait=False, cancel_futures=True)


class ClaimMicroBatcher(MicroBatcher):
    """Coalesces concurrent claim verifications into pool batches.

    The service face of :class:`~repro.runtime.microbatch.MicroBatcher`:
    every claim that arrives while a batch is forming joins it; the batch
    is dispatched when it reaches ``batch_size`` or when the oldest claim
    has lingered ``linger_seconds`` — whichever comes first.  Under load
    (many concurrent sessions) batches fill instantly and the linger never
    applies; a lone claim pays at most ``linger_seconds`` of extra latency
    (2 ms by default, far below a secure-size verify) in exchange for the
    fleet win: B claims per pool round trip instead of one.

    Verdicts are split back out per claim and are bit-identical to solo
    verification — :func:`repro.ppuf.verification.verify_compact_claims`
    never lets one claim's arithmetic (or failure) touch another's.  A
    dispatch that fails fails only its own batch: :class:`ServiceTimeout`
    and :class:`~repro.errors.WorkerCrash` reach each claim typed (the
    claim handler contains them), anything else as :class:`ServiceError`.
    """

    def __init__(
        self,
        pool: VerificationPool,
        stats: Optional["ServerStats"] = None,
        *,
        rtol: float = DEFAULT_RTOL,
        batch_size: int = 16,
        linger_seconds: float = 0.002,
    ):
        super().__init__(
            self._verify_jobs,
            batch_size=batch_size,
            linger_seconds=linger_seconds,
            on_dispatch=self._record_batch,
        )
        self.pool = pool
        self.stats = stats
        self.rtol = rtol

    async def _verify_jobs(self, jobs: list) -> list:
        return await self.pool.verify_batch(jobs, self.rtol)

    def _record_batch(self, size: int) -> None:
        stats = self.stats
        if stats is not None:
            stats.claim_batches += 1
            stats.claims_batched += size
            occupancy = stats.claim_batch_occupancy
            key = str(size)
            occupancy[key] = occupancy.get(key, 0) + 1

    async def verify(
        self, device_id: str, payload, network: str, claim_wire: dict
    ) -> tuple:
        """Queue one claim; resolves to its ``(accepted, reason, seconds,
        fault)`` tuple once its batch returns."""
        return await self.submit((device_id, payload, network, claim_wire))


class PpufAuthServer:
    """The networked verifier.

    Parameters
    ----------
    registry:
        Devices this verifier will challenge (may start empty when
        ``allow_enroll``).
    host, port:
        Bind address; ``port=0`` picks a free port (see :attr:`port` after
        :meth:`start`).
    deadline_seconds, idle_timeout, rounds, seed, max_sessions:
        Session-manager knobs (see :class:`SessionManager`).
    workers:
        Verification processes; ``0`` verifies in the default thread
        executor (cheap devices / tests).
    rtol:
        Claim-value tolerance forwarded to the batched claim verifier.
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
        How long :meth:`stop` waits for in-flight verifications to
        complete before shutting the pool down.
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
        rtol: float = DEFAULT_RTOL,
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
        self.pool = VerificationPool(workers, timeout=verify_timeout)
        self.stats = ServerStats(runtime=self.pool.runtime.stats)
        self.batcher = ClaimMicroBatcher(
            self.pool,
            self.stats,
            rtol=rtol,
            batch_size=claim_batch_size,
            linger_seconds=claim_batch_linger,
        )
        self._connections = 0
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
        # Stop accepting first, then drain in-flight verifications so a
        # claim that already paid for its verify still gets its verdict,
        # then tear down the sweeper, the pool and the enrollment pack.
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self._drain_verifications()
        if self._sweeper is not None:
            self._sweeper.cancel()
            try:
                await self._sweeper
            except asyncio.CancelledError:
                pass
            self._sweeper = None
        self.pool.shutdown()
        self.registry.close()

    async def _drain_verifications(self) -> None:
        self.batcher.flush()
        deadline = asyncio.get_running_loop().time() + self.drain_seconds

        def _in_flight() -> bool:
            return bool(self.pool.active or self.batcher.busy)

        while _in_flight() and asyncio.get_running_loop().time() < deadline:
            await asyncio.sleep(0.01)
        if self.pool.active:
            logger.warning(
                "stop(): %d verification(s) still in flight after %.1f s drain",
                self.pool.active,
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
            reply = await self._dispatch(message)
            await wire.write_message(writer, reply)

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
        device_id = self.registry.enroll(public)
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
        # The header is all a session needs: no device is built or cached.
        header = self.registry.header(device_id)
        if not header.get("technology") or not header.get("conditions"):
            raise ServiceError(
                f"device {device_id!r} carries no technology card or operating point"
            )
        crossbar = Crossbar(n=int(header["n"]), l=int(header["l"]))
        session = self.sessions.open(
            device_id, ChallengeSpace(crossbar), network, message.get("rounds")
        )
        session.paper_deadline_seconds = PAPER_DEADLINE_SLACK * lin_mead_delay_bound(
            crossbar.n,
            Technology(**header["technology"]),
            OperatingConditions(**header["conditions"]),
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
            "paper_deadline_seconds": session.paper_deadline_seconds,
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

        payload = await self._device_payload(session.device_id)
        try:
            accepted, reason, verify_seconds, fault = await self.batcher.verify(
                session.device_id, payload, session.network, claim_wire
            )
        except ServiceTimeout:
            self.stats.verify_timeouts += 1
            logger.warning(
                "verification of session %s timed out after %g s",
                session.session_id,
                self.pool.timeout,
            )
            return self._verdict(session, False, "verify_timeout", elapsed)
        except WorkerCrash as error:
            # Crash-to-verdict: the runtime pool already restarted its
            # executor, so the next claim runs on a healthy worker; this
            # claim's work is gone and is rejected like any worker fault.
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

    async def _device_payload(self, device_id: str):
        """The ``("pack", path)`` reference handed to verification workers.

        Each worker resolves it against its own long-lived mapping of the
        pack, so the claim's verify is an index lookup + row slice with no
        artifact bytes on the wire.  A fleet-pack device costs nothing
        here; a JSON-enrolled one pays one compilation into the registry's
        enrollment pack on its first claim, offloaded to the default
        executor so the event loop keeps serving.
        """
        pack = self.registry.pack
        if pack is not None and device_id in pack:
            return ("pack", pack.path)
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None, self.registry.artifact_payload, device_id
        )

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
