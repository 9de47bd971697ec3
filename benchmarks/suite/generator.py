"""Open-loop load generator: one process, one asyncio loop.

Sessions arrive on a seeded Poisson schedule, independent of how fast
the server answers, so a stall shows up as queueing instead of being
hidden by a slower client (coordinated omission).  At most ``slots``
sessions are in flight; a session that waits for a free slot keeps its
*scheduled* send time, so the wait counts toward its latency.

Each session opens a fresh connection through the public client
(:class:`repro.service.client.ServiceClient`), sends HELLO, proves every
challenge with :meth:`repro.ppuf.verification.PpufProver.answer_compact`
and sends one CLAIM per round.  A hostile session doubles its claim
value; the server must reject it.

With ``trace`` on, each session keeps its span tree in memory: the root
``session`` (scheduled send to verdict) with children ``slot_wait``,
``connect``, ``hello``, ``prove`` and ``claim`` per round, and ``close``.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ServiceError
from repro.ppuf.verification import PpufProver, verify_compact_claims
from repro.service import wire
from repro.service.client import ServiceClient
from repro.service.resilience import RetryPolicy

#: The one honest-claim rejection the verifier is known to produce today:
#: ``decompose_flow`` leaves up to n·1e-12 A of a ~1e-8 A flow
#: undecomposed, and the value check (rtol 1e-9) catches the difference.
KNOWN_DEFECT_REASON = "claimed value does not match the shipped flow"

#: A hostile session multiplies its honest claim value by this.
HOSTILE_FACTOR = 2.0

#: Per-operation client timeout [s]; the drain after the last arrival [s].
SESSION_TIMEOUT = 10.0
DRAIN_SECONDS = 30.0

#: Server verdict reasons that mean the work was refused, not judged.
REFUSALS = frozenset({"deadline", "verify_timeout"})


@dataclass(frozen=True)
class Arrival:
    offset: float  # seconds after the schedule starts
    device: int
    network: str
    hostile: bool


def poisson_schedule(
    times: np.random.Generator,
    choices: np.random.Generator,
    *,
    rate: float,
    seconds: float,
    devices: int,
    hostile_share: float,
) -> List[Arrival]:
    """Poisson arrivals at ``rate`` per second over ``seconds``.

    Send times are drawn from ``times``, and the device, network and
    hostile flag each arrival carries from ``choices``.
    """
    arrivals = []
    offset = times.exponential(1.0 / rate)
    while offset < seconds:
        arrivals.append(
            Arrival(
                offset=float(offset),
                device=int(choices.integers(devices)),
                network="ab"[int(choices.integers(2))],
                hostile=bool(choices.random() < hostile_share),
            )
        )
        offset += times.exponential(1.0 / rate)
    return arrivals


@dataclass
class SessionRecord:
    arrival: Arrival
    measured: bool
    due: float
    late: float = 0.0  # how late the generator spawned the session
    started: float = 0.0  # slot acquired
    end: float = 0.0  # verdict (or failure) seen
    outcome: str = "error"  # accepted | rejected | error
    reason: str = ""
    known_defect: bool = False
    unexpected: str = ""
    spans: List[Tuple[str, float, float]] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.outcome == "error" or self.reason in REFUSALS

    @property
    def correct(self) -> bool:
        """The verdict the protocol owes this session."""
        if self.failed:
            return False
        if self.arrival.hostile:
            return self.outcome == "rejected"
        return self.outcome == "accepted"

    @property
    def latency_ms(self) -> float:
        return (self.end - self.due) * 1e3


def span_tree(record: SessionRecord, origin: float) -> List[dict]:
    """One session's spans [ms after ``origin``]; id 0 is the root."""

    def ms(moment: float) -> float:
        return (moment - origin) * 1e3

    spans = [{
        "id": 0, "parent": None, "name": "session",
        "start_ms": ms(record.due), "end_ms": ms(record.end),
    }]
    for index, (name, start, end) in enumerate(record.spans, 1):
        spans.append({
            "id": index, "parent": 0, "name": name,
            "start_ms": ms(start), "end_ms": ms(end),
        })
    return spans


def self_times(spans: List[dict]) -> Dict[int, float]:
    """Span id → its duration minus the part of it its children cover."""
    children: Dict[int, list] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    out = {}
    for span in spans:
        start, end = span["start_ms"], span["end_ms"]
        covered, reach = 0.0, start
        for child in sorted(children.get(span["id"], ()), key=lambda c: c["start_ms"]):
            lo, hi = max(child["start_ms"], reach), min(child["end_ms"], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span["id"]] = (end - start) - covered
    return out


class OpenLoopGenerator:
    """Drive one schedule against one endpoint.

    ``provers`` maps ``(device_index, network)`` to a
    :class:`PpufProver`.  ``sample`` runs ``warmup`` seconds into the
    schedule and again after the last session finished; its results land
    in :attr:`phase` under ``"start"`` and ``"end"``.
    """

    def __init__(
        self,
        host: str,
        port: int,
        device_ids: List[str],
        provers: Dict[Tuple[int, str], PpufProver],
        arrivals: List[Arrival],
        *,
        warmup: float,
        rounds: int,
        slots: int,
        trace: bool,
        sample: Callable[[], Awaitable[dict]],
    ):
        self.host = host
        self.port = port
        self.device_ids = device_ids
        self.provers = provers
        self.arrivals = arrivals
        self.warmup = warmup
        self.rounds = rounds
        self.slots = slots
        self.trace = trace
        self._sample = sample
        self.records: List[SessionRecord] = []
        self.phase: Dict[str, dict] = {}
        self.origin = 0.0

    async def run(self) -> List[SessionRecord]:
        slots = asyncio.Semaphore(self.slots)
        self.origin = origin = time.perf_counter() + 0.05
        start = asyncio.create_task(self._start_phase_at(origin + self.warmup))
        tasks = []
        for arrival in self.arrivals:
            due = origin + arrival.offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            record = SessionRecord(arrival, arrival.offset >= self.warmup, due)
            record.late = time.perf_counter() - due
            self.records.append(record)
            tasks.append(asyncio.create_task(self._session(record, slots)))
        await start
        if tasks:
            _, pending = await asyncio.wait(tasks, timeout=DRAIN_SECONDS)
            for task in pending:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
        self.phase["end"] = await self._sample()
        return self.records

    async def _start_phase_at(self, when: float) -> None:
        delay = when - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        self.phase["start"] = await self._sample()

    async def _session(self, record: SessionRecord, slots: asyncio.Semaphore) -> None:
        arrival = record.arrival
        spans = record.spans if self.trace else None
        prover = self.provers[(arrival.device, arrival.network)]
        async with slots:
            record.started = time.perf_counter()
            if spans is not None:
                spans.append(("slot_wait", record.due, record.started))
            client = ServiceClient(
                self.host, self.port, timeout=SESSION_TIMEOUT,
                retry=RetryPolicy.no_retry(),
            )
            claim = None
            try:
                mark = time.perf_counter()
                await client.connect()
                mark = self._span(spans, "connect", mark)
                reply = await client.request_ok({
                    "type": wire.HELLO,
                    "device_id": self.device_ids[arrival.device],
                    "network": arrival.network,
                    "rounds": self.rounds,
                })
                mark = self._span(spans, "hello", mark)
                while reply["type"] == wire.CHALLENGE:
                    challenge = wire.challenge_from_wire(reply["challenge"])
                    claim = prover.answer_compact(challenge)
                    claim_wire = wire.claim_to_wire(claim)
                    if arrival.hostile:
                        claim_wire["value"] = claim_wire["value"] * HOSTILE_FACTOR
                    mark = self._span(spans, "prove", mark)
                    reply = await client.request_ok({
                        "type": wire.CLAIM,
                        "session": reply["session"],
                        "nonce": reply["nonce"],
                        "claim": claim_wire,
                    })
                    mark = self._span(spans, "claim", mark)
                if reply["type"] != wire.VERDICT:
                    raise ServiceError(f"expected a verdict, got {reply['type']!r}")
                record.outcome = "accepted" if reply["accepted"] else "rejected"
                record.reason = str(reply.get("reason", ""))
            except ServiceError as error:
                record.outcome, record.reason = "error", str(error)
            except asyncio.CancelledError:
                record.reason = "still running when the drain timed out"
                raise
            finally:
                mark = time.perf_counter()
                await client.close()
                self._span(spans, "close", mark)
                record.end = time.perf_counter()
        if record.outcome == "rejected" and not arrival.hostile and not record.failed:
            self._explain_honest_reject(record, prover, claim)

    @staticmethod
    def _span(spans: Optional[list], name: str, start: float) -> float:
        end = time.perf_counter()
        if spans is not None:
            spans.append((name, start, end))
        return end

    @staticmethod
    def _explain_honest_reject(record, prover, claim) -> None:
        """Re-verify a rejected honest claim locally: the documented
        defect is tolerated, anything else is a correctness failure."""
        verdict = verify_compact_claims(prover.network, [claim])[0]
        if verdict.reason == KNOWN_DEFECT_REASON:
            record.known_defect = True
        else:
            record.unexpected = (
                f"honest claim rejected by the server ({record.reason}); "
                f"local verdict: {verdict.reason or 'accepted'}"
            )
