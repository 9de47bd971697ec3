"""Per-server counters and the verify-latency histograms.

Everything here is mutated from the single event-loop thread, so plain
integer increments suffice — no locks.  :class:`ServerStats` is a
:class:`~repro.metrics.Metrics` record: ``snapshot()`` is the payload the
``STATS`` wire request returns, and ``ServerStats().snapshot()`` is the
complete zero template a fleet router folds per-shard snapshots into with
the one exact merge (:func:`repro.metrics.merge`) — the merged counters
equal what a single server observing the union of the traffic would have
counted.

Verify latency is recorded twice: once in the overall histogram and once
per solver algorithm (claims carry the registered solver name on the wire,
validated against :mod:`repro.flow.registry`), so a fleet operator can see
live which algorithms provers use and what each one costs to verify.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.flow.registry import is_registered
from repro.metrics import Histogram, Metrics
from repro.runtime.stats import RuntimeStats

#: Telemetry key for claims naming no (or an unregistered) solver.
UNKNOWN_ALGORITHM = "unknown"


def shard_settled(previous: dict, current: dict) -> bool:
    """True when a draining shard's in-flight work has settled.

    ``previous`` and ``current`` are two consecutive wire ``STATS``
    snapshots from the same shard.  Settled means nothing is live *now*
    (no open sessions, no verification in the pool or queued in the
    micro-batcher) and nothing *started* between the two polls
    (``sessions_opened`` unchanged) — the delta guard closes the race
    where a session opens and closes entirely between two polls of an
    instantaneously-idle shard.  A supervisor draining a shard polls
    until this holds, then removes and terminates it.
    """
    if current.get("active_sessions", 0):
        return False
    if current.get("verifications_in_flight", 0):
        return False
    return current.get("sessions_opened", 0) == previous.get("sessions_opened", 0)


@dataclass
class ServerStats(Metrics):
    """Counters for everything the acceptance criteria care about."""

    enrollments: int = 0
    sessions_opened: int = 0
    sessions_accepted: int = 0
    sessions_rejected: int = 0
    sessions_expired: int = 0
    rounds_issued: int = 0
    claims_verified: int = 0
    deadline_misses: int = 0
    replays_rejected: int = 0
    unknown_devices: int = 0
    protocol_errors: int = 0
    # --- fault-containment counters (the resilience layer) -------------
    #: verifications that exceeded the server's ``verify_timeout``
    verify_timeouts: int = 0
    #: connections dropped for idling past ``connection_timeout`` mid-read
    connection_timeouts: int = 0
    #: pool-worker exceptions contained into "infeasible" verdicts
    worker_faults: int = 0
    #: exceptions survived (logged + counted) by the idle-session sweeper
    sweeper_faults: int = 0
    #: connections refused or cut by the connection/message limits
    connections_rejected: int = 0
    #: connections accepted by the listener
    connections_opened: int = 0
    #: client frames carrying a ``retry`` attempt marker (> 0)
    retries_observed: int = 0
    #: unexpected handler exceptions contained into ERROR replies
    internal_errors: int = 0
    # --- claim micro-batching -------------------------------------------
    #: coalesced verification batches dispatched to the pool
    claim_batches: int = 0
    #: claims that went through a coalesced batch (of any size)
    claims_batched: int = 0
    #: batch-size histogram: occupancy (as a string key, JSON-friendly)
    #: -> number of batches dispatched at that size.  Mean occupancy is
    #: ``claims_batched / claim_batches``.
    claim_batch_occupancy: Dict[str, int] = field(default_factory=dict)
    verify_latency: Histogram = field(default_factory=Histogram)
    solver_latency: Dict[str, Histogram] = field(default_factory=dict)
    # --- live state, set by the server when it answers STATS -------------
    active_sessions: int = 0
    #: a gauge: every shard of a fleet maps the same pack
    devices: int = 0
    open_connections: int = 0
    #: claims in the pool plus claims lingering in the micro-batcher
    verifications_in_flight: int = 0
    #: the verification pool's own record, shared with the pool
    runtime: RuntimeStats = field(default_factory=RuntimeStats)

    def observe_verify(self, algorithm, seconds: float) -> None:
        """Record one claim verification: count, overall and per-algorithm.

        ``algorithm`` is the solver name the claim carried over the wire;
        anything not in the solver registry is bucketed as
        :data:`UNKNOWN_ALGORITHM` so a hostile client cannot grow the
        snapshot without bound.
        """
        self.claims_verified += 1
        self.verify_latency.observe(seconds)
        name = algorithm if is_registered(algorithm) else UNKNOWN_ALGORITHM
        histogram = self.solver_latency.get(name)
        if histogram is None:
            histogram = self.solver_latency[name] = Histogram()
        histogram.observe(seconds)
