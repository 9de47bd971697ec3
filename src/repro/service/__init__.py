"""Networked authentication service.

The in-process protocol of :mod:`repro.ppuf.protocol` moved onto a real
request/response boundary: an asyncio JSON-lines TCP server hosts a
public-device registry and runs the verifier side of the time-bounded
protocol (``HELLO → CHALLENGE(nonce, deadline) → CLAIM → VERDICT``), while
:mod:`repro.service.client` implements the honest device holder.

Entry points: ``python -m repro serve`` / ``python -m repro auth``, or

>>> from repro.service import DeviceRegistry, PpufAuthServer, ServiceClient
"""

from repro.service.client import (
    AuthOutcome,
    ServiceClient,
    authenticate_device,
    enroll_device,
    fetch_stats,
)
from repro.service.faults import FaultPlan, FaultyTransport
from repro.service.registry import DeviceRegistry, device_id_for
from repro.service.resilience import DEFAULT_TIMEOUT, RetryPolicy
from repro.service.server import PpufAuthServer
from repro.service.sessions import (
    ReplayRejected,
    Session,
    SessionExpired,
    SessionLimitExceeded,
    SessionManager,
    UnknownSession,
)
from repro.service.stats import ServerStats

__all__ = [
    "AuthOutcome",
    "ServiceClient",
    "authenticate_device",
    "enroll_device",
    "fetch_stats",
    "FaultPlan",
    "FaultyTransport",
    "DeviceRegistry",
    "device_id_for",
    "DEFAULT_TIMEOUT",
    "RetryPolicy",
    "PpufAuthServer",
    "Session",
    "SessionManager",
    "SessionExpired",
    "SessionLimitExceeded",
    "ReplayRejected",
    "UnknownSession",
    "ServerStats",
]
