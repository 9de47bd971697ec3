"""Exception hierarchy for the PPUF reproduction library.

Every error raised by :mod:`repro` derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class GraphError(ReproError):
    """Raised for malformed flow-network structure or invalid vertices."""


class FlowError(ReproError):
    """Raised when a flow assignment violates capacity or conservation."""


class SolverError(ReproError):
    """Raised when an algorithm fails to produce a valid result."""


class ConvergenceError(SolverError):
    """Raised when an iterative numeric solver fails to converge."""


class DeviceError(ReproError):
    """Raised for invalid device parameters or operating points."""


class ChallengeError(ReproError):
    """Raised for malformed PPUF challenges."""


class VerificationError(ReproError):
    """Raised when the residual-graph verification protocol fails."""


class AttackError(ReproError):
    """Raised for invalid model-building attack configurations."""


class MetricsError(ReproError):
    """Raised when two telemetry records or snapshots cannot merge exactly."""


class ServiceError(ReproError):
    """Raised for networked-service failures (wire, registry, sessions)."""


class ServiceTimeout(ServiceError, TimeoutError):
    """Raised when a network operation exceeds its per-operation timeout.

    Also a :class:`TimeoutError`, so callers that only know stdlib timeout
    semantics (``except TimeoutError``) still catch it.
    """


class WorkerCrash(ServiceError):
    """Raised when a runtime pool worker process dies mid-task.

    The :class:`repro.runtime.pool.WorkerPool` restarts its executor
    before raising, so the *next* task submitted to the pool runs on a
    healthy worker; the task that was in flight when the worker died is
    unrecoverable and surfaces as this error.  Service callers contain it
    into a rejected verdict (crash-to-verdict) instead of letting it kill
    the connection.
    """


class ConnectionLost(ServiceError, ConnectionError):
    """Raised when the peer closes or resets the connection mid-operation.

    Also a :class:`ConnectionError`, mirroring :class:`ServiceTimeout`.
    """
