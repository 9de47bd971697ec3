"""``repro.runtime`` — the one execution substrate under every fan-out.

The repo's three process-parallel consumers — the batch CRP pipeline
(:class:`~repro.ppuf.batch.BatchEvaluator`), the auth service
(:class:`~repro.service.server.PpufAuthServer`) and the fleet load
generator (:func:`~repro.service.fleet.loadgen.generate_load`) — all run
on this layer instead of hand-rolling executors:

* :mod:`repro.runtime.pool` — :class:`WorkerPool`: supervised
  process/thread pool with bounded queues, per-task timeouts,
  crash-restart supervision and graceful drain.
* :mod:`repro.runtime.provision` — worker-side artifact provisioning:
  every device reaches a worker as a slice of an mmap'd artifact pack.
* :mod:`repro.runtime.microbatch` — :class:`MicroBatcher`: generic
  request coalescing (the service's claims) with typed failure
  pass-through.
* :mod:`repro.runtime.stats` — :class:`RuntimeStats`: pool telemetry on
  the :mod:`repro.metrics` spine, folded into ``SolveStats`` counters and
  ``STATS`` wire snapshots.
"""

from repro.runtime.microbatch import MicroBatcher
from repro.runtime.pool import WorkerPool
from repro.runtime.provision import (
    ShippedArtifact,
    materialise_payload,
    ship_compiled,
)
from repro.runtime.stats import RuntimeStats

__all__ = [
    "MicroBatcher",
    "RuntimeStats",
    "ShippedArtifact",
    "WorkerPool",
    "materialise_payload",
    "ship_compiled",
]
