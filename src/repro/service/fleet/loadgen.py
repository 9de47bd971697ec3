"""Load generation: hundreds of concurrent provers against a fleet.

The harness drives many :class:`~repro.service.client.ServiceClient`
sessions — honest provers and a configurable fraction of *hostile* ones
that tamper their claim values (the fleet is correct when it rejects
every one) — against any wire endpoint: a single server, a
:class:`~repro.service.fleet.router.FleetRouter`, or a
:class:`~repro.service.faults.FaultyTransport` for chaos at fleet scale
(pass a :class:`~repro.service.faults.FaultPlan` and the harness routes
every client through its own proxy).

Each session opens a fresh connection (what a population of devices looks
like to the front door), runs one authentication, and records wall-clock
latency.  The report carries sessions/sec plus p50/p99 latency — the two
numbers the ROADMAP's scaling trajectory is plotted in.

One Python process can saturate only one core with proving (the prover's
max-flow solve is the *expensive* side of the paper's asymmetry), so
:func:`generate_load` fans client-driving workers out across processes
on a :class:`~repro.runtime.pool.WorkerPool` — required to keep a
multi-shard fleet verify-bound instead of loadgen-bound.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ServiceError
from repro.flow.registry import DEFAULT_ALGORITHM
from repro.metrics import Metrics
from repro.runtime.pool import WorkerPool
from repro.service.client import ServiceClient
from repro.service.faults import FaultPlan, FaultyTransport
from repro.service.resilience import RetryPolicy


@dataclass
class LoadReport(Metrics):
    """What a load run produced, in fleet-benchmark units.  Per-process
    reports merge: ``duration_seconds`` is a gauge (workers overlap)."""

    clients: int
    duration_seconds: float
    sessions: int = 0
    accepted: int = 0
    rejected: int = 0
    errors: int = 0
    hostile_sessions: int = 0
    hostile_rejected: int = 0
    latencies_ms: List[float] = field(default_factory=list, repr=False)

    @property
    def sessions_per_second(self) -> float:
        if self.duration_seconds <= 0:
            return 0.0
        return self.sessions / self.duration_seconds

    def percentile_ms(self, q: float) -> float:
        if not self.latencies_ms:
            return 0.0
        return float(np.percentile(np.asarray(self.latencies_ms), q))

    def to_dict(self) -> dict:
        return {
            "clients": self.clients,
            "duration_seconds": round(self.duration_seconds, 3),
            "sessions": self.sessions,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "errors": self.errors,
            "hostile_sessions": self.hostile_sessions,
            "hostile_rejected": self.hostile_rejected,
            "sessions_per_second": round(self.sessions_per_second, 2),
            "latency_ms": {
                "p50": round(self.percentile_ms(50), 3),
                "p99": round(self.percentile_ms(99), 3),
                "max": round(max(self.latencies_ms, default=0.0), 3),
            },
        }


def _tamper_value(claim_wire: dict) -> dict:
    """The hostile mix: a forged claim value (must be rejected)."""
    return {**claim_wire, "value": claim_wire.get("value", 0.0) * 2.0 + 1.0}


async def _drive_client(
    index: int,
    host: str,
    port: int,
    device,
    *,
    hostile: bool,
    deadline: float,
    rounds: int,
    algorithm: str,
    timeout: float,
    report: LoadReport,
) -> None:
    """One client: authenticate in a loop until the shared deadline."""
    loop = asyncio.get_running_loop()
    await asyncio.sleep((index % 50) * 0.002)  # stagger the connect herd
    while loop.time() < deadline:
        start = time.perf_counter()
        try:
            async with ServiceClient(
                host, port, timeout=timeout, retry=RetryPolicy.no_retry()
            ) as client:
                outcome = await client.authenticate(
                    device,
                    rounds=rounds,
                    algorithm=algorithm,
                    tamper=_tamper_value if hostile else None,
                )
        except ServiceError:
            report.errors += 1
            await asyncio.sleep(0.01)  # a beat before hammering a sick endpoint
            continue
        report.latencies_ms.append((time.perf_counter() - start) * 1e3)
        report.sessions += 1
        if hostile:
            report.hostile_sessions += 1
            if not outcome.accepted:
                report.hostile_rejected += 1
        if outcome.accepted:
            report.accepted += 1
        else:
            report.rejected += 1


async def run_load(
    host: str,
    port: int,
    devices: Sequence,
    *,
    clients: int = 16,
    duration_seconds: float = 5.0,
    hostile_fraction: float = 0.0,
    rounds: int = 1,
    algorithm: str = DEFAULT_ALGORITHM,
    timeout: float = 30.0,
    fault_plan: Optional[FaultPlan] = None,
    hostile_clients: Optional[int] = None,
) -> LoadReport:
    """Drive ``clients`` concurrent provers for ``duration_seconds``.

    ``devices`` are live :class:`~repro.ppuf.device.Ppuf` or
    :class:`~repro.ppuf.compiled.CompiledDevice` objects, assigned to
    clients round-robin; they must already be enrolled (or packed) at the
    target.  With ``fault_plan``, every client connects through one
    :class:`FaultyTransport` injecting that plan — chaos at fleet scale.
    """
    if not devices:
        raise ServiceError("load generation needs at least one device")
    if clients < 1:
        raise ServiceError(f"clients must be >= 1, got {clients}")
    if not 0.0 <= hostile_fraction <= 1.0:
        raise ServiceError(
            f"hostile_fraction must be in [0, 1], got {hostile_fraction}"
        )
    if hostile_clients is None:
        hostile_clients = int(round(clients * hostile_fraction))
    proxy: Optional[FaultyTransport] = None
    target_host, target_port = host, port
    if fault_plan is not None:
        proxy = await FaultyTransport(port, fault_plan, upstream_host=host).start()
        target_host, target_port = proxy.host, proxy.port
    report = LoadReport(clients=clients, duration_seconds=duration_seconds)
    deadline = asyncio.get_running_loop().time() + duration_seconds
    try:
        await asyncio.gather(
            *(
                _drive_client(
                    index,
                    target_host,
                    target_port,
                    devices[index % len(devices)],
                    hostile=index < hostile_clients,
                    deadline=deadline,
                    rounds=rounds,
                    algorithm=algorithm,
                    timeout=timeout,
                    report=report,
                )
                for index in range(clients)
            )
        )
    finally:
        if proxy is not None:
            await proxy.stop()
    return report


# ----------------------------------------------------------------------
# process fan-out (the blocking entry point the CLI and bench use)
# ----------------------------------------------------------------------
def _load_worker(args: dict) -> LoadReport:
    """One loadgen process: open the pack locally, drive a client slice."""
    devices = args["devices"]
    if devices is None:
        from repro.ppuf.pack import ArtifactPack

        pack = ArtifactPack(args["pack"])
        devices = [pack.device(device_id) for device_id in args["device_ids"]]
    return asyncio.run(
        run_load(
            args["host"],
            args["port"],
            devices,
            clients=args["clients"],
            duration_seconds=args["duration_seconds"],
            rounds=args["rounds"],
            algorithm=args["algorithm"],
            timeout=args["timeout"],
            hostile_clients=args["hostile_clients"],
            hostile_fraction=0.0,
        )
    )


def generate_load(
    host: str,
    port: int,
    *,
    devices: Optional[Sequence] = None,
    pack: Optional[str] = None,
    clients: int = 16,
    duration_seconds: float = 5.0,
    hostile_fraction: float = 0.0,
    rounds: int = 1,
    algorithm: str = DEFAULT_ALGORITHM,
    timeout: float = 30.0,
    processes: int = 1,
    fault_plan: Optional[FaultPlan] = None,
) -> LoadReport:
    """Blocking load run, optionally fanned out across processes.

    Pass ``pack`` (preferred for multi-process runs — each worker maps the
    pack itself, nothing heavy pickles) or explicit ``devices``.  With
    ``processes > 1`` the client population is split evenly; hostile
    clients are distributed first-come so the global hostile count matches
    ``hostile_fraction`` exactly.
    """
    if (devices is None) == (pack is None):
        raise ServiceError("pass exactly one of 'devices' or 'pack'")
    if processes < 1:
        raise ServiceError(f"processes must be >= 1, got {processes}")
    if fault_plan is not None and processes > 1:
        raise ServiceError("fault_plan chaos requires processes=1")
    device_ids: Optional[List[str]] = None
    if pack is not None:
        from repro.ppuf.pack import ArtifactPack

        device_ids = ArtifactPack(pack).ids()
        if not device_ids:
            raise ServiceError(f"pack {pack!r} holds no devices")
    if processes == 1:
        if devices is None:
            from repro.ppuf.pack import ArtifactPack

            opened = ArtifactPack(pack)
            devices = [opened.device(device_id) for device_id in device_ids]
        return asyncio.run(
            run_load(
                host,
                port,
                devices,
                clients=clients,
                duration_seconds=duration_seconds,
                hostile_fraction=hostile_fraction,
                rounds=rounds,
                algorithm=algorithm,
                timeout=timeout,
                fault_plan=fault_plan,
            )
        )

    hostile_total = int(round(clients * hostile_fraction))
    base, extra = divmod(clients, processes)
    jobs: List[dict] = []
    cursor = 0
    for worker_index in range(processes):
        slice_clients = base + (1 if worker_index < extra else 0)
        if slice_clients == 0:
            continue
        slice_hostile = max(0, min(slice_clients, hostile_total))
        hostile_total -= slice_hostile
        slice_devices = None
        slice_ids = None
        if pack is not None:
            # Round-robin the fleet across workers so every device stays hot.
            slice_ids = [
                device_ids[(cursor + offset) % len(device_ids)]
                for offset in range(slice_clients)
            ]
        else:
            slice_devices = [
                devices[(cursor + offset) % len(devices)]
                for offset in range(slice_clients)
            ]
        jobs.append(
            {
                "host": host,
                "port": port,
                "devices": slice_devices,
                "pack": pack,
                "device_ids": slice_ids,
                "clients": slice_clients,
                "duration_seconds": duration_seconds,
                "hostile_clients": slice_hostile,
                "rounds": rounds,
                "algorithm": algorithm,
                "timeout": timeout,
            }
        )
        cursor += slice_clients
    merged = LoadReport(clients=0, duration_seconds=duration_seconds)
    with WorkerPool(len(jobs)) as pool:
        for result in pool.map(_load_worker, jobs):
            merged.merge(result)
    return merged
