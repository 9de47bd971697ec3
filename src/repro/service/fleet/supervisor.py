"""Shard lifecycle: spawn, health-check, restart.

:class:`FleetSupervisor` turns ``repro serve`` into a horizontally scaled
fleet: it spawns N shard workers as subprocesses — each one a full
:class:`~repro.service.server.PpufAuthServer` with its own asyncio loop
and verification pool, all serving the *same* artifact pack, so the
fleet's artifact bytes exist once on disk and once in the page cache no
matter how many shards serve them.  A shard that takes a wire enrollment
appends it to that pack under the pack's exclusive append lock, so a
respawned shard still serves it.  Workers bind ``port=0`` and report
the ephemeral port back on stdout as a machine-readable
``{"event": "listening", "port": …}`` line; the supervisor records it in
the shared :class:`~repro.service.fleet.topology.ShardMap` that the
router routes from.

Health: a monitor task polls each worker — process liveness first, then a
wire ``STATS`` probe (a server that answers STATS has a live event loop,
registry and stats spine).  A dead or repeatedly unresponsive shard is
marked ``down`` in the map (the router stops sending it connections),
killed if needed, and respawned with seeded exponential backoff reusing
:class:`~repro.service.resilience.RetryPolicy` — the same deterministic
schedule the client retries with.  The respawned worker keeps its shard
*name* (so rendezvous routing is undisturbed) but gets a fresh ephemeral
port, which the map update propagates to the router instantly.

Shutdown is drain-friendly: workers get SIGTERM first — ``repro serve``
installs handlers that stop the listener and drain in-flight
verifications — and SIGKILL only after a grace period.

With a ``map_file`` the supervisor becomes one *participant* in a shared
fleet instead of its sole owner.  The shard-map file
(:mod:`repro.service.fleet.mapfile`) is authoritative for **membership
and desired state**; the supervisor stays authoritative for the
**addresses** of workers it spawned (it publishes their ephemeral ports
into the file).  A watch task reconciles every published version:

* a placeholder descriptor (``port=0``, local host) with an unknown name
  is a **spawn request** — ``repro fleet scale`` publishes these and the
  supervisor turns them into workers, then publishes the real port;
* an unknown name with a *foreign* address is **adopted as a remote
  shard**: probed via wire ``STATS`` like a local worker but never
  spawned, restarted, or signalled — its own supervisor does that;
* a local shard marked ``draining`` starts the drain lifecycle: poll
  STATS until the shard *settles* (:func:`~repro.service.stats.shard_settled`
  over consecutive snapshot deltas), delete it from the map, SIGTERM the
  worker — so ``repro fleet drain`` against the file decommissions a
  live shard with zero dropped sessions;
* a name deleted from the file is decommissioned immediately (SIGTERM
  for local workers, released for remote ones).
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.errors import ServiceError
from repro.service.fleet.mapfile import ShardMapFile
from repro.service.fleet.router import probe_stats
from repro.service.fleet.topology import (
    ACTIVE,
    DOWN,
    DRAINING,
    ShardDescriptor,
    ShardMap,
    default_shard_names,
)
from repro.service.resilience import RetryPolicy
from repro.service.stats import shard_settled

logger = logging.getLogger(__name__)


class _NoChange(Exception):
    """Raised inside a map-file mutator to abort a no-op publish."""

#: Default wall-clock budget [s] for a worker to report its listening port.
DEFAULT_STARTUP_TIMEOUT = 60.0


@dataclass
class ShardWorkerSpec:
    """What every shard worker serves — the ``repro serve`` flag set.

    One spec describes the whole fleet; per-shard variation is limited to
    the seed (offset by shard index so challenge streams differ) and the
    ephemeral port.
    """

    pack: Optional[str] = None
    workers: int = 0
    rounds: int = 4
    deadline_seconds: float = 5.0
    idle_timeout: float = 60.0
    connection_timeout: float = 300.0
    verify_timeout: float = 60.0
    max_connections: int = 256
    allow_enroll: bool = True
    seed: Optional[int] = None
    host: str = "127.0.0.1"

    def serve_args(self, shard_index: int) -> List[str]:
        """The ``repro serve`` argv tail for shard ``shard_index``."""
        args = [
            "serve",
            "--host", self.host,
            "--port", "0",
            "--workers", str(self.workers),
            "--rounds", str(self.rounds),
            "--deadline", str(self.deadline_seconds),
            "--idle-timeout", str(self.idle_timeout),
            "--timeout", str(self.connection_timeout),
            "--verify-timeout", str(self.verify_timeout),
            "--max-connections", str(self.max_connections),
        ]
        if self.pack:
            args += ["--pack", self.pack]
        if self.seed is not None:
            args += ["--seed", str(self.seed + shard_index)]
        if not self.allow_enroll:
            args.append("--no-enroll")
        return args


@dataclass
class ShardWorker:
    """One supervised shard: its process handle and restart history.

    ``remote=True`` marks a shard this supervisor adopted from the shard-map
    file but did not spawn: it is probed for health like a local worker but
    never restarted or signalled — its own supervisor owns its process.
    """

    name: str
    index: int
    process: Optional[asyncio.subprocess.Process] = None
    restarts: int = 0
    probe_failures: int = 0
    remote: bool = False
    host: str = ""
    port: int = 0
    draining: bool = False
    stdout_drain: Optional[asyncio.Task] = field(default=None, repr=False)
    drain_task: Optional[asyncio.Task] = field(default=None, repr=False)

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.returncode is None


def _worker_env() -> dict:
    """Subprocess env with the live ``repro`` package importable."""
    import repro

    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = (
        package_root + os.pathsep + existing if existing else package_root
    )
    return env


class FleetSupervisor:
    """Spawn and babysit N shard workers behind one :class:`ShardMap`.

    Parameters
    ----------
    shards:
        Worker count; shard names are ``shard-0 … shard-{N-1}``.
    spec:
        The :class:`ShardWorkerSpec` every worker serves.
    shard_map:
        Routing table to populate — pass the one the router holds so
        membership changes propagate by reference.
    map_file:
        A :class:`~repro.service.fleet.mapfile.ShardMapFile` (or its path)
        to publish local shards into and reconcile membership from.  Give
        the supervisor its own instance — poll progress is per-watcher.
    map_poll_interval:
        Seconds between map-file polls (only with ``map_file``).
    probe_interval, probe_timeout, probe_failures_threshold:
        Health-check cadence; a worker failing ``threshold`` consecutive
        STATS probes is killed and restarted.
    restart_policy:
        Backoff schedule for respawns (seeded → deterministic in tests).
    startup_timeout:
        Budget [s] for a spawned worker to report its listening port.
    """

    def __init__(
        self,
        shards: int,
        spec: Optional[ShardWorkerSpec] = None,
        *,
        shard_map: Optional[ShardMap] = None,
        map_file: Optional[Union[str, os.PathLike, ShardMapFile]] = None,
        map_poll_interval: Optional[float] = None,
        probe_interval: float = 1.0,
        probe_timeout: float = 5.0,
        probe_failures_threshold: int = 3,
        restart_policy: Optional[RetryPolicy] = None,
        startup_timeout: float = DEFAULT_STARTUP_TIMEOUT,
    ):
        if shards < 1:
            raise ServiceError(f"a fleet needs >= 1 shard, got {shards}")
        self.spec = spec if spec is not None else ShardWorkerSpec()
        self.shard_map = shard_map if shard_map is not None else ShardMap()
        if isinstance(map_file, ShardMapFile) or map_file is None:
            self.map_file = map_file
        else:
            self.map_file = ShardMapFile(map_file)
        self.map_poll_interval = map_poll_interval
        self.map_version: Optional[int] = None
        self.probe_interval = probe_interval
        self.probe_timeout = probe_timeout
        self.probe_failures_threshold = probe_failures_threshold
        self.restart_policy = (
            restart_policy
            if restart_policy is not None
            else RetryPolicy(base_delay=0.2, max_delay=5.0, seed=0)
        )
        self.startup_timeout = startup_timeout
        self.workers: Dict[str, ShardWorker] = {
            name: ShardWorker(name=name, index=index)
            for index, name in enumerate(default_shard_names(shards))
        }
        self.events: List[dict] = []
        self._monitor: Optional[asyncio.Task] = None
        self._map_watch: Optional[asyncio.Task] = None
        self._stopping = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "FleetSupervisor":
        for worker in self.workers.values():
            descriptor = await self._spawn(worker)
            if worker.name in self.shard_map:
                self.shard_map.update(descriptor)
            else:
                self.shard_map.add(descriptor)
        if self.map_file is not None:
            descriptors = [self.shard_map.get(name) for name in self.workers]

            def _publish(shard_map: ShardMap) -> None:
                for descriptor in descriptors:
                    if descriptor.name in shard_map:
                        shard_map.update(descriptor)
                    else:
                        shard_map.add(descriptor)

            self.map_file.mutate(_publish)
            # load() marks the published version seen, so the watch task
            # does not re-fire on our own write; reconciling it once here
            # adopts any shards other participants published earlier.
            file_map, version = self.map_file.load()
            await self._reconcile(file_map, version)
            self._map_watch = asyncio.create_task(
                self.map_file.watch(
                    self._reconcile, poll_interval=self.map_poll_interval
                )
            )
        self._monitor = asyncio.create_task(self._monitor_loop())
        return self

    async def stop(self, *, grace_seconds: float = 10.0) -> None:
        self._stopping = True
        for task_attr in ("_map_watch", "_monitor"):
            task = getattr(self, task_attr)
            if task is not None:
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
                setattr(self, task_attr, None)
        for worker in self.workers.values():
            if worker.drain_task is not None:
                worker.drain_task.cancel()
                worker.drain_task = None
        local = [worker for worker in self.workers.values() if not worker.remote]
        if self.map_file is not None and local:
            # Tell every other watcher these shards are going away before
            # their ports actually die.  Remote entries are not ours to
            # touch — their supervisor publishes their fate.
            names = [worker.name for worker in local]

            def _mark_down(shard_map: ShardMap) -> None:
                changed = False
                for name in names:
                    if name in shard_map and shard_map.get(name).state != DOWN:
                        shard_map.set_state(name, DOWN)
                        changed = True
                if not changed:
                    raise _NoChange()

            try:
                self.map_file.mutate(_mark_down)
            except (_NoChange, ServiceError):
                pass
        await asyncio.gather(
            *(
                self._stop_worker(worker, grace_seconds=grace_seconds)
                for worker in local
            )
        )

    async def __aenter__(self) -> "FleetSupervisor":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    def _record(self, event: str, worker: ShardWorker, **detail) -> None:
        entry = {"event": event, "shard": worker.name, **detail}
        self.events.append(entry)
        logger.info("fleet supervisor: %s", entry)

    # ------------------------------------------------------------------
    # spawning
    # ------------------------------------------------------------------
    async def _spawn(self, worker: ShardWorker) -> ShardDescriptor:
        """Launch one worker and wait for its listening event."""
        argv = [sys.executable, "-m", "repro"] + self.spec.serve_args(worker.index)
        process = await asyncio.create_subprocess_exec(
            *argv,
            stdout=asyncio.subprocess.PIPE,
            env=_worker_env(),
        )
        worker.process = process
        worker.probe_failures = 0
        try:
            port = await asyncio.wait_for(
                self._await_listening(process), timeout=self.startup_timeout
            )
        except asyncio.TimeoutError:
            process.kill()
            await process.wait()
            raise ServiceError(
                f"shard {worker.name!r} did not report a listening port within "
                f"{self.startup_timeout:g} s"
            ) from None
        worker.stdout_drain = asyncio.create_task(self._drain_stdout(process))
        worker.host = self.spec.host
        worker.port = port
        self._record("spawned", worker, pid=process.pid, port=port)
        return ShardDescriptor(
            name=worker.name, host=self.spec.host, port=port, state=ACTIVE
        )

    async def _await_listening(self, process: asyncio.subprocess.Process) -> int:
        """Read worker stdout until the ``listening`` event names a port."""
        while True:
            line = await process.stdout.readline()
            if not line:
                raise ServiceError(
                    "shard worker exited before reporting its listening port "
                    f"(exit code {process.returncode})"
                )
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue  # not every stdout line is ours
            if isinstance(event, dict) and event.get("event") == "listening":
                return int(event["port"])

    @staticmethod
    async def _drain_stdout(process: asyncio.subprocess.Process) -> None:
        """Keep the worker's stdout pipe from filling after startup."""
        try:
            while await process.stdout.readline():
                pass
        except (asyncio.CancelledError, ValueError):
            pass

    async def _stop_worker(
        self, worker: ShardWorker, *, grace_seconds: float
    ) -> None:
        process = worker.process
        if process is None:
            return
        if process.returncode is None:
            process.terminate()  # SIGTERM → the server drains and exits 0
            try:
                await asyncio.wait_for(process.wait(), timeout=grace_seconds)
            except asyncio.TimeoutError:
                logger.warning(
                    "shard %s ignored SIGTERM for %g s; killing",
                    worker.name,
                    grace_seconds,
                )
                process.kill()
                await process.wait()
        if worker.stdout_drain is not None:
            worker.stdout_drain.cancel()
            try:
                await worker.stdout_drain
            except asyncio.CancelledError:
                pass
            worker.stdout_drain = None
        self._record("stopped", worker, exit_code=process.returncode)

    # ------------------------------------------------------------------
    # shard-map file: publishing and reconciliation
    # ------------------------------------------------------------------
    def _next_index(self) -> int:
        return 1 + max((worker.index for worker in self.workers.values()), default=-1)

    def _publish_descriptor(self, descriptor: ShardDescriptor) -> None:
        """Upsert ``descriptor`` into the in-process map and the file."""
        if descriptor.name in self.shard_map:
            self.shard_map.update(descriptor)
        else:
            self.shard_map.add(descriptor)
        if self.map_file is None:
            return

        def _upsert(shard_map: ShardMap) -> None:
            if descriptor.name in shard_map:
                shard_map.update(descriptor)
            else:
                shard_map.add(descriptor)

        self.map_file.mutate(_upsert)

    def _set_state(self, name: str, state: str) -> None:
        """Publish a state transition to the map (and file), if it changes."""
        if name in self.shard_map:
            self.shard_map.set_state(name, state)
        if self.map_file is None:
            return

        def _apply(shard_map: ShardMap) -> None:
            if name not in shard_map or shard_map.get(name).state == state:
                raise _NoChange()
            shard_map.set_state(name, state)

        try:
            self.map_file.mutate(_apply)
        except _NoChange:
            pass

    def _delete_from_file(self, name: str) -> None:
        def _drop(shard_map: ShardMap) -> None:
            if name not in shard_map:
                raise _NoChange()
            shard_map.remove(name)

        try:
            self.map_file.mutate(_drop)
        except _NoChange:
            pass

    def _is_spawn_request(self, descriptor: ShardDescriptor) -> bool:
        """``fleet scale`` placeholder: local host, no port bound yet.

        The ``down`` state requirement keeps a placeholder that was
        drained before anyone spawned it from being resurrected.
        """
        return (
            descriptor.port == 0
            and descriptor.host == self.spec.host
            and descriptor.state == DOWN
        )

    async def _reconcile(self, file_map: ShardMap, version: int) -> None:
        """Make local reality match one published version of the map.

        The file is authoritative for membership and desired state; this
        supervisor is authoritative for the addresses of workers it
        spawned.  Reconciles are idempotent and serialized (they run only
        in the watch task, or in :meth:`start` before it exists), so a
        version observed twice or a half-applied previous attempt heals.
        """
        self.map_version = version
        to_spawn: List[ShardDescriptor] = []
        for descriptor in file_map.shards():
            worker = self.workers.get(descriptor.name)
            if worker is None:
                if self._is_spawn_request(descriptor):
                    if not self._stopping:
                        to_spawn.append(descriptor)
                elif descriptor.port == 0:
                    # another host's spawn request, or a placeholder
                    # drained before anyone bound it — nothing to adopt
                    pass
                else:
                    worker = ShardWorker(
                        name=descriptor.name,
                        index=self._next_index(),
                        remote=True,
                        host=descriptor.host,
                        port=descriptor.port,
                        draining=descriptor.state == DRAINING,
                    )
                    self.workers[descriptor.name] = worker
                    self._record(
                        "adopted", worker, host=descriptor.host, port=descriptor.port
                    )
                continue
            if worker.remote:
                worker.host, worker.port = descriptor.host, descriptor.port
                worker.draining = descriptor.state == DRAINING
            elif descriptor.state == DRAINING and not worker.draining:
                # an operator (or another host's CLI) marked our shard
                # draining in the file — we own its settle-and-remove
                worker.draining = True
                self._begin_drain(worker)
        for name in list(self.workers):
            if name not in file_map:
                await self._decommission(self.workers[name])
        # the router-visible map mirrors the file; our just-spawned ports
        # reach it through _publish_descriptor's next version
        self.shard_map.replace_all(file_map.shards())
        for descriptor in to_spawn:
            worker = ShardWorker(name=descriptor.name, index=self._next_index())
            self.workers[descriptor.name] = worker
            try:
                spawned = await self._spawn(worker)
            except ServiceError as error:
                self._record("respawn_failed", worker, error=str(error))
                del self.workers[descriptor.name]
                continue
            self._publish_descriptor(spawned)

    def _begin_drain(self, worker: ShardWorker) -> None:
        worker.draining = True
        worker.probe_failures = 0
        self._record("draining", worker)
        worker.drain_task = asyncio.create_task(self._drain_to_removal(worker))

    async def _drain_to_removal(self, worker: ShardWorker) -> None:
        """Poll STATS until the shard settles, then delete it from the map.

        The deletion is published in the map file and the watch task's
        reconcile performs the actual decommission — so every participant
        (other routers, the shard's own supervisor if it is remote)
        observes the same removal in the same version order.
        """
        previous: Optional[dict] = None
        while True:
            try:
                current = await probe_stats(
                    worker.host, worker.port, timeout=self.probe_timeout
                )
            except (ServiceError, OSError, asyncio.TimeoutError):
                break  # already dead — nothing left to settle
            if previous is not None and shard_settled(previous, current):
                break
            previous = current
            await asyncio.sleep(self.probe_interval)
        self._record("settled", worker)
        self._delete_from_file(worker.name)

    async def _decommission(self, worker: ShardWorker) -> None:
        """Tear one shard out of this supervisor's world (map already knows)."""
        if worker.drain_task is not None and worker.drain_task is not asyncio.current_task():
            worker.drain_task.cancel()
        worker.drain_task = None
        if worker.remote:
            self._record("released", worker)  # not ours to SIGTERM
        else:
            await self._stop_worker(worker, grace_seconds=10.0)
        self.workers.pop(worker.name, None)
        if worker.name in self.shard_map:
            self.shard_map.remove(worker.name)

    # ------------------------------------------------------------------
    # health monitoring
    # ------------------------------------------------------------------
    async def _monitor_loop(self) -> None:
        while True:
            await asyncio.sleep(self.probe_interval)
            for worker in list(self.workers.values()):
                try:
                    await self._check_worker(worker)
                except asyncio.CancelledError:
                    raise
                except Exception:  # noqa: BLE001 — the monitor must keep monitoring
                    logger.exception(
                        "health check of shard %s failed; continuing", worker.name
                    )

    async def _check_worker(self, worker: ShardWorker) -> None:
        if worker.remote:
            await self._check_remote(worker)
            return
        if worker.draining:
            # A draining worker that died has, by definition, settled.
            # Never restart it — finish the removal instead.
            if not worker.alive:
                self._record(
                    "died",
                    worker,
                    exit_code=worker.process.returncode if worker.process else None,
                )
                self._delete_from_file(worker.name)
            return
        if not worker.alive:
            self._record(
                "died",
                worker,
                exit_code=worker.process.returncode if worker.process else None,
            )
            await self._restart(worker)
            return
        if worker.name not in self.shard_map:
            return
        descriptor = self.shard_map.get(worker.name)
        if not descriptor.routable:
            return
        try:
            await probe_stats(
                descriptor.host, descriptor.port, timeout=self.probe_timeout
            )
        except (ServiceError, OSError, asyncio.TimeoutError) as error:
            worker.probe_failures += 1
            self._record(
                "probe_failed",
                worker,
                failures=worker.probe_failures,
                error=str(error),
            )
            if worker.probe_failures >= self.probe_failures_threshold:
                if worker.process is not None and worker.process.returncode is None:
                    worker.process.kill()
                    await worker.process.wait()
                await self._restart(worker)
        else:
            worker.probe_failures = 0

    async def _check_remote(self, worker: ShardWorker) -> None:
        """Probe an adopted shard; flip it active/down in the shared map.

        Never spawns or signals — the remote's own supervisor owns its
        process.  State transitions respect the drain lifecycle: a
        ``draining`` shard is neither resurrected to ``active`` on a good
        probe nor demoted to ``down`` on a bad one (its owner is already
        tearing it down).
        """
        if worker.name not in self.shard_map:
            return
        state = self.shard_map.get(worker.name).state
        if state == DRAINING:
            return
        try:
            await probe_stats(worker.host, worker.port, timeout=self.probe_timeout)
        except (ServiceError, OSError, asyncio.TimeoutError) as error:
            worker.probe_failures += 1
            self._record(
                "probe_failed",
                worker,
                failures=worker.probe_failures,
                error=str(error),
            )
            if worker.probe_failures >= self.probe_failures_threshold and state == ACTIVE:
                self._set_state(worker.name, DOWN)
        else:
            if state == DOWN:
                self._record("remote_recovered", worker)
                self._set_state(worker.name, ACTIVE)
            worker.probe_failures = 0

    async def _restart(self, worker: ShardWorker) -> None:
        """Respawn a dead shard: mark down, back off, spawn, re-activate."""
        if self._stopping:
            return
        self._set_state(worker.name, DOWN)
        if worker.stdout_drain is not None:
            worker.stdout_drain.cancel()
            worker.stdout_drain = None
        worker.restarts += 1
        delay = self.restart_policy.delay(min(worker.restarts, 16))
        self._record("restarting", worker, attempt=worker.restarts, backoff=delay)
        await asyncio.sleep(delay)
        try:
            descriptor = await self._spawn(worker)
        except ServiceError as error:
            self._record("respawn_failed", worker, error=str(error))
            return  # the next monitor tick sees the dead worker and retries
        self._publish_descriptor(descriptor)

    # ------------------------------------------------------------------
    def restarts(self) -> Dict[str, int]:
        return {name: worker.restarts for name, worker in self.workers.items()}
