"""The four workloads: set-up, measured phase, correctness, metrics.

Every number is taken from outside the program: wall clocks around
public calls and wire exchanges, ``/proc`` accounting of the program's
process tree (:mod:`proctree`), and deltas of the ``STATS`` verb the
program already serves.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, replace
from typing import Callable, Dict, List, Optional

import numpy as np

import proctree
from generator import (
    KNOWN_DEFECT_REASON,
    OpenLoopGenerator,
    poisson_schedule,
    span_tree,
)
from layers import (
    SCHEDULE,
    ISSUE_SAMPLES,
    SERVER,
    Enrollment,
    challenge_issue_ms,
    check_pack,
    enroll,
    fabricate,
    honest_replay,
    kernel_rows_per_s,
    median,
    network,
    pack_device_ms,
    stream,
)

from repro.errors import ServiceError
from repro.ppuf.pack import ArtifactPack
from repro.ppuf.verification import PpufProver
from repro.service.client import ServiceClient
from repro.service.resilience import RetryPolicy

SUITE = os.path.dirname(os.path.abspath(__file__))

#: Server spawn / offline-process start budget [s].
START_TIMEOUT = 60.0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "auth" or "offline"
    devices: int
    n: int
    l: int
    rate: float = 0.0  # sessions per second (auth)
    hostile_share: float = 0.0
    rounds: int = 1
    shards: int = 0  # 0: one `repro serve`; k: `repro fleet serve --shards k`
    slo_ms: float = 0.0
    crp_rows: int = 0  # challenges per CRP request (offline)


WORKLOADS: Dict[str, Workload] = {
    spec.name: spec
    for spec in (
        Workload("auth_direct", "auth", devices=16, n=8, l=2, rate=20.0,
                 hostile_share=0.10, rounds=1, slo_ms=100.0),
        Workload("auth_fleet", "auth", devices=16, n=8, l=2, rate=20.0,
                 hostile_share=0.10, rounds=1, shards=2, slo_ms=100.0),
        Workload("auth_rounds", "auth", devices=64, n=16, l=4, rate=8.0,
                 hostile_share=0.25, rounds=4, slo_ms=400.0),
        Workload("offline_enroll_crp", "offline", devices=64, n=16, l=4,
                 crp_rows=4096),
    )
}


@dataclass(frozen=True)
class Options:
    seed: int
    seconds: float
    warmup: float
    setups: int
    replay: int  # honest replay challenges
    trace: bool
    smoke: bool
    nproc: int
    root: str  # checkout root
    workdir: str
    trace_dir: str


def smoke_variant(spec: Workload) -> Workload:
    return replace(
        spec,
        devices=min(spec.devices, 8),
        crp_rows=min(spec.crp_rows, 1024),
    )


def metric(value: float, unit: str, n: int) -> dict:
    return {"value": float(value), "unit": unit, "n": int(n)}


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------
class Child:
    """A program process speaking JSON lines on stdout.

    Started in its own session so :meth:`stop` can reach every process
    it forks, and waited on until none is left.
    """

    def __init__(self, argv: List[str], opts: Options, log_name: str, *, stdin=False):
        env = dict(os.environ)
        src = os.path.join(opts.root, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env["TMPDIR"] = opts.workdir
        self.log_path = os.path.join(opts.workdir, log_name)
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                argv,
                stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=log,
                env=env,
                cwd=opts.workdir,
                start_new_session=True,
            )
        self.pid = self.process.pid
        self._buffer = b""

    def read_json(self, timeout: float, on_idle: Optional[Callable] = None) -> dict:
        """Next JSON-object line on stdout; ``on_idle`` runs every 50 ms."""
        deadline = time.monotonic() + timeout
        fd = self.process.stdout.fileno()
        while True:
            while b"\n" in self._buffer:
                line, self._buffer = self._buffer.split(b"\n", 1)
                try:
                    message = json.loads(line)
                except ValueError:
                    continue
                if isinstance(message, dict):
                    return message
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(f"no reply within {timeout:g} s{self._log_tail()}")
            ready, _, _ = select.select([fd], [], [], min(remaining, 0.05))
            if ready:
                chunk = os.read(fd, 65536)
                if not chunk:
                    raise RuntimeError(
                        f"process exited with {self.process.wait()}{self._log_tail()}"
                    )
                self._buffer += chunk
            elif on_idle is not None:
                on_idle()

    def request(self, command: dict, timeout: float, on_idle=None) -> dict:
        self.process.stdin.write((json.dumps(command) + "\n").encode())
        self.process.stdin.flush()
        return self.read_json(timeout, on_idle)

    def _log_tail(self) -> str:
        try:
            with open(self.log_path, "rb") as handle:
                tail = handle.read()[-2000:].decode(errors="replace")
        except OSError:
            return ""
        return f"; stderr tail:\n{tail}" if tail else ""

    def stop(self) -> None:
        process = self.process
        if process.stdin is not None and process.poll() is None:
            try:
                process.stdin.write(b'{"op": "exit"}\n')
                process.stdin.close()
                process.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                pass
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                pass
        deadline = time.monotonic() + 10
        while proctree.process_group_alive(self.pid) or process.poll() is None:
            if time.monotonic() > deadline:
                try:
                    os.killpg(self.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                process.wait()
                deadline = time.monotonic() + 10
            time.sleep(0.02)
        process.stdout.close()


def spawn_server(spec: Workload, pack: str, opts: Options, index: int):
    """``repro serve`` (or ``repro fleet serve``) until its listening event."""
    server_seed = int(stream(opts.seed, SERVER).integers(2**31))
    argv = [sys.executable, "-m", "repro"]
    if spec.shards:
        argv += ["fleet", "serve", "--shards", str(spec.shards)]
    else:
        argv += ["serve"]
    argv += [
        "--pack", pack, "--port", "0", "--workers", "1",
        "--rounds", str(spec.rounds), "--seed", str(server_seed),
    ]
    child = Child(argv, opts, f"{spec.name}-server-{index}.log")
    try:
        event = child.read_json(START_TIMEOUT)
        if event.get("event") != "listening":
            raise RuntimeError(f"unexpected first event {event!r}")
    except BaseException:
        child.stop()
        raise
    return child, int(event["port"])


async def fetch_stats(port: int) -> dict:
    client = ServiceClient("127.0.0.1", port, timeout=10.0, retry=RetryPolicy.no_retry())
    async with client:
        return await client.request_ok({"type": "stats"})


# ----------------------------------------------------------------------
# auth workloads
# ----------------------------------------------------------------------
def set_up(spec: Workload, opts: Options, index: int):
    """One timed set-up: a fresh pack of freshly fabricated devices (a
    compiled device keeps its lazy caches) and a server listening on it."""
    ppufs = fabricate(opts.seed, spec.devices, spec.n, spec.l)
    pack = os.path.join(opts.workdir, f"{spec.name}-{index}.pack")
    started = time.perf_counter()
    enrollment = enroll(ppufs, pack)
    server, port = spawn_server(spec, pack, opts, index)
    return server, port, pack, enrollment, time.perf_counter() - started


def run_auth(spec: Workload, opts: Options) -> dict:
    server, port, pack, enrollment, seconds = set_up(spec, opts, 0)
    setup_s, enrollments = [seconds], [enrollment]
    devices = enrollment.devices
    pid = server.pid

    async def sample() -> dict:
        return {
            "t": time.perf_counter(),
            "proc": proctree.snapshot(pid),
            "cpu_self": time.process_time(),
            "threads": threading.active_count(),
            "stats": await fetch_stats(port),
        }

    try:
        generator = OpenLoopGenerator(
            "127.0.0.1",
            port,
            [device.device_id for device in devices],
            {
                (index, which): PpufProver(network(device, which))
                for index, device in enumerate(devices)
                for which in "ab"
            },
            poisson_schedule(
                # Common random numbers: every seed replays one Poisson
                # realisation of send times, so burst luck does not
                # spread the tail across seeds; the seed still picks
                # what each arrival carries.
                stream(0, SCHEDULE),
                stream(opts.seed, SCHEDULE),
                rate=spec.rate,
                seconds=opts.warmup + opts.seconds,
                devices=len(devices),
                hostile_share=spec.hostile_share,
            ),
            warmup=opts.warmup,
            rounds=spec.rounds,
            slots=opts.nproc,
            trace=opts.trace,
            sample=sample,
        )
        asyncio.run(generator.run())
    finally:
        server.stop()
    # The repeat set-ups run after the phase, so the set-up and
    # enrollment samples span the run instead of one stretch of it.
    for index in range(1, opts.setups):
        extra, _, extra_pack, enrollment, seconds = set_up(spec, opts, index)
        extra.stop()
        os.remove(extra_pack)
        setup_s.append(seconds)
        enrollments.append(enrollment)

    problems = check_pack(pack, devices)
    replay = honest_replay(devices, opts.seed, opts.replay)
    start, end = generator.phase["start"], generator.phase["end"]
    measured = [record for record in generator.records if record.measured]
    completed = [record for record in measured if not record.failed]
    failed = len(measured) - len(completed)
    ops = max(len(completed), 1)
    latencies = [record.latency_ms for record in completed]
    cpu = proctree.cpu_ms_by_role(start["proc"], end["proc"], pid)

    for record in measured:
        if record.arrival.hostile and record.outcome == "accepted":
            problems.append(f"hostile session accepted (device {record.arrival.device})")
        if record.unexpected:
            problems.append(record.unexpected)
    problems += replay_problems(replay)

    metrics = {
        "op_p50_ms": metric(median(latencies), "ms", len(latencies)),
        "op_p90_ms": metric(percentile(latencies, 90), "ms", len(latencies)),
        "cpu_ms_per_op": metric(sum(cpu.values()) / ops, "ms", len(completed)),
        "setup_s": metric(median(setup_s), "s", len(setup_s)),
        "peak_rss_mb": metric(proctree.peak_rss_mb(end["proc"]), "MB", len(end["proc"])),
        "enroll_devices_per_s": enroll_rate(enrollments, spec.devices),
    }
    layers = enroll_layers(enrollments)
    layers.update(replay_layers(replay, devices, pack, opts))
    layers.update({
        "cpu.main_ms_per_op": metric((cpu["root"] + cpu["main"]) / ops, "ms", len(completed)),
        "cpu.worker_ms_per_op": metric(cpu["worker"] / ops, "ms", len(completed)),
        "loadgen.cpu_ms_per_op": metric(
            (end["cpu_self"] - start["cpu_self"]) * 1e3 / ops, "ms", len(completed)
        ),
    })
    extra = auth_extra(spec, generator, measured, ops, cpu, replay)
    if opts.trace:
        write_trace(spec, opts, generator)
    return {
        "params": asdict(spec),
        "correct": not problems,
        "problems": problems,
        "attempted": len(measured),
        "failed": failed,
        "setup_s_samples": setup_s,
        "metrics": metrics,
        "layers": layers,
        "extra": extra,
    }


def auth_extra(spec, generator, measured, ops, cpu, replay) -> dict:
    """Everything else the run saw: SLO, failures, spans, STATS deltas."""
    start, end = generator.phase["start"], generator.phase["end"]
    sessions = max(len(measured), 1)
    extra = {
        "slo_share": sum(
            r.correct and r.latency_ms <= spec.slo_ms for r in measured
        ) / sessions,
        "failed_share": sum(r.failed for r in measured) / sessions,
        "known_defect_sessions": sum(r.known_defect for r in measured),
        "honest_reject_share": len(replay["rejections"]) / replay["count"],
        "honest_rejections": replay["rejections"],
        "loadgen.late_p99_ms": percentile([r.late * 1e3 for r in measured], 99),
        "loadgen.slot_wait_p95_ms": percentile(
            [(r.started - r.due - r.late) * 1e3 for r in measured], 95
        ),
        "loadgen.threads": end["threads"],
        "phase_seconds": end["t"] - start["t"],
    }
    extra["loadgen.generator_bound"] = extra["loadgen.late_p99_ms"] > 5.0
    if spec.shards:
        extra["router.cpu_ms_per_session"] = cpu["root"] / ops
        extra["shard_loop.cpu_ms_per_session"] = cpu["main"] / ops
    else:
        extra["shard_loop.cpu_ms_per_session"] = cpu["root"] / ops
    extra["verify_worker.cpu_ms_per_session"] = cpu["worker"] / ops
    extra.update(stats_deltas(start["stats"], end["stats"], ops))
    if generator.trace:
        extra.update(span_summary(generator.records))
    return extra


def stats_deltas(before: dict, after: dict, sessions: int) -> dict:
    """Per-phase deltas of the server's own ``STATS`` counters."""
    old, new = before["stats"], after["stats"]

    def delta(key, source_old=old, source_new=new):
        return source_new.get(key, 0) - source_old.get(key, 0)

    out = {
        f"server.{key}": delta(key)
        for key in (
            "sessions_opened", "sessions_rejected", "deadline_misses",
            "protocol_errors", "connections_rejected", "claims_verified",
        )
    }
    batches = delta("claim_batches")
    out["microbatch.occupancy_mean"] = delta("claims_batched") / max(batches, 1)
    out["microbatch.batches_per_session"] = batches / sessions
    verifies = new["verify_latency"]["observations"] - old["verify_latency"]["observations"]
    total = (
        new["verify_latency"]["mean_seconds"] * new["verify_latency"]["observations"]
        - old["verify_latency"]["mean_seconds"] * old["verify_latency"]["observations"]
    )
    out["server.verify_ms_mean"] = total * 1e3 / max(verifies, 1)
    runtime_old, runtime_new = old.get("runtime", {}), new.get("runtime", {})
    out["pool.queue_high_water"] = runtime_new.get("queue_high_water", 0)
    for key in ("worker_crashes", "task_timeouts"):
        out[f"pool.{key}"] = delta(key, runtime_old, runtime_new)
    router_old = before.get("fleet", {}).get("router")
    router_new = after.get("fleet", {}).get("router")
    if router_new is not None:
        out["router.connections_routed"] = delta(
            "connections_routed", router_old, router_new
        )
        spliced = sum(router_new["splice_bytes"].values()) - sum(
            router_old["splice_bytes"].values()
        )
        out["router.splice_bytes_per_session"] = spliced / sessions
    return out


def span_summary(records) -> dict:
    """Client span percentiles and how much of each session they cover."""
    durations: Dict[str, list] = {}
    coverage = []
    for record in records:
        if not record.measured or record.failed:
            continue
        root = record.end - record.due
        covered = 0.0
        for name, start, end in record.spans:
            durations.setdefault(name, []).append((end - start) * 1e3)
            covered += end - start
        coverage.append(covered / root)
    out = {}
    for name, label in (
        ("slot_wait", "client.slot_wait_ms"), ("connect", "client.connect_ms"),
        ("hello", "client.hello_rtt_ms"), ("prove", "client.prove_ms"),
        ("claim", "client.claim_rtt_ms"), ("close", "client.close_ms"),
    ):
        values = durations.get(name)
        if values:
            out[f"{label}_p50"] = percentile(values, 50)
            out[f"{label}_p95"] = percentile(values, 95)
    if coverage:
        out["trace.child_coverage_min"] = min(coverage)
        out["trace.child_coverage_mean"] = float(np.mean(coverage))
    return out


def write_trace(spec: Workload, opts: Options, generator: OpenLoopGenerator) -> None:
    os.makedirs(opts.trace_dir, exist_ok=True)
    sessions = [
        {
            "id": index,
            "measured": record.measured,
            "hostile": record.arrival.hostile,
            "outcome": record.outcome,
            "spans": span_tree(record, generator.origin),
        }
        for index, record in enumerate(generator.records)
    ]
    path = os.path.join(opts.trace_dir, f"trace-{spec.name}.json")
    with open(path, "w") as handle:
        json.dump({"workload": spec.name, "seed": opts.seed, "sessions": sessions}, handle)


# ----------------------------------------------------------------------
# offline workload
# ----------------------------------------------------------------------
def run_offline(spec: Workload, opts: Options) -> dict:
    setup_s = []
    child = None
    pack = os.path.join(opts.workdir, f"{spec.name}.pack")
    argv = [sys.executable, os.path.join(SUITE, "offline.py")]
    peak_mb = 0.0
    try:
        for index in range(opts.setups):
            started = time.perf_counter()
            child = Child(argv, opts, f"{spec.name}-{index}.log", stdin=True)
            event = child.read_json(START_TIMEOUT)
            setup_s.append(time.perf_counter() - started)
            if event.get("event") != "ready":
                raise RuntimeError(f"unexpected first event {event!r}")
            if index < opts.setups - 1:
                child.stop()
                child = None
        pid = child.pid

        def sample_memory() -> None:
            nonlocal peak_mb
            peak_mb = max(peak_mb, proctree.peak_rss_mb(proctree.snapshot(pid)))

        enrolled = child.request(
            {"op": "enroll", "seed": opts.seed, "count": spec.devices,
             "n": spec.n, "l": spec.l, "pack": pack},
            timeout=120, on_idle=sample_memory,
        )
        before = proctree.snapshot(pid)
        loadgen_cpu = time.process_time()
        crp = child.request(
            {"op": "crp", "seed": opts.seed, "rows": spec.crp_rows,
             "seconds": opts.seconds, "workers": opts.nproc},
            timeout=opts.seconds + 60, on_idle=sample_memory,
        )
        loadgen_cpu = time.process_time() - loadgen_cpu
        after = proctree.snapshot(pid)
        sample_memory()
        check = child.request({"op": "check", "rows": 512}, timeout=60)
    finally:
        if child is not None:
            child.stop()

    opened = ArtifactPack(pack)
    devices = [opened.device(device_id) for device_id in opened.ids()]
    replay = honest_replay(devices, opts.seed, opts.replay)
    requests = crp["requests"]
    latencies = [request["seconds"] * 1e3 for request in requests]
    cpu = proctree.cpu_ms_by_role(before, after, pid)
    ops = len(requests)
    problems = list(enrolled["pack_problems"]) + replay_problems(replay)
    if check["mismatches"]:
        problems.append(
            f"batched_dinic CRP bits differ from dinic on {check['mismatches']} "
            f"of {check['rows']} rows"
        )
    enrollment = Enrollment(
        devices, enrolled["compile_ms"], enrolled["add_ms"], enrolled["close_ms"]
    )
    metrics = {
        "op_p50_ms": metric(median(latencies), "ms", ops),
        "op_p90_ms": metric(percentile(latencies, 90), "ms", ops),
        "cpu_ms_per_op": metric(sum(cpu.values()) / ops, "ms", ops),
        "setup_s": metric(median(setup_s), "s", len(setup_s)),
        "peak_rss_mb": metric(peak_mb, "MB", 1),
        "enroll_devices_per_s": enroll_rate([enrollment], spec.devices),
    }
    layers = enroll_layers([enrollment])
    layers.update(replay_layers(replay, devices, pack, opts))
    layers.update({
        "cpu.main_ms_per_op": metric((cpu["root"] + cpu["main"]) / ops, "ms", ops),
        "cpu.worker_ms_per_op": metric(cpu["worker"] / ops, "ms", ops),
        "loadgen.cpu_ms_per_op": metric(loadgen_cpu * 1e3 / ops, "ms", ops),
    })
    rows_per_s = spec.crp_rows * ops / sum(request["seconds"] for request in requests)
    extra = {
        "crp_rows_per_s": rows_per_s,
        "crp.solve_s": median([request["solve_s"] for request in requests]),
        "crp.chunks": requests[0]["chunks"],
        "crp.workers": requests[0]["workers"],
        "crp.check_rows": check["rows"],
        "honest_reject_share": len(replay["rejections"]) / replay["count"],
        "honest_rejections": replay["rejections"],
    }
    if "crp.kernel_rows_per_s" in layers:
        extra["crp.pool_efficiency"] = rows_per_s / (
            opts.nproc * layers["crp.kernel_rows_per_s"]["value"]
        )
    return {
        "params": asdict(spec),
        "correct": not problems,
        "problems": problems,
        "attempted": ops,
        "failed": 0,
        "setup_s_samples": setup_s,
        "metrics": metrics,
        "layers": layers,
        "extra": extra,
    }


# ----------------------------------------------------------------------
# shared per-layer pieces
# ----------------------------------------------------------------------
def replay_problems(replay: dict) -> List[str]:
    problems = [
        f"honest replay claim rejected: {rejection['reason']}"
        for rejection in replay["rejections"]
        if rejection["reason"] != KNOWN_DEFECT_REASON
    ]
    if replay["batch_mismatches"]:
        problems.append(
            f"{replay['batch_mismatches']} batched verdicts differ from solo verdicts"
        )
    return problems


def enroll_rate(enrollments, devices: int) -> dict:
    """Enrollment rate from the median per-device cost (compile + add)
    plus the median pack close amortised over its devices; the median
    keeps a burst of host noise during one device out of the rate."""
    per_device = median([
        compile_ms + add_ms
        for e in enrollments
        for compile_ms, add_ms in zip(e.compile_ms, e.add_ms)
    ])
    close = median([e.close_ms for e in enrollments])
    return metric(
        1000.0 / (per_device + close / devices), "1/s", len(enrollments) * devices
    )


def enroll_layers(enrollments) -> dict:
    compile_ms = [value for e in enrollments for value in e.compile_ms]
    add_ms = [value for e in enrollments for value in e.add_ms]
    return {
        "enroll.compile_ms": metric(median(compile_ms), "ms", len(compile_ms)),
        "enroll.pack_add_ms": metric(median(add_ms), "ms", len(add_ms)),
        "enroll.pack_close_ms": metric(
            median([e.close_ms for e in enrollments]), "ms", len(enrollments)
        ),
    }


def replay_layers(replay: dict, devices, pack: str, opts: Options) -> dict:
    timings, count = replay["timings"], replay["count"]
    layers = {
        "replay.prove_ms": metric(timings["prove_ms"], "ms", count),
        "replay.wire_encode_us": metric(timings["wire_encode_us"], "us", count),
        "replay.wire_decode_us": metric(timings["wire_decode_us"], "us", count),
        "replay.verify_b1_ms": metric(timings["verify_b1_ms"], "ms", count),
        "replay.verify_b16_ms_per_claim": metric(
            timings["verify_b16_ms_per_claim"], "ms", count
        ),
    }
    if opts.trace:
        layers["replay.challenge_issue_ms"] = metric(
            challenge_issue_ms(devices, opts.seed), "ms", ISSUE_SAMPLES
        )
        layers["replay.pack_device_ms"] = metric(pack_device_ms(pack), "ms", len(devices))
        layers["crp.kernel_rows_per_s"] = metric(
            kernel_rows_per_s(devices[0], opts.seed), "1/s", 3
        )
    return layers


RUNNERS = {"auth": run_auth, "offline": run_offline}


def run_workload(name: str, opts: Options) -> dict:
    spec = WORKLOADS[name]
    if opts.smoke:
        spec = smoke_variant(spec)
    os.makedirs(opts.workdir, exist_ok=True)
    try:
        return RUNNERS[spec.kind](spec, opts)
    except (ServiceError, RuntimeError, OSError) as error:
        raise RuntimeError(f"{name}: {error}") from error
    finally:
        shutil.rmtree(opts.workdir, ignore_errors=True)
