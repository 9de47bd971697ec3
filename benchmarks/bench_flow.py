"""Tensorized verify hot path: edge-array rows/sec + claim micro-batch latency.

Standalone publisher (not a pytest benchmark) for ISSUE 8's acceptance
numbers, recorded into ``benchmarks/BENCH_flow.json``:

* **rows/sec** — challenge rows per second through :class:`BatchEvaluator`
  with the edge-array batched Dinic (``batched_dinic``, one shared CSR + a
  ``(B, E)`` capacity table), the one batch path.
* **claim p50/p99** — per-session wall-clock against a real loopback
  ``PpufAuthServer`` under concurrent sessions, with claim micro-batching
  on (``claim_batch_size=16``, 2 ms linger) and off
  (``claim_batch_size=1``), plus sessions/sec for each.  Micro-batching
  trades at most the linger on a lone claim for one pool round trip per
  coalesced batch under load.

Run with ``PYTHONPATH=src python benchmarks/bench_flow.py [--smoke]``.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time

import numpy as np

from repro.ppuf import BatchEvaluator, Ppuf, build_pack
from repro.service.client import fetch_stats
from repro.service.fleet import generate_load

NODES = 10
GRID = 3
SEED = 2026

#: Wall-clock budget [s] for the server subprocess to report its port.
STARTUP_TIMEOUT = 60.0


def bench_rows(ppuf, rng, *, rows, repeats):
    """Rows/sec through BatchEvaluator's edge-array batch path."""
    challenges = ppuf.challenge_space().random_batch(rows, rng)
    evaluator = BatchEvaluator(ppuf)
    evaluator.evaluate(challenges)  # warm buffers + caches
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        evaluator.evaluate(challenges)
        best = min(best, time.perf_counter() - start)
    return {
        "edge": {
            "algorithm": evaluator.algorithm,
            "rows": rows,
            "best_seconds": best,
            "rows_per_sec": rows / best,
        }
    }


def _spawn_server(pack_path, *, batch_size, linger):
    """Start ``repro serve`` in its own process; return (process, port).

    The server must not share a Python process (or GIL) with the provers:
    in-process clients block the event loop with their max-flow solves,
    which convoys claims behind prover compute and makes any batching
    measurement meaningless.
    """
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    )
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--pack",
            pack_path,
            "--port",
            "0",
            "--workers",
            "0",
            "--rounds",
            "1",
            "--seed",
            "5",
            "--claim-batch",
            str(batch_size),
            "--claim-linger",
            str(linger),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    deadline = time.monotonic() + STARTUP_TIMEOUT
    while True:
        if time.monotonic() > deadline:
            process.kill()
            process.wait()
            raise RuntimeError("server never reported a port")
        line = process.stdout.readline()
        if not line:
            process.wait()
            raise RuntimeError(f"server exited with {process.returncode}")
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(event, dict) and event.get("event") == "listening":
            return process, int(event["port"])


def bench_claims(pack_path, *, clients, duration, processes, batch_size):
    """Claim latency/throughput against a real server subprocess."""
    process, port = _spawn_server(
        pack_path, batch_size=batch_size, linger=0.002
    )
    try:
        report = generate_load(
            "127.0.0.1",
            port,
            pack=pack_path,
            clients=clients,
            duration_seconds=duration,
            rounds=1,
            processes=processes,
            timeout=60.0,
        )
        assert report.sessions > 0, "load run completed no sessions"
        assert report.errors == 0, f"{report.errors} session errors under load"
        snapshot = fetch_stats("127.0.0.1", port)
    finally:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    return {
        "clients": clients,
        "duration_seconds": duration,
        "claim_batch_size": batch_size,
        "sessions": report.sessions,
        "sessions_per_sec": report.sessions_per_second,
        "p50_ms": report.percentile_ms(50),
        "p99_ms": report.percentile_ms(99),
        "claims_verified": snapshot["claims_verified"],
        "claim_batches": snapshot["claim_batches"],
        "claims_batched": snapshot["claims_batched"],
        "mean_batch_occupancy": (
            snapshot["claims_batched"] / snapshot["claim_batches"]
            if snapshot["claim_batches"]
            else 0.0
        ),
    }


def main(out_dir=None, *, smoke=False):
    out_dir = out_dir or os.path.dirname(os.path.abspath(__file__))
    cpus = os.cpu_count() or 1
    rows = 64 if smoke else 512
    repeats = 2 if smoke else 5
    clients = 8 if smoke else 32
    duration = 2.0 if smoke else 6.0
    loadgen_processes = 1 if smoke else max(1, min(4, cpus - 1))
    rng = np.random.default_rng(SEED)
    ppuf = Ppuf.create(NODES, GRID, rng)

    print(f"rows/sec sweep: {rows} rows x {repeats} repeats (n={NODES}) ...")
    rows_report = bench_rows(ppuf, rng, rows=rows, repeats=repeats)
    print(f"  edge {rows_report['edge']['rows_per_sec']:.0f} rows/s")

    print(f"claim sweep: {clients} concurrent clients x {duration:.0f} s ...")
    with tempfile.TemporaryDirectory(prefix="bench_flow_") as work:
        pack_path = os.path.join(work, "device.pack")
        build_pack(pack_path, [ppuf.compile(include_circuit=False)])
        claims_report = {
            "microbatched": bench_claims(
                pack_path,
                clients=clients,
                duration=duration,
                processes=loadgen_processes,
                batch_size=16,
            ),
            "solo": bench_claims(
                pack_path,
                clients=clients,
                duration=duration,
                processes=loadgen_processes,
                batch_size=1,
            ),
        }
    for label, entry in claims_report.items():
        print(
            f"  {label}: {entry['sessions_per_sec']:.0f} sessions/s, "
            f"p50 {entry['p50_ms']:.1f} ms, p99 {entry['p99_ms']:.1f} ms, "
            f"occupancy {entry['mean_batch_occupancy']:.1f}"
        )

    report = {
        "nodes": NODES,
        "grid": GRID,
        "smoke": smoke,
        "cpus": cpus,
        "loadgen_processes": loadgen_processes,
        "batch_rows": rows_report,
        "claims": claims_report,
    }
    out_path = os.path.join(out_dir, "BENCH_flow.json")
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {out_path}")
    return report


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny fast run for CI smoke (numbers not representative)",
    )
    main(smoke=parser.parse_args().smoke)
