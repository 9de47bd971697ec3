"""Fleet-pack economics: one mmap'd file for the whole fleet.

Standalone publisher (not a pytest benchmark): builds a 1000-device pack,
then records into ``benchmarks/BENCH_pack.json``

* **enrollment throughput** — devices/second streamed through
  :func:`repro.ppuf.pack.build_pack` (append-only, one fsync at close);
* **cold-claim latency** — p50/p99 of pack row slice + residual-graph
  ``verify_compact`` for a cold device, at fleet sizes 10/100/1000;
* **open-FD count vs device count** — the pack must hold O(1)
  descriptors no matter how many devices it serves.

Every served response is asserted bit-exact against the live device
before a number is published.

Run with ``PYTHONPATH=src python benchmarks/bench_pack.py``.
"""

import json
import os
import tempfile
import time

import numpy as np

from repro.ppuf import Ppuf
from repro.ppuf.pack import ArtifactPack, build_pack
from repro.ppuf.verification import PpufProver, PpufVerifier

NODES = 6
GRID = 2
FLEET = 1000
SIZES = (10, 100, 1000)
CLAIM_SAMPLES = 64  # cold claims timed per fleet size
SEED = 2026


def _fd_count():
    return len(os.listdir("/proc/self/fd"))


def _percentiles(seconds):
    arr = np.asarray(seconds, dtype=np.float64) * 1e3
    return {
        "p50_ms": round(float(np.percentile(arr, 50)), 4),
        "p99_ms": round(float(np.percentile(arr, 99)), 4),
    }


def _cold_claims(resolve, sample_ids, claims):
    """Time resolve(device_id) + verify_compact per cold device."""
    timings = []
    for device_id in sample_ids:
        start = time.perf_counter()
        served = resolve(device_id)
        accepted = PpufVerifier(served.network_a).verify_compact(claims[device_id])
        timings.append(time.perf_counter() - start)
        assert accepted, f"claim rejected for {device_id}"
    return _percentiles(timings)


def main(out_dir=None):
    out_dir = out_dir or os.path.dirname(os.path.abspath(__file__))
    with tempfile.TemporaryDirectory(prefix="bench_pack_") as work:
        report = _run(work)
    out_path = os.path.join(out_dir, "BENCH_pack.json")
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {out_path}")
    return report


def _run(work):
    rng = np.random.default_rng(SEED)
    print(f"fabricating {FLEET} devices (n={NODES}, grid={GRID}) ...")
    fleet = [Ppuf.create(NODES, GRID, rng) for _ in range(FLEET)]
    compiled = [device.compile(include_circuit=False) for device in fleet]
    by_id = {c.device_id: (d, c) for d, c in zip(fleet, compiled)}

    report = {
        "nodes": NODES,
        "grid": GRID,
        "fleet": FLEET,
        "claim_samples": CLAIM_SAMPLES,
        "sizes": {},
    }

    challenge_rng = np.random.default_rng(7)
    sample_rng = np.random.default_rng(11)

    for size in SIZES:
        subset = compiled[:size]
        pack_path = os.path.join(work, f"fleet_{size}.pack")

        start = time.perf_counter()
        build_pack(pack_path, subset)
        pack_seconds = time.perf_counter() - start

        sample_ids = [
            subset[i].device_id
            for i in sample_rng.choice(
                size, size=min(CLAIM_SAMPLES, size), replace=False
            )
        ]
        claims = {}
        for device_id in sample_ids:
            device, _ = by_id[device_id]
            challenge = device.challenge_space().random(challenge_rng)
            claims[device_id] = PpufProver(device.network_a).answer_compact(challenge)

        fd_before = _fd_count()
        pack = ArtifactPack(pack_path)
        pack_cold = _cold_claims(pack.device, sample_ids, claims)
        fd_after_pack = _fd_count()

        # bit-exactness: pack row vs live device, on a fresh batch
        for device_id in sample_ids[:8]:
            device, _ = by_id[device_id]
            challenges = device.challenge_space().random_batch(16, challenge_rng)
            live = device.response_bits(challenges)
            assert np.array_equal(pack.device(device_id).response_bits(challenges), live)

        row = {
            "pack_enroll_devices_per_s": round(size / pack_seconds, 1),
            "pack_bytes": os.path.getsize(pack_path),
            "pack_cold_claim": pack_cold,
            "pack_open_fds_delta": fd_after_pack - fd_before,
        }
        report["sizes"][str(size)] = row
        print(
            f"{size:>5} devices  enroll pack {row['pack_enroll_devices_per_s']:>8} dev/s"
            f"  cold-claim p50 {pack_cold['p50_ms']} ms"
            f"  fds +{row['pack_open_fds_delta']}"
        )
        assert row["pack_open_fds_delta"] <= 1, "pack leaked file descriptors"

    return report


if __name__ == "__main__":
    main()
