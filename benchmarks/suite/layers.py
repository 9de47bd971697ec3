"""In-process timing of single layers on a workload's own devices.

Two jobs, both calling only public functions of the program:

* **enrollment** — fabricate devices from the seed, then time
  ``Ppuf.compile`` and ``PackWriter.add`` per device and
  ``PackWriter.close`` per pack; :func:`check_pack` reopens the pack and
  compares every served device with its compiled original;
* **replay** — a fixed, seeded set of honest challenges over the
  workload's devices, each proved, framed, decoded and verified the way
  a session would be (prove → wire round trip → ``verify_compact_claims``,
  once alone and once in batches of 16).  Every rejection is listed with
  its ``ClaimVerdict.reason``, and a batched verdict that differs from the
  solo verdict is a correctness failure.  The same loop times each step.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.ppuf import BatchEvaluator, Ppuf
from repro.ppuf.challenge import ChallengeSpace
from repro.ppuf.compiled import CompiledDevice
from repro.ppuf.delay import lin_mead_delay_bound
from repro.ppuf.pack import ArtifactPack, PackWriter
from repro.ppuf.verification import PpufProver, verify_compact_claims
from repro.service import wire

# Independent random streams drawn from one workload seed.
FABRICATION, SCHEDULE, SERVER, REPLAY, CRP = range(5)

VERIFY_BATCH = 16
ISSUE_SAMPLES = 16
KERNEL_ROWS = 1024


def stream(seed: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng([seed, purpose])


def fabricate(seed: int, count: int, n: int, l: int) -> List[Ppuf]:
    """The workload's devices: the same seed gives the same silicon."""
    rng = stream(seed, FABRICATION)
    return [Ppuf.create(n, l, rng) for _ in range(count)]


def network(device: CompiledDevice, which: str):
    return device.network_a if which == "a" else device.network_b


def replay_network(device_index: int) -> str:
    """Replay alternates networks per device, so batches share one."""
    return "ab"[device_index % 2]


def median(values) -> float:
    return float(statistics.median(values))


@dataclass
class Enrollment:
    devices: List[CompiledDevice]
    compile_ms: List[float]
    add_ms: List[float]
    close_ms: float


def enroll(ppufs: List[Ppuf], path: str) -> Enrollment:
    """Compile every device into a fresh pack at ``path``, timing each step."""
    devices, compile_ms, add_ms = [], [], []
    writer = PackWriter.create(path)
    try:
        for ppuf in ppufs:
            mark = time.perf_counter()
            device = ppuf.compile(include_circuit=False)
            compiled = time.perf_counter()
            writer.add(device)
            added = time.perf_counter()
            devices.append(device)
            compile_ms.append((compiled - mark) * 1e3)
            add_ms.append((added - compiled) * 1e3)
    except BaseException:
        writer.close(abort=True)
        raise
    mark = time.perf_counter()
    writer.close()
    return Enrollment(devices, compile_ms, add_ms, (time.perf_counter() - mark) * 1e3)


def check_pack(path: str, devices: List[CompiledDevice]) -> List[str]:
    """Problems found serving every device back from the reopened pack."""
    pack = ArtifactPack(path, cache_devices=0)
    expected = sorted(device.device_id for device in devices)
    if pack.ids() != expected:
        return [f"pack holds {len(pack)} ids; expected {len(expected)}"]
    problems = []
    for device in devices:
        served = pack.device(device.device_id)
        if served.header() != device.header():
            problems.append(f"{device.device_id[:12]}: header differs")
        served_arrays = served.to_arrays()
        for name, array in device.to_arrays().items():
            if not np.array_equal(served_arrays.get(name), array):
                problems.append(f"{device.device_id[:12]}: array {name} differs")
    return problems


def honest_replay(devices: List[CompiledDevice], seed: int, count: int) -> dict:
    """Prove → wire round trip → verify ``count`` honest challenges."""
    rng = stream(seed, REPLAY)
    timings: Dict[str, list] = defaultdict(list)
    groups: Dict[int, list] = defaultdict(list)
    rejections = []
    for index in range(count):
        position = index % len(devices)
        device = devices[position]
        net = network(device, replay_network(position))
        challenge = device.challenge_space().random(rng)
        mark = time.perf_counter()
        claim = PpufProver(net).answer_compact(challenge)
        proved = time.perf_counter()
        frame = wire.encode_message({
            "type": wire.CLAIM, "session": "replay", "nonce": "replay",
            "claim": wire.claim_to_wire(claim),
        })
        encoded = time.perf_counter()
        decoded = wire.claim_from_wire(json.loads(frame)["claim"])
        parsed = time.perf_counter()
        verdict = verify_compact_claims(net, [decoded])[0]
        verified = time.perf_counter()
        timings["prove_ms"].append((proved - mark) * 1e3)
        timings["wire_encode_us"].append((encoded - proved) * 1e6)
        timings["wire_decode_us"].append((parsed - encoded) * 1e6)
        timings["verify_b1_ms"].append((verified - parsed) * 1e3)
        groups[position].append((decoded, verdict))
        if not verdict.accepted:
            rejections.append({
                "device": device.device_id[:16],
                "network": replay_network(position),
                "source": challenge.source,
                "sink": challenge.sink,
                "reason": verdict.reason,
            })
    batch_mismatches = 0
    for position, entries in groups.items():
        net = network(devices[position], replay_network(position))
        for start in range(0, len(entries), VERIFY_BATCH):
            chunk = entries[start: start + VERIFY_BATCH]
            mark = time.perf_counter()
            verdicts = verify_compact_claims(net, [claim for claim, _ in chunk])
            elapsed = time.perf_counter() - mark
            if len(chunk) == VERIFY_BATCH:
                timings["verify_b16_ms_per_claim"].append(
                    elapsed * 1e3 / VERIFY_BATCH
                )
            batch_mismatches += sum(
                batched != solo for batched, (_, solo) in zip(verdicts, chunk)
            )
    return {
        "count": count,
        "rejections": rejections,
        "batch_mismatches": batch_mismatches,
        "timings": {name: median(values) for name, values in timings.items()},
    }


def challenge_issue_ms(devices: List[CompiledDevice], seed: int) -> float:
    """What the server does per issued challenge: the Lin–Mead deadline
    (``PpufAuthServer._challenge_message``) plus ``ChallengeSpace.random``
    (``SessionManager._issue``)."""
    rng = stream(seed, REPLAY)
    times = []
    for index in range(ISSUE_SAMPLES):
        device = devices[index % len(devices)]
        net = network(device, replay_network(index))
        mark = time.perf_counter()
        lin_mead_delay_bound(device.n, net.tech, net.conditions)
        ChallengeSpace(device.crossbar).random(rng)
        times.append((time.perf_counter() - mark) * 1e3)
    return median(times)


def pack_device_ms(path: str) -> float:
    """Cold ``ArtifactPack.device`` (no device LRU) per served device."""
    pack = ArtifactPack(path, cache_devices=0)
    times = []
    for device_id in pack.ids():
        mark = time.perf_counter()
        pack.device(device_id)
        times.append((time.perf_counter() - mark) * 1e3)
    return median(times)


def kernel_rows_per_s(device: CompiledDevice, seed: int) -> float:
    """``BatchEvaluator`` throughput on one core, inline (no pool)."""
    challenges = device.challenge_space().random_batch(KERNEL_ROWS, stream(seed, CRP))
    evaluator = BatchEvaluator(device, workers=1)
    times = []
    for _ in range(3):
        mark = time.perf_counter()
        evaluator.evaluate(challenges)
        times.append(time.perf_counter() - mark)
    return KERNEL_ROWS / median(times)
