"""The offline workload's own process: enrollment and CRP generation.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``; it prints
``{"event": "ready"}`` once imported and then answers one JSON command
per stdin line with one JSON line on stdout:

* ``enroll`` — fabricate ``count`` devices from ``seed`` and compile them
  into a fresh pack (timed per step), then reopen the pack and check it
  serves every device unchanged;
* ``crp`` — evaluate ``rows`` seeded challenges per request with
  ``BatchEvaluator(workers=nproc)`` on one packed device, request after
  request, for ``seconds``;
* ``check`` — re-evaluate the first rows of the first request with the
  scalar ``dinic`` solver; the bits must be equal;
* ``exit``.

Running it in its own process keeps its CPU and memory apart from the
benchmark's in the ``/proc`` accounting.
"""

import json
import os
import sys
import time

from layers import CRP, check_pack, enroll, fabricate, stream

from repro.ppuf import BatchEvaluator
from repro.ppuf.pack import ArtifactPack


class OfflineJob:
    def __init__(self):
        self.pack_path = None
        self.challenges = []
        self.first_bits = None

    def enroll(self, seed, count, n, l, pack):
        ppufs = fabricate(seed, count, n, l)
        enrollment = enroll(ppufs, pack)
        self.pack_path = pack
        return {
            "compile_ms": enrollment.compile_ms,
            "add_ms": enrollment.add_ms,
            "close_ms": enrollment.close_ms,
            "pack_problems": check_pack(pack, enrollment.devices),
        }

    def crp(self, seed, rows, seconds, workers):
        pack = ArtifactPack(self.pack_path)
        device = pack.device(pack.ids()[0])
        # Two request-sized blocks, alternated, so consecutive requests
        # never evaluate the same challenges back to back.
        self.challenges = device.challenge_space().random_batch(
            2 * rows, stream(seed, CRP)
        )
        evaluator = BatchEvaluator(device, workers=workers)
        requests = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(requests) < 3:
            offset = rows * (len(requests) % 2)
            block = self.challenges[offset: offset + rows]
            mark = time.perf_counter()
            bits, report = evaluator.evaluate(block)
            elapsed = time.perf_counter() - mark
            if self.first_bits is None:
                self.first_bits = bits
            requests.append({
                "seconds": elapsed,
                "chunks": report.chunks,
                "workers": report.workers,
                "solve_s": report.solve_seconds,
            })
        return {"requests": requests}

    def check(self, rows):
        pack = ArtifactPack(self.pack_path)
        device = pack.device(pack.ids()[0])
        reference, _ = BatchEvaluator(device, algorithm="dinic").evaluate(
            self.challenges[:rows]
        )
        mismatches = int((reference != self.first_bits[:rows]).sum())
        return {"rows": rows, "mismatches": mismatches}


def main():
    job = OfflineJob()
    print(json.dumps({"event": "ready", "pid": os.getpid()}), flush=True)
    for line in sys.stdin:
        command = json.loads(line)
        op = command.pop("op")
        if op == "exit":
            break
        reply = getattr(job, op)(**command)
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
