"""JSON-lines wire protocol for the authentication service.

Every message is one JSON object on one ``\\n``-terminated line — trivially
debuggable with ``nc`` and free of framing ambiguity.  The vocabulary:

=============  ======  =====================================================
type           sender  payload
=============  ======  =====================================================
``enroll``     client  ``device`` — the public PPUF dict (:func:`ppuf_to_dict`)
``enrolled``   server  ``device_id``
``hello``      client  ``device_id``, ``network`` ("a"/"b"), opt. ``rounds``
``challenge``  server  ``session``, ``nonce``, ``round``, ``rounds``,
                       ``challenge``, ``deadline_seconds`` (the enforced
                       deadline; the modeled Lin–Mead bound is a public
                       function of the device, not a wire field)
``claim``      client  ``session``, ``nonce``, ``claim``
``verdict``    server  ``session``, ``accepted``, ``reason``, ``rounds_run``
``stats``      client  (empty) → server replies with a ``stats`` snapshot
``error``      server  ``error`` — protocol violation; the session (if any)
                       is dead
=============  ======  =====================================================

Challenges travel as ``{source, sink, bits}``; claims travel in the compact
path-decomposition form (:class:`repro.ppuf.verification.CompactClaim`) —
O(n) paths instead of the dense n×n flow matrix, the bandwidth-conscious
format the protocol module already defines.
"""

from __future__ import annotations

import asyncio
import json
from typing import List, Optional

import numpy as np

from repro.errors import ServiceError
from repro.flow.registry import DEFAULT_ALGORITHM
from repro.flow.decomposition import PathFlow
from repro.service.resilience import with_timeout
from repro.ppuf.challenge import Challenge
from repro.ppuf.verification import CompactClaim

#: Hard per-line ceiling; a compact claim for the largest plausible device
#: is far below this, so anything bigger is garbage or abuse.
MAX_LINE_BYTES = 8 * 1024 * 1024

# Message type tags (client -> server unless noted).
ENROLL = "enroll"
ENROLLED = "enrolled"  # server -> client
HELLO = "hello"
CHALLENGE = "challenge"  # server -> client
CLAIM = "claim"
VERDICT = "verdict"  # server -> client
STATS = "stats"  # request and reply share the tag
ERROR = "error"  # server -> client


def encode_message(message: dict) -> bytes:
    """One wire frame: compact JSON plus the terminating newline."""
    return json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"


async def read_message(
    reader: asyncio.StreamReader,
    *,
    limit: int = MAX_LINE_BYTES,
    timeout: Optional[float] = None,
) -> Optional[dict]:
    """Read one frame; ``None`` on clean EOF; :class:`ServiceError` on junk.

    With ``timeout``, a peer that stalls mid-frame raises
    :class:`~repro.errors.ServiceTimeout` instead of blocking forever.
    """
    try:
        line = await with_timeout(reader.readline(), timeout, "wire read")
    except (asyncio.LimitOverrunError, ValueError) as error:
        raise ServiceError(f"wire frame exceeds reader limit: {error}") from error
    if not line:
        return None
    if len(line) > limit:
        raise ServiceError(f"wire frame of {len(line)} bytes exceeds {limit}")
    try:
        message = json.loads(line)
    except json.JSONDecodeError as error:
        raise ServiceError(f"malformed wire frame: {error}") from error
    if not isinstance(message, dict) or not isinstance(message.get("type"), str):
        raise ServiceError("wire frame must be a JSON object with a 'type' string")
    return message


async def write_message(
    writer: asyncio.StreamWriter, message: dict, *, timeout: Optional[float] = None
) -> None:
    """Encode, enqueue and flush one frame (``timeout`` bounds the drain)."""
    writer.write(encode_message(message))
    await with_timeout(writer.drain(), timeout, "wire write")


# ----------------------------------------------------------------------
# payload (de)serialisation
# ----------------------------------------------------------------------
def challenge_to_wire(challenge: Challenge) -> dict:
    return {
        "source": challenge.source,
        "sink": challenge.sink,
        "bits": challenge.bits.tolist(),
    }


def challenge_from_wire(payload: dict) -> Challenge:
    try:
        return Challenge(
            source=int(payload["source"]),
            sink=int(payload["sink"]),
            bits=np.asarray(payload["bits"], dtype=np.uint8),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise ServiceError(f"malformed wire challenge: {error}") from error


def claim_to_wire(claim: CompactClaim) -> dict:
    return {
        "challenge": challenge_to_wire(claim.challenge),
        "paths": [
            {"vertices": list(path.vertices), "value": path.value}
            for path in claim.paths
        ],
        "value": claim.value,
        "elapsed_seconds": claim.elapsed_seconds,
        # Solver attribution for the server's per-algorithm telemetry.
        "algorithm": claim.algorithm,
    }


def claim_from_wire(payload: dict) -> CompactClaim:
    try:
        paths: List[PathFlow] = [
            PathFlow(
                vertices=tuple(int(v) for v in entry["vertices"]),
                value=float(entry["value"]),
            )
            for entry in payload["paths"]
        ]
        return CompactClaim(
            challenge=challenge_from_wire(payload["challenge"]),
            paths=paths,
            value=float(payload["value"]),
            elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
            algorithm=str(payload.get("algorithm", DEFAULT_ALGORITHM)),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise ServiceError(f"malformed wire claim: {error}") from error
