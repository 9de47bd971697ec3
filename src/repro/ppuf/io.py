"""PPUF persistence.

A fabricated PPUF is fully described by its topology, technology card,
operating point and the two variation samples — all *public* data (the
PPUF premise).  The JSON form here is what a manufacturer would publish
per device; :func:`load_ppuf` rebuilds a device that answers bit-for-bit
identically across processes (asserted by the CLI tests).  Its SHA-256
digest (:func:`device_id_for`) is the device's id everywhere: in compiled
artifacts, packs and the service registry.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile

import numpy as np

from repro.circuit.ptm32 import OperatingConditions, Technology
from repro.circuit.variation import VariationSample
from repro.errors import ReproError
from repro.ppuf.crossbar import Crossbar
from repro.ppuf.crp import CRPDataset
from repro.ppuf.device import Ppuf, PpufNetwork
from repro.ppuf.formats import FORMAT_VERSION, check_format


def ppuf_to_dict(ppuf: Ppuf) -> dict:
    """Serialisable description of a fabricated PPUF."""

    def sample_dict(sample: VariationSample) -> dict:
        return {
            "delta_vt": sample.delta_vt.tolist(),
            "systematic": sample.systematic.tolist(),
        }

    return {
        "format": FORMAT_VERSION,
        "n": ppuf.n,
        "l": ppuf.l,
        "technology": dataclasses.asdict(ppuf.network_a.tech),
        "conditions": dataclasses.asdict(ppuf.network_a.conditions),
        "sample_a": sample_dict(ppuf.network_a.sample),
        "sample_b": sample_dict(ppuf.network_b.sample),
    }


def canonical_json(public: dict) -> str:
    """Canonical serialisation: sorted keys, no whitespace.

    JSON round-trips Python floats exactly (shortest-repr), so the client
    and the server compute identical digests from equal descriptions even
    after the dict has crossed the wire.
    """
    return json.dumps(public, sort_keys=True, separators=(",", ":"))


def device_id_for(public: dict) -> str:
    """Stable device id: SHA-256 of the canonical public description."""
    return hashlib.sha256(canonical_json(public).encode("utf-8")).hexdigest()


def ppuf_from_dict(data: dict) -> Ppuf:
    """Rebuild a PPUF from its saved description.

    A missing ``"format"`` field is accepted as the legacy pre-versioning
    form; an explicit mismatch raises :class:`ReproError`.
    """
    try:
        check_format("PPUF description", data)
    except ValueError as error:
        raise ReproError(str(error)) from None
    try:
        crossbar = Crossbar(n=int(data["n"]), l=int(data["l"]))
        tech = Technology(**data["technology"])
        conditions = OperatingConditions(**data["conditions"])

        def sample(payload) -> VariationSample:
            return VariationSample(
                delta_vt=np.asarray(payload["delta_vt"], dtype=np.float64),
                systematic=np.asarray(payload["systematic"], dtype=np.float64),
            )

        return Ppuf(
            crossbar=crossbar,
            network_a=PpufNetwork(crossbar, sample(data["sample_a"]), tech, conditions),
            network_b=PpufNetwork(crossbar, sample(data["sample_b"]), tech, conditions),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as error:
        raise ReproError(f"malformed PPUF save file: {error}") from error


def current_umask() -> int:
    """The process umask (read without changing it for longer than a call)."""
    mask = os.umask(0)
    os.umask(mask)
    return mask


def publish_temp(temp_path: str, path: str) -> None:
    """Publish a fully written temp file at ``path`` (the atomic contract).

    ``mkstemp`` creates temp files with mode 0600, which is the wrong
    permission set to *publish*: a registry pack read by verify workers
    under another uid would silently lose access.  The temp file
    is re-moded to the umask-respecting 0666-derived permissions a plain
    :func:`open` would have produced, then moved over ``path`` with
    :func:`os.replace`.  The caller must already have flushed and fsynced
    the content; the rename itself is atomic on POSIX.
    """
    os.chmod(temp_path, 0o666 & ~current_umask())
    os.replace(temp_path, path)


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically.

    The text lands in a temporary file in the same directory, is flushed
    and fsynced, and is moved into place with :func:`os.replace`, so a
    crashed or killed writer (a registry server mid-enrollment, say) never
    leaves a truncated file at ``path`` — readers see either the old
    content or the new, never a partial write — and a power loss straight
    after the rename cannot surface an empty file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    descriptor, temp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(descriptor, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        publish_temp(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


def save_ppuf(ppuf: Ppuf, path: str) -> None:
    """Write a device's public description to a JSON file (atomically)."""
    atomic_write_text(path, json.dumps(ppuf_to_dict(ppuf)))


def load_ppuf(path: str) -> Ppuf:
    """Rebuild a device from a JSON file written by :func:`save_ppuf`.

    Raises :class:`ReproError` (with the path in the message) on an
    unreadable or syntactically malformed file — the same error contract
    as :func:`load_crps`.
    """
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as error:
        raise ReproError(f"cannot read PPUF file {path!r}: {error}") from error
    except json.JSONDecodeError as error:
        raise ReproError(f"malformed PPUF file {path!r}: {error}") from error
    try:
        check_format("PPUF", data if isinstance(data, dict) else {}, path=path)
    except ValueError as error:
        raise ReproError(str(error)) from None
    return ppuf_from_dict(data)


def save_crps(dataset: CRPDataset, path: str) -> None:
    """Write a CRP dataset to a JSON file (the CLI's batch wire format).

    The write is atomic (temp file + :func:`os.replace`), like
    :func:`save_ppuf`.
    """
    atomic_write_text(path, dataset.to_json())


def load_crps(path: str) -> CRPDataset:
    """Read a CRP dataset written by :func:`save_crps`.

    Raises :class:`ReproError` on a malformed file.
    """
    try:
        with open(path) as handle:
            text = handle.read()
        return CRPDataset.from_json(text)
    except OSError as error:
        raise ReproError(f"cannot read CRP file {path!r}: {error}") from error
    except (KeyError, TypeError, ValueError) as error:
        raise ReproError(f"malformed CRP file {path!r}: {error}") from error
