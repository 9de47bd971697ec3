"""The device registry: one artifact pack of enrolled public PPUF models.

PPUFs are *public* PUFs — enrollment stores no secrets, only what the
verifier needs to check a claimed flow: each device's max-flow
capacities.  The registry key is content-derived: the SHA-256 digest of
the canonical JSON form of the public description
(:func:`repro.ppuf.io.device_id_for`), so the same silicon always enrolls
under the same id and a tampered description changes the id (a
self-authenticating directory, like the paper's public model registry).

The registry *is* one :class:`~repro.ppuf.pack.ArtifactPack`: a session
opens from a record header (:meth:`DeviceRegistry.header`), and
verification workers receive the pack's :attr:`~DeviceRegistry.path` with
every claim.  :meth:`DeviceRegistry.enroll` validates a description,
compiles its capacity-only artifact once and appends it under the pack's
exclusive append lock (:meth:`PackWriter.open
<repro.ppuf.pack.PackWriter.open>`), so the shards of one fleet, or
``repro pack append``, may write to the same file.  The pack is opened for
writing only when an enrollment arrives.  Without a path the registry is a
scratch pack on tmpfs that :meth:`DeviceRegistry.close` removes.  A
directory of JSON descriptions is an import format only (``repro pack
build --registry DIR``).

Freshness: a registry serves what its pack held when it opened plus what
it enrolled itself; an unknown id never triggers a rescan, which would let
any client stall the server.  The pack is append-only: to withdraw a
device, stop the servers on the pack, rebuild it from the kept
descriptions with ``repro pack build --registry DIR`` and restart them.
"""

from __future__ import annotations

import os
import threading
import weakref
from typing import List, Optional

from repro.errors import ReproError, ServiceError
from repro.ppuf.device import Ppuf
from repro.ppuf.io import device_id_for, ppuf_from_dict, ppuf_to_dict
from repro.ppuf.pack import ArtifactPack, PackWriter, scratch_pack_path


def _unlink(path: str) -> None:
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass


class DeviceRegistry:
    """Enrolled devices, keyed by :func:`~repro.ppuf.io.device_id_for`.

    Parameters
    ----------
    pack:
        Path of the artifact pack that holds the registry; a missing file
        is created as an empty pack.  ``None`` keeps a scratch pack on
        tmpfs, removed by :meth:`close` (or when the registry is
        garbage-collected).
    """

    def __init__(self, pack: Optional[str] = None):
        self._scratch = None
        if pack is None:
            pack = scratch_pack_path("repro-registry-")
            self._scratch = weakref.finalize(self, _unlink, pack)
        if not os.path.exists(pack) or os.path.getsize(pack) == 0:
            try:
                PackWriter.open(pack).close()
            except OSError as error:
                raise ReproError(
                    f"cannot create registry pack {pack!r}: {error}"
                ) from error
        self.pack = ArtifactPack(pack)
        # enroll() runs on executor threads: appends (and the reader
        # refresh that follows each) happen one at a time.
        self._lock = threading.Lock()

    @property
    def path(self) -> str:
        """The pack file verification workers resolve every device in."""
        return self.pack.path

    def __len__(self) -> int:
        return len(self.pack)

    def __contains__(self, device_id: str) -> bool:
        return device_id in self.pack

    def ids(self) -> List[str]:
        return self.pack.ids()

    # ------------------------------------------------------------------
    def enroll(self, public: dict) -> str:
        """Enroll a public description; returns the device id.

        The description is validated by rebuilding the device from it
        (:class:`~repro.errors.ReproError` propagates for a malformed
        dict), compiled once into its capacity-only artifact and appended
        to the pack under ``device_id_for(public)``.  Re-enrolling a known
        id appends nothing.  Blocking: call it off the event loop.
        """
        device = ppuf_from_dict(public)
        device_id = device_id_for(public)
        with self._lock:
            if device_id not in self.pack:
                artifact = device.compile(include_circuit=False, device_id=device_id)
                with PackWriter.open(self.path) as writer:
                    # Another process may have appended it meanwhile.
                    if device_id not in writer:
                        writer.add(artifact)
                self.pack.refresh()
        return device_id

    def enroll_ppuf(self, ppuf: Ppuf) -> str:
        """Enroll a live device object by its public description."""
        return self.enroll(ppuf_to_dict(ppuf))

    def header(self, device_id: str) -> dict:
        """What opening a session needs, without building the device: the
        pack record's header (``n``, ``l``, ``technology``,
        ``conditions``)."""
        if device_id not in self.pack:
            raise ServiceError(f"unknown device id {device_id!r}")
        return self.pack.header(device_id)

    def close(self) -> None:
        """Remove a scratch pack; a named pack stays where it is."""
        with self._lock:
            if self._scratch is not None:
                self._scratch()
