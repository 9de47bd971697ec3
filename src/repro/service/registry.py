"""The device registry: enrollment and lookup of public PPUF descriptions.

PPUFs are *public* PUFs — enrollment stores no secrets, only the public
device description (:func:`repro.ppuf.io.ppuf_to_dict`).  The registry key
is content-derived: the SHA-256 digest of the canonical JSON form
(:func:`repro.ppuf.io.device_id_for`), so the same silicon always enrolls
under the same id and a tampered description changes the id (a
self-authenticating directory, like the paper's public model registry).

With a ``directory``, every enrollment is persisted as
``<device_id>.json`` via the atomic writer in :mod:`repro.ppuf.io`, and a
restarted server reloads its fleet from disk.  :meth:`DeviceRegistry.load_directory`
is a *rebuild*: it replaces the resident fleet with what the directory
holds right now (deleted files drop out) and skips — with a logged
warning — any ``<id>.json`` whose filename does not match its
content-derived digest, so a renamed or tampered file can never enroll
under an id other than the one written on its name.

The registry keeps no device objects.  A session opens from the device
*header* (:meth:`DeviceRegistry.header`: ``n``, ``l``, technology card and
operating point), and claims verify against a compiled artifact
(:class:`~repro.ppuf.compiled.CompiledDevice`) read from one of two
artifact packs:

1. the packed fleet file (:class:`~repro.ppuf.pack.ArtifactPack`, one mmap
   shared by every device).  It is also how compiled artifacts persist
   across restarts: ``repro pack build --registry DIR``;
2. the registry's private *enrollment pack*: a JSON-enrolled device with
   no fleet-pack record is compiled on first use and appended to a
   temporary pack on tmpfs, which verification workers map exactly like
   the fleet pack (:meth:`DeviceRegistry.artifact_payload`).  Only the
   registry's own process writes it; it is removed by
   :meth:`DeviceRegistry.close` or when the registry is garbage-collected.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import weakref
from typing import Dict, List, Optional, Union

from repro.errors import ReproError, ServiceError
from repro.ppuf.compiled import CompiledDevice
from repro.ppuf.device import Ppuf
from repro.ppuf.io import (
    atomic_write_text,
    canonical_json,
    device_id_for,
    ppuf_from_dict,
    ppuf_to_dict,
)
from repro.ppuf.pack import ArtifactPack, PackWriter, scratch_pack_path

logger = logging.getLogger(__name__)


def _discard_pack(writer: PackWriter, path: str) -> None:
    writer.close(abort=True)
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass


class _EnrollmentPack:
    """A registry's private, append-only pack of JSON-enrolled devices.

    Appends are flushed (not fsynced: the pack is scratch on tmpfs) so a
    worker that re-scans its mapping sees every finished record.
    """

    def __init__(self):
        self.path = scratch_pack_path("repro-enroll-")
        self.writer = PackWriter.open(self.path)
        self._reader: Optional[ArtifactPack] = None
        self._finalizer = weakref.finalize(
            self, _discard_pack, self.writer, self.path
        )

    def close(self) -> None:
        self._finalizer()

    def add(self, artifact: CompiledDevice) -> None:
        self.writer.add(artifact)
        self.writer.flush()

    def device(self, device_id: str) -> CompiledDevice:
        if self._reader is None:
            self._reader = ArtifactPack(self.path, cache_devices=0)
        elif device_id not in self._reader:
            self._reader.refresh()
        return self._reader.device(device_id)


class DeviceRegistry:
    """Enrolled devices, keyed by :func:`~repro.ppuf.io.device_id_for`.

    Parameters
    ----------
    directory:
        Optional persistence root.  When given, enrollments are written
        there atomically and ``load_directory`` is called on construction.
    pack:
        Optional packed fleet: a path or an open
        :class:`~repro.ppuf.pack.ArtifactPack`.  Devices found in the pack
        are served as zero-copy mmap slices; ids in the pack count as
        enrolled for lookup/verification (the public JSON directory can
        stay empty for a pre-provisioned fleet).
    """

    def __init__(
        self,
        directory: Optional[str] = None,
        pack: Union[ArtifactPack, str, None] = None,
    ):
        self.directory = directory
        self.pack = ArtifactPack(pack) if isinstance(pack, (str, os.PathLike)) else pack
        self._public: Dict[str, dict] = {}
        self._enrollment: Optional[_EnrollmentPack] = None
        # artifact_payload() runs on executor threads: the lock keeps
        # enrollment-pack appends (held across a compile) whole.
        self._enrollment_lock = threading.Lock()
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
            self.load_directory()

    # ------------------------------------------------------------------
    def _known_ids(self) -> set:
        known = set(self._public)
        if self.pack is not None:
            known.update(self.pack.ids())
        return known

    def __len__(self) -> int:
        return len(self._known_ids())

    def __contains__(self, device_id: str) -> bool:
        return device_id in self._public or (
            self.pack is not None and device_id in self.pack
        )

    def ids(self) -> List[str]:
        return sorted(self._known_ids())

    # ------------------------------------------------------------------
    def enroll(self, public: dict) -> str:
        """Enroll a public description; returns the device id.

        The description is validated by rebuilding the device from it
        (:class:`ReproError` propagates for a malformed dict); the rebuilt
        device is not kept.  Re-enrolling an already-known device returns
        the same id — and restores the on-disk JSON if it went missing (a
        lost file must not stay lost just because the id is still
        resident).
        """
        ppuf_from_dict(public)
        device_id = device_id_for(public)
        known = device_id in self._public
        if not known:
            self._public[device_id] = public
        if self.directory is not None:
            path = self._path(device_id)
            if not known or not os.path.exists(path):
                atomic_write_text(path, canonical_json(public))
        return device_id

    def enroll_ppuf(self, ppuf: Ppuf) -> str:
        """Enroll a live device object by its public description."""
        return self.enroll(ppuf_to_dict(ppuf))

    # ------------------------------------------------------------------
    def public(self, device_id: str) -> dict:
        """The enrolled public description for a device id."""
        try:
            return self._public[device_id]
        except KeyError:
            raise ServiceError(f"unknown device id {device_id!r}") from None

    def header(self, device_id: str) -> dict:
        """What opening a session needs, without building the device.

        The fleet-pack record header for a packed device, the enrolled
        public description otherwise; both carry ``n``, ``l``,
        ``technology`` and ``conditions``.
        """
        if self.pack is not None and device_id in self.pack:
            return self.pack.header(device_id)
        return self.public(device_id)

    def compiled(self, device_id: str) -> CompiledDevice:
        """The compiled (capacity-only) evaluation artifact for a device id.

        A fleet-pack device is served as an mmap row slice; any other
        enrolled device is read back from the enrollment pack, compiled
        into it on first use.  Verification needs only the capacity
        tables, so circuit I–V tables are not built here.
        """
        if self.pack is not None and device_id in self.pack:
            return self.pack.device(device_id)
        with self._enrollment_lock:
            return self._enrolled_record(device_id).device(device_id)

    def artifact_payload(self, device_id: str) -> str:
        """The path of the pack a worker resolves ``device_id`` in.

        A fleet-pack device needs no work; any other enrolled device is
        compiled into the enrollment pack first (call this off the event
        loop).
        """
        if self.pack is not None and device_id in self.pack:
            return self.pack.path
        with self._enrollment_lock:
            return self._enrolled_record(device_id).path

    def _enrolled_record(self, device_id: str) -> _EnrollmentPack:
        """The enrollment pack, holding ``device_id`` (compiled on a miss).

        Call with the enrollment lock held.  Raises :class:`ServiceError`
        for an id that is not (or no longer) enrolled, even if an earlier
        fleet left its record in the pack.
        """
        public = self.public(device_id)
        if self._enrollment is None:
            self._enrollment = _EnrollmentPack()
        if device_id not in self._enrollment.writer:
            self._enrollment.add(
                ppuf_from_dict(public).compile(
                    include_circuit=False, device_id=device_id
                )
            )
        return self._enrollment

    def close(self) -> None:
        """Remove the enrollment pack; the next cold miss starts a new one."""
        with self._enrollment_lock:
            if self._enrollment is not None:
                self._enrollment.close()
                self._enrollment = None

    # ------------------------------------------------------------------
    def load_directory(self) -> int:
        """(Re)load every ``*.json`` under ``directory``; returns the count.

        This *rebuilds* the resident fleet: devices whose files were
        deleted drop out and are no longer served, even where the
        enrollment pack still holds their record.  Files that fail to parse
        are skipped (a server should come up with the healthy part of its
        fleet, not crash on one bad entry), as are files whose name does
        not match the content-derived digest of what they hold — silently
        enrolling such a file would register it under a different id than
        the one on its filename.
        """
        if self.directory is None:
            return 0
        self._public.clear()
        loaded = 0
        for name in sorted(os.listdir(self.directory)):
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.directory, name)
            try:
                with open(path) as handle:
                    public = json.load(handle)
                ppuf_from_dict(public)
            except (OSError, json.JSONDecodeError, ReproError):
                continue
            device_id = device_id_for(public)
            if name != f"{device_id}.json":
                logger.warning(
                    "registry reload: skipping %s — filename does not match "
                    "the content-derived digest %s", path, device_id,
                )
                continue
            self._public[device_id] = public
            loaded += 1
        return loaded

    def _path(self, device_id: str) -> str:
        return os.path.join(self.directory, f"{device_id}.json")
