"""Worker-side artifact provisioning: one format, one transport.

A pool worker verifying claims or solving CRP chunks needs the device's
compiled tables.  They always arrive the same way: as the path of an
mmap'd :class:`~repro.ppuf.pack.ArtifactPack` plus the device id, which
:func:`pack_device` resolves.  The worker maps each pack once and every
device after that is an index lookup plus a row slice; every process
mapping the same pack shares its pages through the OS page cache, so the
artifact bytes exist once per machine, not once per worker.

The packs a worker sees are the service's registry pack (see
:class:`~repro.service.registry.DeviceRegistry`) and the temporary
single-device pack :func:`ship_compiled` writes for the batch pipeline's
pool fan-out.  The registry pack grows by enrollment while workers hold
it mapped, so a lookup that misses re-scans the pack once before it gives
up.

The one per-worker device cache is each mapped pack's own LRU, opened
with :data:`WORKER_DEVICE_CACHE_SIZE` entries: a fleet of millions must
not be mirrored into every worker's memory.
"""

from __future__ import annotations

import os

#: Bound on each mapped pack's device LRU in a worker.  Small on purpose:
#: a pool worker only needs the devices it is actively working on.  Read
#: when a pack is first mapped, so tests (and operators) can retune it.
WORKER_DEVICE_CACHE_SIZE = 32

# Process-local pack mappings, keyed by path: map each pack exactly once
# per worker, slice per device.
_WORKER_PACKS: dict = {}


def pack_device(path: str, device_id: str):
    """Device ``device_id`` as zero-copy views into this process's mapping
    of the pack at ``path`` (mapped on first use, served from its LRU)."""
    from repro.ppuf.pack import ArtifactPack

    pack = _WORKER_PACKS.get(path)
    if pack is None:
        pack = _WORKER_PACKS[path] = ArtifactPack(
            path, cache_devices=WORKER_DEVICE_CACHE_SIZE
        )
    elif device_id not in pack:
        # Appended since this worker mapped the pack (the registry pack
        # grows by enrollment under its workers): re-scan once.
        pack.refresh()
    return pack.device(device_id)


def clear_cache() -> None:
    """Drop every pack mapping (and with it every cached device; tests)."""
    _WORKER_PACKS.clear()


# ----------------------------------------------------------------------
# producer side: shipping one artifact to a pool
# ----------------------------------------------------------------------
class ShippedArtifact:
    """One device written to a temporary pack for pool fan-out.

    ``path`` and ``device_id`` are what the pool initializer receives
    (both picklable and tiny); :meth:`close` unlinks the temporary pack.
    Always ``close()`` after the pool is done — workers that still map
    the pack keep their pages until they exit.
    """

    def __init__(self, path: str, device_id: str):
        self.path = path
        self.device_id = device_id

    def close(self) -> None:
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass


def ship_compiled(device) -> ShippedArtifact:
    """Write a compiled device to a temporary single-device pack.

    The pack lands on tmpfs when the host has one (see
    :func:`repro.ppuf.pack.scratch_pack_path`), so "writing" it is a
    memory copy and every worker maps the same pages.  An artifact without
    a device id is packed under a placeholder id.
    """
    from repro.ppuf.pack import PackWriter, scratch_pack_path

    device_id = device.device_id or "shipped"
    shipped = ShippedArtifact(scratch_pack_path("repro-ship-"), device_id)
    try:
        with PackWriter.create(shipped.path) as writer:
            writer.add(device, device_id=device_id)
    except BaseException:
        shipped.close()
        raise
    return shipped
