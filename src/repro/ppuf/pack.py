"""Packed artifact fleets: one mmap'd file for a million devices.

The pack is the one on-disk and cross-process format of a compiled
artifact.  A whole fleet lives in a single append-only file that a
verifier opens **once** with :func:`numpy.memmap`; serving a device is
then an index lookup plus a row slice, and every process mapping the pack
shares pages through the OS page cache — one file instead of one per
device, one open instead of one per cold claim.  The same container
carries a single device to pool workers (a temporary pack on tmpfs, see
:func:`scratch_pack_path`) and is a verification server's whole device
registry (:class:`~repro.service.registry.DeviceRegistry`): the directory
of public models the paper's protocol assumes, in one format.

On-disk layout (container ``format: 2``)
----------------------------------------

::

    file      := file-header record*
    file-header := MAGIC(8B "PPUFPACK") version(u32 LE = 2) reserved(u32 LE)
    record    := RMAGIC(4B "PKR1") header_len(u64 LE) header-JSON
                 pad(to 64B)  array-bytes…

Each record's header JSON carries the device id, the embedded
compiled-artifact header (schema version 1 — a record slice rebuilds
through :meth:`CompiledDevice.from_arrays
<repro.ppuf.compiled.CompiledDevice.from_arrays>`) and the layout of its
raw arrays: name, dtype, shape and byte offset relative to the record's
64-byte-aligned data start.

Append protocol and durability
------------------------------

The pack is **append-only**: streaming bulk enrollment writes new records
at the tail and never rewrites existing bytes, so readers holding an open
mapping stay valid.  Appending the same device id again supersedes the
earlier record (last writer wins) — a refresh without a rewrite.
:meth:`PackWriter.close` flushes and fsyncs; a writer killed mid-record
leaves a truncated tail that :class:`ArtifactPack` detects and skips with
a logged warning (every fully synced record before it survives), and
:meth:`PackWriter.open` truncates such a tail before appending.  An
appending writer holds an exclusive :func:`fcntl.flock` on the pack until
it closes, so that truncation never cuts a record another process is
still writing, and appends from several processes never interleave.  A
fresh :meth:`PackWriter.create` stages the whole file in a temp path and
publishes it with the module-wide fsync + umask-respecting chmod +
:func:`os.replace` contract of :mod:`repro.ppuf.io`.
"""

from __future__ import annotations

import json
import logging
import os
import struct
import tempfile
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

from repro.errors import ReproError
from repro.ppuf.compiled import CompiledDevice
from repro.ppuf.formats import PACK_FORMAT_VERSION, check_format, format_mismatch
from repro.ppuf.io import publish_temp

logger = logging.getLogger(__name__)

PACK_MAGIC = b"PPUFPACK"
RECORD_MAGIC = b"PKR1"
#: Array data is aligned so mmap'd views start on cache-line boundaries.
ALIGNMENT = 64

_FILE_HEADER = struct.Struct("<8sII")
_RECORD_PREFIX = struct.Struct("<4sQ")

#: tmpfs mount for process-private packs, used when it is writable.
SCRATCH_DIR = "/dev/shm"


def scratch_pack_path(prefix: str) -> str:
    """Reserve a unique, empty file for a process-private pack.

    The file lands on tmpfs (:data:`SCRATCH_DIR`) when the host has a
    writable one — the pack is then plain memory that every process
    mapping it shares page for page — and in the default temp directory
    otherwise.  The caller owns the file and must unlink it.
    """
    directory = SCRATCH_DIR if os.access(SCRATCH_DIR, os.W_OK) else None
    descriptor, path = tempfile.mkstemp(prefix=prefix, suffix=".pack", dir=directory)
    os.close(descriptor)
    return path


def _padding(position: int) -> int:
    return (-position) % ALIGNMENT


class _Entry:
    """One device's location inside the pack (in-memory index row)."""

    __slots__ = ("device_header", "arrays", "data_start", "data_bytes")

    def __init__(self, device_header: dict, arrays: List[dict], data_start: int,
                 data_bytes: int):
        self.device_header = device_header
        self.arrays = arrays
        self.data_start = data_start
        self.data_bytes = data_bytes


def _read_file_header(handle, path: str, size: int) -> None:
    if size < _FILE_HEADER.size:
        raise ReproError(f"malformed artifact pack {path!r}: too short for a header")
    magic, version, _ = _FILE_HEADER.unpack(handle.read(_FILE_HEADER.size))
    if magic != PACK_MAGIC:
        raise ReproError(
            f"malformed artifact pack {path!r}: bad magic {magic!r}"
        )
    if version != PACK_FORMAT_VERSION:
        raise ReproError(
            format_mismatch(
                "artifact pack", version, path=path, expected=PACK_FORMAT_VERSION
            )
        )


def _scan(handle, path: str) -> Tuple[Dict[str, _Entry], int]:
    """Walk the records; returns ``(index, end_of_valid_data)``.

    A malformed or truncated tail (the footprint of a writer killed
    mid-append) ends the scan with a warning instead of an error: the pack
    stays serviceable with every record that was fully written and synced.
    """
    size = os.fstat(handle.fileno()).st_size
    _read_file_header(handle, path, size)
    index: Dict[str, _Entry] = {}
    position = _FILE_HEADER.size
    while position < size:
        if position + _RECORD_PREFIX.size > size:
            logger.warning(
                "artifact pack %s: truncated record tail at byte %d ignored",
                path, position,
            )
            break
        handle.seek(position)
        magic, header_len = _RECORD_PREFIX.unpack(handle.read(_RECORD_PREFIX.size))
        header_start = position + _RECORD_PREFIX.size
        if magic != RECORD_MAGIC or header_start + header_len > size:
            logger.warning(
                "artifact pack %s: corrupt or truncated record at byte %d "
                "ignored", path, position,
            )
            break
        try:
            header = json.loads(handle.read(header_len).decode("utf-8"))
            check_format(
                "artifact pack record", header, path=path,
                expected=PACK_FORMAT_VERSION,
            )
            device_id = str(header["device_id"])
            arrays = header["arrays"]
            data_bytes = int(header["data_bytes"])
        except (ValueError, KeyError, TypeError, UnicodeDecodeError):
            logger.warning(
                "artifact pack %s: unreadable record header at byte %d "
                "ignored", path, position,
            )
            break
        data_start = header_start + header_len
        data_start += _padding(data_start)
        if data_start + data_bytes > size:
            logger.warning(
                "artifact pack %s: record %s at byte %d is truncated "
                "(partial append) and ignored", path, device_id[:16], position,
            )
            break
        # Last writer wins: a re-appended device supersedes its old record.
        index[device_id] = _Entry(
            header["device"], arrays, data_start, data_bytes
        )
        position = data_start + data_bytes
    return index, position


class PackWriter:
    """Append-only writer for packed artifact fleets.

    Use the constructors, not ``__init__``:

    * :meth:`create` stages a brand-new pack and publishes it atomically
      on :meth:`close` (temp file + fsync + chmod + :func:`os.replace`);
    * :meth:`open` appends to an existing pack in place (creating it with
      a bare file header when missing or empty), fsyncing on close.

    Both are context managers; an exception inside the ``with`` block
    aborts a staged create (the temp file is removed) while an append
    leaves every record that was fully written.
    """

    def __init__(self, path: str, handle, *, temp_path: Optional[str] = None,
                 ids: Optional[set] = None):
        self.path = path
        self._handle = handle
        self._temp_path = temp_path
        self._ids = set() if ids is None else ids
        self._closed = False

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, path: str) -> "PackWriter":
        """Stage a fresh pack; the file appears at ``path`` only on close."""
        directory = os.path.dirname(os.path.abspath(path))
        descriptor, temp_path = tempfile.mkstemp(
            dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
        )
        handle = os.fdopen(descriptor, "wb")
        handle.write(_FILE_HEADER.pack(PACK_MAGIC, PACK_FORMAT_VERSION, 0))
        return cls(path, handle, temp_path=temp_path)

    @classmethod
    def open(cls, path: str) -> "PackWriter":
        """Open ``path`` for appending (given a header if missing or empty).

        The writer holds an exclusive :func:`fcntl.flock` on the file until
        :meth:`close`, so writers in several processes take turns.  Under
        the lock the existing records are scanned: a corrupt or truncated
        tail from an interrupted append is truncated away (with a logged
        warning) so new records always extend a valid pack.  A missing
        file is created without truncating one another writer just made.
        """
        descriptor = os.open(path, os.O_RDWR | os.O_CREAT, 0o666)
        handle = os.fdopen(descriptor, "r+b")
        try:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            if os.fstat(handle.fileno()).st_size == 0:
                handle.write(_FILE_HEADER.pack(PACK_MAGIC, PACK_FORMAT_VERSION, 0))
                return cls(path, handle)
            index, end = _scan(handle, path)
            size = os.fstat(handle.fileno()).st_size
            if end < size:
                logger.warning(
                    "artifact pack %s: truncating %d trailing byte(s) of an "
                    "interrupted append before writing", path, size - end,
                )
                handle.truncate(end)
            handle.seek(end)
        except BaseException:
            handle.close()
            raise
        return cls(path, handle, ids=set(index))

    # ------------------------------------------------------------------
    def add(self, device: CompiledDevice, *, device_id: Optional[str] = None) -> str:
        """Append one compiled device; returns the id it was packed under.

        ``device_id`` defaults to the artifact's own (content-derived) id;
        an artifact without one is rejected — the pack is an index, and an
        unkeyed row could never be served.
        """
        if self._closed:
            raise ReproError("pack writer is closed")
        if device_id is None:
            device_id = device.device_id
        if not device_id:
            raise ReproError(
                "compiled artifact carries no device id; pass device_id= "
                "explicitly to pack it"
            )
        header = dict(device.header())
        header["device_id"] = device_id
        arrays = device.to_arrays()
        layout: List[dict] = []
        offset = 0
        for name, array in arrays.items():
            array = np.ascontiguousarray(array)
            offset += _padding(offset)
            layout.append({
                "name": name,
                "dtype": str(array.dtype),
                "shape": list(array.shape),
                "offset": offset,
                "nbytes": int(array.nbytes),
            })
            offset += array.nbytes
        record_header = json.dumps({
            "format": PACK_FORMAT_VERSION,
            "device_id": device_id,
            "device": header,
            "arrays": layout,
            "data_bytes": offset,
        }).encode("utf-8")
        handle = self._handle
        handle.write(_RECORD_PREFIX.pack(RECORD_MAGIC, len(record_header)))
        handle.write(record_header)
        handle.write(b"\0" * _padding(handle.tell()))
        data_start = handle.tell()
        for entry, array in zip(layout, arrays.values()):
            pad = data_start + entry["offset"] - handle.tell()
            if pad:
                handle.write(b"\0" * pad)
            handle.write(np.ascontiguousarray(array).tobytes())
        self._ids.add(device_id)
        return device_id

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, device_id: str) -> bool:
        return device_id in self._ids

    # ------------------------------------------------------------------
    def close(self, *, abort: bool = False) -> None:
        """Flush, fsync, release the append lock and (for :meth:`create`)
        atomically publish."""
        if self._closed:
            return
        self._closed = True
        handle, self._handle = self._handle, None
        try:
            if not abort:
                handle.flush()
                os.fsync(handle.fileno())
        finally:
            handle.close()
        if self._temp_path is not None:
            try:
                if not abort:
                    publish_temp(self._temp_path, self.path)
            finally:
                try:
                    # Gone already once published; a stage that was
                    # aborted (or failed to publish) must not linger.
                    os.unlink(self._temp_path)
                except OSError:
                    pass

    def __enter__(self) -> "PackWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(abort=exc_type is not None)


class ArtifactPack:
    """Read view of a packed fleet: one mmap, O(1) descriptors, row slices.

    The file is scanned once for its offset index and mapped once with
    :func:`numpy.memmap` (which releases the descriptor after mapping, so
    an open pack holds **zero** long-lived file descriptors regardless of
    device count).  :meth:`device` materialises a
    :class:`~repro.ppuf.compiled.CompiledDevice` whose capacity/circuit
    tables are read-only *views* into the mapping — no bytes are copied,
    and every process mapping the same pack shares pages through the OS
    page cache.

    Served devices are immutable, so the pack keeps the ``cache_devices``
    most recently served ones in a small LRU: a verify worker that is
    hammered with claims for a handful of hot devices (the micro-batching
    server's common case) skips the header-validation and array-wrapping
    work of :meth:`CompiledDevice.from_arrays
    <repro.ppuf.compiled.CompiledDevice.from_arrays>` on every repeat hit.
    ``cache_devices=0`` disables the cache.
    """

    def __init__(self, path: str, *, cache_devices: int = 8):
        self.path = path
        if cache_devices < 0:
            raise ReproError(
                f"cache_devices must be >= 0, got {cache_devices}"
            )
        self._cache_limit = int(cache_devices)
        self._cache: "OrderedDict[str, CompiledDevice]" = OrderedDict()
        self._data, self._end, self._index = self._load()

    def _load(self):
        try:
            with open(self.path, "rb") as handle:
                index, end = _scan(handle, self.path)
        except OSError as error:
            raise ReproError(
                f"cannot read artifact pack {self.path!r}: {error}"
            ) from error
        if end > _FILE_HEADER.size:
            data = np.memmap(self.path, dtype=np.uint8, mode="r")
        else:
            data = np.zeros(0, dtype=np.uint8)  # header-only pack
        return data, end, index

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, device_id: str) -> bool:
        return device_id in self._index

    def ids(self) -> List[str]:
        return sorted(self._index)

    def header(self, device_id: str) -> dict:
        """The embedded compiled-artifact header for one device."""
        return dict(self._entry(device_id).device_header)

    def _entry(self, device_id: str) -> _Entry:
        try:
            return self._index[device_id]
        except KeyError:
            raise ReproError(
                f"artifact pack {self.path!r} holds no device {device_id!r}"
            ) from None

    def device(self, device_id: str) -> CompiledDevice:
        """Serve one device as zero-copy views into the mapping."""
        cached = self._cache.get(device_id)
        if cached is not None:
            self._cache.move_to_end(device_id)
            return cached
        entry = self._entry(device_id)
        arrays = {}
        for spec in entry.arrays:
            start = entry.data_start + spec["offset"]
            raw = self._data[start: start + spec["nbytes"]]
            arrays[spec["name"]] = raw.view(np.dtype(spec["dtype"])).reshape(
                tuple(spec["shape"])
            )
        device = CompiledDevice.from_arrays(entry.device_header, arrays)
        if self._cache_limit:
            self._cache[device_id] = device
            while len(self._cache) > self._cache_limit:
                self._cache.popitem(last=False)
        return device

    def refresh(self) -> None:
        """Re-scan and re-map after an external append extended the file.

        Drops the device LRU: a superseding append may have replaced a
        cached device's record, and stale tables must never be served.
        The new mapping is published before the new index, so a reader in
        another thread never pairs a new record offset with the old,
        shorter mapping.
        """
        data, end, index = self._load()
        self._data, self._end = data, end
        self._index = index
        self._cache = OrderedDict()

    def stats(self) -> dict:
        """Pack-level accounting (the ``inspect`` CLI surface)."""
        return {
            "format": PACK_FORMAT_VERSION,
            "path": self.path,
            "devices": len(self._index),
            "file_bytes": int(os.path.getsize(self.path)),
            "data_end": int(self._end),
        }


# ----------------------------------------------------------------------
# bulk helpers (streaming enrollment pipeline)
# ----------------------------------------------------------------------
def build_pack(path: str, devices: Iterable[CompiledDevice]) -> int:
    """Create a new pack at ``path`` from an iterable of compiled devices.

    Streams: each device is appended and released before the next is
    pulled, so a million-device enrollment never holds the fleet in
    memory.  Returns the number of devices packed.
    """
    count = 0
    with PackWriter.create(path) as writer:
        for device in devices:
            writer.add(device)
            count += 1
    return count


def append_pack(path: str, devices: Iterable[CompiledDevice]) -> int:
    """Append compiled devices to an existing pack (created when missing)."""
    count = 0
    with PackWriter.open(path) as writer:
        for device in devices:
            writer.add(device)
            count += 1
    return count
