"""A pack rebuild and an appending writer never lose a record between them.

``PackWriter.create`` publishes under the destination's append lock: it
refuses while an enrollment is appending, takes the lock without write
access to the old file (a read-only pack is rebuilt as before), and a
writer that was waiting for the lock when the path was replaced appends
to the new file.
"""

import fcntl
import os
import threading

import numpy as np
import pytest

from repro.errors import ReproError
from repro.ppuf import Ppuf
from repro.ppuf import pack as pack_module
from repro.ppuf.pack import ArtifactPack, PackWriter, build_pack


@pytest.fixture(scope="module")
def devices():
    rng = np.random.default_rng(83)
    return [Ppuf.create(6, 2, rng).compile(include_circuit=False) for _ in range(3)]


def ids(*devices):
    return sorted(device.device_id for device in devices)


def test_rebuild_refuses_while_an_enrollment_appends(tmp_path, devices):
    a, b, c = devices
    path = str(tmp_path / "fleet.pack")
    build_pack(path, [c])
    writer = PackWriter.open(path)
    try:
        with pytest.raises(ReproError, match="stop the servers"):
            build_pack(path, [a])
        writer.add(b)
    finally:
        writer.close()
    assert ArtifactPack(path).ids() == ids(c, b)
    assert os.listdir(tmp_path) == ["fleet.pack"]  # the stage is gone


def test_rebuild_of_a_read_only_pack(tmp_path, devices, monkeypatch):
    a, _, c = devices
    path = str(tmp_path / "fleet.pack")
    build_pack(path, [c])
    os.chmod(path, 0o444)
    # Root ignores file modes, so also check that the lock is taken on a
    # descriptor opened without write access.
    access = []
    real_open = os.open

    def spying_open(target, flags, *args):
        if target == path:
            access.append(flags & os.O_ACCMODE)
        return real_open(target, flags, *args)

    monkeypatch.setattr(pack_module.os, "open", spying_open)
    build_pack(path, [a])
    assert access == [os.O_RDONLY]
    assert ArtifactPack(path).ids() == ids(a)


def test_waiting_writer_follows_a_replaced_path(tmp_path, devices, monkeypatch):
    a, b, c = devices
    path = str(tmp_path / "fleet.pack")
    build_pack(path, [c])
    holder = open(path, "rb")  # holds the old file's append lock
    fcntl.flock(holder.fileno(), fcntl.LOCK_EX)
    waiting = threading.Event()
    real_flock = fcntl.flock

    def flock(descriptor, operation):
        waiting.set()
        return real_flock(descriptor, operation)

    monkeypatch.setattr(pack_module.fcntl, "flock", flock)
    opened = []
    thread = threading.Thread(target=lambda: opened.append(PackWriter.open(path)))
    thread.start()
    try:
        assert waiting.wait(10)
        replacement = str(tmp_path / "rebuilt.pack")
        build_pack(replacement, [a])
        os.replace(replacement, path)
    finally:
        holder.close()
    thread.join(timeout=10)
    assert not thread.is_alive()
    (writer,) = opened
    try:
        writer.add(b)
    finally:
        writer.close()
    assert ArtifactPack(path).ids() == ids(a, b)
