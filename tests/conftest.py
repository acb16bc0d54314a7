"""Shared test configuration; keeps the tests directory importable so the
oracle helpers can be used from any test module, and gives the tests a
full disk to write to."""

import builtins
import errno
import os
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


class _FullFile:
    """A file opened for writing on a disk with disk.room bytes left: a
    write past them writes what fits, flushes it, and raises
    OSError(ENOSPC)."""

    def __init__(self, fh, disk):
        self._fh, self._disk = fh, disk

    def write(self, data):
        if not isinstance(data, str):
            data = memoryview(data).cast("B")
        if len(data) > self._disk.room:
            self._fh.write(data[:self._disk.room])
            self._fh.flush()
            self._disk.room = 0
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self._disk.room -= len(data)
        return self._fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def __getattr__(self, name):
        return getattr(self._fh, name)


@pytest.fixture()
def full_disk(monkeypatch):
    """full_disk(directory, room): from then on, files opened for writing
    in directory (by builtins.open, in any mode that writes) share room
    bytes, and a write past them fails as on a full disk."""
    real_open = builtins.open

    def fill(directory, room):
        disk = types.SimpleNamespace(room=room)
        directory = Path(directory).resolve()

        def open_(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            if (set(mode) & set("wxa+") and isinstance(file, (str, os.PathLike))
                    and Path(file).resolve().parent == directory):
                return _FullFile(fh, disk)
            return fh

        monkeypatch.setattr(builtins, "open", open_)
    return fill
