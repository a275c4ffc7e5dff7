"""Durable file writes: the one atomic write every layer uses.

Stream checkpoints, flight-recorder dumps and the experiment runner's
resume checkpoint all go through :func:`write_atomic`.  This module
imports nothing from the package, so the telemetry layer (which sits
below :mod:`repro.stream`) can use it too.
"""

from __future__ import annotations

import os
from pathlib import Path


def fsync_directory(directory: "str | Path") -> None:
    """fsync a directory so a just-renamed entry survives power loss."""
    fd = os.open(directory, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_atomic(path: "str | Path", data: bytes) -> int:
    """Durably write *data* to *path*: tmp + fsync + rename + dir fsync.

    The temporary file (``<name>.tmp``, a suffix the checkpoint store's
    pruning recognises) lives next to the target so ``os.replace`` is a
    same-filesystem rename (atomic on POSIX); fsyncing the parent
    directory afterwards makes the rename itself durable -- without it
    a crash right after the rename can lose the new directory entry
    even though the file's blocks hit the platter.  Returns the size.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fileobj:
        fileobj.write(data)
        fileobj.flush()
        os.fsync(fileobj.fileno())
    os.replace(tmp, path)
    fsync_directory(path.parent)
    return len(data)
