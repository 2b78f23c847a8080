"""Crash-safe file writes and the chaos hook seam.

Every durable artifact the repo emits — checkpoints, queue task and
done markers, manifests, BENCH reports, advisor models — must survive
``kill -9`` at any instant without ever presenting a half-written
file to a reader.  Two disciplines cover every write site:

*   **Atomic replace** (:func:`atomic_write_bytes` and friends):
    write to a same-directory temp file, flush, ``fsync``, then
    ``os.replace`` over the destination and ``fsync`` the directory.
    Readers see either the old bytes or the new bytes, never a mix;
    a crash can only leave a stray ``*.tmp*`` sibling (which
    ``repro doctor`` sweeps up).
*   **Append-only JSONL with torn-tail recovery** (checkpoints):
    records are newline-terminated and flushed one at a time, so a
    crash mid-append can only tear the *final* line, which loaders
    drop and :func:`repair_torn_tail` truncates away.

This module also owns the **fault-hook registry** that
:mod:`repro.engine.faults` injects into.  Write sites announce each
operation through :func:`fire` *before* performing it; an installed
hook may delay the operation, raise (``ENOSPC``, a chaos crash), kill
the process outright, or raise :class:`HookSuppressed` to skip the
operation entirely (how stale leases are simulated).  With no hooks
installed — the production configuration — :func:`fire` is a single
dict lookup.

Hook operation names used across the repo:

===================  ====================================================
``checkpoint.append``  one JSONL record about to be appended
``atomic.write``       an atomic replace about to start
``blob.read``          a queue workload blob about to be read
``queue.heartbeat``    a worker about to touch its lease file
``queue.merge``        the coordinator about to merge worker shards
===================  ====================================================
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Callable

__all__ = [
    "HookSuppressed",
    "atomic_write_bytes",
    "atomic_write_text",
    "atomic_write_json",
    "clear_hooks",
    "fire",
    "fsync_directory",
    "install_hook",
    "installed_hooks",
    "remove_hook",
    "repair_torn_tail",
]

#: Suffix marker every temp file carries, so stray temps from a crash
#: are recognizable (and removable) by ``repro doctor``.
TMP_MARKER = ".tmp"

_Hook = Callable[[str, Path, "bytes | None"], None]

_hooks: dict[str, _Hook] = {}


class HookSuppressed(Exception):
    """Raised by a hook to make the write site skip the operation.

    The only hook exception the write sites themselves catch; chaos
    uses it to swallow lease heartbeats (simulating a stalled-but-
    alive worker).  Everything else a hook raises propagates as if
    the operation itself had failed.
    """


def install_hook(op: str, hook: _Hook) -> None:
    """Register ``hook`` for operation ``op`` (one hook per op)."""
    _hooks[op] = hook


def remove_hook(op: str) -> None:
    """Remove the hook for ``op`` if one is installed."""
    _hooks.pop(op, None)


def clear_hooks() -> None:
    """Remove every installed hook (chaos teardown)."""
    _hooks.clear()


def installed_hooks() -> tuple[str, ...]:
    """The operation names that currently have hooks (for tests)."""
    return tuple(sorted(_hooks))


def fire(op: str, path: "str | Path", data: "bytes | None" = None) -> None:
    """Announce an imminent operation to the chaos layer, if any.

    Called by write sites immediately before the real work.  May
    sleep, raise, or never return (process kill) depending on the
    installed hook; raises :class:`HookSuppressed` when the hook asks
    the caller to skip the operation.
    """
    hook = _hooks.get(op)
    if hook is not None:
        hook(op, Path(path), data)


def fsync_directory(directory: Path) -> None:
    """Best-effort fsync of a directory entry (rename durability)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return  # platform without directory fds; nothing to do
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: "str | Path", data: bytes) -> Path:
    """Write ``data`` to ``path`` via temp + fsync + rename.

    The temp file lives in the destination directory (same
    filesystem, so the final ``os.replace`` is atomic) and carries
    the :data:`TMP_MARKER` suffix.  On any failure the temp file is
    removed; the destination is never touched until the bytes are
    durably on disk.
    """
    path = Path(path)
    fire("atomic.write", path, data)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, temp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + TMP_MARKER
    )
    temp = Path(temp_name)
    try:
        with os.fdopen(fd, "wb") as stream:
            stream.write(data)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
    fsync_directory(path.parent)
    return path


def atomic_write_text(
    path: "str | Path", text: str, encoding: str = "utf-8"
) -> Path:
    """Text counterpart of :func:`atomic_write_bytes`."""
    return atomic_write_bytes(path, text.encode(encoding))


def atomic_write_json(
    path: "str | Path",
    obj,
    indent: "int | None" = 2,
    sort_keys: bool = True,
) -> Path:
    """Serialize ``obj`` and write it atomically (diff-friendly)."""
    return atomic_write_text(
        path, json.dumps(obj, indent=indent, sort_keys=sort_keys) + "\n"
    )


def repair_torn_tail(path: "str | Path") -> int:
    """Truncate an unterminated final line off a JSONL file.

    Returns the number of bytes removed (0 when the file is absent,
    empty, or already newline-terminated).  Used by
    :class:`~repro.engine.checkpoint.CheckpointWriter` before
    appending to an existing checkpoint — appending after a torn tail
    would otherwise glue the new record onto the torn fragment and
    corrupt *both* — and by ``repro doctor --repair``.
    """
    path = Path(path)
    try:
        size = path.stat().st_size
    except OSError:
        return 0
    if size == 0:
        return 0
    data = path.read_bytes()
    if data.endswith(b"\n"):
        return 0
    keep = data.rfind(b"\n") + 1  # 0 when no newline at all
    with path.open("rb+") as stream:
        stream.truncate(keep)
        stream.flush()
        os.fsync(stream.fileno())
    return size - keep
