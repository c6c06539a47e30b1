"""Crash-safe artifact writes: same-directory temp file + atomic rename.

Every result artifact this repository produces — JSONL and columnar
traces, metric snapshots, CSV exports, sweep-cache cells — goes through
this module.  The contract is all-or-nothing at the destination path: a
reader either sees the complete new artifact or whatever was there
before, never a truncated hybrid.  A process killed mid-write leaves at
most an orphaned ``.tmp-*`` file *next to* the destination (same
directory, so the final :func:`os.replace` is a same-filesystem rename
and therefore atomic on POSIX), and never a damaged artifact *at* it.

The loaders in this repo already refuse truncated artifacts loudly;
atomic writes close the other half of the crash-safety story — the
artifact you spent an hour computing is not destroyed by the crash that
interrupted its rewrite.
"""

from __future__ import annotations

import contextlib
import os
import typing

#: Prefix for in-flight temp files (orphans are harmless and greppable).
TMP_PREFIX = ".tmp-"


@contextlib.contextmanager
def atomic_open(
    path: str, mode: str = "w", encoding: typing.Optional[str] = None
) -> typing.Iterator[typing.IO]:
    """Open a handle whose contents reach ``path`` only on clean exit.

    Writes go to a ``.tmp-*`` file in the destination's directory; on a
    clean ``with`` exit the temp file is flushed, fsynced, and renamed
    over ``path`` with :func:`os.replace` (atomic within a filesystem).
    On an exception — or a SIGKILL, which never runs the rename — the
    destination is untouched and the temp file is removed (or orphaned,
    for a hard kill).

    ``mode`` must be a write mode (``"w"``, ``"wb"``); text mode
    defaults to UTF-8.  The file gets the permissions :func:`open` would
    give a new file (``0o666`` less the umask).
    """
    if "w" not in mode:
        raise ValueError(f"atomic_open needs a write mode, got {mode!r}")
    if "b" not in mode and encoding is None:
        encoding = "utf-8"
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = os.path.join(
        directory, f"{TMP_PREFIX}{os.path.basename(path)}-{os.urandom(8).hex()}"
    )
    # Like open(): the umask applies to 0o666 (mkstemp would force 0o600).
    fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, mode, encoding=encoding, newline="" if "b" not in mode else None) as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_path)
        raise


def atomic_write_text(path: str, text: str, encoding: str = "utf-8") -> None:
    """Write ``text`` to ``path`` all-or-nothing (temp file + rename)."""
    with atomic_open(path, "w", encoding=encoding) as handle:
        handle.write(text)
