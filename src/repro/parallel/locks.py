"""Advisory file locks and atomic file writes.

Every artifact the pipeline persists -- grid-cell JSON, zoo ``.npz``
parameter files, ``results/<name>.{txt,json}`` -- can be written concurrently
by pool workers of one run *and* by independent CLI invocations sharing the
same cache directory.  Two primitives keep that safe:

* :func:`atomic_path` / :func:`atomic_write_text`: write to a same-directory
  ``*.tmp`` file and ``os.replace`` it into place, so readers only ever see
  absent or complete files (never truncated ones), independent of any lock.
* :class:`FileLock`: a ``flock(2)``-based advisory lock.  Holding the lock for
  a cell digest (or a zoo cache file) while computing it means a second
  process wanting the same artifact blocks until the first finishes, then
  finds the artifact on disk instead of recomputing it.  ``flock`` locks die
  with their process, so a crashed run never leaves a stale lock behind.

On platforms without ``fcntl`` the lock degrades to a no-op: atomic writes
still prevent corruption, only cross-process work deduplication is lost.
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Optional, Union

try:  # POSIX advisory locks
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]


class LockUnavailable(Exception):
    """Raised by :meth:`FileLock.acquire` (non-blocking) when already held."""


class FileLock:
    """Advisory exclusive lock on a path, usable as a context manager.

    Parameters
    ----------
    path:
        The lock file (created if missing; its content is irrelevant).
    blocking:
        Default acquisition mode of the context-manager form.
    """

    def __init__(self, path: Union[str, Path], blocking: bool = True):
        self.path = Path(path)
        self.blocking = bool(blocking)
        self._fd: Optional[int] = None

    @property
    def held(self) -> bool:
        return self._fd is not None

    def acquire(self, blocking: Optional[bool] = None) -> "FileLock":
        """Take the lock; raises :class:`LockUnavailable` when non-blocking fails."""
        if self._fd is not None:
            return self
        blocking = self.blocking if blocking is None else blocking
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            self._fd = fd
            return self
        flags = fcntl.LOCK_EX | (0 if blocking else fcntl.LOCK_NB)
        try:
            fcntl.flock(fd, flags)
        except OSError:
            os.close(fd)
            raise LockUnavailable(str(self.path)) from None
        self._fd = fd
        return self

    def release(self) -> None:
        if self._fd is None:
            return
        try:
            if fcntl is not None:
                fcntl.flock(self._fd, fcntl.LOCK_UN)
        finally:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "FileLock":
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()


@contextmanager
def atomic_path(path: Union[str, Path], suffix: str = "") -> Iterator[Path]:
    """Yield a same-directory temporary path, then ``os.replace`` it onto ``path``.

    ``suffix`` is appended to the temporary name (``np.savez`` appends
    ``.npz`` unless the target already ends with it, so ``.npz`` writers pass
    ``suffix=".npz"``).  The name carries the pid *and* the thread id, so
    concurrent writers of one path -- other processes, or service threads
    publishing the same ``results/<name>.json`` -- never share a temporary
    file.  On error the temporary file is removed and nothing is published.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp{suffix}"
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    """Atomically replace ``path`` with ``text``."""
    with atomic_path(path) as tmp:
        tmp.write_text(text)


def atomic_write_json(path: Union[str, Path], payload: Any, **dump_kwargs) -> None:
    """Atomically replace ``path`` with the JSON encoding of ``payload``."""
    atomic_write_text(path, json.dumps(payload, **dump_kwargs))
