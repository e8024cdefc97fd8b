"""Durable file writes: one JSONL appender and one atomic replace.

Every file the library must find intact after a crash is written here,
in one of two ways (``RPF002`` in :mod:`repro.analysis` keeps it so):

* :class:`JsonlAppender` — append-only JSONL, one ``json.dumps`` line
  per record, flushed to the OS before :meth:`~JsonlAppender.write`
  returns, so a killed process (SIGKILL) loses at most the record in
  flight.  :meth:`~JsonlAppender.sync` fsyncs everything written so
  far, and :meth:`~JsonlAppender.close` syncs before it closes: only an
  OS crash or power loss can lose records written since the last sync.
  Each owner decides which records must reach the disk before it goes
  on: the evaluation journal syncs every dispatch and closes at the end
  of a session, the trace writer only closes.  Its first write to a
  non-empty file cuts a torn tail first (below).
* :func:`replace_text` — write-to-temp → fsync → atomic rename →
  fsync(dir): a crash leaves the old file or the new one, never a torn
  one.  The session store's JSON files and both memo stores use it.
  :func:`fsync_dir` is its last step on its own, for a caller that
  renames a whole directory into place (the session store's submit).

The session store's claim locks are not written here: they are
``fcntl.flock`` locks the kernel holds, and their files' text only
names the holder.

A torn tail is a final record a crash left half-written.
:func:`read_jsonl` stops at the first line that does not parse, and an
appender reopening such a file cuts it back to exactly that intact
prefix (ending it with a newline when the tear took only the newline),
so every record a reader saw before the append is still there after it
and the first new record never lands glued onto the torn bytes.
"""

from __future__ import annotations

import json
import os
import threading
from io import BufferedWriter
from pathlib import Path
from typing import Any, Mapping

import numpy as np

__all__ = ["JsonlAppender", "fsync_dir", "jsonable", "read_jsonl",
           "replace_text"]


def jsonable(value: Any) -> Any:
    """``json.dumps`` default: coerce numpy scalars/arrays that leak into
    records (configs, RNG states, event payloads)."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON-serializable: {type(value).__name__}")


def _intact_prefix(path: Path) -> tuple[list[dict[str, Any]], int, bool]:
    """The records of *path* up to its first corrupt line, the byte length
    of the lines they span, and whether that prefix ends with a newline."""
    records: list[dict[str, Any]] = []
    end, complete = 0, True
    with open(path, "rb") as fh:
        for line in fh:
            if line.strip():
                try:
                    records.append(json.loads(line))
                except ValueError:  # bad JSON or a split UTF-8 sequence
                    break
            end += len(line)
            complete = line.endswith(b"\n")
    return records, end, complete


def read_jsonl(path: Path) -> list[dict[str, Any]]:
    """Parse a JSONL file's records up to its first corrupt line: a torn
    final write (the classic crash artifact) ends the file there."""
    return _intact_prefix(path)[0]


class JsonlAppender:
    """JSONL append to *path*, flushed per record and fsync'd on
    :meth:`sync` and :meth:`close`; safe to share between threads.

    Parent directories are created on the first write.  If the file is
    not empty then, it is first cut back to the intact prefix
    :func:`read_jsonl` returns, so the new records follow the last
    intact one.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fh: BufferedWriter | None = None
        self._lock = threading.Lock()

    def write(self, record: Mapping[str, Any]) -> None:
        """Append *record*; it is in the OS when this returns, so it
        survives the process being killed, not yet an OS crash."""
        line = (json.dumps(record, default=jsonable) + "\n").encode("utf-8")
        with self._lock:
            if self._fh is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._fh = open(self.path, "ab")
                if self._fh.tell():  # non-empty: cut a torn tail first
                    _, end, complete = _intact_prefix(self.path)
                    self._fh.truncate(end)
                    if not complete:
                        self._fh.write(b"\n")
            self._fh.write(line)
            self._fh.flush()

    def sync(self) -> None:
        """fsync every record written so far."""
        with self._lock:
            if self._fh is not None:
                os.fsync(self._fh.fileno())

    def close(self) -> None:
        """Sync, then close; a later write reopens the file.  The file
        is closed even when the sync fails, and that error is raised."""
        with self._lock:
            if self._fh is not None:
                try:
                    os.fsync(self._fh.fileno())
                finally:
                    self._fh.close()
                    self._fh = None


def replace_text(path: Path, text: str) -> None:
    """Atomic durable write of *text* to *path*: temp → fsync → rename →
    fsync(dir).  Parent directories are created as needed."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    fsync_dir(path.parent)


def fsync_dir(path: Path) -> None:
    """fsync the directory *path*: the entries renamed into it survive
    an OS crash."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
