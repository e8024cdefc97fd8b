"""Trace sinks: where the tracer's records go.

Two built-ins cover the repo's needs:

* :class:`JsonlTraceWriter` — append-only JSONL with the same durability
  discipline as :class:`repro.core.journal.EvaluationJournal`: one
  ``json.dumps`` line per record, flushed and fsync'd so a killed
  process loses at most the record in flight, and a refusal to append a
  second trace to a non-empty file.
* :class:`InMemorySink` — a list of records, for tests and for the
  CLI's ``--trace-summary`` fold-up.

Any object with ``write(record)`` and ``close()`` works as a sink, so
callers can fan out to several at once (the CLI does exactly that when
both flags are given).

:func:`jsonable` and :func:`read_jsonl` are the JSONL encoding default
and the torn-line-tolerant reader; the evaluation journal uses them too.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Mapping, TextIO

import numpy as np

__all__ = ["InMemorySink", "JsonlTraceWriter", "jsonable", "read_jsonl"]


def jsonable(value: Any) -> Any:
    """``json.dumps`` default: coerce numpy scalars/arrays that leak into
    records (configs, RNG states, event payloads)."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON-serializable: {type(value).__name__}")


def read_jsonl(path: Path) -> list[dict[str, Any]]:
    """Parse a JSONL file's records up to its first corrupt line: a torn
    final write (the classic crash artifact) ends the file there."""
    records: list[dict[str, Any]] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                break
    return records


class InMemorySink:
    """Collects records in a list (``sink.records``)."""

    def __init__(self) -> None:
        self.records: list[dict[str, Any]] = []

    def write(self, record: Mapping[str, Any]) -> None:
        self.records.append(dict(record))

    def events(self) -> list[dict[str, Any]]:
        """Only the ``event``-kind records, in emission order."""
        return [r for r in self.records if r.get("kind") == "event"]

    def close(self) -> None:
        return None


class JsonlTraceWriter:
    """Durable JSONL trace file (the journal's write discipline).

    Parameters
    ----------
    path:
        Trace file; parent directories are created on the first write.
        Refuses to write into an existing non-empty file — interleaving
        two traces would corrupt both.
    fsync:
        Force every record to stable storage; disable only where speed
        matters more than crash-durability (e.g. large study sweeps).
    """

    def __init__(self, path: str | Path, *, fsync: bool = True) -> None:
        self.path = Path(path)
        self._fsync = fsync
        self._fh: TextIO | None = None
        if self.path.exists() and self.path.stat().st_size > 0:
            raise FileExistsError(
                f"trace {self.path} already holds records; remove it or "
                "pick a fresh path")

    def write(self, record: Mapping[str, Any]) -> None:
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
        self._fh.write(json.dumps(record, default=jsonable) + "\n")
        self._fh.flush()
        if self._fsync:
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
