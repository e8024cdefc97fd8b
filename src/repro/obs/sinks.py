"""Trace sinks: where the tracer's records go.

Two built-ins cover the repo's needs:

* :class:`JsonlTraceWriter` — the JSONL appender of
  :mod:`repro.obs.durable` (one ``json.dumps`` line per record, the
  same appender the evaluation journal writes through), plus a refusal
  to append a second trace to a non-empty file.  Each record is flushed
  as it is written, so a killed process loses at most the record in
  flight; the file is fsync'd once, at :meth:`close`.  An OS crash can
  lose the records of a trace that was never closed: a trace explains a
  session, and recovery never reads one.
* :class:`InMemorySink` — a list of records, for tests and for the
  CLI's ``--trace-summary`` fold-up.

Any object with ``write(record)`` and ``close()`` works as a sink, so
callers can fan out to several at once (the CLI does exactly that when
both flags are given).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Mapping

from .durable import JsonlAppender

__all__ = ["InMemorySink", "JsonlTraceWriter"]


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


class JsonlTraceWriter(JsonlAppender):
    """JSONL trace file: flushed per record, fsync'd at close.

    Parameters
    ----------
    path:
        Trace file; parent directories are created on the first write.
        Refuses to write into an existing non-empty file — interleaving
        two traces would corrupt both.
    """

    def __init__(self, path: str | Path) -> None:
        super().__init__(path)
        if self.path.exists() and self.path.stat().st_size > 0:
            raise FileExistsError(
                f"trace {self.path} already holds records; remove it or "
                "pick a fresh path")
