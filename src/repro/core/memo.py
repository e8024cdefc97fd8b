"""Memoized sampling's two stores (paper §3.2, Figure 1).

* :class:`ParameterSelectionCache` — workload → high-impact parameter
  names.  A hit skips the expensive 100-sample selection phase entirely
  (high-impact parameters are stable across dataset sizes for the same
  workload).
* :class:`ConfigMemoizationBuffer` — workload → a few best recent
  configurations from completed tuning sessions.  When the same workload
  returns with a different input, the best ones seed the BO training set
  ("Best Recent Configs"), steering the GP toward known high-performing
  regions immediately.

Both stores are keyed by the workload identity *without* the dataset and
both persist to JSON so tuning sessions in different processes share
knowledge, like the paper's long-running tuning service.  Every write
replaces the file atomically (:func:`repro.obs.durable.replace_text`): a
crash mid-write leaves the previous table, never a torn file.  A file
that does not parse anyway (damaged outside the program, or torn by an
older version's plain write) loads as an empty table with a
``RuntimeWarning``, and the next write replaces it.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from ..obs import NULL_TRACER
from ..obs.durable import replace_text

__all__ = ["ParameterSelectionCache", "ConfigMemoizationBuffer", "MemoizedConfig"]


def _load_table(path: Path | None) -> Any:
    """The JSON document at *path*; None when there is no file, or when
    it does not parse (with a RuntimeWarning: the store starts empty)."""
    if path is None or not path.exists():
        return None
    try:
        return json.loads(path.read_text())
    except ValueError:  # bad JSON or a split UTF-8 sequence
        warnings.warn(f"memo store {path} does not parse; starting from an "
                      "empty table", RuntimeWarning, stacklevel=3)
        return None


@dataclass(frozen=True)
class MemoizedConfig:
    """One remembered configuration and the time it achieved."""

    config: dict[str, Any]
    objective: float
    dataset: str = ""


class ParameterSelectionCache:
    """Workload → selected high-impact parameter names."""

    def __init__(self, path: str | Path | None = None):
        self._path = Path(path) if path is not None else None
        self._table: dict[str, list[str]] = {}
        #: observation hook (rebound per traced session by ROBOTune).
        self.tracer = NULL_TRACER
        raw = _load_table(self._path)
        if raw is not None:
            self._table = {str(k): [str(p) for p in v]
                           for k, v in raw.items()}

    def get(self, workload: str) -> list[str] | None:
        """Selected parameters on a hit, None on a miss."""
        params = self._table.get(workload)
        if params is not None:
            self.tracer.emit("memo.hit", {"store": "selection_cache",
                                          "workload": workload,
                                          "n": len(params)})
            return list(params)
        self.tracer.emit("memo.miss", {"store": "selection_cache",
                                       "workload": workload})
        return None

    def put(self, workload: str, parameters: list[str]) -> None:
        if not parameters:
            raise ValueError("refusing to cache an empty selection")
        self._table[workload] = list(parameters)
        self.tracer.emit("memo.store", {"store": "selection_cache",
                                        "workload": workload,
                                        "n": len(parameters)})
        self._flush()

    def __contains__(self, workload: str) -> bool:
        return workload in self._table

    def __len__(self) -> int:
        return len(self._table)

    def _flush(self) -> None:
        if self._path is not None:
            replace_text(self._path, json.dumps(self._table, indent=2))


class ConfigMemoizationBuffer:
    """Workload → best recent configurations from prior sessions.

    Keeps at most ``capacity`` entries per workload, best objective first;
    inserting a worse-than-worst config into a full buffer is a no-op.
    """

    def __init__(self, path: str | Path | None = None, *, capacity: int = 8):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._path = Path(path) if path is not None else None
        self._table: dict[str, list[MemoizedConfig]] = {}
        self._blocked: dict[str, list[dict[str, Any]]] = {}
        #: observation hook (rebound per traced session by ROBOTune).
        self.tracer = NULL_TRACER
        raw = _load_table(self._path)
        if raw is not None:
            blocked = raw.pop("__blocked__", {}) if isinstance(raw, dict) \
                else {}
            self._table = {
                k: [MemoizedConfig(m["config"], float(m["objective"]),
                                   m.get("dataset", ""))
                    for m in v]
                for k, v in raw.items()
            }
            self._blocked = {k: [dict(c) for c in v]
                             for k, v in blocked.items()}

    def block(self, workload: str, config: Mapping[str, Any]) -> None:
        """Quarantine a poison configuration (docs/ROBUSTNESS.md).

        A config the supervisor quarantined (it repeatedly hung or killed
        workers) must never seed a future session: it is dropped from the
        buffer if present and excluded from :meth:`add`/:meth:`best` from
        now on.  The blocklist persists alongside the buffer.
        """
        snap = dict(config)
        bucket = self._blocked.setdefault(workload, [])
        if snap not in bucket:
            bucket.append(snap)
        kept = self._table.get(workload)
        if kept is not None:
            kept[:] = [m for m in kept if m.config != snap]
        self.tracer.emit("memo.block", {"store": "config_buffer",
                                        "workload": workload,
                                        "blocked": len(bucket)})
        self._flush()

    def is_blocked(self, workload: str, config: Mapping[str, Any]) -> bool:
        return dict(config) in self._blocked.get(workload, [])

    def add(self, workload: str, config: Mapping[str, Any], objective: float,
            *, dataset: str = "") -> None:
        """Record a tuned configuration and its achieved time.

        Blocked (quarantined) configurations are silently refused.
        """
        entry = MemoizedConfig(dict(config), float(objective), dataset)
        if self.is_blocked(workload, entry.config):
            return
        bucket = self._table.setdefault(workload, [])
        bucket.append(entry)
        bucket.sort(key=lambda m: m.objective)
        del bucket[self.capacity:]
        self.tracer.emit("memo.store", {"store": "config_buffer",
                                        "workload": workload,
                                        "objective": float(objective),
                                        "kept": len(bucket)})
        self._flush()

    def best(self, workload: str, k: int = 4) -> list[MemoizedConfig]:
        """Up to *k* best remembered configs (empty list on a miss)."""
        if k < 0:
            raise ValueError("k must be >= 0")
        found = [m for m in self._table.get(workload, ())
                 if not self.is_blocked(workload, m.config)][:k]
        if k > 0:
            if found:
                self.tracer.emit("memo.hit", {"store": "config_buffer",
                                              "workload": workload,
                                              "n": len(found)})
            else:
                self.tracer.emit("memo.miss", {"store": "config_buffer",
                                               "workload": workload})
        return found

    def __contains__(self, workload: str) -> bool:
        return bool(self._table.get(workload))

    def __len__(self) -> int:
        return len(self._table)

    def _flush(self) -> None:
        if self._path is None:
            return
        raw: dict[str, Any] = {
            k: [{"config": m.config, "objective": m.objective,
                 "dataset": m.dataset} for m in v]
            for k, v in self._table.items()
        }
        if self._blocked:
            raw["__blocked__"] = self._blocked
        replace_text(self._path, json.dumps(raw, indent=2))
