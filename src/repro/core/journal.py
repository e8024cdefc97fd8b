"""Crash-safe evaluation journal (docs/ROBUSTNESS.md).

An append-only JSONL file recording every finished evaluation of a tuning
session, flushed per record so a killed process loses at most the
evaluation in flight.  Each record also snapshots the objective's RNG
state *after* the evaluation, which is what makes resume bit-identical:

* Tuner decisions are a deterministic function of the tuner seed and the
  sequence of evaluation outcomes.  Resuming re-runs the tuner with the
  same seed while :class:`JournaledObjective` serves the journaled
  outcomes in order instead of re-executing them, so the tuner replays
  the exact decision path without re-paying cluster time.
* The simulator's noise stream is consumed only by real executions.  When
  the replay queue drains, the objective's generator is restored from the
  last snapshot, and the first live evaluation draws exactly the noise it
  would have drawn in an uninterrupted run.

Records go through :class:`repro.obs.durable.JsonlAppender`.  A torn
final line (the classic crash artifact) is tolerated: parsing stops at
the first corrupt line, the session resumes from the last intact record,
and the resumed session's first append cuts the torn bytes off before
writing, so a second crash still finds every record the first resume
read.

Every record is flushed to the OS as it is written, so SIGKILL loses
nothing written.  The journal fsyncs only what recovery needs
(docs/ROBUSTNESS.md, "Which crash loses what"):

* each ``dispatch``, before its evaluation runs; that fsync also
  commits every settle written before it;
* the censored settles of :meth:`JournaledObjective.record_censored`,
  which no re-execution reproduces;
* everything left, on :meth:`EvaluationJournal.close`.

An OS crash can therefore lose only settles written after the last
dispatch.  Their dispatches are durable, so recovery redispatches or
censors them, as it does evaluations that were in flight.

Format version 2 adds **dispatch/settle pairs** for crash-safe
*in-flight* recovery (docs/ROBUSTNESS.md, "Supervised execution"): a
``dispatch`` record (sequence number + vector) is written durably
*before* an evaluation executes, and its ``eval`` record settles the
same sequence number afterwards.  A dispatch with no matching settle is
exactly the work that was in flight when the process died; on resume it
is either re-executed (``recover="redispatch"``, the default — the
deterministic replay re-proposes the same vector, so the fault-free case
stays bit-identical) or written off as censored-at-cap
(``recover="censor"``).  Version-1 journals (no dispatch records) load
unchanged.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from ..obs.durable import JsonlAppender, read_jsonl
from ..sparksim.result import RunStatus
from ..tuners.base import Evaluation, ObjectiveWrapper, censored_write_off

__all__ = ["EvaluationJournal", "JournaledObjective", "EvalRecord",
           "DispatchRecord", "RECOVER_MODES"]

_FORMAT_VERSION = 2

#: How resume treats dispatches that never settled (in flight at crash).
RECOVER_MODES = ("redispatch", "censor")


@dataclass(frozen=True)
class DispatchRecord:
    """A durably recorded *intent* to evaluate (written before execution)."""

    seq: int
    vector: list[float]


@dataclass(frozen=True)
class EvalRecord:
    """One journaled evaluation plus the post-evaluation RNG snapshot."""

    vector: list[float]
    config: dict[str, Any]
    objective: float
    cost_s: float
    status: str
    truncated: bool
    transient: bool
    fault: str | None
    attempts: int
    rng_state: dict[str, Any] | None
    seq: int | None = None  # settles the dispatch with this sequence number

    def to_evaluation(self) -> Evaluation:
        return Evaluation(
            vector=np.asarray(self.vector, dtype=float),
            config=dict(self.config),
            objective=float(self.objective),
            cost_s=float(self.cost_s),
            status=RunStatus(self.status),
            truncated=bool(self.truncated),
            transient=bool(self.transient),
            fault=self.fault,
            attempts=int(self.attempts),
        )


class EvaluationJournal:
    """Append-only JSONL journal of one tuning session.

    Parameters
    ----------
    path:
        Journal file; created on the first write, and cut back to its
        intact records before the first append to a torn one.

    Writes are flushed per record; :meth:`append_dispatch` and
    :meth:`sync` fsync, and :meth:`close` syncs before closing.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._appender = JsonlAppender(self.path)

    # -- writing ------------------------------------------------------------------
    def write_meta(self, meta: Mapping[str, Any]) -> None:
        """Start a fresh journal with a session-identity header.

        Refuses a journal that holds intact records: appending a second
        session to a journal would corrupt replay ordering.  Use
        :meth:`load` + resume to continue a session instead.  A journal
        holding only a torn header line starts afresh; the appender cuts
        the torn bytes first.
        """
        if self.path.exists() and read_jsonl(self.path):
            raise FileExistsError(
                f"journal {self.path} already holds a session; resume from "
                "it or remove it before starting a new one")
        self._appender.write({"kind": "meta", "version": _FORMAT_VERSION,
                              **dict(meta)})

    def append_dispatch(self, seq: int, vector: Any) -> None:
        """Durably record that evaluation *seq* is about to execute.

        The fsync also commits every record written before it: the
        header and the settles of earlier evaluations.
        """
        self._appender.write({
            "kind": "dispatch",
            "seq": int(seq),
            "vector": [float(v) for v in np.asarray(vector)],
        })
        self._appender.sync()

    def append(self, evaluation: Evaluation,
               rng_state: dict[str, Any] | None = None, *,
               seq: int | None = None) -> None:
        """Record one finished evaluation (settling *seq* if given).

        The record survives the process being killed; the next
        dispatch, :meth:`sync` or :meth:`close` makes it survive an OS
        crash too.
        """
        payload: dict[str, Any] = {
            "kind": "eval",
            "vector": [float(v) for v in np.asarray(evaluation.vector)],
            "config": dict(evaluation.config),
            "objective": float(evaluation.objective),
            "cost_s": float(evaluation.cost_s),
            "status": evaluation.status.value,
            "truncated": bool(evaluation.truncated),
            "transient": bool(evaluation.transient),
            "fault": evaluation.fault,
            "attempts": int(evaluation.attempts),
            "rng_state": rng_state,
        }
        if seq is not None:
            payload["seq"] = int(seq)
        self._appender.write(payload)

    def sync(self) -> None:
        """fsync every record written so far."""
        self._appender.sync()

    def close(self) -> None:
        """Commit (fsync) every record written, then close the file."""
        self._appender.close()

    # -- reading ------------------------------------------------------------------
    def recovery(self) -> tuple[dict[str, Any], list[EvalRecord],
                                list[DispatchRecord], int] | None:
        """What a resume needs, from one read of the file: (session-
        identity header, settled records, the dispatches no settle
        follows — in flight at a crash — and the first unused dispatch
        sequence number).

        None when there is nothing intact to resume: no file, or a crash
        tore the header line.  Raises :class:`ValueError` when intact
        records follow no header: such a journal cannot say which
        session it belongs to.
        """
        intact = read_jsonl(self.path) if self.path.exists() else []
        if not intact:
            return None
        if intact[0].get("kind") != "meta":
            raise ValueError(
                f"journal {self.path} holds records but no session header")
        meta = {k: v for k, v in intact[0].items()
                if k not in ("kind", "version")}
        _, records, dispatches = self._read(intact)
        return (meta, records, _unsettled(records, dispatches),
                _next_seq(records, dispatches))

    def load(self) -> tuple[dict[str, Any], list[EvalRecord]]:
        """(meta, settled records); parsing stops at the first corrupt line."""
        meta, records, _ = self._read()
        return meta, records

    def _read(self, intact: list[dict[str, Any]] | None = None
              ) -> tuple[dict[str, Any], list[EvalRecord],
                         list[DispatchRecord]]:
        """(last header, settled records, dispatches) of the journal's
        *intact* records, read from the file when None."""
        if intact is None:
            if not self.path.exists():
                raise FileNotFoundError(f"no journal at {self.path}")
            intact = read_jsonl(self.path)
        meta: dict[str, Any] = {}
        records: list[EvalRecord] = []
        dispatches: list[DispatchRecord] = []
        for payload in intact:
            if payload.get("kind") == "meta":
                meta = {k: v for k, v in payload.items()
                        if k not in ("kind", "version")}
            elif payload.get("kind") == "dispatch":
                dispatches.append(DispatchRecord(
                    seq=payload["seq"], vector=payload["vector"]))
            elif payload.get("kind") == "eval":
                records.append(EvalRecord(
                    vector=payload["vector"],
                    config=payload["config"],
                    objective=payload["objective"],
                    cost_s=payload["cost_s"],
                    status=payload["status"],
                    truncated=payload.get("truncated", False),
                    transient=payload.get("transient", False),
                    fault=payload.get("fault"),
                    attempts=payload.get("attempts", 1),
                    rng_state=payload.get("rng_state"),
                    seq=payload.get("seq"),
                ))
        return meta, records, dispatches

    def __len__(self) -> int:
        """Number of intact evaluation records on disk."""
        if not self.path.exists():
            return 0
        return len(self.load()[1])


def _unsettled(records: list[EvalRecord],
               dispatches: list[DispatchRecord]) -> list[DispatchRecord]:
    settled = {rec.seq for rec in records if rec.seq is not None}
    return [d for d in dispatches if d.seq not in settled]


def _next_seq(records: list[EvalRecord],
              dispatches: list[DispatchRecord]) -> int:
    used = [d.seq for d in dispatches]
    used.extend(rec.seq for rec in records if rec.seq is not None)
    return max(used, default=-1) + 1


class JournaledObjective(ObjectiveWrapper):
    """Objective wrapper that records to — or replays from — a journal.

    In **recording** mode (``replay=None``) every live evaluation writes
    a ``dispatch`` record *before* executing and settles it afterwards
    together with the objective's RNG snapshot; decisions are untouched.

    In **replay** mode the queued records are served in order *without*
    executing anything (:meth:`skip` advances every injector below, so
    fault coordinates stay aligned); when the
    queue drains, the objective's RNG state is restored from the last
    record and evaluation switches to live recording.  A vector mismatch
    between a replayed record and what the tuner asked to evaluate means
    the journal belongs to a different session (seed or configuration
    drift) and raises immediately rather than returning wrong data.

    Dispatches that never settled (in flight when the process died) are
    handled per *recover*: ``"redispatch"`` simply re-executes them when
    the deterministic replay re-proposes their vectors — bit-identical
    for the fault-free fixed-seed case — while ``"censor"`` writes each
    one off as a censored-at-cap evaluation without re-paying its
    cluster time (documented as not bit-identical: the objective's noise
    stream is not consumed).

    Views share the journal, the replay queue and the sequence counter,
    so concurrent evaluation under ``async_workers > 1`` journals safely
    (:meth:`spawn_view` requires the wrapped objective to be spawnable).
    """

    def __init__(self, objective: Any, journal: EvaluationJournal, *,
                 replay: list[EvalRecord] | None = None,
                 pending: list[DispatchRecord] | None = None,
                 next_seq: int = 0, recover: str = "redispatch") -> None:
        if recover not in RECOVER_MODES:
            raise ValueError(
                f"recover must be one of {RECOVER_MODES}, got {recover!r}")
        super().__init__(objective)
        self._journal = journal
        self._shared: dict[str, Any] = {"queue": deque(replay or ()),
                        "restored": not replay,
                        "last_state": None,
                        "replayed": 0,
                        "pending": list(pending or ()),
                        "next_seq": int(next_seq),
                        "recover": recover,
                        "lock": threading.Lock()}

    @property
    def n_replayed(self) -> int:
        """Evaluations served from the journal instead of executed."""
        return self._shared["replayed"]

    @property
    def n_pending(self) -> int:
        """Unsettled dispatches not yet recovered."""
        return len(self._shared["pending"])

    # -- evaluation ---------------------------------------------------------------
    def record_censored(self, evaluation: Evaluation) -> None:
        """Journal an evaluation that was synthesized, not executed.

        The supervision layer calls this for deadline hits and poison
        quarantines: the censored-at-cap outcome must be durable (it was
        folded into the surrogate) even though no objective call, and
        hence no recording ``__call__``, ever finished.  The settle is
        fsync'd before this returns: a recovery that lost it would
        redispatch the vector and record a real outcome in its place.
        """
        with self._shared["lock"]:
            seq = self._shared["next_seq"]
            self._shared["next_seq"] = seq + 1
        self._journal.append_dispatch(seq, evaluation.vector)
        self._journal.append(evaluation, None, seq=seq)
        self._journal.sync()

    def _take_pending(self, u: np.ndarray) -> DispatchRecord | None:
        """Remove and return the unsettled dispatch of vector *u*, if any
        (the caller holds the lock)."""
        for pending in self._shared["pending"]:
            vec = np.asarray(pending.vector, dtype=float)
            if vec.shape == u.shape and np.array_equal(vec, u):
                self._shared["pending"].remove(pending)
                return pending
        return None

    def _recover_censored(self, rec: DispatchRecord, u: np.ndarray,
                          time_limit_s: float | None) -> Evaluation:
        """Write one crashed in-flight dispatch off as censored-at-cap,
        charged the limit it was dispatched under."""
        ev = censored_write_off(self._objective, u, status=RunStatus.TIMEOUT,
                                fault="crash_recovery", limit_s=time_limit_s)
        self.skip(1)
        self._journal.append(ev, None, seq=rec.seq)
        return ev

    def __call__(self, u: np.ndarray,
                 time_limit_s: float | None = None) -> Evaluation:
        with self._shared["lock"]:
            rec = self._shared["queue"].popleft() \
                if self._shared["queue"] else None
            if rec is not None:
                self._shared["replayed"] += 1
                if rec.rng_state is not None:
                    self._shared["last_state"] = rec.rng_state
        if rec is not None:
            ev = rec.to_evaluation()
            u_arr = np.asarray(u, dtype=float)
            if ev.vector.shape != u_arr.shape \
                    or not np.array_equal(ev.vector, u_arr):
                raise ValueError(
                    "journal replay mismatch: the tuner requested a "
                    "different configuration than the journal recorded "
                    "(wrong seed, tuner settings, or journal file?)")
            self.skip(1)
            return ev
        if not self._shared["restored"]:
            self._shared["restored"] = True
            state = self._shared["last_state"]
            set_state = getattr(self._objective, "set_rng_state", None)
            if state is not None and set_state is not None:
                set_state(state)
        u_arr = np.asarray(u, dtype=float)
        if self._shared["recover"] == "censor":
            with self._shared["lock"]:
                crashed = self._take_pending(u_arr)
            if crashed is not None:
                return self._recover_censored(crashed, u_arr, time_limit_s)
        with self._shared["lock"]:
            # A re-executed vector settles its original dispatch record.
            redispatched = self._take_pending(u_arr)
            if redispatched is None:
                seq = self._shared["next_seq"]
                self._shared["next_seq"] = seq + 1
            else:
                seq = redispatched.seq
        if redispatched is None:
            self._journal.append_dispatch(seq, u_arr)
        ev = self._objective(u, time_limit_s)
        get_state = getattr(self._objective, "rng_state", None)
        self._journal.append(ev, get_state() if get_state else None, seq=seq)
        return ev
