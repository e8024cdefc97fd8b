"""Correctness checks on each session's outputs.

Every check returns human-readable failure strings; a session with any
failure counts as failed against the sessions attempted.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

from repro.core.journal import EvaluationJournal
from repro.serve import evaluation_digest

__all__ = ["session_checks", "served_checks", "journal_pairing"]


def session_checks(result, evaluations: list, *, budget: int,
                   selection: int) -> list[str]:
    """Checks on one in-process session.

    *evaluations* is the stream the objective actually served, in
    order; *selection* is the number of selection samples it must
    start with.
    """
    failures = []
    if len(evaluations) != budget + selection:
        failures.append(f"objective ran {len(evaluations)} evaluations, "
                        f"expected budget {budget} + {selection} selection")
    if len(result.selection_evaluations) != selection:
        failures.append(f"{len(result.selection_evaluations)} selection "
                        f"samples, expected {selection}")
    if result.n_evaluations != budget:
        failures.append(f"{result.n_evaluations} tuning evaluations, "
                        f"expected {budget}")
    ok = [ev.objective for ev in evaluations[selection:] if ev.ok]
    if not ok or result.best_time_s != min(ok):
        failures.append("best objective is not the minimum of the "
                        "session's evaluation stream")
    return failures


def journal_pairing(path: Path) -> list[str]:
    """Every dispatch in the journal has exactly one settle, and every
    settle answers a dispatch."""
    dispatched: Counter = Counter()
    settled: Counter = Counter()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if record["kind"] == "dispatch":
                dispatched[record["seq"]] += 1
            elif record["kind"] == "eval":
                settled[record.get("seq")] += 1
    failures = [f"dispatch {seq} written {n} times"
                for seq, n in sorted(dispatched.items()) if n != 1]
    if settled != dispatched:
        failures.append(f"{sum(settled.values())} settles for "
                        f"{sum(dispatched.values())} dispatches, or "
                        "settles that answer no dispatch")
    return failures


def served_checks(spec, state: str, result: dict | None, journal: Path
                  ) -> tuple[list[str], float, float, str]:
    """Checks on one served session: (failures, best, search cost, digest).

    The digest is recomputed from the session's journal and must equal
    the one the daemon stored with the result.
    """
    if state != "DONE" or result is None:
        return [f"session settled {state}"], 0.0, 0.0, ""
    failures = journal_pairing(journal)
    _, records = EvaluationJournal(journal).load()
    stream = [rec.to_evaluation() for rec in records]
    digest = evaluation_digest(stream)
    if digest != result["digest"]:
        failures.append("stored digest differs from the journal's")
    selection = spec.selection_samples
    if len(stream) != selection + spec.budget \
            or result["n_evaluations"] != spec.budget:
        failures.append(f"journal holds {len(stream)} evaluations, "
                        f"expected {selection} selection + {spec.budget}")
    ok = [ev.objective for ev in stream[selection:] if ev.ok]
    if not ok or result["best_objective"] != min(ok):
        failures.append("best objective is not the minimum of the "
                        "session's evaluation stream")
    return (failures, float(result["best_objective"] or 0.0),
            float(result["search_cost_s"]), digest)
