"""Trace record schema: kinds, the event catalog, and validation.

A trace is a sequence of JSON records (one per line in the JSONL sink).
The schema is versioned like the analysis report schema so downstream
consumers can detect incompatible traces instead of mis-parsing them.

Record envelopes (``kind`` discriminates):

``meta``
    First record of every trace: ``{"kind", "schema", ...identity}``.
``event``
    ``{"kind", "id", "t", "span", "type", "data"}`` — ``id`` is a
    strictly increasing integer, ``t`` is seconds since the tracer
    started (monotonic clock, injected), ``span`` is the id of the
    enclosing ``span.start`` event or ``None``, ``type`` names a catalog
    entry and ``data`` carries the typed payload.
``metrics``
    Final record: the counters and timers registries
    (``{"kind", "counters", "timers"}``).

All timing lives in ``t``, ``dur`` (on ``span.end``) and the timers
registry; every other payload field is a pure function of the tuner's
decision sequence, which is what makes same-seed traces comparable after
stripping those keys (see ``tests/obs/test_trace_determinism.py``).
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

__all__ = ["TRACE_SCHEMA_VERSION", "KINDS", "EVENT_TYPES", "COUNTERS",
           "TIMERS", "SPANS", "evaluation_data", "validate_record",
           "validate_trace"]

#: Bump on any backwards-incompatible change to the record envelopes.
TRACE_SCHEMA_VERSION = 1

KINDS = ("meta", "event", "metrics")

#: The event catalog: type → one-line description (docs/OBSERVABILITY.md).
EVENT_TYPES: dict[str, str] = {
    "span.start": "a named span opened (its event id is the span id)",
    "span.end": "a span closed; data carries the name and 'dur' seconds",
    "eval.result": "one configuration finished evaluating",
    "bo.iteration": "one BO round: chosen acquisition and outcome",
    "hedge.probs": "GP-Hedge selection distribution before a choice",
    "acq.winner": "the acquisition function whose nominee was chosen",
    "gp.fit": "a GP surrogate (re)fit: size and hyperparameter state",
    "gp.mode": "the engine switched between exact and low-rank surrogates",
    "warmstart.load": "prior-journal observations assembled for the "
                      "surrogate warm start",
    "transfer.map": "a workload-mapper probe matched (or missed) a prior "
                    "selection signature",
    "forest.fit": "a tree ensemble finished fitting",
    "guard.threshold": "the kill threshold changed value",
    "guard.kill": "an evaluation was truncated by the kill threshold",
    "memo.hit": "a memoized-sampling store served prior knowledge",
    "memo.miss": "a memoized-sampling store had nothing for the key",
    "memo.store": "a result was written into a memoization store",
    "memo.block": "a poison configuration was quarantined out of a store",
    "selection.params": "parameter selection finished: the kept subset",
    "bestconfig.bound": "BestConfig RBS shrank the search bounds",
    "gunther.generation": "Gunther finished one GA generation",
    "fault.injected": "the fault plan fired on an evaluation attempt",
    "retry.attempt": "a transient outcome is being retried",
    "parallel.map": "a parallel_map call dispatched a work batch",
    "async.dispatch": "the async BO engine sent a proposal to a worker",
    "async.fold": "an async evaluation was folded into the surrogate",
    "batch.serial_fallback": "concurrent evaluation degraded to serial "
                             "(objective lacks class-level spawn_view)",
    "supervise.speculate": "a straggling evaluation got a speculative twin",
    "supervise.reclaim": "a dead worker's task was reclaimed and redispatched",
    "supervise.deadline_hit": "an evaluation exceeded its deadline and was "
                              "abandoned (charged as censored-at-cap)",
    "supervise.quarantine": "a config reached the strike cap and was "
                            "quarantined from re-proposal",
    "serve.submit": "a tuning session was accepted into the session store",
    "serve.claim": "a daemon worker claimed a session (fresh or resumed)",
    "serve.state": "a stored session transitioned lifecycle state",
    "serve.queue": "queue-depth snapshot of the session store by state",
    "serve.recover": "a crashed session's journal was adopted for resume",
}

#: The counter catalog: every name passed to ``tracer.count`` anywhere in
#: the library must appear here (analysis rule RPX003 enforces it
#: statically), so the metrics record's key space is typed the same way
#: the event stream is.
COUNTERS: dict[str, str] = {
    "evals": "configurations evaluated (all tuners)",
    "retries": "transient outcomes re-executed by the retry policy",
    "faults.injected": "faults fired by the seeded fault plan",
    "gp.predict": "GP posterior predictions served",
    "gp.predict.points": "candidate points pushed through GP predictions",
    "gp.mode.switch": "exact <-> low-rank surrogate switches",
    "async.idle_worker_slots": "free worker slots observed at async "
                               "dispatch points",
    "batch.serial_fallback": "concurrent evaluations degraded to serial",
    "supervise.quarantine": "configs quarantined at the strike cap",
    "supervise.deadline_hit": "evaluations abandoned at their deadline",
    "supervise.speculate": "speculative straggler twins launched",
    "supervise.speculate_wins": "races won by the speculative twin",
    "supervise.reclaim": "dead-worker tasks reclaimed and redispatched",
    "pool.abandoned_tasks": "pool tasks abandoned (deadline or shutdown)",
    "pool.workers_replaced": "pool workers replaced after a death",
    "serve.submitted": "sessions accepted into the store",
    "serve.claims": "sessions claimed by daemon workers",
    "serve.resumed": "claimed sessions that resumed a prior journal",
    "serve.done": "sessions settled DONE",
    "serve.failed": "sessions settled FAILED",
    "serve.cancelled": "sessions settled CANCELLED",
}

#: The timer catalog: every name passed to ``tracer.timer`` (RPX003).
TIMERS: dict[str, str] = {
    "gp.fit": "GP surrogate (re)fits",
    "forest.fit": "tree-ensemble fits",
    "importance": "permutation-importance sweeps",
    "parallel.map": "parallel_map batch dispatches",
    "pool.task": "WorkerPool task bodies",
    "async.propose": "async replacement-proposal draws",
    "async.wait": "async waits on the next completion",
    "serve.claim": "session-claim attempts against the store (claim latency)",
}

#: The span catalog: every name passed to ``tracer.span`` (RPX003).
SPANS: dict[str, str] = {
    "tune": "one whole tuning session",
    "selection": "the parameter-selection phase",
    "transfer.probe": "a workload-mapper probe",
    "initial_design": "the initial (LHS) design evaluations",
    "bo": "the Bayesian-optimization loop",
    "serve.session": "one served tuning session, claim to settle",
}


def evaluation_data(index: int, ev: Any) -> dict[str, Any]:
    """``eval.result`` payload for an Evaluation-shaped object.

    Duck-typed so this module never imports ``repro.tuners`` (which
    itself imports ``repro.obs``).  ``cost_s`` is *simulated* execution
    time — a deterministic function of the configuration — not a wall
    clock reading, so it belongs in the payload.
    """
    status = getattr(ev.status, "value", ev.status)
    return {"i": int(index), "objective": float(ev.objective),
            "cost_s": float(ev.cost_s), "status": str(status),
            "truncated": bool(ev.truncated),
            "transient": bool(ev.transient),
            "fault": ev.fault, "attempts": int(ev.attempts)}


def validate_record(record: Mapping[str, Any]) -> list[str]:
    """Schema problems of one record (empty list = valid)."""
    problems: list[str] = []
    kind = record.get("kind")
    if kind not in KINDS:
        return [f"unknown record kind: {kind!r}"]
    if kind == "meta":
        if not isinstance(record.get("schema"), int):
            problems.append("meta record missing integer 'schema'")
    elif kind == "event":
        if not isinstance(record.get("id"), int):
            problems.append("event missing integer 'id'")
        if not isinstance(record.get("t"), (int, float)):
            problems.append("event missing numeric 't'")
        span = record.get("span", "missing")
        if span == "missing" or not (span is None or isinstance(span, int)):
            problems.append("event 'span' must be an int or None")
        etype = record.get("type")
        if etype not in EVENT_TYPES:
            problems.append(f"unknown event type: {etype!r}")
        if not isinstance(record.get("data"), Mapping):
            problems.append("event missing mapping 'data'")
    else:  # metrics
        if not isinstance(record.get("counters"), Mapping):
            problems.append("metrics record missing 'counters'")
        if not isinstance(record.get("timers"), Mapping):
            problems.append("metrics record missing 'timers'")
    return problems


def validate_trace(records: Iterable[Mapping[str, Any]]) -> list[str]:
    """Schema problems of a whole trace (empty list = valid).

    Checks every record, that the trace opens with a current-schema meta
    record, that event ids increase strictly, and that ``span`` always
    references an already-opened span.
    """
    problems: list[str] = []
    records = list(records)
    if not records:
        return ["empty trace"]
    first = records[0]
    if first.get("kind") != "meta":
        problems.append("trace must start with a meta record")
    elif first.get("schema") != TRACE_SCHEMA_VERSION:
        problems.append(
            f"schema {first.get('schema')!r} != {TRACE_SCHEMA_VERSION}")
    last_id = -1
    span_ids: set[int] = set()
    for n, record in enumerate(records):
        for problem in validate_record(record):
            problems.append(f"record {n}: {problem}")
        if record.get("kind") != "event":
            continue
        rid = record.get("id")
        if isinstance(rid, int):
            if rid <= last_id:
                problems.append(f"record {n}: id {rid} not increasing")
            last_id = rid
            if record.get("type") == "span.start":
                span_ids.add(rid)
        span = record.get("span")
        if isinstance(span, int) and span not in span_ids:
            problems.append(f"record {n}: span {span} never started")
    return problems
