"""Session identity for the tuning service (docs/SERVING.md).

A *session* is one tuning run owned by the service: a
:class:`SessionSpec` (what to tune, with which budget, seed and
resilience knobs) plus a lifecycle state that only ever moves forward
through :data:`TRANSITIONS`::

    PENDING ──claim──▶ RUNNING ──settle──▶ DONE | FAILED | CANCELLED
       └──────────────cancel───────────────────────────▶ CANCELLED

Specs are plain JSON-able dataclasses so they cross a service request,
in process or over a socket, unchanged, and :func:`evaluation_digest` is the service's
bit-identity witness: a canonical SHA-256 over the full evaluation
stream (selection phase included), equal between a served session and
an in-process run of the same spec if and only if every vector,
objective value, cost and status matched exactly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Iterable, Mapping

__all__ = ["SessionSpec", "SessionCancelled", "STATES", "TERMINAL_STATES",
           "TRANSITIONS", "evaluation_digest"]

#: Lifecycle states a stored session moves through.
STATES = ("PENDING", "RUNNING", "DONE", "FAILED", "CANCELLED")

#: States a session never leaves.
TERMINAL_STATES = ("DONE", "FAILED", "CANCELLED")

#: Legal state transitions; the store refuses everything else.
TRANSITIONS: dict[str, tuple[str, ...]] = {
    "PENDING": ("RUNNING", "CANCELLED"),
    "RUNNING": ("DONE", "FAILED", "CANCELLED"),
    "DONE": (),
    "FAILED": (),
    "CANCELLED": (),
}


class SessionCancelled(Exception):
    """Raised inside a session runner when its cancel marker appears."""


@dataclass(frozen=True)
class SessionSpec:
    """Everything needed to (re)construct one tuning session.

    The spec is the *whole* identity of a session's decision sequence:
    two runs of the same spec — served or in-process, interrupted or not
    — produce bit-identical evaluation streams as long as the resilience
    knobs stay on the deterministic defaults (``fault_rate=0``,
    ``async_workers`` 0 or 1, no supervision; see docs/ROBUSTNESS.md for
    why supervised runs trade that guarantee for liveness).  Whatever
    the knobs, an exception from an evaluation ends the session's run —
    a cancel's :class:`SessionCancelled` included — except a worker
    death under supervision, which is written off.
    """

    workload: str
    dataset: str = "D1"
    budget: int = 100
    seed: int = 0
    metric: str = "time"
    #: higher runs sooner; ties break by submission order.
    priority: int = 0
    time_limit_s: float | None = None
    #: BO training-set size (paper: 20).
    init_samples: int = 20
    #: parameter-selection sample count; ``None`` keeps the paper's 100.
    selection_samples: int | None = None
    #: permutation-importance repeats; ``None`` keeps the selector default.
    selection_repeats: int | None = None
    #: transient-fault injection rate (0 = off) and its retry budget.
    fault_rate: float = 0.0
    retries: int = 2
    #: asynchronous BO workers (0 and 1 = the serial, bit-reproducible
    #: loop).
    async_workers: int = 0
    #: supervised execution (requires ``async_workers >= 1``).
    eval_timeout_s: float | None = None
    speculate: bool = False
    quarantine_after: int = 3
    #: free-form caller metadata, stored and echoed back verbatim.
    tags: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.workload:
            raise ValueError("workload must be non-empty")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.init_samples < 2:
            raise ValueError("init_samples must be >= 2")
        if self.selection_samples is not None and self.selection_samples < 10:
            raise ValueError("selection_samples must be >= 10")
        if self.selection_repeats is not None and self.selection_repeats < 1:
            raise ValueError("selection_repeats must be >= 1")
        if not 0.0 <= self.fault_rate <= 1.0:
            raise ValueError("fault_rate must be in [0, 1]")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.async_workers < 0:
            raise ValueError("async_workers must be >= 0")
        if self.eval_timeout_s is not None:
            if self.eval_timeout_s <= 0:
                raise ValueError("eval_timeout_s must be positive")
            if self.async_workers < 1:
                raise ValueError("eval_timeout_s requires async_workers >= 1")
        elif self.speculate:
            raise ValueError("speculate requires eval_timeout_s")
        if self.quarantine_after < 1:
            raise ValueError("quarantine_after must be >= 1")
        if self.time_limit_s is not None and self.time_limit_s <= 0:
            raise ValueError("time_limit_s must be positive")

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SessionSpec":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown session spec fields: {sorted(unknown)}")
        return cls(**dict(payload))


def _canonical_evaluation(ev: Any) -> list[Any]:
    """The digest-relevant fields of one Evaluation, canonically ordered."""
    status = getattr(ev.status, "value", ev.status)
    return [[float(v) for v in ev.vector],
            sorted((str(k), v) for k, v in dict(ev.config).items()),
            float(ev.objective), float(ev.cost_s), str(status),
            bool(ev.truncated), bool(ev.transient), ev.fault,
            int(ev.attempts)]


def evaluation_digest(evaluations: Iterable[Any]) -> str:
    """Canonical SHA-256 of an evaluation stream (the bit-identity witness).

    Two sessions digest equal iff every evaluation matched in order:
    vectors, decoded configs, objective values, charged costs, statuses
    and fault annotations.  Timing-free by construction, so it is stable
    across machines, tracing, journaling and crash/resume.
    """
    payload = [_canonical_evaluation(ev) for ev in evaluations]
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
