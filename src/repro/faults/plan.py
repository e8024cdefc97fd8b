"""Deterministic transient-fault plans (docs/ROBUSTNESS.md).

A :class:`FaultPlan` is a pure function from ``(evaluation index, attempt
number)`` to a :class:`FaultEvent` or ``None``: every draw comes from a
generator seeded with ``SeedSequence(seed, index, attempt)``, so the plan
has no mutable state, the same coordinates always yield the same fault,
and retrying an evaluation (attempt + 1) re-rolls the dice independently —
exactly how a transient cluster fault behaves.

Fault taxonomy (weights sum to 1 by construction):

===================  =============================================  =========
kind                 effect on the wrapped evaluation               share
===================  =============================================  =========
executor_loss        50/50: job aborts early, or the lost
                     executor's tasks are recomputed
                     (1.3–2.2x slowdown)                            0.35
straggler_node       one slow node stretches the critical path
                     (1.5–3.0x slowdown)                            0.25
network_degradation  shuffle fetch over a degraded link
                     (1.2–2.2x slowdown)                            0.25
spurious_failure     the evaluation dies for no configuration
                     reason (driver RPC drop, lost heartbeat)       0.15
===================  =============================================  =========
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FaultEvent", "FaultPlan", "FAULT_KINDS",
           "HangEvent", "HangPlan"]

#: (kind, selection weight) — must stay in a stable order for determinism.
FAULT_KINDS: tuple[tuple[str, float], ...] = (
    ("executor_loss", 0.35),
    ("straggler_node", 0.25),
    ("network_degradation", 0.25),
    ("spurious_failure", 0.15),
)

#: Per-kind slowdown ranges for non-aborting faults.
_SLOWDOWN_RANGES = {
    "executor_loss": (1.3, 2.2),
    "straggler_node": (1.5, 3.0),
    "network_degradation": (1.2, 2.2),
}

#: Aborting faults surface after this fraction of the run's natural time.
_ABORT_FRACTION_RANGE = (0.05, 0.6)


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault: either an abort or a multiplicative slowdown."""

    kind: str
    aborts: bool
    #: duration multiplier for slowdown faults (1.0 when aborting).
    slowdown: float = 1.0
    #: fraction of the natural run time elapsed before an abort surfaced.
    abort_fraction: float = 0.0


class FaultPlan:
    """Seeded map from ``(evaluation index, attempt)`` to faults.

    Parameters
    ----------
    rate:
        Per-attempt probability of injecting a fault, in ``[0, 1]``.
    seed:
        Plan identity; two plans with the same ``(rate, seed)`` inject
        identical faults at identical coordinates.
    kinds:
        ``(name, weight)`` pairs restricting/reweighting the taxonomy
        (default: all four kinds with the documented shares).
    """

    def __init__(self, rate: float, seed: int = 0,
                 kinds: tuple[tuple[str, float], ...] = FAULT_KINDS):
        rate = float(rate)
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {rate}")
        if not kinds:
            raise ValueError("kinds must be non-empty")
        unknown = {k for k, _ in kinds} - {k for k, _ in FAULT_KINDS}
        if unknown:
            raise ValueError(f"unknown fault kinds: {sorted(unknown)}")
        total = float(sum(w for _, w in kinds))
        if total <= 0:
            raise ValueError("kind weights must sum to a positive value")
        self.rate = rate
        self.seed = int(seed)
        self._names = tuple(k for k, _ in kinds)
        self._weights = np.asarray([w / total for _, w in kinds])

    def draw(self, index: int, attempt: int = 0) -> FaultEvent | None:
        """The fault (or None) for one evaluation attempt.

        Pure: depends only on ``(rate, seed, kinds, index, attempt)``.
        """
        if index < 0 or attempt < 0:
            raise ValueError("index and attempt must be non-negative")
        if self.rate == 0.0:
            return None
        rng = np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(index, attempt)))
        if rng.random() >= self.rate:
            return None
        kind = self._names[int(rng.choice(len(self._names), p=self._weights))]
        if kind == "spurious_failure" or (kind == "executor_loss"
                                          and rng.random() < 0.5):
            return FaultEvent(kind, aborts=True,
                              abort_fraction=float(
                                  rng.uniform(*_ABORT_FRACTION_RANGE)))
        lo, hi = _SLOWDOWN_RANGES[kind]
        return FaultEvent(kind, aborts=False,
                          slowdown=float(rng.uniform(lo, hi)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan(rate={self.rate}, seed={self.seed})"


@dataclass(frozen=True)
class HangEvent:
    """A liveness fault: the worker hangs or dies mid-evaluation.

    ``kind`` is ``"hang"`` (the evaluation wedges for ``hang_s`` of real
    wall-clock time — bounded, so tests stay fast) or ``"worker_death"``
    (the worker thread dies before producing a result).
    """

    kind: str
    hang_s: float = 0.0


class HangPlan:
    """Deterministic liveness-fault plan for the supervision layer.

    Same pure-coordinate contract as :class:`FaultPlan` — the draw for
    ``(index, attempt)`` depends only on the constructor arguments — but
    the injected trouble is about *liveness*, not outcomes: hangs and
    worker deaths are what deadlines, dead-worker reclaim and speculative
    re-execution exist to absorb (docs/ROBUSTNESS.md).

    Parameters
    ----------
    rate:
        Probability an evaluation attempt draws a liveness fault.
    seed:
        Plan seed.
    hang_s:
        Real seconds a hanging evaluation wedges before returning (the
        supervisor's deadline should fire well before this).
    death_share:
        Fraction of liveness faults that are worker deaths rather than
        hangs.
    poison:
        Optional set of evaluation *indices* that always hang, every
        attempt — a deterministic "poison config" for quarantine tests.
    """

    def __init__(self, rate: float, seed: int = 0, *, hang_s: float = 5.0,
                 death_share: float = 0.5,
                 poison: frozenset[int] | set[int] = frozenset()):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"hang rate must be in [0, 1], got {rate}")
        if hang_s < 0:
            raise ValueError("hang_s must be >= 0")
        if not 0.0 <= death_share <= 1.0:
            raise ValueError("death_share must be in [0, 1]")
        self.rate = float(rate)
        self.seed = int(seed)
        self.hang_s = float(hang_s)
        self.death_share = float(death_share)
        self.poison = frozenset(poison)

    def draw(self, index: int, attempt: int = 0) -> HangEvent | None:
        """The liveness fault (or None) for one evaluation attempt."""
        if index < 0 or attempt < 0:
            raise ValueError("index and attempt must be non-negative")
        if index in self.poison:
            return HangEvent("hang", hang_s=self.hang_s)
        if self.rate == 0.0:
            return None
        rng = np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(index, attempt)))
        if rng.random() >= self.rate:
            return None
        if rng.random() < self.death_share:
            return HangEvent("worker_death")
        return HangEvent("hang", hang_s=self.hang_s)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"HangPlan(rate={self.rate}, seed={self.seed}, "
                f"hang_s={self.hang_s})")
