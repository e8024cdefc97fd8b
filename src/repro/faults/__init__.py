"""Resilience layer: deterministic fault injection and retry policies.

See docs/ROBUSTNESS.md for the fault taxonomy, retry semantics and how
this composes with the crash-safe evaluation journal
(:mod:`repro.core.journal`).  :class:`WorkerDeath`, which
:class:`HangInjector` raises, is :mod:`repro.supervise`'s and is
re-exported here.
"""

from ..supervise import WorkerDeath
from .injector import FaultInjector, HangInjector
from .plan import FAULT_KINDS, FaultEvent, FaultPlan, HangEvent, HangPlan
from .retry import RetryPolicy

__all__ = ["FaultPlan", "FaultEvent", "FaultInjector", "RetryPolicy",
           "FAULT_KINDS", "HangPlan", "HangEvent", "HangInjector",
           "WorkerDeath"]
