"""The BO loop's evaluation executor, and supervised execution.

:class:`EvaluationSupervisor` runs every evaluation of the BO engine's
dispatch/fold loop: on the calling thread for one worker with no policy,
on a daemon thread per dispatch otherwise.  Under a
:class:`SupervisePolicy` every in-flight evaluation is accountable
(docs/ROBUSTNESS.md, "Supervised execution"):

* **deadlines** — a wall-clock budget per evaluation, derived from a
  running quantile of completed durations plus an optional hard
  ``eval_timeout_s`` override, counted from the task's latest dispatch;
  a task past its deadline is abandoned and charged to search cost like
  a censored run;
* **reclaim** — a task whose worker died (:class:`WorkerDeath`) is
  redispatched on a fresh slot, up to ``MAX_REDISPATCH`` times, then
  written off; any other exception propagates;
* **speculative re-execution** — a straggler past the straggler
  threshold gets a duplicate on an idle slot; the first completion wins
  and the loser is abandoned;
* **poison-config quarantine** — a config that kills or times out its
  worker ``quarantine_after`` times is excluded from re-proposal.

Supervision reads the wall clock by design (an injected monotonic clock,
exempted by analysis rule RPD005): deadlines are facts about real
elapsed time.  It is therefore *not* bit-reproducible and is off by
default — ``BOEngine(supervise=None)`` applies no deadline and reclaims
nothing.
"""

from .deadline import DeadlinePolicy
from .quarantine import PoisonQuarantine
from .supervisor import (Completed, DeadlineHit, EvaluationSupervisor,
                         SupervisePolicy, TaskFailed, WorkerDeath)

__all__ = ["SupervisePolicy", "EvaluationSupervisor", "DeadlinePolicy",
           "PoisonQuarantine", "WorkerDeath", "Completed", "DeadlineHit",
           "TaskFailed"]
