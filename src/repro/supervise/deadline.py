"""Adaptive per-evaluation deadlines from a running duration quantile.

The policy mirrors how the median guard treats *simulated* cost, but for
*wall-clock* task duration: once :data:`MIN_COMPLETIONS` completions have
been observed, an evaluation taking longer than
:data:`DEADLINE_MULTIPLIER` x the :data:`DEADLINE_QUANTILE` of completed
durations is presumed wedged.  A hard ``eval_timeout_s`` cap (the CLI's
``--eval-timeout``) always applies when set, even before the quantile
warms up.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DeadlinePolicy"]

#: Quantile of completed durations both thresholds scale from.
DEADLINE_QUANTILE = 0.95
#: Deadline = this x the quantile duration.
DEADLINE_MULTIPLIER = 3.0
#: Speculation threshold = this x the quantile duration (below the
#: deadline's multiplier, so a straggler gets a twin before it is written
#: off).
STRAGGLER_MULTIPLIER = 2.0
#: Completions required before the adaptive thresholds activate; until
#: then only the hard cap (if any) applies.
MIN_COMPLETIONS = 3


class DeadlinePolicy:
    """Running-quantile deadline and straggler thresholds.

    Parameters
    ----------
    eval_timeout_s:
        Hard wall-clock cap per evaluation (None = no hard cap).
    """

    def __init__(self, eval_timeout_s: float | None = None):
        if eval_timeout_s is not None and eval_timeout_s <= 0:
            raise ValueError("eval_timeout_s must be positive")
        self.eval_timeout_s = eval_timeout_s
        self._durations: list[float] = []

    def observe(self, duration_s: float) -> None:
        """Fold one completed evaluation's wall-clock duration in."""
        self._durations.append(float(duration_s))

    def _scaled(self, factor: float) -> float | None:
        if len(self._durations) < MIN_COMPLETIONS:
            return None
        q = float(np.quantile(self._durations, DEADLINE_QUANTILE))
        return factor * max(q, 1e-9)

    def deadline_s(self) -> float | None:
        """Current per-evaluation deadline (None = unbounded)."""
        adaptive = self._scaled(DEADLINE_MULTIPLIER)
        if self.eval_timeout_s is None:
            return adaptive
        if adaptive is None:
            return self.eval_timeout_s
        return min(self.eval_timeout_s, adaptive)

    def straggler_threshold_s(self) -> float | None:
        """Elapsed time past which a task counts as a straggler."""
        adaptive = self._scaled(STRAGGLER_MULTIPLIER)
        if adaptive is None:
            return None
        if self.eval_timeout_s is not None:
            return min(self.eval_timeout_s, adaptive)
        return adaptive
