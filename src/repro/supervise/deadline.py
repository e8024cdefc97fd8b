"""Adaptive per-evaluation deadlines from a running duration quantile.

The policy mirrors how the median guard treats *simulated* cost, but for
*wall-clock* task duration: once enough completions have been observed,
an evaluation taking longer than ``multiplier`` x the ``quantile`` of
completed durations is presumed wedged.  A hard ``eval_timeout_s`` cap
(the CLI's ``--eval-timeout``) always applies when set, even before the
quantile warms up.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DeadlinePolicy"]


class DeadlinePolicy:
    """Running-quantile deadline and straggler thresholds.

    Parameters
    ----------
    eval_timeout_s:
        Hard wall-clock cap per evaluation (None = no hard cap).
    quantile:
        Quantile of completed durations the deadline scales from.
    multiplier:
        Deadline = ``multiplier`` x quantile duration.
    straggler_multiplier:
        Speculation threshold = ``straggler_multiplier`` x quantile
        duration (must not exceed ``multiplier`` to be useful).
    min_completions:
        Completions required before the adaptive thresholds activate;
        until then only the hard cap (if any) applies.
    """

    def __init__(self, eval_timeout_s: float | None = None, *,
                 quantile: float = 0.95, multiplier: float = 3.0,
                 straggler_multiplier: float = 2.0,
                 min_completions: int = 3):
        if eval_timeout_s is not None and eval_timeout_s <= 0:
            raise ValueError("eval_timeout_s must be positive")
        if not 0.0 < quantile <= 1.0:
            raise ValueError("quantile must be in (0, 1]")
        if multiplier <= 1.0 or straggler_multiplier <= 1.0:
            raise ValueError("deadline multipliers must be > 1")
        if min_completions < 1:
            raise ValueError("min_completions must be >= 1")
        self.eval_timeout_s = eval_timeout_s
        self.quantile = float(quantile)
        self.multiplier = float(multiplier)
        self.straggler_multiplier = float(straggler_multiplier)
        self.min_completions = int(min_completions)
        self._durations: list[float] = []

    def observe(self, duration_s: float) -> None:
        """Fold one completed evaluation's wall-clock duration in."""
        self._durations.append(float(duration_s))

    def _scaled(self, factor: float) -> float | None:
        if len(self._durations) < self.min_completions:
            return None
        q = float(np.quantile(self._durations, self.quantile))
        return factor * max(q, 1e-9)

    def deadline_s(self) -> float | None:
        """Current per-evaluation deadline (None = unbounded)."""
        adaptive = self._scaled(self.multiplier)
        if self.eval_timeout_s is None:
            return adaptive
        if adaptive is None:
            return self.eval_timeout_s
        return min(self.eval_timeout_s, adaptive)

    def straggler_threshold_s(self) -> float | None:
        """Elapsed time past which a task counts as a straggler."""
        adaptive = self._scaled(self.straggler_multiplier)
        if adaptive is None:
            return None
        if self.eval_timeout_s is not None:
            return min(self.eval_timeout_s, adaptive)
        return adaptive
