"""Random-Forests parameter selection (paper §3.3).

Trains a Random Forests regressor on LHS samples of the full
(44-dimensional) configuration space, ranks parameters by grouped
Mean-Decrease-in-Accuracy on the out-of-bag R² score (10 permutation
repeats, collinear parameters permuted jointly), and keeps every group
whose permutation drops R² by at least the threshold (0.05, configurable —
§4 "Parameter Selection").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..ml.forest import RandomForestRegressor
from ..ml.importance import GroupImportance, grouped_permutation_importance
from ..obs import as_tracer, evaluation_data
from ..sampling.lhs import latin_hypercube
from ..space.space import ConfigSpace
from ..tuners.base import Evaluation
from ..utils.rng import as_generator

__all__ = ["SelectionResult", "ParameterSelector"]


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of one parameter-selection run."""

    selected: tuple[str, ...]            # parameter names, importance order
    selected_groups: tuple[str, ...]     # group labels that passed
    importances: tuple[GroupImportance, ...]
    oob_r2: float
    n_samples: int
    cost_s: float                        # summed execution time of samples


class ParameterSelector:
    """Dimension reduction for the tuning space.

    Parameters
    ----------
    n_samples:
        Generic LHS samples to execute (the paper uses 100; Figure 7
        studies the recall of smaller counts).
    n_trees:
        Forest size.
    n_repeats:
        Permutations per group for the MDA average (paper: 10).
    threshold:
        Minimum drop in OOB R² for a group to count as high-impact
        (paper: 0.05).
    min_select / max_select:
        Safety bounds on the number of selected *groups*: if fewer than
        ``min_select`` pass the threshold the top groups are taken anyway
        (BO needs something to tune).
    log_target:
        Model ``log(time)`` instead of raw seconds.  Execution times span
        orders of magnitude with a censored plateau at the cap; the log
        compresses the plateau and measurably raises OOB R² and the
        stability of the ranking.
    """

    def __init__(self, *, n_samples: int = 100, n_trees: int = 150,
                 n_repeats: int = 10, threshold: float = 0.05,
                 min_select: int = 2, max_select: int | None = None,
                 log_target: bool = True,
                 rng: np.random.Generator | int | None = None):
        if n_samples < 10:
            raise ValueError("n_samples must be >= 10")
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        if min_select < 1:
            raise ValueError("min_select must be >= 1")
        self.n_samples = n_samples
        self.n_trees = n_trees
        self.n_repeats = n_repeats
        self.threshold = threshold
        self.min_select = min_select
        self.max_select = max_select
        self.log_target = log_target
        self._rng = as_generator(rng)

    # -- sample collection -------------------------------------------------------
    def collect(self, evaluate: Callable[[np.ndarray, float | None], Evaluation],
                space: ConfigSpace,
                n_samples: int | None = None,
                tracer=None) -> list[Evaluation]:
        """Execute generic LHS samples (the one-time selection cost)."""
        tracer = as_tracer(tracer)
        n = n_samples if n_samples is not None else self.n_samples
        U = latin_hypercube(n, space.dim, self._rng)
        evals = []
        for i, u in enumerate(U):
            ev = evaluate(u, None)
            evals.append(ev)
            tracer.emit("eval.result", evaluation_data(i, ev))
            tracer.count("evals")
        return evals

    # -- model + ranking -----------------------------------------------------------
    def select(self, space: ConfigSpace,
               evaluations: Sequence[Evaluation],
               tracer=None) -> SelectionResult:
        """Rank parameter groups and apply the importance threshold."""
        if len(evaluations) < 10:
            raise ValueError("need at least 10 evaluations to select")
        tracer = as_tracer(tracer)
        X = np.vstack([e.vector for e in evaluations])
        y = np.asarray([e.objective for e in evaluations])
        if self.log_target:
            y = np.log(np.maximum(y, 1e-9))
        forest = RandomForestRegressor(self.n_trees, max_features=0.5,
                                       rng=self._rng,
                                       tracer=tracer).fit(X, y)
        oob = forest.oob_score()
        importances = grouped_permutation_importance(
            forest, space.groups(), n_repeats=self.n_repeats,
            rng=self._rng, tracer=tracer)

        passed = [g for g in importances if g.importance >= self.threshold]
        if len(passed) < self.min_select:
            passed = list(importances[: self.min_select])
        if self.max_select is not None:
            passed = passed[: self.max_select]

        names: list[str] = []
        group_labels: list[str] = []
        for g in passed:
            group_labels.append(g.group)
            names.extend(space.names[c] for c in g.columns)
        cost = float(sum(e.cost_s for e in evaluations))
        tracer.emit("selection.params",
                    {"selected": list(names), "groups": list(group_labels),
                     "oob_r2": float(oob), "n_samples": len(evaluations),
                     "cost_s": cost})
        return SelectionResult(
            selected=tuple(names),
            selected_groups=tuple(group_labels),
            importances=tuple(importances),
            oob_r2=float(oob),
            n_samples=len(evaluations),
            cost_s=cost,
        )

    def run(self, evaluate: Callable[[np.ndarray, float | None], Evaluation],
            space: ConfigSpace, tracer=None) -> SelectionResult:
        """Collect samples and select in one step."""
        return self.select(space, self.collect(evaluate, space, tracer=tracer),
                           tracer=tracer)
