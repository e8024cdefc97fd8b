"""Cross-workload transfer: map unseen workloads to known ones.

An extension beyond the paper (inspired by OtterTune's workload mapping,
which ROBOTune §6 discusses): ROBOTune's parameter-selection cache is
keyed by exact workload identity, so a *new* application always pays the
100-sample selection cost.  :class:`WorkloadMapper` cheapens that: it
characterizes every workload by its execution-time *signature* on a small
fixed probe set of configurations; when a new workload's signature rank-
correlates strongly with a known one's, the known workload's selected
parameters are reused and the full selection run is skipped.

Two workloads need not have similar absolute times to match — only a
similar *ordering* of configurations (Spearman correlation), which is what
determines which parameters matter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..sampling.lhs import maximin_latin_hypercube
from ..space.space import ConfigSpace
from ..tuners.base import Evaluation

__all__ = ["WorkloadMapper", "MappingResult"]


@dataclass(frozen=True)
class MappingResult:
    """Outcome of a mapping attempt."""

    matched: str | None      # matched workload name, or None
    correlation: float       # Spearman rho against the best candidate
    probe_cost_s: float      # execution time spent probing
    signature: np.ndarray    # the new workload's probe signature


class WorkloadMapper:
    """Signature-based workload mapping over a shared probe set.

    Parameters
    ----------
    space:
        The full tuning space; the probe set lives here so signatures are
        comparable across workloads.
    n_probes:
        Probe configurations (a small fraction of the 100-sample selection
        cost).
    threshold:
        Minimum Spearman correlation to accept a match.
    probe_seed:
        Seed of the shared probe design — fixed so that signatures
        collected in different sessions/processes stay comparable.
    """

    def __init__(self, space: ConfigSpace, *, n_probes: int = 12,
                 threshold: float = 0.8, probe_seed: int = 20210809):
        if n_probes < 4:
            raise ValueError("n_probes must be >= 4 for a stable rank "
                             "correlation")
        if not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        self.space = space
        self.n_probes = n_probes
        self.threshold = threshold
        self._probes = maximin_latin_hypercube(n_probes, space.dim,
                                               rng=probe_seed)
        self._signatures: dict[str, np.ndarray] = {}
        self._selections: dict[str, list[str]] = {}

    @property
    def probes(self) -> np.ndarray:
        """The shared probe design, shape ``(n_probes, dim)``."""
        return self._probes.copy()

    # -- signatures ----------------------------------------------------------------
    def signature(self, evaluate: Callable[[np.ndarray, float | None],
                                           Evaluation]
                  ) -> tuple[np.ndarray, float]:
        """Execute the probe set; returns (log-time signature, cost)."""
        sig = np.empty(self.n_probes)
        cost = 0.0
        for i, u in enumerate(self._probes):
            ev = evaluate(u, None)
            sig[i] = np.log(max(ev.objective, 1e-9))
            cost += ev.cost_s
        return sig, cost

    def register(self, name: str, signature: np.ndarray,
                 selected: list[str]) -> None:
        """Record a tuned workload's signature and selected parameters."""
        signature = np.asarray(signature, dtype=float)
        if signature.shape != (self.n_probes,):
            raise ValueError(f"signature must have shape ({self.n_probes},)")
        if not selected:
            raise ValueError("selected parameter list must be non-empty")
        self._signatures[name] = signature.copy()
        self._selections[name] = list(selected)

    def selected_for(self, name: str) -> list[str]:
        """Selected parameters of a registered workload."""
        return list(self._selections[name])

    # -- mapping ------------------------------------------------------------------------
    def map(self, evaluate: Callable[[np.ndarray, float | None], Evaluation]
            ) -> MappingResult:
        """Probe a new workload and try to match it to a known one."""
        # Imported here: scipy.stats costs ~0.6 s and ~20 MB at import,
        # and nothing else on the tuner's start-up path needs it.
        from scipy.stats import spearmanr

        sig, cost = self.signature(evaluate)
        best_name: str | None = None
        best_rho = -np.inf
        for name, known in self._signatures.items():
            rho = float(spearmanr(sig, known).statistic)
            if np.isnan(rho):
                rho = 0.0
            if rho > best_rho:
                best_rho, best_name = rho, name
        if best_name is None or best_rho < self.threshold:
            return MappingResult(matched=None,
                                 correlation=best_rho if best_name else 0.0,
                                 probe_cost_s=cost, signature=sig)
        return MappingResult(matched=best_name, correlation=best_rho,
                             probe_cost_s=cost, signature=sig)
