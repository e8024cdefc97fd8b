"""The Bayesian-optimization engine (paper Algorithm 1).

Given prior observations, iterate: fit a GP surrogate, let every
acquisition function in the GP-Hedge portfolio nominate a point, evaluate
the probabilistically chosen nominee, augment the priors, and update the
portfolio's gains — until the evaluation budget is exhausted.

Acquisition optimization follows the implementation notes in §4: a
space-filling candidate sweep (vectorized GP prediction over an LHS design
plus exploitation candidates jittered around the incumbent) seeds an
L-BFGS-B refinement of each acquisition's best candidate; the three
refinements run in lockstep on the shared posterior.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from ..gp.gpr import GaussianProcessRegressor
from ..gp.kernels import Matern52
from ..gp.lbfgs import minimize
from ..gp.lowrank import LowRankGaussianProcessRegressor
from ..obs import NULL_TRACER, as_tracer, evaluation_data
from ..sampling.lhs import latin_hypercube
from ..space.space import ConfigSpace
from ..sparksim.result import RunStatus
from ..supervise import (Completed, DeadlineHit, EvaluationSupervisor,
                         SupervisePolicy)
from ..supervise.quarantine import vector_key
from ..tuners.base import Evaluation, can_spawn, censored_write_off
from ..utils.rng import as_generator
from .guard import MedianGuard
from .hedge import GPHedge
from .penalize import LocalPenalizer
from .warmstart import WarmStartData

__all__ = ["BOEngine", "BOIterationRecord"]


class _ContextGP:
    """Query-time view of a datasize-augmented (warm-started) surrogate.

    The inner GP is trained jointly on warm-start rows plus the current
    session's observations, each with a normalized-datasize context
    column appended (LOCAT-style).  This view presents the engine's
    d-dimensional picture: every query is augmented with the session's
    fixed context value, input gradients drop the context coordinate
    (it is constant within a session), and ``X_train_`` exposes only
    the current-session rows — restoring the index alignment
    with the engine's observation window that the nomination and
    penalization code relies on.
    """

    def __init__(self, inner, n_warm: int, size: float):
        self._inner = inner
        self._n_warm = int(n_warm)
        self._size = float(size)

    def _augment(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        col = np.full((X.shape[0], 1), self._size)
        return np.hstack([X, col])

    def predict(self, X: np.ndarray, return_std: bool = False):
        return self._inner.predict(self._augment(X), return_std)

    def predict_with_gradient(self, x: np.ndarray):
        x = np.asarray(x, dtype=float)
        col = np.full(x.shape[:-1] + (1,), self._size)
        mu, sigma, dmu, dsigma = self._inner.predict_with_gradient(
            np.concatenate([x, col], axis=-1))
        return mu, sigma, dmu[..., :-1], dsigma[..., :-1]

    @property
    def X_train_(self) -> np.ndarray:
        return self._inner.X_train_[self._n_warm:, :-1]

    @property
    def kernel(self):
        return self._inner.kernel


#: Standardization floor: observation windows whose spread is below this
#: (all evaluations censored at one cap, or a single repeated value) carry
#: no ranking signal; dividing by their std would overflow or go NaN.
_STD_FLOOR = 1e-12


def _safe_std(y: np.ndarray) -> float:
    """Standard deviation with an epsilon floor for degenerate windows.

    Returns 1.0 (standardized residuals become plain residuals, which are
    ~0 for a constant window) whenever the spread is non-finite or below
    :data:`_STD_FLOOR` — the all-censored case a fault-heavy session can
    produce.
    """
    std = float(np.asarray(y).std())
    if not np.isfinite(std) or std < _STD_FLOOR:
        return 1.0
    return std


#: ``Evaluation.fault`` tags of outcomes written off without a verdict
#: from the run (:func:`~repro.tuners.base.censored_write_off`): the
#: supervisor's deadline hits and worker deaths and the journal's
#: ``recover="censor"`` crash write-offs.  They are truncated, but no
#: guard threshold killed them.
_WRITE_OFFS = frozenset({"deadline", "worker_death", "crash_recovery"})


class _DegenerateObservations(Exception):
    """Observation window carries no signal for fitting a surrogate."""


@dataclass(frozen=True)
class BOIterationRecord:
    """Diagnostics for one BO iteration (used by Figures 8/9)."""

    iteration: int
    chosen_acquisition: str
    probabilities: np.ndarray
    point: np.ndarray
    objective: float


class BOEngine:
    """GP + GP-Hedge minimization loop.

    Iterations where no usable surrogate exists — the covariance cannot be
    factorized even after jitter escalation, or every observation is
    censored at a single cap (zero spread) — degrade to a space-filling
    LHS proposal instead of raising; ``fallbacks`` counts them (see
    docs/ROBUSTNESS.md).

    Parameters
    ----------
    kernel:
        GP covariance template; defaults to :class:`~repro.gp.Matern52`
        at its paper settings (scaled Matérn 5/2 plus white noise).
    hedge:
        Acquisition portfolio; defaults to PI/EI/LCB with paper knobs.
    n_candidates:
        LHS candidates swept per acquisition optimization.
    hyperopt_every:
        Re-optimize GP hyperparameters every k-th new observation (the
        Cholesky refit happens every iteration regardless).
    refine:
        Polish each acquisition's sweep winner with L-BFGS-B on exact
        utility gradients (set False for speed in large ablation sweeps).
    early_stop_patience:
        Stop when the incumbent has not improved for this many
        iterations (None = always spend the full budget).
    async_workers:
        Evaluations kept in flight.  Each completed evaluation is folded
        into the GP immediately and its replacement proposal is drawn
        with busy-point penalization over the in-flight set
        (:class:`repro.core.penalize.LocalPenalizer`), so no worker ever
        waits on a round barrier.  ``0`` (the default) and ``1`` are one
        setting: the paper's serial Algorithm 1 — one point at a time,
        the objective called on this thread — bit-reproducible and
        without ``async.*`` records.  At ``k > 1`` results depend on
        completion order.  ``k > 1`` requires the objective to expose
        class-level ``spawn_view()``; otherwise the engine warns, counts
        a ``batch.serial_fallback``, and degrades to one worker.  See
        docs/PERFORMANCE.md.
    supervise:
        Optional :class:`repro.supervise.SupervisePolicy` (requires
        ``async_workers >= 1``): deadlines, reclaim-and-redispatch of
        worker deaths, speculative twins and poison-config quarantine
        (docs/ROBUSTNESS.md).  Its evaluations run on threads, one
        worker included, so a wedged one can be abandoned.
    gp_max_exact:
        Training-set size above which the surrogate switches from the
        exact GP (O(n³) fit) to the low-rank
        :class:`~repro.gp.LowRankGaussianProcessRegressor` (O(n·m²) fit,
        O(m²) per prediction).  The default is far above anything a
        cold session reaches, so only warm-start priors (or a huge
        budget) push the observation count past it.  A ``gp.mode``
        event is emitted whenever the mode changes.
    gp_inducing:
        Inducing-point count m for the low-rank path (see
        docs/PERFORMANCE.md, "Scaling the surrogate").
    warm_start:
        Optional :class:`~repro.core.warmstart.WarmStartData`: prior
        observations folded into the surrogate before iteration 0.  The
        GP then trains jointly on (d+1)-dimensional rows — the extra
        column is the normalized datasize context — while nomination,
        penalization and refinement keep operating in the session's d
        dimensions through a query-time view.  Warm rows are priors
        only: they never feed the guard, the Hedge gains, early
        stopping, or the budget.
    tracer:
        Optional :class:`repro.obs.Tracer`.  The loop emits
        ``bo.iteration``/``eval.result``/``guard.kill`` events, the GP
        emits ``gp.fit`` and the Hedge portfolio (whose ``tracer``
        attribute is bound here when tracing is on) emits
        ``hedge.probs``/``acq.winner``.  The default no-op tracer leaves
        decisions bit-identical.
    """

    def __init__(self, *, kernel: Matern52 | None = None,
                 hedge: GPHedge | None = None, n_candidates: int = 512,
                 hyperopt_every: int = 5, refine: bool = True,
                 early_stop_patience: int | None = None,
                 async_workers: int = 0,
                 supervise: SupervisePolicy | None = None,
                 gp_max_exact: int = 512,
                 gp_inducing: int = 96,
                 warm_start: WarmStartData | None = None,
                 rng: np.random.Generator | int | None = None,
                 tracer=None):
        if n_candidates < 8:
            raise ValueError("n_candidates must be >= 8")
        if hyperopt_every < 1:
            raise ValueError("hyperopt_every must be >= 1")
        if async_workers < 0:
            raise ValueError("async_workers must be >= 0")
        if supervise is not None and not isinstance(supervise,
                                                    SupervisePolicy):
            raise TypeError("supervise must be a SupervisePolicy or None")
        if supervise is not None and async_workers < 1:
            raise ValueError("supervise requires async_workers >= 1")
        if gp_max_exact < 2:
            raise ValueError("gp_max_exact must be >= 2")
        if gp_inducing < 1:
            raise ValueError("gp_inducing must be >= 1")
        if warm_start is not None and not isinstance(warm_start,
                                                     WarmStartData):
            raise TypeError("warm_start must be WarmStartData or None")
        self._kernel_template = kernel or Matern52()
        self._theta0 = self._kernel_template.theta.copy()
        self._rng = as_generator(rng)
        self._tracer = as_tracer(tracer)
        self.hedge = hedge or GPHedge(rng=self._rng)
        if tracer is not None:
            self.hedge.tracer = self._tracer
        self.n_candidates = n_candidates
        self.hyperopt_every = hyperopt_every
        self.refine = refine
        self.early_stop_patience = early_stop_patience
        self.async_workers = async_workers
        self.supervise = supervise
        #: unit-cube vectors quarantined by the supervisor this run
        #: (poison configurations that repeatedly hung or killed workers).
        self.quarantined: list[np.ndarray] = []
        self._warned_serial = False
        self.records: list[BOIterationRecord] = []
        #: iterations that fell back to an LHS proposal because the GP
        #: could not be fit or the observation window was degenerate.
        self.fallbacks: int = 0
        self.gp_max_exact = gp_max_exact
        self.gp_inducing = gp_inducing
        self.warm_start = warm_start
        self._theta: np.ndarray | None = None
        self._gp: GaussianProcessRegressor | None = None
        self._gp_lowrank: LowRankGaussianProcessRegressor | None = None
        self._gp_mode: str | None = None
        self.last_gp: GaussianProcessRegressor | None = None

    # -- the dispatch/fold loop ---------------------------------------------------
    def minimize(self, evaluate: Callable[[np.ndarray, float | None], Evaluation],
                 space: ConfigSpace, initial: Sequence[Evaluation],
                 budget: int, guard: MedianGuard | None = None,
                 ) -> list[Evaluation]:
        """Run the BO loop; returns the evaluations it performed.

        One dispatch/fold loop over one
        :class:`~repro.supervise.EvaluationSupervisor` drives every
        mode.  While a worker is free and budget remains, it proposes a
        point (:meth:`_propose`, with the in-flight points penalized)
        and dispatches it; then it folds the next outcome into the
        shared state (:meth:`_fold_in`).  The serial loop is this loop
        at one worker with no policy, where each evaluation runs on this
        thread when it is collected; every other setting runs each on a
        thread of its own.  An exception from an evaluation propagates
        out of this method, except a
        :class:`~repro.supervise.WorkerDeath` under a
        :class:`~repro.supervise.SupervisePolicy`: an evaluation that
        blows its deadline, or whose worker dies with redispatch
        exhausted, is folded in as a censored-at-cap write-off
        (:func:`~repro.tuners.base.censored_write_off`), and
        configurations the supervisor quarantines are never proposed
        again this run (:attr:`quarantined`).

        Observability (evaluations on threads): ``async.dispatch`` /
        ``async.fold`` events carry the in-flight depth, the
        ``async.wait`` timer accumulates time blocked on the executor,
        ``async.propose`` the proposal time during which free workers
        idle, and the ``async.idle_worker_slots`` counter the number of
        worker slots empty at each dispatch.

        Parameters
        ----------
        evaluate:
            ``(unit_vector, kill_threshold_or_None) -> Evaluation``.
        space:
            The (reduced) tuning space; vectors are snapped onto native
            value grid-cells before evaluation so the surrogate's inputs
            match what actually ran.
        initial:
            Prior observations (the memoized-sampling training set);
            **not** re-evaluated and not counted against *budget*.
        budget:
            Number of new expensive evaluations to perform.
        guard:
            Median-multiple kill-threshold tracker; initial observations
            are fed to it first.
        """
        if budget < 0:
            raise ValueError("budget must be >= 0")
        evals: list[Evaluation] = []
        X = [np.asarray(e.vector, dtype=float) for e in initial]
        y = [float(e.objective) for e in initial]
        if guard is not None:
            for e in initial:
                guard.observe(e.cost_s, e.ok)
        if not X:
            raise ValueError("BO requires at least one prior observation")

        k = max(self.async_workers, 1)
        capable = can_spawn(evaluate)
        if k > 1 and not capable:
            self._warn_serial_fallback(evaluate, k)
            k = 1
        policy = self.supervise
        if policy is not None and policy.speculate and not capable:
            # A twin would run the one shared objective concurrently
            # with its original; without views that is unsafe.
            policy = replace(policy, speculate=False)
        executor = EvaluationSupervisor(k, policy, tracer=self._tracer)
        # Evaluations on threads (an abandoned one may still be running)
        # each get an objective view, spawned on this thread at dispatch
        # time (the spawn_view contract), and write the async.* records;
        # the serial loop writes the paper loop's trace.
        views = capable and executor.threaded
        atrace = self._tracer if executor.threaded else NULL_TRACER
        record_censored = getattr(evaluate, "record_censored", None)

        def task(u: np.ndarray, threshold: float | None):
            runner = evaluate.spawn_view() if views else evaluate
            return lambda: runner(u, threshold)

        since_improve = 0
        best_so_far = min(y)
        pending: dict[int, tuple] = {}  # tag -> (point, choice, threshold)
        blocked: set[bytes] = set()
        issued = 0
        stop = False
        with executor:
            while len(evals) < budget:
                while (not stop and issued < budget and len(pending) < k
                       and executor.free_workers > 0):
                    atrace.count("async.idle_worker_slots", k - len(pending))
                    with atrace.timer("async.propose"):
                        u, choice = self._propose(
                            space, X, y, len(evals),
                            [p[0] for p in pending.values()], blocked)
                    threshold = guard.threshold_s() if guard is not None \
                        else None
                    pending[issued] = (u, choice, threshold)
                    executor.submit(partial(task, u, threshold),
                                    tag=issued, key=vector_key(u))
                    atrace.emit("async.dispatch",
                                {"i": issued, "in_flight": len(pending)})
                    issued += 1
                if not pending:
                    break
                with atrace.timer("async.wait"):
                    outcome = executor.next_outcome()
                u, choice, threshold = pending.pop(outcome.tag)
                if isinstance(outcome, Completed):
                    ev = outcome.result
                else:
                    # The run never returned: censored "at least this
                    # bad" and charged the full cap.
                    status, fault = (RunStatus.TIMEOUT, "deadline") \
                        if isinstance(outcome, DeadlineHit) \
                        else (RunStatus.RUNTIME_ERROR, "worker_death")
                    ev = censored_write_off(evaluate, u, status=status,
                                            fault=fault)
                    if record_censored is not None:
                        record_censored(ev)
                    if outcome.quarantined:
                        blocked.add(vector_key(u))
                        self.quarantined.append(
                            np.asarray(u, dtype=float).copy())
                self._fold_in(ev, u, choice, threshold, len(evals), evals,
                              X, y, guard)
                atrace.emit("async.fold",
                            {"i": outcome.tag, "in_flight": len(pending)})
                if ev.objective < best_so_far - 1e-9:
                    best_so_far = ev.objective
                    since_improve = 0
                else:
                    since_improve += 1
                    if (self.early_stop_patience is not None
                            and since_improve >= self.early_stop_patience):
                        # Stop issuing; in-flight evaluations still fold
                        # (their cost is already paid).
                        stop = True
        return evals

    def _propose(self, space: ConfigSpace, X: list[np.ndarray],
                 y: list[float], n_evals: int,
                 pending: list[np.ndarray], blocked: set[bytes]):
        """The loop's one proposal step: ``(point, choice)``.

        With nothing *pending* this is Algorithm 1's proposal: fit the
        GP (hyperparameters on schedule), let every acquisition nominate,
        take the Hedge choice.  With pending points a
        :class:`LocalPenalizer` multiplies their exclusion balls into
        every acquisition's candidate sweep.  A proposal colliding with
        an in-flight point, or quarantined (*blocked*), is replaced by a
        space-filling LHS draw; ``choice`` is None for every LHS point.
        """
        # Graceful degradation (docs/ROBUSTNESS.md): a GP that cannot be
        # factorized even after jitter escalation, or an observation
        # window with no spread (every evaluation censored at one cap),
        # yields no usable surrogate — propose a space-filling LHS point
        # instead of raising away the whole session.
        choice = None
        try:
            y_arr = np.asarray(y)
            if float(np.ptp(y_arr)) < _STD_FLOOR:
                raise _DegenerateObservations
            gp = self._fit_gp(np.vstack(X), y_arr, n_evals)
            penalizer = None
            if pending:
                mean = float(y_arr.mean())
                std = _safe_std(y_arr)
                f_best = (float(y_arr.min()) - mean) / std
                penalizer = LocalPenalizer(gp, np.vstack(pending), mean,
                                           std, f_best)
            nominees = self._nominate(gp, y_arr, space, penalizer=penalizer)
            choice = self.hedge.choose(nominees)
            u = space.snap(choice.nominees[choice.chosen_index])
        except (np.linalg.LinAlgError, _DegenerateObservations):
            self.fallbacks += 1
            u = space.snap(latin_hypercube(1, space.dim, self._rng)[0])
        if any(np.array_equal(u, p) for p in pending):
            u = space.snap(latin_hypercube(1, space.dim, self._rng)[0])
        # Quarantined configs never run again (the bound only matters in
        # degenerate toy spaces where LHS keeps landing on a blocked cell).
        for _ in range(32 if blocked else 0):
            if vector_key(u) not in blocked:
                break
            choice = None
            u = space.snap(latin_hypercube(1, space.dim, self._rng)[0])
        return u, choice

    def _fold_in(self, ev: Evaluation, u: np.ndarray, choice,
                 threshold: float | None, it: int,
                 evals: list[Evaluation], X: list[np.ndarray],
                 y: list[float], guard: MedianGuard | None) -> None:
        """Fold one completed evaluation into the engine's shared state.

        The single place completions mutate observations, guard, Hedge
        gains and records (rule RPP004: worker callables return results;
        they never touch engine state), in Algorithm 1's order.  A
        truncated evaluation under a kill threshold is traced as a
        ``guard.kill`` unless it is a write-off (:data:`_WRITE_OFFS`):
        no threshold stopped those.
        """
        evals.append(ev)
        X.append(np.asarray(ev.vector, dtype=float))
        y.append(float(ev.objective))
        if guard is not None:
            guard.observe(ev.cost_s, ev.ok)
        self._tracer.emit("eval.result", evaluation_data(it, ev))
        self._tracer.count("evals")
        if (ev.truncated and threshold is not None
                and ev.fault not in _WRITE_OFFS):
            self._tracer.emit("guard.kill",
                              {"i": it, "threshold": float(threshold),
                               "cost_s": float(ev.cost_s)})
        if choice is not None:
            # Refit (cheap) and update Hedge gains with the posterior mean
            # at every nominee, standardized and negated for minimization.
            # LHS proposals had no nominees to score.
            try:
                gp2 = self._fit_gp(np.vstack(X), np.asarray(y), None)
                mu = gp2.predict(choice.nominees)
                y_arr = np.asarray(y)
                std = _safe_std(y_arr)
                self.hedge.update(-(mu - y_arr.mean()) / std)
            except np.linalg.LinAlgError:
                self.fallbacks += 1
        self.records.append(BOIterationRecord(
            iteration=it,
            chosen_acquisition=choice.chosen_name if choice is not None
            else "fallback/lhs",
            probabilities=choice.probabilities if choice is not None
            else np.array([]),
            point=u,
            objective=ev.objective))
        self._tracer.emit("bo.iteration", {
            "iteration": it,
            "acq": self.records[-1].chosen_acquisition,
            "objective": float(ev.objective),
            "fallback": choice is None})

    def _warn_serial_fallback(self, evaluate, n_points: int) -> None:
        """Record that concurrent evaluation degraded to serial.

        That happens to an objective whose class has no ``spawn_view``,
        or to an :class:`~repro.tuners.base.ObjectiveWrapper` around one
        (borrowing the inner objective's views would skip a wrapper's
        per-evaluation bookkeeping).  It emits a
        ``batch.serial_fallback`` event, bumps the counter of the same
        name, and warns once per engine.
        """
        self._tracer.emit("batch.serial_fallback",
                          {"objective": type(evaluate).__name__,
                           "points": int(n_points)})
        self._tracer.count("batch.serial_fallback")
        if not self._warned_serial:
            self._warned_serial = True
            warnings.warn(
                f"objective {type(evaluate).__name__} has no class-level "
                "spawn_view(); concurrent evaluation degraded to serial. "
                "Wrappers must implement spawn_view themselves to keep "
                "per-evaluation bookkeeping under concurrency "
                "(docs/PERFORMANCE.md).", RuntimeWarning, stacklevel=3)

    # -- internals ------------------------------------------------------------------
    def _select_gp(self, n_train: int):
        """The cached surrogate instance for a training-set size.

        Exact below ``gp_max_exact`` observations, low-rank above; the
        first use of each mode (and every change) emits a ``gp.mode``
        event so scale-up is visible in traces.
        """
        mode = "exact" if n_train <= self.gp_max_exact else "lowrank"
        if mode != self._gp_mode:
            self._tracer.emit("gp.mode", {
                "mode": mode, "n": int(n_train),
                "threshold": int(self.gp_max_exact),
                "m": int(self.gp_inducing) if mode == "lowrank" else None})
            if self._gp_mode is not None:
                self._tracer.count("gp.mode.switch")
            self._gp_mode = mode
        if mode == "exact":
            if self._gp is None:
                self._gp = GaussianProcessRegressor(
                    kernel=self._kernel_template, normalize_y=True,
                    n_restarts=2, rng=self._rng, tracer=self._tracer)
            return self._gp
        if self._gp_lowrank is None:
            self._gp_lowrank = LowRankGaussianProcessRegressor(
                kernel=self._kernel_template, normalize_y=True,
                n_inducing=self.gp_inducing, n_restarts=2,
                rng=self._rng, tracer=self._tracer)
        return self._gp_lowrank

    def _fit_gp(self, X: np.ndarray, y: np.ndarray, n_new: int | None):
        """Fit the surrogate; full hyperparameter optimization only on
        schedule (n_new is None for the cheap refit after an evaluation).

        One regressor instance per mode is reused across the whole loop —
        the kernel template is deep-copied once at construction rather
        than every iteration.  Off-schedule refits go through the GP's
        warm :meth:`~GaussianProcessRegressor.update` path (a rank-k
        Cholesky extension on the exact GP).  With warm-start priors, the
        fit happens jointly on datasize-augmented rows and the returned
        surrogate is a :class:`_ContextGP` view in the session's own
        dimensions.
        """
        ws = self.warm_start
        if ws is not None and ws.n > 0:
            X = np.vstack([
                np.hstack([ws.X, ws.sizes[:, None]]),
                np.hstack([X, np.full((X.shape[0], 1), ws.current_size)])])
            y = np.concatenate([ws.y, y])
        full = n_new is not None and (self._theta is None
                                      or n_new % self.hyperopt_every == 0)
        gp = self._select_gp(X.shape[0])
        gp.optimize = full
        if (not full and gp._fitted and self._theta is not None
                and np.array_equal(gp._theta_chol, self._theta)
                and gp._X.shape == X.shape and np.array_equal(gp._X, X)
                and np.array_equal(gp._y_raw, y)):
            # The post-evaluation cheap refit already factorized exactly
            # this data at exactly these hyperparameters; refitting would
            # reproduce the same Cholesky bit-for-bit, so skip it.
            pass
        elif full:
            # Start the likelihood optimization from the template's
            # hyperparameters, exactly as a freshly copied kernel would.
            gp.kernel.theta = self._theta0
            gp.fit(X, y)
            self._theta = gp.kernel.theta
        else:
            if self._theta is not None:
                gp.kernel.theta = self._theta
            gp.update(X, y)
        self.last_gp = gp
        if ws is not None and ws.n > 0:
            return _ContextGP(gp, ws.n, ws.current_size)
        return gp

    def _standardized(self, gp, y: np.ndarray,
                      U: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """(mu, sigma, f_best) on the standardized objective scale."""
        mu, sigma = gp.predict(U, return_std=True)
        mean = float(y.mean())
        std = _safe_std(y)
        # Censored objectives included: failures repel the search.
        f_best = (float(y.min()) - mean) / std
        return (mu - mean) / std, sigma / std, f_best

    def _nominate(self, gp, y: np.ndarray,
                  space: ConfigSpace,
                  penalizer: LocalPenalizer | None = None) -> np.ndarray:
        """One proposed point per portfolio acquisition function.

        Each acquisition nominates its sweep argmax; the sweep's
        posterior adds one entry to the ``gp.sweep`` timer.  With
        ``refine`` on, the nominees are then polished together
        (:meth:`_refine`) and
        an ``acq.nominees`` event records, per acquisition, the nominee,
        the sweep winner's utility, the polished utility and whether the
        polish replaced the sweep winner.

        With a *penalizer* (async mode, in-flight points exist) each
        acquisition's sweep utility is multiplied by the busy-point
        penalty factors and the sweep argmax is nominated directly:
        the penalized surface is non-smooth around pending points, so
        L-BFGS-B polish — which could climb back onto a busy region —
        is skipped for these proposals.
        """
        dim = space.dim
        cands = latin_hypercube(self.n_candidates, dim, self._rng)
        # Exploitation candidates: jitter around the best observed points.
        X_obs = gp.X_train_
        order = np.argsort(y)[: max(3, dim)]
        local = X_obs[order] + self._rng.normal(0.0, 0.05,
                                                size=(len(order), dim))
        U = np.clip(np.vstack([cands, local]), 0.0, 1.0)
        with self._tracer.timer("gp.sweep"):
            mu, sigma, f_best = self._standardized(gp, y, U)

        acqs = self.hedge.functions
        best = np.empty(len(acqs), dtype=int)
        sweep = np.empty(len(acqs))
        for i, acq in enumerate(acqs):
            util = acq(mu, sigma, f_best)
            if penalizer is not None:
                util = penalizer.apply(util, U)
            best[i] = int(np.argmax(util))
            sweep[i] = util[best[i]]
        if not self.refine or penalizer is not None:
            return U[best]
        nominees, polished = self._refine(acqs, gp, U[best], sweep, f_best,
                                          float(y.mean()), _safe_std(y))
        if self._tracer.active:
            self._tracer.emit("acq.nominees", {"nominees": [
                {"acq": acq.name, "point": nominees[i],
                 "sweep_util": float(sweep[i]),
                 "polished_util": float(polished[i]),
                 "replaced": bool(polished[i] > sweep[i])}
                for i, acq in enumerate(acqs)]})
        return nominees

    def _refine(self, acqs, gp, starts: np.ndarray, start_utils: np.ndarray,
                f_best: float, mean: float, std: float
                ) -> tuple[np.ndarray, np.ndarray]:
        """L-BFGS-B polish of the sweep winners, one per acquisition (§4).

        Row *i* of *starts* is ``acqs[i]``'s sweep winner and
        ``start_utils[i]`` its sweep utility.  The starts run in lockstep
        (:mod:`repro.gp.lbfgs`): each step is one ``(k, d)``
        ``predict_with_gradient`` call on the shared posterior, then each
        acquisition takes its utility and closed-form gradient from its
        own row in one call, so the optimizer never finite-differences
        the GP.  A
        polished point replaces its sweep winner only when it beats the
        sweep utility.  Returns the nominees and the polished utilities.
        The run adds one entry to the ``bo.refine`` timer and its point
        evaluations to the ``bo.refine.evals`` counter.
        """

        def neg_utils_and_grads(U: np.ndarray, rows: np.ndarray
                                ) -> tuple[np.ndarray, np.ndarray]:
            mu, sigma, dmu, dsigma = gp.predict_with_gradient(U)
            mu_n = (mu - mean) / std
            sigma_n = sigma / std
            dmu_n, dsigma_n = dmu / std, dsigma / std
            vals = np.empty(len(rows))
            grads = np.empty_like(U)
            for r, i in enumerate(rows):
                val, grad = acqs[i].value_and_gradient(
                    mu_n[r], sigma_n[r], dmu_n[r], dsigma_n[r], f_best)
                vals[r] = -val
                grads[r] = -grad
            return vals, grads

        with self._tracer.timer("bo.refine"):
            res = minimize(neg_utils_and_grads, starts,
                           [(0.0, 1.0)] * starts.shape[1], maxiter=25)
        self._tracer.count("bo.refine.evals", res.nfev)
        better = res.fun < -start_utils
        return np.where(better[:, None], res.x, starts), -res.fun
