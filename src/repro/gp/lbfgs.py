"""Box-constrained L-BFGS that steps several starts in lockstep.

The paper fits the GP's hyperparameters and polishes each acquisition's
nominee with L-BFGS-B (§3.4, §4).  Both are multi-start: the likelihood
from the incumbent and a few uniform draws, the polish from one sweep
winner per acquisition.  :func:`minimize` runs all of a call's starts at
once.  Each round makes one batched value-and-gradient call for the
starts still running, so the per-point work of the objective (one
stacked covariance build, one ``(k, d)`` posterior) is shared.

The method is projected L-BFGS on a box:

* the direction is the two-loop recursion over the free variables (those
  not held at a bound by their gradient), with the last
  :data:`HISTORY` curvature pairs;
* a line search follows the projected path ``clip(x + a d, lo, hi)``,
  so every iterate stays in the box.  From ``a = 1`` it backtracks
  (safeguarded quadratic steps) until the Armijo condition holds; a
  step that holds it while the slope along it is still steep (the
  curvature condition fails) is extended 4x at a time, and the best
  such point is taken;
* a start stops when its projected gradient's ∞-norm is at most
  :data:`PGTOL`, when an accepted step decreases its value by a relative
  :data:`FTOL` or less, or when it has made ``maxiter`` steps.  These are
  scipy's L-BFGS-B defaults.

Each start keeps its own state and steps in plain Python floats: its
vectors have a handful of entries (the tuning space's dimension, or the
kernel's few hyperparameters), where one NumPy call costs more than the
arithmetic it would batch.  So starts are independent: no start's
arithmetic reads another start's state, and given the same evaluation
values a start ends with the same bits whether it runs alone or beside
others.  A start that meets a stopping rule leaves the batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import Callable

import numpy as np

__all__ = ["LBFGSResult", "minimize"]

#: Curvature pairs kept per start (scipy's ``maxcor``).
HISTORY = 10
#: Stop when the projected gradient's ∞-norm is at most this (``pgtol``).
PGTOL = 1e-5
#: Stop when ``(f_k - f_k+1) / max(|f_k|, |f_k+1|, 1)`` is at most this
#: (scipy's ``factr * eps``).
FTOL = 1e7 * float(np.finfo(float).eps)
#: Armijo sufficient-decrease and curvature constants (scipy's).
_C1, _C2 = 1e-4, 0.9
#: Trial points one line search may make before it gives up.
_MAX_TRIALS = 20
_EPS = float(np.finfo(float).eps)

Objective = Callable[[np.ndarray, np.ndarray],
                     tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class LBFGSResult:
    """Where each start ended.

    ``x`` is ``(k, d)`` and ``fun`` ``(k,)``: each start's last accepted
    point and its value.  ``nfev`` counts point evaluations, summed over
    the starts; ``nit`` holds each start's accepted steps.
    """

    x: np.ndarray
    fun: np.ndarray
    nfev: int
    nit: np.ndarray


def minimize(fun: Objective, x0: np.ndarray, bounds, *,
             maxiter: int) -> LBFGSResult:
    """Minimize *fun* from every row of *x0* inside *bounds*.

    ``fun(X, rows)`` gets the live starts' points ``X`` (``(r, d)``) and
    their start indices ``rows`` (ascending), and returns their values
    ``(r,)`` and gradients ``(r, d)``.  *bounds* is ``(d, 2)``: a lower
    and an upper bound per variable.  A start whose value or gradient
    is not finite at its first point stops there.
    """
    box = np.asarray(bounds, dtype=float)
    lo, hi = box[:, 0].tolist(), box[:, 1].tolist()
    starts = [_Start(row, lo, hi, maxiter)
              for row in np.array(x0, dtype=float, ndmin=2).tolist()]
    live = list(range(len(starts)))
    nfev = 0
    while live:
        values, grads = fun(np.array([starts[i].trial for i in live]),
                            np.array(live))
        nfev += len(live)
        values = np.asarray(values, dtype=float).reshape(len(live)).tolist()
        grads = np.asarray(grads, dtype=float).reshape(
            len(live), len(lo)).tolist()
        live = [i for i, v, g in zip(live, values, grads)
                if starts[i].advance(v, g)]
    return LBFGSResult(x=np.array([s.x for s in starts]),
                       fun=np.array([s.f for s in starts]),
                       nfev=nfev, nit=np.array([s.nit for s in starts]))


def _dot(a: list[float], b: list[float]) -> float:
    return sum(map(mul, a, b))


def _clip(v: float, lo: float, hi: float) -> float:
    """*v* clipped into ``[lo, hi]`` (NaN stays NaN)."""
    return lo if v < lo else hi if v > hi else v


class _Start:
    """One start's iterate, curvature pairs and line search."""

    __slots__ = ("lo", "hi", "maxiter", "x", "f", "g", "nit", "pairs",
                 "gamma", "step", "slope", "alpha", "trials", "trial",
                 "best")

    def __init__(self, x: list[float], lo: list[float], hi: list[float],
                 maxiter: int):
        self.lo, self.hi, self.maxiter = lo, hi, maxiter
        self.x = self.trial = [_clip(v, a, b) for v, a, b in zip(x, lo, hi)]
        self.f = math.nan
        self.g: list[float] = []
        self.nit = 0
        #: ``(s, y, 1 / s·y)`` curvature pairs, oldest first.
        self.pairs: list[tuple[list[float], list[float], float]] = []
        self.gamma = 1.0
        self.step: list[float] = []
        self.slope = self.alpha = 0.0
        self.trials = 0
        #: The line search's best sufficient-decrease point so far.
        self.best: tuple[list[float], float, list[float]] | None = None

    def advance(self, ft: float, gt: list[float]) -> bool:
        """Take the value and gradient at the trial point; returns
        whether the start goes on (its next trial is ``self.trial``)."""
        finite = math.isfinite(ft) and all(map(math.isfinite, gt))
        if not self.g:  # the starting point
            self.f, self.g = ft, gt
            if not finite or self.maxiter <= 0 or self._pg_norm() <= PGTOL:
                return False
            self._search()
            return True
        s = [t - v for t, v in zip(self.trial, self.x)]
        gs = _dot(self.g, s)
        if (finite and ft <= self.f + _C1 * gs
                and (self.best is None or ft <= self.best[1])):
            self.best = (self.trial, ft, gt)
            self.trials += 1
            if _dot(gt, s) < _C2 * gs and self.trials < _MAX_TRIALS:
                # Still steep along the step: try 4x further.
                self.alpha *= 4.0
                trial = self._project(self.alpha)
                if trial != self.trial:
                    self.trial = trial
                    return True
        if self.best is not None:
            return self._accept(*self.best)
        self.trials += 1
        if self.trials >= _MAX_TRIALS:
            # A line search that fails from a quasi-Newton direction
            # restarts from steepest descent; one that fails from
            # steepest descent ends the start.
            if not self.pairs:
                return False
            self.pairs, self.gamma = [], 1.0
            self._search()
            return True
        # Backtrack by a safeguarded quadratic step.
        a = self.alpha
        drop = ft - self.f - self.slope * a
        if drop > 0:
            a = _clip(-self.slope * a * a / (2.0 * drop), 0.1 * a, 0.5 * a)
        else:
            a = 0.1 * a
        self.alpha = a
        self.trial = self._project(a)
        return True

    def _accept(self, xt: list[float], ft: float, gt: list[float]) -> bool:
        """Move to the line search's point; returns whether the start
        goes on."""
        s = [t - v for t, v in zip(xt, self.x)]
        y = [a - b for a, b in zip(gt, self.g)]
        sy, yy = _dot(s, y), _dot(y, y)
        if sy > _EPS * yy:
            self.pairs = (self.pairs + [(s, y, 1.0 / sy)])[-HISTORY:]
            self.gamma = sy / yy
        f_old = self.f
        self.x, self.f, self.g = xt, ft, gt
        self.nit += 1
        if (self._pg_norm() <= PGTOL
                or f_old - ft <= FTOL * max(abs(f_old), abs(ft), 1.0)
                or self.nit >= self.maxiter):
            return False
        self._search()
        return True

    def _project(self, a: float) -> list[float]:
        """The point ``a`` along the search direction, clipped into the
        box."""
        return [_clip(v + a * d, lo, hi)
                for v, d, lo, hi in zip(self.x, self.step, self.lo, self.hi)]

    def _pg_norm(self) -> float:
        """∞-norm of the projected gradient ``x - clip(x - g)``."""
        return max([abs(_clip(v - g, lo, hi) - v)
                    for v, g, lo, hi in zip(self.x, self.g, self.lo,
                                            self.hi)])

    def _search(self) -> None:
        """New direction and a full first step from the current point.

        The two-loop recursion runs over the free variables: a variable
        at a bound whose gradient pushes it outward is held, and a pair
        without positive curvature on the free ones is skipped.  A
        direction that is not downhill once held variables are kept from
        moving outward falls back to steepest descent over the free
        variables.
        """
        x, g, lo, hi = self.x, self.g, self.lo, self.hi
        free = [not ((v <= a and gv > 0) or (v >= b and gv < 0))
                for v, gv, a, b in zip(x, g, lo, hi)]
        pairs = self.pairs
        if all(free):
            q = list(g)
        else:
            q = [gv if keep else 0.0 for gv, keep in zip(g, free)]
            pairs = []
            for s, y, _ in self.pairs:
                s = [v if keep else 0.0 for v, keep in zip(s, free)]
                y = [v if keep else 0.0 for v, keep in zip(y, free)]
                sy = _dot(s, y)
                if sy > _EPS * _dot(y, y):
                    pairs.append((s, y, 1.0 / sy))
        alphas = []
        for s, y, rho in reversed(pairs):
            a = rho * _dot(s, q)
            q = [v - a * w for v, w in zip(q, y)]
            alphas.append(a)
        q = [self.gamma * v for v in q]
        for (s, y, rho), a in zip(pairs, reversed(alphas)):
            b = rho * _dot(y, q)
            q = [v + (a - b) * w for v, w in zip(q, s)]
        d = [0.0 if (v <= a and r > 0) or (v >= b and r < 0) else -r
             for v, r, a, b in zip(x, q, lo, hi)]
        slope = _dot(g, d)
        if not slope < 0:
            d = [-gv if keep else 0.0 for gv, keep in zip(g, free)]
            slope = _dot(g, d)
        self.step, self.slope, self.alpha, self.trials = d, slope, 1.0, 0
        self.best = None
        self.trial = self._project(1.0)
