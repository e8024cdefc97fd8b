"""Session clocks that read in seconds of a reference machine speed.

On a shared 2-vCPU virtual machine the same work runs at a speed that
drifts by a quarter or more within seconds, as neighbours come and go,
and the hypervisor now and then takes a fifth of the machine away
(steal).  Identical sessions took between 5.3 and 9.5 s in runs minutes
apart, with CPU time tracking wall time, so no statistic over a run's
sessions could hold a 0.25 bound.  The benchmark therefore times a
fixed reference kernel, which runs no ``repro`` code, inside every
objective call, all in thread CPU time, which steal does not inflate.
Each stretch of CPU time between calls is divided by the kernel time
measured next to it, so it reads as the time it would have taken on a
core where the kernel takes :data:`NOMINAL_S`; the kernel's own time is
left out.  What a session spends not running (poll sleeps, I/O) is its
wall time less its CPU time and less the machine's steal, unscaled.
"""

from __future__ import annotations

import os
import time
from typing import Sequence

import numpy as np

__all__ = ["NOMINAL_S", "reference_s", "reference_block", "ClockedObjective",
           "scaled_calls", "steal_s"]

#: kernel time at the reference speed: about a calm 2 GHz Xeon vCPU's.
NOMINAL_S = 2.0e-3
#: kernel times are smoothed over this many neighbouring calls, so that
#: one interrupted kernel run does not rescale its stretch alone.
SMOOTHING = 5
_CLK_TCK = os.sysconf("SC_CLK_TCK")

_SPD = np.random.default_rng(0).standard_normal((40, 40))
_SPD = _SPD @ _SPD.T + 40 * np.eye(40)


def reference_s() -> float:
    """Thread CPU time of the fixed kernel: a pure-Python loop and small
    NumPy factorizations, the tuner's own mix of work."""
    t0 = time.thread_time()
    x = 0
    for i in range(20_000):
        x += i * i
    for _ in range(30):
        np.linalg.solve(np.linalg.cholesky(_SPD), _SPD[0])
    return time.thread_time() - t0


def reference_block(reps: int = 5) -> float:
    """Median of *reps* kernel runs, for speed between sessions."""
    return sorted(reference_s() for _ in range(reps))[reps // 2]


class ClockedObjective:
    """Transparent objective wrapper logging, in the calling thread's
    CPU time, ``(start, end, kernel_s, evaluation)`` per call.

    Each call first times the reference kernel, then evaluates.  Views
    re-bound to the selected subspace share the log, so it holds the
    whole evaluation stream in order: the gap before each BO evaluation
    is the tuner's think time, which a real cluster would spend idle.
    """

    def __init__(self, objective, log: list) -> None:
        self._objective = objective
        self.log = log

    def with_space(self, space) -> "ClockedObjective":
        return ClockedObjective(self._objective.with_space(space), self.log)

    def __getattr__(self, name: str):
        return getattr(self.__dict__["_objective"], name)

    def __call__(self, u, time_limit_s=None):
        start = time.thread_time()
        kernel = reference_s()
        ev = self._objective(u, time_limit_s)
        self.log.append((start, time.thread_time(), kernel, ev))
        return ev


def smoothed(values: Sequence[float], width: int = SMOOTHING) -> list[float]:
    """Centred running median over *width* neighbours."""
    half = width // 2
    out = []
    for k in range(len(values)):
        window = sorted(values[max(0, k - half):k + half + 1])
        out.append(window[len(window) // 2])
    return out


def scaled_calls(log: Sequence[Sequence], nominal: float = NOMINAL_S
                 ) -> tuple[float, list[float]]:
    """Speed factor and think times of a clocked session.

    *log* holds ``(start, end, kernel_s, ...)`` per objective call, in
    one thread's CPU time.  Each stretch from one call's start to the
    next's is divided by the (smoothed) kernel time of the call it leads
    to.  Returns the factor that turns this span's CPU time, kernels
    left out, into time at the reference speed, and the scaled gap
    before each call after the first.
    """
    if len(log) < 2:
        raise ValueError("a clocked session needs at least two calls")
    kernels = smoothed([entry[2] for entry in log])
    scaled = raw = 0.0
    gaps = []
    for k in range(1, len(log)):
        (_, prev_end, _, *_), (start, end, kernel, *_) = log[k - 1], log[k]
        scale = nominal / kernels[k]
        gaps.append((start - prev_end) * scale)
        scaled += gaps[-1] + (end - start - kernel) * scale
        raw += end - prev_end - kernel
    return scaled / raw, gaps


def steal_s() -> float:
    """Seconds the hypervisor has withheld from this machine's CPUs."""
    with open("/proc/stat", encoding="ascii") as fh:
        return int(fh.readline().split()[8]) / _CLK_TCK

