"""Shared utilities: RNG plumbing and statistics helpers."""

from .rng import as_generator, spawn
from .stats import geometric_mean, percentile, summarize

__all__ = ["as_generator", "spawn", "geometric_mean", "percentile",
           "summarize"]
