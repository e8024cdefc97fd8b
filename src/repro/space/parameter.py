"""Typed configuration parameters.

A :class:`Parameter` maps between three representations of one tunable knob:

* the *native* value (e.g. ``4`` executor cores, ``True``, ``"lz4"``),
* the *unit* value, a float in ``[0, 1]`` used by samplers and by the
  Bayesian-optimization engine, and
* the *string* value written into a Spark-style configuration file.

The unit representation is what makes Latin Hypercube Sampling, Gaussian
process modelling and genetic search dimension-agnostic: every parameter is
a coordinate of the unit hypercube regardless of its native type.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Any, Sequence

import numpy as np

__all__ = [
    "Parameter",
    "FloatParameter",
    "IntParameter",
    "BoolParameter",
    "CategoricalParameter",
    "SizeParameter",
    "TimeParameter",
]


def _clip_unit(u: float) -> float:
    """Clamp a unit-cube coordinate into the closed interval [0, 1]."""
    if u < 0.0:
        return 0.0
    if u > 1.0:
        return 1.0
    return float(u)


class Parameter(ABC):
    """One tunable configuration knob.

    Parameters
    ----------
    name:
        Fully-qualified parameter name, e.g. ``"spark.executor.cores"``.
    default:
        Native default value (the value Spark would use if untuned).
    group:
        Optional collinearity-group label.  Parameters sharing a group are
        permuted together during Mean-Decrease-in-Accuracy importance
        calculation and form a *joint parameter* (paper §3.3/§4).
    doc:
        One-line human description.
    """

    def __init__(self, name: str, default: Any, *, group: str | None = None,
                 doc: str = "") -> None:
        if not name:
            raise ValueError("parameter name must be non-empty")
        self.name = name
        self.default = default
        self.group = group
        self.doc = doc

    # -- unit-cube mapping -------------------------------------------------
    @abstractmethod
    def from_unit(self, u: float) -> Any:
        """Map a unit-cube coordinate in [0, 1] to a native value."""

    @abstractmethod
    def to_unit(self, value: Any) -> float:
        """Map a native value to a unit-cube coordinate in [0, 1]."""

    # -- validation / formatting -------------------------------------------
    @abstractmethod
    def validate(self, value: Any) -> bool:
        """Return True iff *value* is a legal native value."""

    def format(self, value: Any) -> str:
        """Render a native value as the string written to a config file."""
        return str(value)


    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r}, default={self.default!r})"


class FloatParameter(Parameter):
    """A continuous parameter on ``[low, high]``, optionally log-scaled."""

    def __init__(self, name: str, low: float, high: float, default: float,
                 *, log: bool = False, group: str | None = None, doc: str = "") -> None:
        if not (low < high):
            raise ValueError(f"{name}: need low < high, got [{low}, {high}]")
        if log and low <= 0:
            raise ValueError(f"{name}: log scale requires low > 0")
        super().__init__(name, default, group=group, doc=doc)
        self.low = float(low)
        self.high = float(high)
        self.log = log
        if not self.validate(default):
            raise ValueError(f"{name}: default {default} outside [{low}, {high}]")

    def from_unit(self, u: float) -> float:
        u = _clip_unit(u)
        if self.log:
            v = float(math.exp(math.log(self.low)
                               + u * (math.log(self.high) - math.log(self.low))))
        else:
            v = self.low + u * (self.high - self.low)
        # Guard against float round-off pushing v a ulp past the bounds.
        return min(max(v, self.low), self.high)

    def to_unit(self, value: Any) -> float:
        v = float(value)
        if self.log:
            return _clip_unit((math.log(v) - math.log(self.low))
                              / (math.log(self.high) - math.log(self.low)))
        return _clip_unit((v - self.low) / (self.high - self.low))

    def validate(self, value: Any) -> bool:
        try:
            v = float(value)
        except (TypeError, ValueError):
            return False
        return self.low <= v <= self.high

    def format(self, value: Any) -> str:
        return f"{float(value):g}"


class IntParameter(Parameter):
    """An integer parameter on ``[low, high]`` inclusive, optionally log-scaled."""

    def __init__(self, name: str, low: int, high: int, default: int,
                 *, log: bool = False, group: str | None = None, doc: str = "") -> None:
        if not (low < high):
            raise ValueError(f"{name}: need low < high, got [{low}, {high}]")
        if log and low <= 0:
            raise ValueError(f"{name}: log scale requires low > 0")
        super().__init__(name, default, group=group, doc=doc)
        self.low = int(low)
        self.high = int(high)
        self.log = log
        if not self.validate(default):
            raise ValueError(f"{name}: default {default} outside [{low}, {high}]")

    def from_unit(self, u: float) -> int:
        u = _clip_unit(u)
        if self.log:
            lo, hi = math.log(self.low), math.log(self.high + 1)
            v = int(math.floor(math.exp(lo + u * (hi - lo))))
        else:
            # Partition [0,1] into equal-width cells, one per integer.
            v = self.low + int(math.floor(u * (self.high - self.low + 1)))
        return min(max(v, self.low), self.high)

    def to_unit(self, value: Any) -> float:
        v = int(value)
        if self.log:
            lo, hi = math.log(self.low), math.log(self.high + 1)
            return _clip_unit((math.log(v + 0.5) - lo) / (hi - lo))
        # Centre of this integer's cell.
        return _clip_unit((v - self.low + 0.5) / (self.high - self.low + 1))

    def validate(self, value: Any) -> bool:
        try:
            v = int(value)
        except (TypeError, ValueError):
            return False
        return self.low <= v <= self.high and v == value



class BoolParameter(Parameter):
    """A boolean flag."""

    def __init__(self, name: str, default: bool, *, group: str | None = None,
                 doc: str = "") -> None:
        super().__init__(name, bool(default), group=group, doc=doc)

    def from_unit(self, u: float) -> bool:
        return _clip_unit(u) >= 0.5

    def to_unit(self, value: Any) -> float:
        return 0.75 if bool(value) else 0.25

    def validate(self, value: Any) -> bool:
        return isinstance(value, (bool, np.bool_))

    def format(self, value: Any) -> str:
        return "true" if value else "false"



class CategoricalParameter(Parameter):
    """A parameter drawn from an ordered set of choices.

    The choices are mapped to equal-width cells of the unit interval in the
    order given, so samplers treat the parameter as an ordinal axis.
    """

    def __init__(self, name: str, choices: Sequence[Any], default: Any,
                 *, group: str | None = None, doc: str = "") -> None:
        choices = list(choices)
        if len(choices) < 2:
            raise ValueError(f"{name}: need at least two choices")
        if len(set(map(str, choices))) != len(choices):
            raise ValueError(f"{name}: duplicate choices")
        if default not in choices:
            raise ValueError(f"{name}: default {default!r} not among choices")
        super().__init__(name, default, group=group, doc=doc)
        self.choices = choices

    def from_unit(self, u: float) -> Any:
        u = _clip_unit(u)
        idx = min(int(math.floor(u * len(self.choices))), len(self.choices) - 1)
        return self.choices[idx]

    def to_unit(self, value: Any) -> float:
        idx = self.choices.index(value)
        return _clip_unit((idx + 0.5) / len(self.choices))

    def validate(self, value: Any) -> bool:
        return value in self.choices



class SizeParameter(IntParameter):
    """An integer byte-quantity parameter expressed in a fixed unit.

    Spark sizes such as ``spark.executor.memory`` are strings like ``"4g"``;
    natively we store the integer count in ``unit`` (one of ``"k"``, ``"m"``,
    ``"g"``).  Sizes are log-scaled by default because their useful dynamic
    range spans orders of magnitude.
    """

    _SUFFIX = {"k": "k", "m": "m", "g": "g"}

    def __init__(self, name: str, low: int, high: int, default: int,
                 *, unit: str = "m", log: bool = True,
                 group: str | None = None, doc: str = "") -> None:
        if unit not in self._SUFFIX:
            raise ValueError(f"{name}: unsupported size unit {unit!r}")
        super().__init__(name, low, high, default, log=log, group=group, doc=doc)
        self.unit = unit

    def format(self, value: Any) -> str:
        return f"{int(value)}{self._SUFFIX[self.unit]}"


class TimeParameter(IntParameter):
    """An integer duration parameter expressed in a fixed unit (``s``/``ms``)."""

    def __init__(self, name: str, low: int, high: int, default: int,
                 *, unit: str = "s", log: bool = False,
                 group: str | None = None, doc: str = "") -> None:
        if unit not in ("s", "ms"):
            raise ValueError(f"{name}: unsupported time unit {unit!r}")
        super().__init__(name, low, high, default, log=log, group=group, doc=doc)
        self.unit = unit

    def format(self, value: Any) -> str:
        return f"{int(value)}{self.unit}"
