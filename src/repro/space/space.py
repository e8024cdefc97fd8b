"""Configuration space: an ordered collection of typed parameters.

A :class:`ConfigSpace` is the bridge between numeric optimizers (which see
the unit hypercube :math:`[0,1]^n`) and the system under tuning (which sees
native configuration dictionaries).  It also supports *subspacing*: after
parameter selection reduces the dimensionality, tuning proceeds over the
selected parameters while every unselected parameter is pinned to a base
value (paper §3.1/§3.3).
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from .parameter import Parameter

__all__ = ["ConfigSpace", "Configuration"]

Configuration = dict[str, Any]


class ConfigSpace:
    """An ordered, named collection of :class:`Parameter` objects.

    Parameters
    ----------
    parameters:
        The tunable parameters, in a fixed order that defines the meaning
        of vector coordinates.
    frozen:
        Mapping of parameter name to pinned native value for parameters that
        are part of the full configuration but not tuned in this space.
    """

    def __init__(self, parameters: Sequence[Parameter],
                 frozen: Mapping[str, Any] | None = None) -> None:
        names = [p.name for p in parameters]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names in space")
        self._params: list[Parameter] = list(parameters)
        self._index: dict[str, int] = {p.name: i for i, p in enumerate(self._params)}
        self._frozen: Configuration = dict(frozen or {})
        overlap = set(self._frozen) & set(self._index)
        if overlap:
            raise ValueError(f"parameters both tunable and frozen: {sorted(overlap)}")

    # -- basic introspection -------------------------------------------------
    @property
    def dim(self) -> int:
        """Number of tunable dimensions."""
        return len(self._params)

    @property
    def parameters(self) -> list[Parameter]:
        return list(self._params)

    @property
    def names(self) -> list[str]:
        return [p.name for p in self._params]

    def __len__(self) -> int:
        return self.dim

    def __iter__(self) -> Iterator[Parameter]:
        return iter(self._params)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __getitem__(self, name: str) -> Parameter:
        return self._params[self._index[name]]

    def index_of(self, name: str) -> int:
        """Vector coordinate of the named parameter."""
        return self._index[name]

    # -- collinearity groups ---------------------------------------------------
    def groups(self) -> dict[str, list[int]]:
        """Map group label → member coordinate indices.

        Ungrouped parameters each form a singleton group labelled by their
        own name, so the result partitions all coordinates.  Used by the
        grouped-permutation (MDA) importance calculation.
        """
        out: dict[str, list[int]] = {}
        for i, p in enumerate(self._params):
            out.setdefault(p.group or p.name, []).append(i)
        return out

    # -- vector <-> configuration ------------------------------------------------
    def decode(self, u: np.ndarray) -> Configuration:
        """Map a unit-cube vector to a full native configuration.

        Includes frozen parameters; raises if the vector length mismatches.
        """
        u = np.asarray(u, dtype=float)
        if u.shape != (self.dim,):
            raise ValueError(f"expected vector of shape ({self.dim},), got {u.shape}")
        conf: Configuration = {p.name: p.from_unit(float(x))
                               for p, x in zip(self._params, u)}
        conf.update(self._frozen)
        return conf

    def encode(self, conf: Mapping[str, Any]) -> np.ndarray:
        """Map a native configuration to a unit-cube vector.

        Missing parameters fall back to their defaults; frozen and unknown
        keys are ignored.
        """
        u = np.empty(self.dim, dtype=float)
        for i, p in enumerate(self._params):
            value = conf.get(p.name, p.default)
            u[i] = p.to_unit(value)
        return u

    # -- validation and snapping ---------------------------------------------------
    def validate(self, conf: Mapping[str, Any]) -> list[str]:
        """Return the names of tunable parameters with illegal values."""
        bad = []
        for p in self._params:
            if p.name in conf and not p.validate(conf[p.name]):
                bad.append(p.name)
        return bad

    def snap(self, u: np.ndarray) -> np.ndarray:
        """Round a unit vector onto representable native values.

        Decoding then re-encoding collapses each coordinate onto the centre
        of its native value's cell, so that discrete parameters compare
        equal when their decoded values are equal.
        """
        return self.encode(self.decode(u))

    # -- sub-spacing -------------------------------------------------------------
    def subspace(self, selected: Sequence[str],
                 base: Mapping[str, Any] | None = None) -> "ConfigSpace":
        """Restrict tuning to *selected* parameters.

        Unselected tunable parameters are frozen at their value in *base*
        (default: their parameter default).  Existing frozen values carry
        over.  Order of *selected* determines new coordinate order.
        """
        unknown = [n for n in selected if n not in self._index]
        if unknown:
            raise KeyError(f"unknown parameters: {unknown}")
        if len(set(selected)) != len(selected):
            raise ValueError("duplicate names in selection")
        base = dict(base or {})
        params = [self[n] for n in selected]
        frozen = dict(self._frozen)
        chosen = set(selected)
        for p in self._params:
            if p.name not in chosen:
                frozen[p.name] = base.get(p.name, p.default)
        return ConfigSpace(params, frozen=frozen)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ConfigSpace(dim={self.dim}, "
                f"frozen={len(self._frozen)})")
