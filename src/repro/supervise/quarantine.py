"""Poison-config quarantine: strike counting and exclusion.

A configuration that repeatedly kills or times out its worker is almost
certainly *causing* the failure (an OOM-ing memory split, a partition
count that wedges the shuffle).  After ``after`` strikes the config is
quarantined: the engine stops re-proposing it and the memo buffer
refuses to resurface it (``ConfigMemoizationBuffer.block``).

Keys are the snapped unit-cube vectors' raw bytes — the same identity
the proposal dedupe uses — so a quarantined point is exactly the point
the engine would otherwise re-draw.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PoisonQuarantine", "vector_key"]


def vector_key(u: np.ndarray) -> bytes:
    """Stable identity for a unit-cube vector (exact bytes, no rounding)."""
    return np.ascontiguousarray(np.asarray(u, dtype=float)).tobytes()


class PoisonQuarantine:
    """Count strikes per config key; quarantine at the cap.

    Parameters
    ----------
    after:
        Strikes (worker kills or deadline hits) before a key is
        quarantined.  Must be >= 1.
    """

    def __init__(self, after: int = 3):
        if after < 1:
            raise ValueError("quarantine threshold must be >= 1")
        self.after = int(after)
        self._strikes: dict[bytes, int] = {}
        self._quarantined: set[bytes] = set()

    def strike(self, key: bytes) -> bool:
        """Record one failure for *key*; True if it is now quarantined."""
        n = self._strikes.get(key, 0) + 1
        self._strikes[key] = n
        if n >= self.after:
            self._quarantined.add(key)
            return True
        return False

    def strikes(self, key: bytes) -> int:
        return self._strikes.get(key, 0)

    @property
    def quarantined(self) -> list[bytes]:
        """Keys currently quarantined (insertion order not guaranteed)."""
        return sorted(self._quarantined)

    def __len__(self) -> int:
        return len(self._quarantined)
