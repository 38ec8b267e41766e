"""Observation and simulation time grids, and the shared Gauss-Legendre
nodes."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigError

# Half-ulp style guard so that t = T maps to index n despite rounding in T/n.
FLOOR_GUARD = 2.0 ** -40


@dataclass(frozen=True)
class TimeGrid:
    """Coarse observation grid of ``n`` steps on [0, T] with an ``m``-fold
    finer simulation sub-grid.

    Coarse nodes are ``k * coarse_step`` for k in 0..n, fine nodes are
    ``j * fine_step`` for j in 0..n*m; every coarse node is a fine node.
    """

    horizon: float
    coarse_count: int
    refine_factor: int

    @property
    def coarse_step(self) -> float:
        return self.horizon / self.coarse_count

    @property
    def fine_step(self) -> float:
        return self.coarse_step / self.refine_factor

    @property
    def fine_count(self) -> int:
        return self.coarse_count * self.refine_factor

    @cached_property
    def coarse_times(self) -> np.ndarray:
        return np.arange(self.coarse_count + 1) * self.coarse_step

    @cached_property
    def fine_times(self) -> np.ndarray:
        return np.arange(self.fine_count + 1) * self.fine_step

    def coarse_index(self, t: float) -> int:
        """Largest k with k * coarse_step <= t, guarded so t = T gives n."""
        return self._index(t, self.coarse_step, self.coarse_count)

    def fine_index(self, t: float) -> int:
        return self._index(t, self.fine_step, self.fine_count)

    def _index(self, t: float, step: float, count: int) -> int:
        if not 0 <= t <= self.horizon * (1 + FLOOR_GUARD):
            raise ConfigError(f"time {t} outside [0, {self.horizon}]")
        return min(int(np.floor(t / step + FLOOR_GUARD)), count)


def build_grid(horizon: float, n: int, m: int = 1) -> TimeGrid:
    """Construct a :class:`TimeGrid` with ``n`` coarse steps over
    ``[0, horizon]`` and ``m`` fine sub-steps per coarse step."""
    if not 0 < horizon < math.inf:
        raise ConfigError(f"horizon must be finite and > 0, got {horizon}")
    if not 1 <= n < math.inf or int(n) != n:
        raise ConfigError(f"coarse count must be an integer >= 1, got {n}")
    if not 1 <= m < math.inf or int(m) != m:
        raise ConfigError(f"refine factor must be an integer >= 1, got {m}")
    return TimeGrid(float(horizon), int(n), int(m))


def _read_only(pair):
    for a in pair:
        a.setflags(write=False)
    return pair


@lru_cache(maxsize=16)
def gauss_legendre(order: int, unit: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], or on [0, 1] with
    ``unit``. Cached and shared, hence read-only."""
    y, w = np.polynomial.legendre.leggauss(order)
    return _read_only((0.5 * (y + 1.0), 0.5 * w) if unit else (y, w))
