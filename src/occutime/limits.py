"""Realizations of the weak-limit variables and the optimal-variance floor.

The limiting error of the coarse-grid quadrature at time t is mixed normal:
a bias term from the path endpoints plus a Gaussian integral against an
auxiliary Brownian motion, with conditional variance one twelfth of the
time integral of |sigma^T grad f(Y)|^2 over [0, t], Y = X + xi the observed
path. The same integral averaged over paths is the square of the minimal
asymptotic root-mean-square constant. ``gradient_energy`` is the one
implementation of that integral: the limit realizations, the clt
standardization and the efficiency floor all read it. Every study reports
its Monte Carlo means with ``mean_se`` or ``root_mean_se``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import _time_sum
from .functions import TestFunction, fn_gradient, fn_value
from .processes import PathBundle, STREAM_LIMIT, _path_streams

INV_SQRT12 = 1.0 / np.sqrt(12.0)


@dataclass(frozen=True)
class LimitSample:
    bias_part: np.ndarray
    mixed_gaussian_part: np.ndarray
    conditional_variance: np.ndarray

    @property
    def total(self) -> np.ndarray:
        return self.bias_part + self.mixed_gaussian_part


def _sigma_transpose_grad(bundle: PathBundle, grad: np.ndarray) -> np.ndarray:
    """sigma_t^T grad f(Y_t) along all paths, shape (paths, nodes, d)."""
    if bundle.sigma is None:         # Brownian motion: sigma is the identity
        return grad
    if bundle.sigma.ndim == 3:       # deterministic, shared across paths
        return np.einsum("jab,ija->ijb", bundle.sigma, grad)
    return bundle.sigma[:, :, None] * grad    # scalar stochastic volatility


def gradient_energy(bundle: PathBundle, grad: np.ndarray,
                    t: float | None = None) -> np.ndarray:
    """Per-path (1/12) int_0^t |sigma_r^T grad f(Y_r)|^2 dr as the left-point
    fine sum, from ``grad`` = grad f(Y) at the fine nodes (paths, nodes, d).

    It is the conditional variance of the limit of the trapezoidal error at
    t (exactly that of ``simulate_limit``'s left-point Ito sum) and, averaged
    over paths, the square of the efficiency floor.
    """
    return _energy_sum(bundle.grid, _sigma_transpose_grad(bundle, grad), t)


def _energy_sum(grid, stg: np.ndarray, t: float | None = None) -> np.ndarray:
    """(1/12) times the left-point fine sum of |stg|^2 up to t per path,
    from stg = sigma^T grad f(Y) at the fine nodes."""
    j = grid.fine_index(grid.horizon if t is None else t)
    return _time_sum(np.sum(stg ** 2, axis=2), j, grid.fine_step, False,
                     "gradient_energy") / 12.0


def simulate_limit(f: TestFunction, bundle: PathBundle) -> LimitSample:
    """Realize the limit variable along every path of the bundle.

    The stochastic integral is discretized with left-point Ito sums at the
    fine grid, against a fresh auxiliary Brownian motion per path whose
    stream is derived from (master_seed, path index, limit tag).
    """
    dt = bundle.grid.fine_step
    y = bundle.observed()
    stg = _sigma_transpose_grad(bundle, fn_gradient(f, y))
    left = stg[:, :-1]                                    # left endpoints
    ends = fn_value(f, y[:, [0, -1], :])
    streams = _path_streams(bundle.master_seed, bundle.path_indices(),
                            STREAM_LIMIT)
    ito = np.array([np.sum(row * rng.standard_normal(row.shape))
                    for row, rng in zip(left, streams)])
    return LimitSample(0.5 * (ends[:, 1] - ends[:, 0]).real,
                       INV_SQRT12 * np.sqrt(dt) * ito,
                       _energy_sum(bundle.grid, stg))


def mean_se(x: np.ndarray) -> tuple[float, float]:
    """Sample mean of ``x`` and its standard error (0 for one sample)."""
    count = len(x)
    se = float(x.std(ddof=1) / np.sqrt(count)) if count > 1 else 0.0
    return float(x.mean()), se


def root_mean_se(x: np.ndarray) -> tuple[float, float]:
    """Square root of the mean of ``x`` >= 0 and its delta-method s.e."""
    mean, se = mean_se(x)
    root = float(np.sqrt(mean))
    return root, (se / (2.0 * root) if root > 0 else se)


@dataclass(frozen=True)
class LowerBound:
    value: float
    stderr: float


def lower_bound_constant(f: TestFunction, bundle: PathBundle) -> LowerBound:
    """Monte Carlo estimate of E[(1/12) int_0^T |sigma^T grad f(Y_t)|^2 dt]^(1/2),
    the minimal asymptotic L^2 constant over coarse-grid estimators, with
    its delta-method standard error."""
    return LowerBound(*root_mean_se(
        gradient_energy(bundle, fn_gradient(f, bundle.observed()))))
