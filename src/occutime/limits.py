"""The conditional variance of the weak limit and the optimal-variance floor.

The limiting error of the coarse-grid quadrature at time t is mixed normal:
a bias term from the path endpoints plus a Gaussian integral against an
auxiliary Brownian motion, with conditional variance one twelfth of the
time integral of |sigma^T grad f(Y)|^2 over [0, t], Y = X + xi the observed
path. The same integral averaged over paths is the square of the minimal
asymptotic root-mean-square constant. ``gradient_energy`` is the one
implementation of that integral: the clt standardization and the
efficiency floor both read it. Every study reports its Monte Carlo means
with ``mean_se`` or ``root_mean_se``.
"""

from __future__ import annotations

import numpy as np

from .estimators import _time_sum
from .processes import PathBundle


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
    t and, averaged over paths, the square of the efficiency floor.
    """
    grid = bundle.grid
    stg = _sigma_transpose_grad(bundle, grad)
    j = grid.fine_index(grid.horizon if t is None else t)
    return _time_sum(np.sum(stg ** 2, axis=2), j, grid.fine_step, False,
                     "gradient_energy") / 12.0


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
