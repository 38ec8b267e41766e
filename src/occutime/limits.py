"""The conditional variance of the weak limit and the optimal-variance floor.

The limiting error of the coarse-grid quadrature at time t is mixed normal:
a bias term from the path endpoints plus a Gaussian integral against an
auxiliary Brownian motion, with conditional variance one twelfth of the
time integral of |sigma^T grad f(Y)|^2 over [0, t], Y the observed path
``PathBundle.x``. The same integral averaged over paths is the square of
the minimal asymptotic root-mean-square constant. ``gradient_energy`` is
the one implementation of that integral: the clt standardization and the
efficiency floor both read it. Every study reports its Monte Carlo means
with ``mean_se`` or ``root_mean_se``.
"""

from __future__ import annotations

import numpy as np

from .estimators import _time_sum
from .processes import PathBundle


def _sigma_transpose_grad(bundle: PathBundle, grad: np.ndarray,
                          out=None) -> np.ndarray:
    """sigma_t^T grad f(Y_t) along all paths, shape (paths, nodes, d): grad
    itself for Brownian motion, in ``out`` (or a new array) for scalar
    stochastic volatility, in a new array for a matrix sigma."""
    if bundle.sigma is None:         # Brownian motion: sigma is the identity
        return grad
    if bundle.sigma.ndim == 3:       # deterministic, shared across paths
        return np.einsum("jab,ija->ijb", bundle.sigma, grad)
    return np.multiply(bundle.sigma[:, :, None], grad, out=out)   # scalar SV


def gradient_energy(bundle: PathBundle, grad: np.ndarray,
                    t: float | None = None, out=None) -> np.ndarray:
    """Per-path (1/12) int_0^t |sigma_r^T grad f(Y_r)|^2 dr as the left-point
    fine sum, from ``grad`` = grad f(Y) at the fine nodes (paths, nodes, d).
    ``out``, an array of the shape of ``grad`` (``grad`` itself, say), takes
    |sigma^T grad f|^2 on the way instead of a new array; ``grad`` is left
    as it is unless it is ``out``.

    It is the conditional variance of the limit of the trapezoidal error at
    t and, averaged over paths, the square of the efficiency floor.
    """
    grid = bundle.grid
    stg = np.square(_sigma_transpose_grad(bundle, grad, out), out=out)
    j = grid.fine_index(grid.horizon if t is None else t)
    energy = stg[:, :, 0] if stg.shape[2] == 1 else np.sum(stg, axis=2)
    return _time_sum(energy, j, grid.fine_step, False, "gradient_energy") / 12.0


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
