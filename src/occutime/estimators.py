"""Quadrature estimators of int_0^t f(X_r) dr from discrete observations.

All estimators consume only coarse-grid data; the fine-grid reference value
is the ground-truth surrogate. Time is the last sample axis, so every
function works on single paths and on ensembles alike.

The bridge (conditional-expectation) estimator needs a Brownian X. Its
space integral is the function family's closed-form Gaussian expectation,
which every registered family and every tensor product of them carries.
"""

from __future__ import annotations

import numpy as np

from .errors import CapabilityError, ConfigError
from .functions import TestFunction, gaussian_mean
from .grids import TimeGrid, gauss_legendre
from .processes import BrownianMotion

# Gauss-Legendre nodes in time per coarse interval of the bridge estimator
BRIDGE_TIME_NODES = 8


def _check_samples(values: np.ndarray, needed: int, what: str) -> None:
    if values.shape[-1] < needed:
        raise ConfigError(
            f"{what}: need at least {needed} samples along the last axis, "
            f"got {values.shape[-1]}")


def _time_sum(values, k: int, step: float, trapezoid: bool,
              what: str) -> np.ndarray:
    """Left-point or trapezoidal sum of the first ``k`` steps of size
    ``step`` along the last axis."""
    values = np.asarray(values)
    _check_samples(values, k + 1, what)
    if k == 0:
        return np.zeros(values.shape[:-1])
    if not trapezoid:
        return step * values[..., :k].sum(axis=-1)
    ends = 0.5 * (values[..., 0] + values[..., k])
    return step * (values[..., 1:k].sum(axis=-1) + ends)


def riemann_estimate(coarse_values: np.ndarray, grid: TimeGrid,
                     t: float | None = None) -> np.ndarray:
    """Left-endpoint sum: step * sum of f(X_{t_{k-1}}) for k = 1..floor(t/step)."""
    k = grid.coarse_index(grid.horizon if t is None else t)
    return _time_sum(coarse_values, k, grid.coarse_step, False,
                     "riemann_estimate")


def trapezoid_estimate(coarse_values: np.ndarray, grid: TimeGrid,
                       t: float | None = None) -> np.ndarray:
    """Average-of-endpoints sum; equals the Riemann sum plus the half-step
    boundary correction."""
    k = grid.coarse_index(grid.horizon if t is None else t)
    return _time_sum(coarse_values, k, grid.coarse_step, True,
                     "trapezoid_estimate")


def reference_value(fine_values: np.ndarray, grid: TimeGrid,
                    t: float | None = None) -> np.ndarray:
    """Fine-grid trapezoidal sum, the ground-truth surrogate for the
    continuous-time integral."""
    if grid.refine_factor < 2:
        raise ConfigError("reference value needs fine refinement m >= 2")
    j = grid.fine_index(grid.horizon if t is None else t)
    return _time_sum(fine_values, j, grid.fine_step, True, "reference_value")


def bridge_conditional_estimate(f: TestFunction, coarse_x: np.ndarray,
                                grid: TimeGrid, t: float | None = None,
                                spec=None) -> np.ndarray:
    """Conditional expectation estimator E[Gamma_t(f) | observations] for a
    Brownian X, realized by bridge quadrature.

    Per coarse interval the time integral uses Gauss-Legendre; the space
    integral against the bridge marginal N(linear interpolation,
    tau (1 - tau) step I) is the function's closed-form Gaussian
    expectation. ``coarse_x`` holds raw observations X_{t_k}, time on the
    last axis for d = 1, or shape (..., n + 1, d) for d >= 2.
    """
    if spec is not None and not isinstance(spec, BrownianMotion):
        raise CapabilityError(
            "bridge conditional estimator requires a Brownian specification; "
            f"got {type(spec).__name__}")
    t = grid.horizon if t is None else t
    coarse_x = np.asarray(coarse_x, float)
    k = grid.coarse_index(t)
    if f.dimension == 1:
        coarse_x = coarse_x[..., None]
    elif coarse_x.ndim < 2 or coarse_x.shape[-1] != f.dimension:
        raise ConfigError("coarse_x must have shape (..., n + 1, d)")
    _check_samples(coarse_x[..., 0], k + 1, "bridge_conditional_estimate")
    if k == 0:
        return np.zeros(coarse_x.shape[:-2])
    tau, tw = gauss_legendre(BRIDGE_TIME_NODES, unit=True)
    left = coarse_x[..., :k, None, :]
    step = coarse_x[..., 1:k + 1, None, :] - left
    mean = np.multiply(tau[:, None], step)          # (..., k, nodes, d)
    mean += left
    expect = gaussian_mean(f, mean[..., 0] if f.dimension == 1 else mean,
                           tau * (1.0 - tau) * grid.coarse_step)
    return grid.coarse_step * (expect @ tw).sum(axis=-1)
