"""Realizations of the weak-limit variables and the optimal-variance floor.

The limiting error of the coarse-grid quadrature is mixed normal: a bias
term from the path endpoints plus a Gaussian integral against an auxiliary
Brownian motion, with conditional variance one twelfth of the time integral
of |sigma^T grad f(X)|^2. The same integral averaged over paths gives the
minimal asymptotic root-mean-square constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError
from .functions import TestFunction, fn_gradient, fn_value
from .processes import PathBundle, STREAM_LIMIT, path_rng

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


def simulate_limit(f: TestFunction, bundle: PathBundle,
                   path_index: int | None = None,
                   seed_aux: int | None = None) -> LimitSample:
    """Realize the limit variable along bundle paths.

    The stochastic integral is discretized with left-point Ito sums at the
    fine grid, against a fresh auxiliary Brownian motion whose stream is
    derived from (master_seed, path index, limit tag) unless ``seed_aux``
    overrides it. With ``path_index`` given, a single path is used and
    scalars are returned; otherwise the whole ensemble is processed.
    """
    if f.gradient is None:
        raise CapabilityError(f"limit simulation needs a gradient; {f.name} has none")
    grid = bundle.grid
    dt = grid.fine_step
    paths = ([path_index] if path_index is not None
             else range(bundle.count))

    y = bundle.x + bundle.shifts[:, None, :]
    grad = fn_gradient(f, y)
    stg = _sigma_transpose_grad(bundle, grad)
    end_vals = fn_value(f, y[:, [0, -1], :])

    bias = np.empty(len(paths))
    mixed = np.empty(len(paths))
    condvar = np.empty(len(paths))
    for out_i, i in enumerate(paths):
        sg = stg[i, :-1]                         # left endpoints, (N, d)
        condvar[out_i] = dt * np.sum(sg ** 2) / 12.0
        if seed_aux is not None:
            rng = path_rng(seed_aux, i, STREAM_LIMIT)
        else:
            rng = path_rng(bundle.master_seed,
                           bundle.first_path_index + i, STREAM_LIMIT)
        z = rng.standard_normal(sg.shape)
        mixed[out_i] = INV_SQRT12 * np.sqrt(dt) * np.sum(sg * z)
        bias[out_i] = 0.5 * (end_vals[i, 1] - end_vals[i, 0]).real
    if path_index is not None:
        return LimitSample(bias[0], mixed[0], condvar[0])
    return LimitSample(bias, mixed, condvar)


def conditional_variances(f: TestFunction, bundle: PathBundle) -> np.ndarray:
    """Per-path (1/12) int_0^T |sigma^T grad f(X_r + xi)|^2 dr (fine Riemann)."""
    if f.gradient is None:
        raise CapabilityError(f"conditional variance needs a gradient; {f.name} has none")
    y = bundle.x + bundle.shifts[:, None, :]
    grad = fn_gradient(f, y)
    stg = _sigma_transpose_grad(bundle, grad)
    return bundle.grid.fine_step * np.sum(stg[:, :-1] ** 2, axis=(1, 2)) / 12.0


@dataclass(frozen=True)
class LowerBound:
    value: float
    stderr: float
    mean_integral: float

    @classmethod
    def from_integrals(cls, integrals: np.ndarray) -> LowerBound:
        """Square root of the mean of per-path gradient energies, with its
        delta-method standard error."""
        mean = float(integrals.mean())
        count = len(integrals)
        se_mean = float(integrals.std(ddof=1) / np.sqrt(count)) if count > 1 else 0.0
        value = float(np.sqrt(mean))
        stderr = se_mean / (2.0 * value) if value > 0 else se_mean
        return cls(value, stderr, mean)


def gradient_energy(f: TestFunction, bundle: PathBundle) -> np.ndarray:
    """Per-path (1/12) int_0^T |grad f(X_t + xi)|^2 dt (fine trapezoid)."""
    if f.gradient is None:
        raise CapabilityError(f"lower bound needs a gradient; {f.name} has none")
    y = bundle.x + bundle.shifts[:, None, :]
    sq = np.sum(fn_gradient(f, y) ** 2, axis=2)
    return np.trapezoid(sq, dx=bundle.grid.fine_step, axis=1) / 12.0


def lower_bound_constant(f: TestFunction, bundle: PathBundle) -> LowerBound:
    """Monte Carlo estimate of E[(1/12) int_0^T |grad f(X_t)|^2 dt]^(1/2),
    the minimal asymptotic L^2 constant over coarse-grid estimators."""
    return LowerBound.from_integrals(gradient_energy(f, bundle))
