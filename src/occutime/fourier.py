"""Frequency-domain decomposition of the quadrature error.

For Gaussian process specifications the conditional law of X_r given
F_{t_k} is normal, so the conditional expectations entering the
martingale/drift split of the error are the function's closed-form Gaussian
expectations (``gaussian_mean``), and F1/F2 follow from the conditional
characteristic function. This module assembles the split, the endpoint sum
E and the weighted drift/diffusion integrals F1/F2 from given paths; the
decay probe ``experiments.g_decay_probe`` reads their weights (``f_weights``).

All of these read a deterministic node table (``_interval_nodes``): the
mean and variance of X_r - X_{t_k} at the Gauss-Legendre times r of every
coarse interval and at its right end, with b_r, sigma_r^2 and the F weights.
``decompose``, ``compute_E``, ``compute_F`` and the decay probe each build
their own, for every frequency of the call. The table is the only place that
tells Brownian from deterministic coefficients; every reader is array
arithmetic over (paths, intervals, nodes) of the observed paths ``bundle.x``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError
from .estimators import reference_value, riemann_estimate
from .functions import TestFunction, gaussian_mean
from .grids import TimeGrid, gauss_legendre
from .processes import BrownianMotion, DeterministicGaussian, PathBundle

GL_ORDER = 16          # Gauss-Legendre nodes per coarse interval


def _require_gaussian(spec, what: str):
    if not isinstance(spec, (BrownianMotion, DeterministicGaussian)):
        raise CapabilityError(
            f"{what} needs a Brownian or deterministic-Gaussian specification "
            f"(no tractable conditional law for {type(spec).__name__})")


@dataclass(frozen=True)
class _IntervalNodes:
    """Moments of X_r - X_{t_k} (first coordinate) at the nodes
    r = t_k + tau_i step of the first K intervals, shape (K, q), and at
    r = t_{k+1}, shape (K,); b_r and (sigma sigma^T)_r at the nodes; the unit
    Gauss-Legendre weights tw and the F weights (1/2 - tau_i) step^2 tw_i."""

    mean: np.ndarray
    var: np.ndarray
    mean_end: np.ndarray
    var_end: np.ndarray
    drift: np.ndarray
    sig2: np.ndarray
    tw: np.ndarray
    weight: np.ndarray


def _interval_nodes(spec, grid: TimeGrid, K: int) -> _IntervalNodes:
    tau, tw = gauss_legendre(GL_ORDER, unit=True)
    delta = grid.coarse_step
    if isinstance(spec, BrownianMotion):
        mean = np.zeros((K, GL_ORDER + 1))
        var = np.broadcast_to(np.append(tau, 1.0) * delta, (K, GL_ORDER + 1))
        drift = np.zeros((K, GL_ORDER))
        sig2 = np.ones((K, GL_ORDER))
    else:
        t0 = grid.coarse_times[:K]
        r = t0[:, None] + tau * delta
        ends = np.column_stack([r, grid.coarse_times[1:K + 1]])
        mu, cov = spec.transition_moments(t0[:, None], ends)
        mean, var = mu[..., 0], cov[..., 0, 0]
        drift = spec.drift_at(r)[..., 0]
        sig2 = np.sum(spec.diffusion_at(r)[..., 0, :] ** 2, axis=-1)
    return _IntervalNodes(mean[:, :-1], var[:, :-1], mean[:, -1], var[:, -1],
                          drift, sig2, tw, (0.5 - tau) * delta * delta * tw)


def _setup(bundle: PathBundle, t: float | None, what: str):
    """Checks shared by the readers; the node table of the K intervals up to
    t and the coarse observations Y_{t_0}, ..., Y_{t_K}."""
    _require_gaussian(bundle.spec, what)
    if bundle.dimension != 1:
        raise CapabilityError(f"{what} is implemented for dimension 1")
    grid = bundle.grid
    K = grid.coarse_index(grid.horizon if t is None else t)
    y = bundle.x[:, ::grid.refine_factor][:, :K + 1, 0]
    return _interval_nodes(bundle.spec, grid, K), y


@dataclass(frozen=True)
class DecompositionTrace:
    """Martingale/drift split of the realized Riemann error at time t, one
    total per path: the fine-grid reference at t minus the conditional
    expectations of the integral over the K = floor(t / step) coarse
    intervals, and those minus the Riemann sum at t. For t off the coarse
    grid the martingale part also holds the integral over [t_K, t]."""

    martingale: np.ndarray       # (paths,)
    drift: np.ndarray            # (paths,)

    @property
    def total(self) -> np.ndarray:
        return self.martingale + self.drift


def decompose(f: TestFunction, bundle: PathBundle,
              t: float | None = None) -> DecompositionTrace:
    """Split the realized error Gamma_t - Gamma_hat into the martingale part
    M (integrand centered at its conditional expectation) and the drift part
    D (conditional expectation of the increment of f along the path)."""
    nodes, y = _setup(bundle, t, "decompose")
    grid = bundle.grid
    fy = f.value(bundle.x[:, :, 0])
    cond = gaussian_mean(f, y[:, :-1, None] + nodes.mean, nodes.var)
    cond_int = grid.coarse_step * (cond @ nodes.tw).sum(axis=1)
    return DecompositionTrace(
        reference_value(fy, grid, t) - cond_int,
        cond_int - riemann_estimate(fy[:, ::grid.refine_factor], grid, t))


def compute_E(f: TestFunction, bundle: PathBundle, t: float | None = None) -> np.ndarray:
    """(step / 2) sum_k E[f(Y_{t_k}) - f(Y_{t_{k-1}}) | F_{t_{k-1}}]."""
    nodes, y = _setup(bundle, t, "compute_E")
    left = y[:, :-1]
    ce = gaussian_mean(f, left + nodes.mean_end, nodes.var_end)
    return 0.5 * bundle.grid.coarse_step * (ce - f.value(left)).sum(axis=1)


def f_weights(u: float, nodes: _IntervalNodes) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic weights (c1, c2) of F1 and F2 per interval, shape (K,)
    each, to be multiplied by the per-path phase exp(i u Y_{t_k}).

    F1 integrates (t_k - r - step/2) i u b_r against the conditional
    characteristic function, F2 the same weight against -(1/2) |sigma_r u|^2.
    """
    phase = np.exp(1j * u * nodes.mean - 0.5 * u * u * nodes.var)
    c1 = (1j * u * nodes.drift * phase) @ nodes.weight
    c2 = (-0.5 * u * u * nodes.sig2 * phase) @ nodes.weight
    return c1, c2


def compute_F(u: float, bundle: PathBundle,
              t: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(F1, F2) per path at time t, from one node table."""
    nodes, y = _setup(bundle, t, "compute_F")
    c1, c2 = f_weights(float(u), nodes)
    left = np.exp(1j * float(u) * y[:, :-1])
    return (left * c1).sum(axis=1), (left * c2).sum(axis=1)
