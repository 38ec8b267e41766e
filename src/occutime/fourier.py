"""Frequency-domain decomposition of the quadrature error.

For Gaussian process specifications the conditional law of X_r given
F_{t_k} is normal, so the conditional expectations entering the
martingale/drift split of the error are the function's closed-form Gaussian
expectations (``gaussian_mean``), and F1/F2 follow from the conditional
characteristic function. This module assembles the split, the endpoint sum
E, the weighted drift/diffusion integrals F1/F2, and an empirical probe of
the decay of their normalized second moments.

All of these read one deterministic node table (``_interval_nodes``): the
mean and variance of X_r - X_{t_k} at the Gauss-Legendre times r of every
coarse interval and at its right end, with b_r, sigma_r^2 and the F weights.
The table is built once per grid, for all frequencies, and is the only place
that tells Brownian from deterministic coefficients; every reader is array
arithmetic over (paths, intervals, nodes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError
from .estimators import reference_value, riemann_estimate
from .functions import TestFunction, gaussian_mean
from .grids import TimeGrid, build_grid, gauss_legendre
from .limits import mean_se
from .processes import (
    BrownianMotion,
    DeterministicGaussian,
    PathBundle,
    simulate_grids,
)

GL_ORDER = 16          # Gauss-Legendre nodes per coarse interval
G_DECAY_ORDER = 1.0    # Sobolev order s of the weight (1 + |u|^2)^-s


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
    t and the coarse observations Y_{t_0}, ..., Y_{t_K} (shift included)."""
    _require_gaussian(bundle.spec, what)
    if bundle.dimension != 1:
        raise CapabilityError(f"{what} is implemented for dimension 1")
    grid = bundle.grid
    K = grid.coarse_index(grid.horizon if t is None else t)
    y = bundle.observed(coarse=True)[:, :K + 1, 0]
    return _interval_nodes(bundle.spec, grid, K), y


@dataclass(frozen=True)
class DecompositionTrace:
    """Martingale/drift split of the realized Riemann error at time t, one
    total per path: the fine-grid reference at t minus the conditional
    expectations of the integral over the K = floor(t / step) coarse
    intervals, and those minus the Riemann sum at t. For t off the coarse
    grid the martingale part also holds the integral over [t_K, t]."""

    t: float
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
    fy = f.value(bundle.observed()[:, :, 0])
    cond = gaussian_mean(f, y[:, :-1, None] + nodes.mean, nodes.var)
    cond_int = grid.coarse_step * (cond @ nodes.tw).sum(axis=1)
    return DecompositionTrace(
        grid.horizon if t is None else t,
        reference_value(fy, grid, t) - cond_int,
        cond_int - riemann_estimate(fy[:, ::grid.refine_factor], grid, t))


def compute_E(f: TestFunction, bundle: PathBundle, t: float | None = None) -> np.ndarray:
    """(step / 2) sum_k E[f(Y_{t_k}) - f(Y_{t_{k-1}}) | F_{t_{k-1}}]."""
    nodes, y = _setup(bundle, t, "compute_E")
    left = y[:, :-1]
    ce = gaussian_mean(f, left + nodes.mean_end, nodes.var_end)
    return 0.5 * bundle.grid.coarse_step * (ce - f.value(left)).sum(axis=1)


def _f_terms(u: float, nodes: _IntervalNodes,
             y_left: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-interval contributions to F1 and F2, shape (paths, K) each.

    F1 integrates (t_k - r - step/2) i u b_r against the conditional
    characteristic function, F2 the same weight against -(1/2) |sigma_r u|^2.
    Both are a per-path phase at the interval start times a deterministic
    sum over the nodes.
    """
    phase = np.exp(1j * u * nodes.mean - 0.5 * u * u * nodes.var)
    c1 = (1j * u * nodes.drift * phase) @ nodes.weight
    c2 = (-0.5 * u * u * nodes.sig2 * phase) @ nodes.weight
    left = np.exp(1j * u * y_left)
    return left * c1, left * c2


def compute_F(u: float, bundle: PathBundle,
              t: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(F1, F2) per path at time t, from one node table."""
    nodes, y = _setup(bundle, t, "compute_F")
    f1, f2 = _f_terms(float(u), nodes, y[:, :-1])
    return f1.sum(axis=1), f2.sum(axis=1)


@dataclass(frozen=True)
class GDecayRow:
    u: float
    n: int
    g_hat: float
    stderr: float


@dataclass(frozen=True)
class GDecayProbe:
    rows: list
    trend: dict            # u -> (kendall_tau, p_value)
    sup_over_grid: float


def g_decay_probe(u_list, n_list, spec, count: int, seed: int,
                  horizon: float = 1.0) -> GDecayProbe:
    """Empirical normalized bound sup_t (|F1|^2 + |F2|^2), scaled by
    step^-2 (1 + |u|^2)^-G_DECAY_ORDER, tabulated over a (u, n) probe grid
    on [0, horizon] with a Kendall monotonicity statistic per frequency."""
    _require_gaussian(spec, "g_decay_probe")
    rows = []
    table = {u: [] for u in u_list}
    grids = [build_grid(horizon, int(n), 1) for n in n_list]
    for n, grid, bundle in zip(n_list, grids,
                               simulate_grids(spec, grids, count, seed)):
        nodes = _interval_nodes(spec, grid, grid.coarse_count)
        y_left = bundle.observed(coarse=True)[:, :-1, 0]
        for u in u_list:
            f1, f2 = _f_terms(float(u), nodes, y_left)
            sup = np.max(np.abs(np.cumsum(f1, axis=1)) ** 2
                         + np.abs(np.cumsum(f2, axis=1)) ** 2, axis=1)
            scale = grid.coarse_step ** -2 / (1.0 + u * u) ** G_DECAY_ORDER
            vals = scale * sup
            g_hat, stderr = mean_se(vals)
            rows.append(GDecayRow(float(u), int(n), g_hat, stderr))
            table[u].append(g_hat)
    from scipy.stats import kendalltau    # slow to import; only used here
    trend = {}
    for u in u_list:
        if len(n_list) > 1:
            tau_stat, p = kendalltau(list(n_list), table[u])
        else:
            tau_stat, p = float("nan"), float("nan")
        trend[float(u)] = (float(tau_stat), float(p))
    sup_grid = max(r.g_hat for r in rows)
    return GDecayProbe(rows, trend, sup_grid)
