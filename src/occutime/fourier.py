"""Frequency-domain decomposition of the quadrature error.

For Gaussian process specifications the conditional expectations entering the
martingale/drift split of the error are available in closed form through the
conditional characteristic function. This module assembles the split, the
endpoint sum E, the weighted drift/diffusion integrals F1/F2, and an
empirical probe of the decay of their normalized second moments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import kendalltau

from .errors import CapabilityError, ConfigError
from .functions import TestFunction
from .grids import build_grid, gauss_hermite, gauss_legendre
from .processes import (
    BrownianMotion,
    DeterministicGaussian,
    PathBundle,
    simulate_paths,
)

GL_ORDER = 16


def _require_gaussian(spec, what: str):
    if not isinstance(spec, (BrownianMotion, DeterministicGaussian)):
        raise CapabilityError(
            f"{what} needs a Brownian or deterministic-Gaussian specification "
            f"(no tractable conditional law for {type(spec).__name__})")


def _moments(spec, t0: float, t1: float, u: np.ndarray):
    """(u . mean, u^T cov u) of the increment X_{t1} - X_{t0}."""
    if isinstance(spec, BrownianMotion):
        return 0.0, float(u @ u) * (t1 - t0)
    mu, cov = spec.transition_moments(t0, t1)
    return float(u @ mu), float(u @ cov @ u)


def char_increment(u, spec, h: float, r: float) -> float:
    """|E exp(i <u, X_r - X_h>)| = exp(-1/2 int_h^r |sigma^T u|^2 dt)."""
    if h > r:
        raise ConfigError(f"need h <= r, got h={h}, r={r}")
    _require_gaussian(spec, "char_increment")
    u = np.atleast_1d(np.asarray(u, float))
    _, quad = _moments(spec, h, r, u)
    return float(np.exp(-0.5 * quad))


def _phase_factor(spec, t0: float, r: float, u: float) -> complex:
    """E[e^{i u (X_r - X_{t0})} | F_{t0}] for scalar frequency u, d = 1."""
    drift_phase, quad = _moments(spec, t0, r, np.array([u]))
    return np.exp(1j * drift_phase - 0.5 * quad)


def _cond_expectation(f: TestFunction, spec, y0: np.ndarray, t0: float,
                      r: float, q_hermite: int = 64) -> np.ndarray:
    """E[f(Y_r) | F_{t0}] across paths; y0 holds Y_{t0} (shift included)."""
    mu, cov = (np.zeros(1), np.eye(1) * (r - t0)) if isinstance(spec, BrownianMotion) \
        else spec.transition_moments(t0, r)
    if f.gaussian_expectation is not None:
        return f.gaussian_expectation(y0 + mu[0], cov[0, 0])
    if f.gradient is None:
        raise CapabilityError(
            f"conditional expectations need a closed-form Gaussian expectation "
            f"or a gradient; {f.name} has neither")
    nodes, weights = gauss_hermite(q_hermite)
    pts = y0[:, None] + mu[0] + np.sqrt(max(2.0 * cov[0, 0], 0.0)) * nodes
    return f.value(pts) @ weights / np.sqrt(np.pi)


@dataclass(frozen=True)
class DecompositionTrace:
    """Per-interval martingale/drift split of the realized error at time t."""

    t: float
    m_terms: np.ndarray          # (paths, K)
    d_terms: np.ndarray          # (paths, K)

    @property
    def martingale(self) -> np.ndarray:
        return self.m_terms.sum(axis=1)

    @property
    def drift(self) -> np.ndarray:
        return self.d_terms.sum(axis=1)

    @property
    def total(self) -> np.ndarray:
        return self.martingale + self.drift


def _check_d1(bundle: PathBundle, what: str):
    if bundle.dimension != 1:
        raise CapabilityError(f"{what} is implemented for dimension 1")


def decompose(f: TestFunction, bundle: PathBundle, t: float | None = None,
              q_time: int = GL_ORDER) -> DecompositionTrace:
    """Split the realized error Gamma_t - Gamma_hat into the martingale part
    M (integrand centered at its conditional expectation) and the drift part
    D (conditional expectation of the increment of f along the path)."""
    _require_gaussian(bundle.spec, "decompose")
    _check_d1(bundle, "decompose")
    grid = bundle.grid
    t = grid.horizon if t is None else t
    K = grid.coarse_index(t)
    delta = grid.coarse_step
    m = grid.refine_factor

    y = bundle.x[:, :, 0] + bundle.shifts[:, :1]
    fy = f.value(y)
    dtype = complex if f.complex_valued else float

    # per-interval fine-grid trapezoid of f(Y_r)
    lo = fy[:, :K * m]
    hi = fy[:, 1:K * m + 1]
    seg = 0.5 * grid.fine_step * (lo + hi)
    fine_int = seg.reshape(seg.shape[0], K, m).sum(axis=2)

    tau, tw = gauss_legendre(q_time, unit=True)
    y_left = y[:, ::m][:, :K]
    cond_int = np.zeros((bundle.count, K), dtype=dtype)
    for k in range(K):
        t0 = k * delta
        acc = np.zeros(bundle.count, dtype=dtype)
        for ti, wi in zip(tau, tw):
            acc += wi * _cond_expectation(f, bundle.spec, y_left[:, k],
                                          t0, t0 + ti * delta)
        cond_int[:, k] = delta * acc

    m_terms = fine_int.astype(dtype) - cond_int
    d_terms = cond_int - delta * fy[:, ::m][:, :K]
    return DecompositionTrace(t, m_terms, d_terms)


def compute_E(f: TestFunction, bundle: PathBundle, t: float | None = None) -> np.ndarray:
    """(step / 2) sum_k E[f(Y_{t_k}) - f(Y_{t_{k-1}}) | F_{t_{k-1}}]."""
    _require_gaussian(bundle.spec, "compute_E")
    _check_d1(bundle, "compute_E")
    grid = bundle.grid
    t = grid.horizon if t is None else t
    K = grid.coarse_index(t)
    delta = grid.coarse_step
    y_coarse = bundle.coarse_x()[:, :, 0] + bundle.shifts[:, :1]
    dtype = complex if f.complex_valued else float
    total = np.zeros(bundle.count, dtype=dtype)
    fy_left = f.value(y_coarse)
    for k in range(K):
        ce = _cond_expectation(f, bundle.spec, y_coarse[:, k],
                               k * delta, (k + 1) * delta)
        total += ce - fy_left[:, k]
    return 0.5 * delta * total


def _f_terms(u: float, bundle: PathBundle, K: int,
             q_time: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-interval contributions to F1 and F2, shape (paths, K) each.

    F1 integrates (t_k - r - step/2) i u b_r against the conditional
    characteristic function, F2 the same weight against -(1/2) |sigma_r u|^2.
    Both reduce to a per-path phase at the interval start times deterministic
    interval weights.
    """
    spec = bundle.spec
    grid = bundle.grid
    delta = grid.coarse_step
    tau, tw = gauss_legendre(q_time, unit=True)

    c1 = np.zeros(K, dtype=complex)
    c2 = np.zeros(K, dtype=complex)
    brownian = isinstance(spec, BrownianMotion)
    for k in range(K):
        t0 = k * delta
        for ti, wi in zip(tau, tw):
            r = t0 + ti * delta
            weight = (t0 + delta - r - 0.5 * delta) * delta * wi
            phase = _phase_factor(spec, t0, r, u)
            if brownian:
                sig_u_sq = u * u
            else:
                sig = spec.diffusion_at(r)
                sig_u_sq = float((sig.T @ np.array([u])) @ (sig.T @ np.array([u])))
                b = spec.drift_at(r)[0]
                c1[k] += weight * 1j * u * b * phase
            c2[k] += -0.5 * weight * sig_u_sq * phase
        if brownian and k == 0:
            # time homogeneous: reuse the first interval for all k
            c1[:] = 0.0
            c2[:] = c2[0]
            break

    y_left = (bundle.coarse_x()[:, :K, 0] + bundle.shifts[:, :1])
    phases = np.exp(1j * u * y_left)
    return phases * c1, phases * c2


def compute_F1(u: float, bundle: PathBundle, t: float | None = None,
               q_time: int = GL_ORDER) -> np.ndarray:
    _require_gaussian(bundle.spec, "compute_F1")
    _check_d1(bundle, "compute_F1")
    grid = bundle.grid
    K = grid.coarse_index(grid.horizon if t is None else t)
    f1, _ = _f_terms(float(u), bundle, K, q_time)
    return f1.sum(axis=1)


def compute_F2(u: float, bundle: PathBundle, t: float | None = None,
               q_time: int = GL_ORDER) -> np.ndarray:
    _require_gaussian(bundle.spec, "compute_F2")
    _check_d1(bundle, "compute_F2")
    grid = bundle.grid
    K = grid.coarse_index(grid.horizon if t is None else t)
    _, f2 = _f_terms(float(u), bundle, K, q_time)
    return f2.sum(axis=1)


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

    def g_hat(self, u: float, n: int) -> float:
        for row in self.rows:
            if row.u == u and row.n == n:
                return row.g_hat
        raise KeyError((u, n))


def g_decay_probe(u_list, n_list, spec, count: int, seed: int,
                  s: float = 1.0, horizon: float = 1.0,
                  q_time: int = GL_ORDER) -> GDecayProbe:
    """Empirical normalized bound sup_t (|F1|^2 + |F2|^2), scaled by
    step^-2 (1 + |u|^2)^-s, tabulated over a (u, n) probe grid with a
    Kendall monotonicity statistic per frequency."""
    _require_gaussian(spec, "g_decay_probe")
    rows = []
    table = {u: [] for u in u_list}
    for n in n_list:
        grid = build_grid(horizon, int(n), 1)
        bundle = simulate_paths(spec, grid, count, seed)
        delta = grid.coarse_step
        for u in u_list:
            f1, f2 = _f_terms(float(u), bundle, grid.coarse_count, q_time)
            sup = np.max(np.abs(np.cumsum(f1, axis=1)) ** 2
                         + np.abs(np.cumsum(f2, axis=1)) ** 2, axis=1)
            scale = delta ** -2 / (1.0 + u * u) ** s
            vals = scale * sup
            g_hat = float(vals.mean())
            stderr = float(vals.std(ddof=1) / np.sqrt(count)) if count > 1 else 0.0
            rows.append(GDecayRow(float(u), int(n), g_hat, stderr))
            table[u].append(g_hat)
    trend = {}
    for u in u_list:
        if len(n_list) > 1:
            tau_stat, p = kendalltau(list(n_list), table[u])
        else:
            tau_stat, p = float("nan"), float("nan")
        trend[float(u)] = (float(tau_stat), float(p))
    sup_grid = max(r.g_hat for r in rows)
    return GDecayProbe(rows, trend, sup_grid)
