"""Monte Carlo studies: convergence rates, limit laws, efficiency, diagnostics.

Every study simulates path ensembles in fixed-size chunks whose random
streams depend only on (master seed, path index), so results are identical
for any thread count. Within a study all estimators share the same paths
(common random numbers). Rate and efficiency studies share them across
resolutions too: one pass on the finest grid (n_max coarse steps of m fine
steps) serves every n in ``n_list``, whose coarse nodes are every
(n_max m / n)-th fine node, and the fine sum over all n_max m steps is the
reference for every n. The errors are then correlated across n, so the
rate slope is a generalized least-squares fit under the path-level
covariance of the log-RMS values.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import ConfigError
from .estimators import (
    bridge_conditional_estimate,
    reference_value,
    riemann_estimate,
    trapezoid_estimate,
)
from .functions import TestFunction, eval_on_path
from .fourier import compute_E, compute_F, decompose, g_decay_probe
from .grids import build_grid
from .limits import gradient_energy, mean_se, root_mean_se
from .processes import (BrownianMotion, DeterministicGaussian, ProcessSpec,
                        simulate_paths)

ESTIMATOR_NAMES = ("riemann", "trapezoid", "bridge")
DEGENERATE_RMS = 1e-12
CHUNK_SIZE = 256


@dataclass(frozen=True)
class StudyConfig:
    spec: ProcessSpec
    function: TestFunction
    n_list: tuple[int, ...]
    refine: int
    paths: int
    master_seed: int
    kind: str
    estimators: tuple[str, ...] = ("riemann", "trapezoid")
    t_eval: float | None = None
    horizon: float = 1.0
    threads: int = 1
    u_list: tuple[float, ...] = (1.0, 3.0, 10.0)

    def __post_init__(self):
        if self.kind not in ("rate", "clt", "efficiency", "diagnostics"):
            raise ConfigError(f"unknown study kind {self.kind!r}")
        if not self.n_list:
            raise ConfigError("n_list must be non-empty")
        if self.n_list[0] < 1:
            raise ConfigError(f"n_list entries must be >= 1, got {self.n_list}")
        if any(b <= a for a, b in zip(self.n_list, self.n_list[1:])):
            raise ConfigError("n_list must be strictly increasing")
        if self.kind in ("rate", "efficiency"):
            fine = self.n_list[-1] * self.refine
            loose = [n for n in self.n_list if fine % n]
            if loose:
                raise ConfigError(
                    f"n_list must nest: every n must divide n_list[-1] * "
                    f"refine = {fine}, and {loose} do not")
        if self.kind != "diagnostics" and self.refine < 8:
            raise ConfigError(f"refine must be at least 8 for the fine "
                              f"reference, got {self.refine}")
        if self.kind == "diagnostics" and not self.u_list:
            raise ConfigError("u_list must be non-empty")
        if self.paths < 100:
            raise ConfigError(f"paths must be at least 100, got {self.paths}")
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ConfigError(f"horizon must be finite and > 0, "
                              f"got {self.horizon}")
        if self.t_eval is not None and not 0 <= self.t_eval <= self.horizon:
            raise ConfigError(f"t_eval must lie in [0, horizon] = "
                              f"[0, {self.horizon}], got {self.t_eval}")
        if not self.estimators:
            raise ConfigError("estimators must be non-empty")
        for name in self.estimators:
            if name not in ESTIMATOR_NAMES:
                raise ConfigError(f"estimators: unknown {name!r}; "
                                  f"choose from {ESTIMATOR_NAMES}")
        # studies the process or the function cannot support; these
        # messages name a key outside [study], except for the bridge
        process = type(self.spec).__name__
        brownian = isinstance(self.spec, BrownianMotion)
        if self.kind in ("clt", "efficiency") and not self.function.gradient:
            raise ConfigError(f"[function] descriptor: the {self.kind} study "
                              f"needs a gradient; {self.function.name} has none")
        if self.kind == "efficiency" and not brownian:
            raise ConfigError(f"[process] kind: the efficiency study needs "
                              f"Brownian motion, got {process}")
        if self.kind == "diagnostics" and not (
                brownian or isinstance(self.spec, DeterministicGaussian)):
            raise ConfigError(f"[process] kind: diagnostics needs a Gaussian "
                              f"process, got {process}")
        if self.kind == "rate" and "bridge" in self.estimators and (
                not brownian):
            raise ConfigError(f"estimators: the bridge estimator needs "
                              f"Brownian motion, got {process}")

    @property
    def eval_time(self) -> float:
        return self.horizon if self.t_eval is None else self.t_eval


@dataclass(frozen=True)
class StudyReport:
    kind: str
    tables: dict = field(default_factory=dict)   # name -> list of row dicts
    summary: dict = field(default_factory=dict)
    runtime_seconds: float = 0.0


def _ensemble_map(spec, grid, paths: int, seed: int, worker,
                  threads: int = 1, chunk_size: int | None = None) -> dict:
    """Apply ``worker(bundle) -> dict of arrays`` chunk-wise and concatenate.

    Per-path random streams make the result independent of the chunk
    layout and of ``threads``; the chunk size only bounds peak memory, so
    it shrinks as the fine grid grows.
    """
    if chunk_size is None:
        nodes = grid.fine_count + 1
        chunk_size = int(np.clip(2 ** 20 // nodes, 16, CHUNK_SIZE))
    starts = list(range(0, paths, chunk_size))

    def run(start):
        count = min(chunk_size, paths - start)
        bundle = simulate_paths(spec, grid, count, seed, first_path_index=start)
        return worker(bundle)

    if threads <= 1:
        parts = [run(s) for s in starts]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run, starts))
    return {k: np.concatenate([p[k] for p in parts]) for k in parts[0]}


def _estimator_errors(f: TestFunction, bundle, fine_vals: np.ndarray,
                      t: float, estimators, n_list=None) -> dict:
    """Reference minus estimator per path and resolution, shape
    (paths, len(n_list)), on shared paths, from the values of f at the fine
    nodes of the observed paths.

    The coarse grid of n is every (fine_count / n)-th fine node and the
    fine sum is the reference for every n; ``n_list`` defaults to the
    bundle's own coarse grid.
    """
    grid = bundle.grid
    n_list = (grid.coarse_count,) if n_list is None else n_list
    ref = reference_value(fine_vals, grid, t)
    out = {f"err_{name}": np.empty((len(ref), len(n_list)), ref.dtype)
           for name in estimators}
    for col, n in enumerate(n_list):
        stride = grid.fine_count // n
        coarse = build_grid(grid.horizon, n, stride)
        coarse_vals = fine_vals[:, ::stride]
        for name in estimators:
            if name == "riemann":
                est = riemann_estimate(coarse_vals, coarse, t)
            elif name == "trapezoid":
                est = trapezoid_estimate(coarse_vals, coarse, t)
            else:
                y = bundle.observed(stride=stride)
                x_arg = y[:, :, 0] if f.dimension == 1 else y
                est = bridge_conditional_estimate(f, x_arg, coarse, t,
                                                  spec=bundle.spec)
            out[f"err_{name}"][:, col] = ref - est
    return out


def _clt_outputs(f: TestFunction, t: float, bundle) -> dict:
    """Riemann and trapezoid errors, conditional variance and realized
    endpoint bias at t per path, from one evaluation of f and grad f."""
    vals, grad = eval_on_path(f, bundle, gradient=True)
    j = bundle.grid.fine_index(t)
    return {**_estimator_errors(f, bundle, vals, t, ("riemann", "trapezoid")),
            "condvar": gradient_energy(bundle, grad, t),
            "bias_realized": 0.5 * (vals[:, j] - vals[:, 0]).real}


def _error_outputs(f: TestFunction, t: float, n_list, estimators,
                   energy: bool, bundle) -> dict:
    """Estimator errors at t per path and n in ``n_list``; with ``energy``
    also the gradient energy up to t, from one evaluation of f and grad f
    on the bundle's (finest) grid."""
    if not energy:
        return _estimator_errors(f, bundle, eval_on_path(f, bundle), t,
                                 estimators, n_list)
    vals, grad = eval_on_path(f, bundle, gradient=True)
    return {**_estimator_errors(f, bundle, vals, t, estimators, n_list),
            "grad_energy": gradient_energy(bundle, grad, t)}


def _rms_stats(err: np.ndarray) -> dict:
    rms, rms_se = root_mean_se(err ** 2)
    mean, se = mean_se(err)
    return {"rms": rms, "rms_se": rms_se, "mean_error": mean, "mean_se": se}


def _log_rms_cov(err: np.ndarray) -> np.ndarray:
    """Delta-method covariance of the log-RMS values across resolutions,
    Cov(e_a^2, e_b^2) / (4 P MSE_a MSE_b), from per-path errors (P, K)."""
    sq = err ** 2
    mse = sq.mean(axis=0)
    cov = np.atleast_2d(np.cov(sq, rowvar=False))
    return cov / (4.0 * len(sq) * np.outer(mse, mse))


def _gls_line(x: np.ndarray, y: np.ndarray, cov: np.ndarray):
    """Generalized least squares y ~ a + b x under the covariance ``cov``
    of y; a diagonal ``cov`` gives weighted least squares. Returns
    (slope, slope_se, chi2)."""
    var = np.diag(cov)
    floor = max(np.max(var), 1e-24) * 1e-6
    prec = np.linalg.inv(cov + np.diag(np.where(var > 0, 0.0, floor)))
    design = np.column_stack([np.ones_like(x), x])
    coef_cov = np.linalg.inv(design.T @ prec @ design)
    coef = coef_cov @ (design.T @ prec @ y)
    resid = y - design @ coef
    return float(coef[1]), float(np.sqrt(coef_cov[1, 1])), \
        float(resid @ prec @ resid)


def _fit_slope(deltas, rms, cov):
    """Log-log GLS slope of RMS vs step over all resolutions, under the
    covariance ``cov`` of the log-RMS values. The generalized residual sum
    ``lack_of_fit_chi2`` is reported, not acted on: with a plug-in
    covariance it is not calibrated to chi^2(K - 2)."""
    slope, slope_se, chi_sq = _gls_line(np.log(np.asarray(deltas)),
                                        np.log(np.asarray(rms)), cov)
    return {"slope": slope, "slope_se": slope_se,
            "slope_ci_low": slope - 1.96 * slope_se,
            "slope_ci_high": slope + 1.96 * slope_se,
            "lack_of_fit_chi2": chi_sq}


def rate_study(cfg: StudyConfig) -> StudyReport:
    """RMS of (reference - estimator) per resolution from one pass on the
    finest grid, with a GLS log-log slope fit per estimator."""
    started = time.perf_counter()
    grid = build_grid(cfg.horizon, cfg.n_list[-1], cfg.refine)
    stats = _ensemble_map(
        cfg.spec, grid, cfg.paths, cfg.master_seed,
        partial(_error_outputs, cfg.function, cfg.eval_time, cfg.n_list,
                cfg.estimators, False),
        cfg.threads)
    deltas = [cfg.horizon / n for n in cfg.n_list]
    rows = [{"n": n, "delta": delta, "estimator": name,
             **_rms_stats(stats[f"err_{name}"][:, col])}
            for col, (n, delta) in enumerate(zip(cfg.n_list, deltas))
            for name in cfg.estimators]

    summary = {}
    for name in cfg.estimators:
        rms = [row["rms"] for row in rows if row["estimator"] == name]
        if max(rms) <= DEGENERATE_RMS:
            summary[name] = {"degenerate": True, "slope": float("nan")}
        elif len(cfg.n_list) < 2:
            summary[name] = {"degenerate": False, "slope": float("nan")}
        else:
            cov = _log_rms_cov(stats[f"err_{name}"])
            summary[name] = {"degenerate": False,
                             **_fit_slope(deltas, rms, cov)}
    return StudyReport("rate", {"rates": rows}, summary,
                       time.perf_counter() - started)


def clt_check(cfg: StudyConfig) -> StudyReport:
    """Distributional checks at the finest configured resolution.

    Trapezoid errors are standardized by the per-path conditional variance
    and compared with the standard normal (Kolmogorov-Smirnov); scaled
    Riemann errors are compared with the realized endpoint bias.
    """
    started = time.perf_counter()
    f = cfg.function
    t = cfg.eval_time
    n = cfg.n_list[-1]
    grid = build_grid(cfg.horizon, n, cfg.refine)
    delta = grid.coarse_step

    stats = _ensemble_map(cfg.spec, grid, cfg.paths, cfg.master_seed,
                          partial(_clt_outputs, f, t), cfg.threads)
    condvar = stats["condvar"]
    err_trap = stats["err_trapezoid"][:, 0]
    keep = condvar > 0
    excluded = int(np.sum(~keep))
    z = (err_trap[keep] / (delta * np.sqrt(condvar[keep])))
    from scipy.stats import kstest     # slow to import; only used here
    ks_stat, ks_p = kstest(z, "norm")

    bias = stats["bias_realized"]
    scaled_riemann = stats["err_riemann"][:, 0] / delta
    trap_mean, trap_se = mean_se(err_trap / delta)
    riemann_mean, riemann_se = mean_se(scaled_riemann)
    gap_mean, gap_se = mean_se(scaled_riemann - bias)

    summary = {
        "n": n, "delta": delta,
        "ks_stat": float(ks_stat), "ks_pvalue": float(ks_p),
        "excluded_zero_variance": excluded,
        "scaled_trapezoid_mean": trap_mean,
        "scaled_trapezoid_mean_se": trap_se,
        "scaled_riemann_mean": riemann_mean,
        "scaled_riemann_mean_se": riemann_se,
        "bias_target_mean": float(bias.mean()),
        "bias_minus_riemann_mean": gap_mean,
        "bias_minus_riemann_se": gap_se,
    }
    table = [{"path_id": int(i), "z": float(v)}
             for i, v in zip(np.nonzero(keep)[0], z)]
    return StudyReport("clt", {"standardized": table}, summary,
                       time.perf_counter() - started)


def efficiency_study(cfg: StudyConfig) -> StudyReport:
    """Scaled RMS per estimator against the minimal asymptotic constant."""
    started = time.perf_counter()
    f = cfg.function
    t = cfg.eval_time
    top = cfg.n_list[-1]

    grid = build_grid(cfg.horizon, top, cfg.refine)
    stats = _ensemble_map(cfg.spec, grid, cfg.paths, cfg.master_seed,
                          partial(_error_outputs, f, t, cfg.n_list,
                                  cfg.estimators, True),
                          cfg.threads)
    rows = []
    scaled_at_top = {}
    for col, n in enumerate(cfg.n_list):
        delta = cfg.horizon / n
        for name in cfg.estimators:
            st = _rms_stats(stats[f"err_{name}"][:, col] / delta)
            rows.append({"n": n, "delta": delta, "estimator": name,
                         "scaled_rms": st["rms"], "scaled_rms_se": st["rms_se"]})
            if n == top:
                scaled_at_top[name] = (st["rms"], st["rms_se"])
    lower, lower_se = root_mean_se(stats["grad_energy"])

    summary = {"lower_bound": lower, "lower_bound_se": lower_se}
    if "trapezoid" in scaled_at_top and lower > 0:
        val, se = scaled_at_top["trapezoid"]
        ratio = val / lower
        ratio_se = ratio * np.sqrt((se / val) ** 2 + (lower_se / lower) ** 2) \
            if val > 0 else 0.0
        summary["efficiency_ratio_trapezoid"] = float(ratio)
        summary["efficiency_ratio_se"] = float(ratio_se)
    for name, (val, se) in scaled_at_top.items():
        summary[f"scaled_rms_{name}"] = val
        summary[f"scaled_rms_{name}_se"] = se
    return StudyReport("efficiency", {"efficiency": rows}, summary,
                       time.perf_counter() - started)


def diagnostics_study(cfg: StudyConfig) -> StudyReport:
    """Frequency-domain diagnostics: normalized F1/F2 second-moment decay
    over (u, n), and the decomposition identity residuals on a small
    exponential probe ensemble."""
    started = time.perf_counter()
    probe = g_decay_probe(cfg.u_list, cfg.n_list, cfg.spec,
                          min(cfg.paths, 2000), cfg.master_seed, cfg.horizon)
    g_rows = [{"u": r.u, "n": r.n, "g_hat": r.g_hat, "stderr": r.stderr}
              for r in probe.rows]
    trend_rows = [{"u": u, "kendall_tau": tau, "p_value": p}
                  for u, (tau, p) in probe.trend.items()]

    summary = {"sup_g_hat": probe.sup_over_grid}
    if cfg.refine >= 2 and cfg.spec.dimension == 1:
        from .functions import complex_exponential
        f = complex_exponential(float(cfg.u_list[0]))
        grid = build_grid(cfg.horizon, cfg.n_list[0], cfg.refine)
        bundle = simulate_paths(cfg.spec, grid, min(cfg.paths, 100),
                                cfg.master_seed)
        fine_vals = eval_on_path(f, bundle)
        realized = (reference_value(fine_vals, grid)
                    - riemann_estimate(fine_vals[:, ::grid.refine_factor], grid))
        trace = decompose(f, bundle)
        f1, f2 = compute_F(float(cfg.u_list[0]), bundle)
        drift_gap = trace.drift - compute_E(f, bundle) - f1 - f2
        summary["max_decomposition_residual"] = float(
            np.max(np.abs(trace.total - realized)))
        summary["max_drift_identity_residual"] = float(
            np.max(np.abs(drift_gap)))
    return StudyReport("diagnostics",
                       {"g_decay": g_rows, "g_trend": trend_rows},
                       summary, time.perf_counter() - started)


def run_study(cfg: StudyConfig) -> StudyReport:
    runner = {"rate": rate_study, "clt": clt_check,
              "efficiency": efficiency_study,
              "diagnostics": diagnostics_study}[cfg.kind]
    return runner(cfg)
