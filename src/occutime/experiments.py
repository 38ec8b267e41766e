"""Monte Carlo studies: convergence rates, limit laws, efficiency, diagnostics.

Every study simulates path ensembles in chunks (``_ensemble_map``) whose
random streams depend only on (master seed, path index), so results are
identical for any thread count. Within a study all estimators share the
same paths (common random numbers), and so do all resolutions: one pass on
one fine grid serves every n in ``n_list``, whose coarse nodes are every
(fine steps / n)-th fine node. For the rate and efficiency studies that
grid has n_max m steps, whose fine sum is the reference for every n; the
CLT check takes the same pass at one n; the diagnostics decay probe reads
a grid of lcm(n_list) steps. The errors are correlated across n, so the
rate slope is a generalized least-squares fit under the path-level
covariance of the log-RMS values.

Each worker thread of a pass keeps one dict of pass buffers
(``processes._pass_buffer``): the simulator draws every chunk's observed
paths into it, and the chunk worker keeps f and grad f at the nodes and
its other chunk-sized arrays there. So a chunk worker's outputs must own
their data: the thread's next chunk overwrites the bundle and the buffers.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import ConfigError, SimulationError
from .estimators import (
    bridge_conditional_estimate,
    reference_value,
    riemann_estimate,
    trapezoid_estimate,
)
from .functions import TestFunction, eval_on_path
from .fourier import (_interval_nodes, _require_gaussian, compute_E,
                      compute_F, decompose, f_weights)
from .grids import build_grid
from .limits import gradient_energy, mean_se, root_mean_se
from .processes import (BrownianMotion, DeterministicGaussian, ProcessSpec,
                        _pass_buffer, simulate_paths)

ESTIMATOR_NAMES = ("riemann", "trapezoid", "bridge")
DEGENERATE_RMS = 1e-12
CHUNK_SIZE = 256
CHUNK_FLOATS = 2 ** 18      # floats per chunk path array: 2 MiB, about one L2 cache
G_DECAY_ORDER = 1.0         # Sobolev order s of the weight (1 + |u|^2)^-s
MAX_PROBE_STEPS = 2 ** 16   # fine steps of the diagnostics grid, lcm(n_list)


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
        lcm = math.lcm(*self.n_list)
        if self.kind == "diagnostics" and lcm > MAX_PROBE_STEPS:
            raise ConfigError(f"n_list: diagnostics simulates lcm(n_list) = "
                              f"{lcm} steps, more than {MAX_PROBE_STEPS}")
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
        if len(set(self.estimators)) < len(self.estimators):
            raise ConfigError(f"estimators must be distinct, "
                              f"got {self.estimators}")
        # studies the process or the function cannot support; these
        # messages name a key outside [study], except for the bridge
        process = type(self.spec).__name__
        brownian = isinstance(self.spec, BrownianMotion)
        if self.kind != "diagnostics" and (
                self.function.dimension != self.spec.dimension):
            raise ConfigError(
                f"[process] dimension is {self.spec.dimension}, but "
                f"{self.function.name} takes points of dimension "
                f"{self.function.dimension}")
        d = self.function.dimension
        origin = np.zeros(1 if d == 1 else (1, d))      # one point
        if self.kind != "diagnostics" and np.iscomplexobj(
                self.function.value(origin)):
            raise ConfigError(f"[function] descriptor: the {self.kind} study "
                              f"needs a real-valued function; "
                              f"{self.function.name} takes complex values")
        if self.kind in ("clt", "efficiency") and (
                self.function.value_and_gradient is None):
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
    tables: dict = field(default_factory=dict)   # name -> list of row dicts
    summary: dict = field(default_factory=dict)
    layout: dict = field(default_factory=dict)   # paths, chunk_size, chunks, threads


def _chunk_size(spec, grid) -> int:
    """Default paths per chunk: as many as keep a chunk's path array within
    ``CHUNK_FLOATS`` floats, clipped to [16, ``CHUNK_SIZE``]."""
    floats = (grid.fine_count + 1) * spec.dimension
    return int(np.clip(CHUNK_FLOATS // floats, 16, CHUNK_SIZE))


def _ensemble_map(spec, grid, paths: int, seed: int, worker,
                  threads: int = 1, chunk_size: int | None = None) -> dict:
    """Apply ``worker(bundle, buffers) -> dict of arrays`` chunk-wise and
    concatenate.

    Per-path random streams make the result independent of the chunk
    layout and of ``threads``; the chunk size only bounds peak memory, so
    it shrinks as the fine grid or the dimension grows. Each thread of the
    pass keeps one dict of pass buffers (see
    :func:`~occutime.processes._pass_buffer`), dropped when the pass ends:
    the simulator draws every chunk's paths into it, and the worker keeps
    its chunk-sized arrays there. So a bundle and the buffers are only
    valid while its worker runs: the worker's outputs must own their data,
    not view either.
    """
    if chunk_size is None:
        chunk_size = _chunk_size(spec, grid)
    starts = list(range(0, paths, chunk_size))
    local = threading.local()

    def run(start):
        if not hasattr(local, "buffers"):
            local.buffers = {}
        bundle = simulate_paths(spec, grid, min(chunk_size, paths - start),
                                seed, first_path_index=start,
                                buffers=local.buffers)
        return worker(bundle, local.buffers)

    if threads <= 1:
        parts = [run(s) for s in starts]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run, starts))
    return {k: np.concatenate([p[k] for p in parts]) for k in parts[0]}


def _study_outputs(f: TestFunction, t: float, n_list, estimators,
                   limit: bool, bundle, buffers: dict) -> dict:
    """Reference minus estimator at t per path and n in ``n_list``, shape
    (paths, len(n_list)), from one evaluation of f at the fine nodes of the
    observed paths: the coarse grid of n is every (fine_count / n)-th fine
    node and the fine sum is the reference for every n. With ``limit`` also
    the gradient energy up to t and the realized endpoint bias
    (f(Y_t) - f(Y_0)) / 2, which the limit laws need. The kernels may
    write f(Y) and grad f(Y) into the pass buffers ``buffers``, and the
    gradient energy squares sigma^T grad f(Y) in the one of grad f."""
    grid = bundle.grid
    shape = bundle.x.shape
    grad_buffer = _pass_buffer(buffers, "gradients", shape) if limit else None
    vals = eval_on_path(f, bundle, gradient=limit, out=(
        _pass_buffer(buffers, "values", shape[:2]), grad_buffer))
    if limit:
        vals, grad = vals
    ref = reference_value(vals, grid, t)
    out = {f"err_{name}": np.empty((len(ref), len(n_list)), ref.dtype)
           for name in estimators}
    for col, n in enumerate(n_list):
        stride = grid.fine_count // n
        coarse = build_grid(grid.horizon, n, stride)
        coarse_vals = vals[:, ::stride]
        for name in estimators:
            if name == "riemann":
                est = riemann_estimate(coarse_vals, coarse, t)
            elif name == "trapezoid":
                est = trapezoid_estimate(coarse_vals, coarse, t)
            else:
                y = bundle.x[:, ::stride]
                x_arg = y[:, :, 0] if f.dimension == 1 else y
                est = bridge_conditional_estimate(f, x_arg, coarse, t,
                                                  spec=bundle.spec)
            out[f"err_{name}"][:, col] = ref - est
    if limit:
        j = grid.fine_index(t)
        out["grad_energy"] = gradient_energy(bundle, grad, t, grad_buffer)
        out["bias_realized"] = 0.5 * (vals[:, j] - vals[:, 0]).real
    return out


def _layout(spec, grid, paths: int, threads: int) -> dict:
    """Chunk layout of a pass on ``grid``, with at most one thread per chunk."""
    chunk_size = _chunk_size(spec, grid)
    chunks = -(-paths // chunk_size)
    return {"paths": paths, "chunk_size": chunk_size, "chunks": chunks,
            "threads": max(1, min(threads, chunks))}


def _study_pass(cfg: StudyConfig, n_list, estimators,
                limit: bool) -> tuple[dict, dict]:
    """:func:`_study_outputs` over the whole ensemble, from one pass on the
    finest grid (``n_list[-1]`` coarse steps of ``refine`` fine steps), and
    the chunk layout of that pass."""
    grid = build_grid(cfg.horizon, cfg.n_list[-1], cfg.refine)
    layout = _layout(cfg.spec, grid, cfg.paths, cfg.threads)
    stats = _ensemble_map(cfg.spec, grid, cfg.paths, cfg.master_seed,
                          partial(_study_outputs, cfg.function, cfg.eval_time,
                                  n_list, estimators, limit),
                          cfg.threads, layout["chunk_size"])
    return stats, layout


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
    stats, layout = _study_pass(cfg, cfg.n_list, cfg.estimators, False)
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
    return StudyReport({"rates": rows}, summary, layout)


def clt_check(cfg: StudyConfig) -> StudyReport:
    """Distributional checks at the finest configured resolution.

    Trapezoid errors are standardized by the per-path conditional variance
    and compared with the standard normal (Kolmogorov-Smirnov); scaled
    Riemann errors are compared with the realized endpoint bias.
    """
    n = cfg.n_list[-1]
    delta = cfg.horizon / n
    stats, layout = _study_pass(cfg, (n,), ("riemann", "trapezoid"), True)
    condvar = stats["grad_energy"]
    err_trap = stats["err_trapezoid"][:, 0]
    keep = condvar > 0
    excluded = int(np.sum(~keep))
    if not keep.any():
        raise SimulationError(
            f"all {cfg.paths} paths have zero conditional variance up to "
            f"t = {cfg.eval_time}; nothing to standardize")
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
    return StudyReport({"standardized": table}, summary, layout)


def efficiency_study(cfg: StudyConfig) -> StudyReport:
    """Scaled RMS per estimator against the minimal asymptotic constant."""
    top = cfg.n_list[-1]
    stats, layout = _study_pass(cfg, cfg.n_list, cfg.estimators, True)
    rows = []
    scaled_at_top = {}
    for col, n in enumerate(cfg.n_list):
        delta = cfg.horizon / n
        for name in cfg.estimators:
            scaled = stats[f"err_{name}"][:, col] / delta
            st = _rms_stats(scaled)
            rows.append({"n": n, "delta": delta, "estimator": name,
                         "scaled_rms": st["rms"], "scaled_rms_se": st["rms_se"]})
            if n == top:
                scaled_at_top[name] = (st["rms"], st["rms_se"], scaled)
    energy = stats["grad_energy"]
    lower, lower_se = root_mean_se(energy)

    summary = {"lower_bound": lower, "lower_bound_se": lower_se}
    if "trapezoid" in scaled_at_top and lower > 0:
        val, _, scaled = scaled_at_top["trapezoid"]
        ratio = val / lower
        summary["efficiency_ratio_trapezoid"] = float(ratio)
        # delta method for sqrt(mean a / mean b), a = scaled^2 and b = energy
        # correlated per path: ratio / 2 times the s.e. of a/mean a - b/mean b
        summary["efficiency_ratio_se"] = 0.5 * ratio * mean_se(
            scaled ** 2 / val ** 2 - energy / lower ** 2)[1] if val > 0 else 0.0
    for name, (val, se, _) in scaled_at_top.items():
        summary[f"scaled_rms_{name}"] = val
        summary[f"scaled_rms_{name}_se"] = se
    return StudyReport({"efficiency": rows}, summary, layout)


def _g_decay_outputs(strides, weights, bundle, buffers: dict) -> dict:
    """Scaled sup over the coarse times of |F1|^2 + |F2|^2 per path and
    (n, u), from each n's coarse grid (every stride-th fine node) and its
    ``weights`` (u, c1, c2, scale) per u, c1 and c2 from :func:`f_weights`.
    F1, F2 and the sup's terms live in the pass buffers ``buffers``."""
    out = np.empty((bundle.count, len(strides), len(weights[0])))
    # one set of arrays for every n and u, sized for the finest n: a
    # temporary per step made the allocator unmap and fault in memory again
    size = bundle.count * (bundle.grid.fine_count // min(strides))
    phases = _pass_buffer(buffers, "phases", (2, size), complex)
    terms = _pass_buffer(buffers, "terms", (size,))
    for i, (stride, row) in enumerate(zip(strides, weights)):
        y_left = bundle.x[:, ::stride][:, :-1, 0]
        f1, f2 = phases[:, :y_left.size].reshape((2,) + y_left.shape)
        sup = terms[:y_left.size].reshape(y_left.shape)
        for j, (u, c1, c2, scale) in enumerate(row):
            np.exp(np.multiply(1j * u, y_left, out=f2), out=f2)   # the phase
            np.multiply(f2, c1, out=f1)
            np.multiply(f2, c2, out=f2)
            np.cumsum(f1, axis=1, out=f1)
            np.cumsum(f2, axis=1, out=f2)
            np.square(np.abs(f1, out=sup), out=sup)
            sup += np.square(np.abs(f2, out=f1.real), out=f1.real)
            out[:, i, j] = scale * sup.max(axis=1)
    return {"g": out}


def g_decay_probe(u_list, n_list, spec, count: int, seed: int,
                  horizon: float = 1.0, threads: int = 1) -> dict:
    """Empirical normalized bound sup_t (|F1|^2 + |F2|^2), scaled by
    step^-2 (1 + |u|^2)^-G_DECAY_ORDER, tabulated over a (u, n) probe grid
    on [0, horizon] with a Kendall monotonicity statistic per frequency.
    One :func:`_ensemble_map` pass on the grid of lcm(n_list) steps serves
    every n, which observes the paths at every (lcm / n)-th node.

    Returns two tables of row dicts: ``g_decay`` (u, n, g_hat, stderr),
    one row per (n, u) with n outer, and ``g_trend`` (u, kendall_tau,
    p_value), one row per entry of ``u_list``."""
    _require_gaussian(spec, "g_decay_probe")
    n_list = [int(n) for n in n_list]
    fine = math.lcm(*n_list)
    weights = []
    for n in n_list:
        grid = build_grid(horizon, n, 1)
        nodes = _interval_nodes(spec, grid, n)
        weights.append([
            (float(u), *f_weights(float(u), nodes),
             grid.coarse_step ** -2 / (1.0 + u * u) ** G_DECAY_ORDER)
            for u in u_list])
    g = _ensemble_map(spec, build_grid(horizon, fine, 1), count, seed,
                      partial(_g_decay_outputs, [fine // n for n in n_list],
                              weights), threads)["g"]
    rows = []
    for i, n in enumerate(n_list):
        for j, u in enumerate(u_list):
            g_hat, stderr = mean_se(g[:, i, j])
            rows.append({"u": float(u), "n": n, "g_hat": g_hat,
                         "stderr": stderr})
    from scipy.stats import kendalltau    # slow to import; only used here
    trend = []
    for j, u in enumerate(u_list):
        column = [row["g_hat"] for row in rows[j::len(u_list)]]   # over n
        tau_stat, p = (kendalltau(n_list, column) if len(n_list) > 1
                       else (float("nan"), float("nan")))
        trend.append({"u": float(u), "kendall_tau": float(tau_stat),
                      "p_value": float(p)})
    return {"g_decay": rows, "g_trend": trend}


def diagnostics_study(cfg: StudyConfig) -> StudyReport:
    """Frequency-domain diagnostics: normalized F1/F2 second-moment decay
    over (u, n) from one chunked pass, and the decomposition identity
    residuals on a small exponential probe ensemble."""
    count = min(cfg.paths, 2000)
    tables = g_decay_probe(cfg.u_list, cfg.n_list, cfg.spec, count,
                           cfg.master_seed, cfg.horizon, cfg.threads)
    layout = _layout(cfg.spec, build_grid(cfg.horizon, math.lcm(*cfg.n_list)),
                     count, cfg.threads)
    summary = {"sup_g_hat": max(r["g_hat"] for r in tables["g_decay"])}
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
    return StudyReport(tables, summary, layout)


def run_study(cfg: StudyConfig) -> StudyReport:
    runner = {"rate": rate_study, "clt": clt_check,
              "efficiency": efficiency_study,
              "diagnostics": diagnostics_study}[cfg.kind]
    return runner(cfg)
