import math
import tracemalloc
from dataclasses import replace
from functools import cache, partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from occutime import (
    BrownianMotion,
    ConfigError,
    DeterministicGaussian,
    StochVol,
    StudyConfig,
    clt_check,
    complex_exponential,
    constant,
    diagnostics_study,
    efficiency_study,
    build_grid,
    gaussian_bump,
    identity,
    lacunary,
    rate_study,
    simulate_paths,
    tensor_product,
)
from occutime import experiments
from occutime.experiments import (_ensemble_map, _fit_slope, _gls_line,
                                  _log_rms_cov, _rms_stats, _study_outputs,
                                  _study_pass, g_decay_probe)


def _cfg(**kw):
    base = dict(spec=BrownianMotion(), function=gaussian_bump(),
                n_list=(16, 32, 64), refine=16, paths=200, master_seed=7,
                kind="rate")
    base.update(kw)
    return StudyConfig(**base)


@pytest.mark.parametrize("bad", [
    dict(n_list=(32, 16)),
    dict(n_list=()),
    dict(paths=50),
    dict(kind="nope"),
    dict(estimators=("simpson",)),
    dict(estimators=()),
    dict(n_list=(0, 16)),
    dict(n_list=(16, 24, 64), refine=8),
    dict(kind="efficiency", n_list=(3, 16)),
    dict(horizon=float("inf")),
    dict(t_eval=-0.1),
    dict(estimators=("trapezoid", "trapezoid")),
    dict(kind="diagnostics", n_list=(255, 256, 257), refine=8),
])
def test_config_validation(bad):
    with pytest.raises(ConfigError):
        _cfg(**bad)


@pytest.mark.parametrize("kind", ["rate", "clt", "efficiency"])
def test_study_rejects_a_function_of_another_dimension(kind):
    plane = BrownianMotion(dimension=2)
    with pytest.raises(ConfigError, match=r"^\[process\] dimension is 2, "
                       r"but gaussian_bump takes points of dimension 1"):
        _cfg(kind=kind, spec=plane)
    # the diagnostics study does not read the function
    assert _cfg(kind="diagnostics", spec=plane).spec is plane


@pytest.mark.parametrize("kind", ["rate", "clt", "efficiency"])
def test_study_rejects_a_complex_valued_function(kind):
    with pytest.raises(ConfigError, match=r"^\[function\] descriptor: the "
                       rf"{kind} study needs a real-valued function; "
                       r"complex_exponential\(2\.0\) takes complex values"):
        _cfg(kind=kind, function=complex_exponential(2.0))


def test_diagnostics_accepts_a_complex_valued_function():
    # its decomposition probe evaluates its own complex exponential
    cfg = _cfg(kind="diagnostics", function=complex_exponential(2.0),
               n_list=(8, 16), refine=8, paths=100, u_list=(1.0,))
    assert np.isfinite(diagnostics_study(cfg).summary["sup_g_hat"])


def test_refine_floor_enforced():
    with pytest.raises(ConfigError):
        rate_study(_cfg(refine=4))


def test_rate_study_smooth_slope_near_one():
    report = rate_study(_cfg(paths=400))
    for name in ("riemann", "trapezoid"):
        assert 0.85 < report.summary[name]["slope"] < 1.15
    assert len(report.tables["rates"]) == 6
    row = report.tables["rates"][0]
    assert {"n", "delta", "estimator", "rms", "rms_se"} <= set(row)


def test_rate_study_constant_degenerate():
    report = rate_study(_cfg(function=constant(1.0)))
    assert report.summary["riemann"]["degenerate"]
    assert np.isnan(report.summary["riemann"]["slope"])


def test_non_nesting_n_list_allowed_for_clt_and_diagnostics():
    for kind in ("clt", "diagnostics"):
        _cfg(kind=kind, n_list=(16, 24, 64), refine=8)


def test_non_nesting_diagnostics_runs_on_the_lcm_grid(monkeypatch):
    # every n of (16, 24, 64) is read from one ensemble of lcm = 192 steps;
    # the decomposition probe then draws its own grid of n_list[0] steps
    grids = []
    simulate = experiments.simulate_paths

    def recording(spec, grid, *args, **kwargs):
        grids.append(grid)
        return simulate(spec, grid, *args, **kwargs)

    monkeypatch.setattr(experiments, "simulate_paths", recording)
    report = diagnostics_study(_cfg(kind="diagnostics", n_list=(16, 24, 64),
                                    refine=8, paths=100, u_list=(1.0, 3.0)))
    assert grids == [build_grid(1.0, 192, 1), build_grid(1.0, 16, 8)]
    rows = report.tables["g_decay"]
    assert [(r["n"], r["u"]) for r in rows] == [
        (n, u) for n in (16, 24, 64) for u in (1.0, 3.0)]
    assert all(np.isfinite(r["g_hat"]) and r["g_hat"] > 0 for r in rows)
    assert report.summary["max_decomposition_residual"] < 1e-10


def test_coupled_top_rows_equal_single_resolution_study():
    spec = BrownianMotion(shift_half_width=0.5)
    estimators = ("riemann", "trapezoid", "bridge")
    coupled = rate_study(_cfg(spec=spec, estimators=estimators))
    single = rate_study(_cfg(spec=spec, estimators=estimators, n_list=(64,)))
    top = [row for row in coupled.tables["rates"] if row["n"] == 64]
    assert top == single.tables["rates"]


def test_gls_line_is_wls_when_diagonal_and_whitened_ols_otherwise():
    rng = np.random.default_rng(3)
    x = np.log([1 / 16, 1 / 32, 1 / 64, 1 / 128])
    y = 0.3 + 1.0 * x + 0.01 * rng.standard_normal(4)
    se = np.array([0.01, 0.02, 0.015, 0.03])
    slope, _, chi_sq = _gls_line(x, y, np.diag(se ** 2))
    b, a = np.polyfit(x, y, 1, w=1 / se)
    assert slope == pytest.approx(b, rel=1e-10)
    assert chi_sq == pytest.approx(np.sum(((y - a - b * x) / se) ** 2),
                                   rel=1e-8)
    # correlated errors: OLS on the Cholesky-whitened problem
    root = np.tril(rng.uniform(0.001, 0.01, (4, 4))) + np.diag(se)
    cov = root @ root.T
    slope, slope_se, _ = _gls_line(x, y, cov)
    white = np.linalg.solve(np.linalg.cholesky(cov),
                            np.column_stack([np.ones(4), x, y]))
    coef, *_ = np.linalg.lstsq(white[:, :2], white[:, 2], rcond=None)
    gram_inv = np.linalg.inv(white[:, :2].T @ white[:, :2])
    assert slope == pytest.approx(coef[1], rel=1e-10)
    assert slope_se == pytest.approx(np.sqrt(gram_inv[1, 1]), rel=1e-10)


def test_fit_slope_uses_every_resolution():
    # a bent coarsest point gives a large lack-of-fit chi^2; the slope is
    # still the GLS line through all points
    deltas = [1 / 16, 1 / 32, 1 / 64, 1 / 128, 1 / 256]
    rms = np.array(deltas) * [3.0, 1.0, 1.0, 1.0, 1.0]
    cov = np.diag(np.full(5, 1e-4))
    fit = _fit_slope(deltas, rms, cov)
    slope, slope_se, chi_sq = _gls_line(np.log(deltas), np.log(rms), cov)
    assert chi_sq > 1e3
    assert fit == {"slope": slope, "slope_se": slope_se,
                   "slope_ci_low": slope - 1.96 * slope_se,
                   "slope_ci_high": slope + 1.96 * slope_se,
                   "lack_of_fit_chi2": chi_sq}


def test_log_rms_cov_diagonal_is_the_wls_variance():
    err = np.random.default_rng(4).standard_normal((300, 3)) * [1.0, 0.5, 0.2]
    cov = _log_rms_cov(err)
    for k in range(3):
        st_k = _rms_stats(err[:, k])
        assert cov[k, k] == pytest.approx((st_k["rms_se"] / st_k["rms"]) ** 2,
                                          rel=1e-12)


def test_studies_read_one_set_of_errors():
    # rate, efficiency and clt take the same finest-grid pass, so their
    # top-resolution errors agree to rounding
    spec = BrownianMotion(shift_half_width=0.5)
    rates = rate_study(_cfg(spec=spec)).tables["rates"]
    top = {row["estimator"]: row for row in rates if row["n"] == 64}
    delta = 1.0 / 64
    eff = efficiency_study(_cfg(spec=spec, kind="efficiency")).summary
    assert eff["scaled_rms_trapezoid"] == pytest.approx(
        top["trapezoid"]["rms"] / delta, rel=1e-12)
    clt = clt_check(_cfg(spec=spec, kind="clt")).summary
    for name in ("riemann", "trapezoid"):
        assert clt[f"scaled_{name}_mean"] == pytest.approx(
            top[name]["mean_error"] / delta, rel=1e-12)


def test_rate_rms_monotone_in_n():
    report = rate_study(_cfg(paths=400))
    by_est = {}
    for row in report.tables["rates"]:
        by_est.setdefault(row["estimator"], []).append(
            (row["n"], row["rms"], row["rms_se"]))
    for rows in by_est.values():
        rows.sort()
        for (n1, r1, s1), (n2, r2, s2) in zip(rows, rows[1:]):
            assert r2 <= r1 + 2 * (s1 + s2)


def test_clt_check_summary_fields():
    cfg = _cfg(kind="clt", function=identity(), n_list=(64,), paths=400)
    report = clt_check(cfg)
    s = report.summary
    assert s["ks_pvalue"] > 0.001
    assert s["excluded_zero_variance"] == 0
    # trapezoid errors are asymptotically centered
    assert abs(s["scaled_trapezoid_mean"]) < 4 * s["scaled_trapezoid_mean_se"]
    assert len(report.tables["standardized"]) == 400


def test_clt_standardizes_up_to_t_eval():
    cfg = _cfg(kind="clt", n_list=(64,), paths=400, t_eval=0.5)
    assert clt_check(cfg).summary["ks_pvalue"] > 1e-3


def test_clt_requires_gradient():
    from occutime import indicator
    with pytest.raises(Exception):
        clt_check(_cfg(kind="clt", function=indicator(0.0, 1.0)))


def test_efficiency_requires_brownian():
    with pytest.raises(ConfigError):
        efficiency_study(_cfg(kind="efficiency", spec=StochVol(),
                              function=identity()))


def test_efficiency_identity_constants():
    cfg = _cfg(kind="efficiency", function=identity(), n_list=(16, 64),
               paths=600, estimators=("riemann", "trapezoid", "bridge"))
    report = efficiency_study(cfg)
    s = report.summary
    assert s["lower_bound"] == pytest.approx(np.sqrt(1.0 / 12.0), rel=1e-10)
    assert s["scaled_rms_trapezoid"] == pytest.approx(
        np.sqrt(1.0 / 12.0), abs=4 * s["scaled_rms_trapezoid_se"])
    assert s["scaled_rms_riemann"] == pytest.approx(
        np.sqrt(1.0 / 3.0), abs=4 * s["scaled_rms_riemann_se"])
    assert s["efficiency_ratio_trapezoid"] == pytest.approx(1.0, abs=0.1)
    # bridge realizes the trapezoid for f = identity
    assert s["scaled_rms_bridge"] == pytest.approx(
        s["scaled_rms_trapezoid"], rel=1e-10)


def test_efficiency_ratio_se_uses_the_path_covariance():
    # delta method for sqrt(mean a / mean b), with a the scaled squared
    # trapezoid error at the top n and b the gradient energy per path,
    # under their sample covariance
    cfg = _cfg(kind="efficiency", paths=400)
    s = efficiency_study(cfg).summary
    stats, _ = _study_pass(cfg, cfg.n_list, cfg.estimators, True)
    a = (stats["err_trapezoid"][:, -1] / (1.0 / 64)) ** 2
    b = stats["grad_energy"]
    cov = np.cov(np.stack([a, b]))
    ma, mb = a.mean(), b.mean()
    ratio = math.sqrt(ma / mb)
    grad = np.array([0.5 / ma, -0.5 / mb])
    se = ratio * math.sqrt(grad @ cov @ grad / len(a))
    assert s["efficiency_ratio_trapezoid"] == pytest.approx(ratio, rel=1e-12)
    assert s["efficiency_ratio_se"] == pytest.approx(se, rel=1e-10)
    # the error and the energy are positively correlated, so the s.e. is
    # below the one that treats them as independent
    independent = ratio * math.sqrt(grad ** 2 @ np.diag(cov) / len(a))
    assert cov[0, 1] > 0
    assert s["efficiency_ratio_se"] < independent


def test_efficiency_lower_bound_up_to_t_eval():
    # E|f'(W_t)|^2 = t (1 + 2t)^(-3/2) for the Gaussian bump
    cfg = _cfg(kind="efficiency", n_list=(16, 32), paths=400, t_eval=0.5)
    s = efficiency_study(cfg).summary
    oracle = math.sqrt(quad(lambda t: t * (1 + 2 * t) ** -1.5, 0, 0.5)[0] / 12)
    assert s["lower_bound"] == pytest.approx(oracle, abs=4 * s["lower_bound_se"])


_CHUNK_WORKERS = {
    "clt": partial(_study_outputs, gaussian_bump(), 0.75, (8,),
                   ("riemann", "trapezoid"), True),
    "efficiency": partial(_study_outputs, gaussian_bump(), 0.75, (8,),
                          ("riemann", "trapezoid", "bridge"), True),
    "rate": partial(_study_outputs, gaussian_bump(), 0.75, (2, 4, 8),
                    ("riemann", "trapezoid", "bridge"), False),
    "lacunary": partial(_study_outputs, lacunary(1.2, J=7), 0.75, (2, 4, 8),
                        ("riemann", "trapezoid", "bridge"), True),
    "tensor-2d": partial(_study_outputs,
                         tensor_product([gaussian_bump(), lacunary(1.2, J=7)]),
                         0.75, (2, 4, 8), ("riemann", "trapezoid", "bridge"),
                         True),
}


def _brownian(kind, **kwargs):
    """Brownian motion of the dimension of the worker's function."""
    f = _CHUNK_WORKERS[kind].args[0]
    return BrownianMotion(dimension=f.dimension, **kwargs)


@cache
def _chunked_outputs(kind, chunk_size):
    return _ensemble_map(_brownian(kind, shift_half_width=0.5),
                         build_grid(1.0, 8, 8), 100, 5, _CHUNK_WORKERS[kind],
                         chunk_size=chunk_size)


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(sorted(_CHUNK_WORKERS)),
       chunk_size=st.integers(16, 300))
def test_worker_outputs_independent_of_chunk_size(kind, chunk_size):
    whole = _chunked_outputs(kind, 100)
    chunked = _chunked_outputs(kind, chunk_size)
    assert whole.keys() == chunked.keys()
    for key in whole:
        np.testing.assert_array_equal(whole[key], chunked[key])


@pytest.mark.parametrize("spec, worker", [
    *((_brownian(kind, shift_half_width=0.5), _CHUNK_WORKERS[kind])
      for kind in sorted(_CHUNK_WORKERS)),
    # the bridge needs Brownian motion
    (StochVol(), partial(_study_outputs, gaussian_bump(), 0.75, (2, 4, 8),
                         ("riemann", "trapezoid"), False)),
], ids=[*sorted(_CHUNK_WORKERS), "stochvol-rate"])
def test_default_chunks_of_a_large_grid_match_one_chunk(spec, worker):
    # 4097 fine nodes: the default layout is two 63-path chunks here
    grid = build_grid(1.0, 64, 64)
    default = _ensemble_map(spec, grid, 100, 5, worker)
    whole = _ensemble_map(spec, grid, 100, 5, worker, chunk_size=100)
    assert default.keys() == whole.keys()
    for key in whole:
        np.testing.assert_array_equal(default[key], whole[key])


def test_one_thread_reuses_its_chunk_buffers():
    seen = []

    def worker(bundle, buffers):
        seen.append((bundle, buffers))
        return {"count": np.array([bundle.count])}

    out = _ensemble_map(StochVol(), build_grid(1.0, 8, 8), 100, 5, worker,
                        chunk_size=40)
    assert out["count"].tolist() == [40, 40, 20]
    first, buffers = seen[0]
    for bundle, chunk_buffers in seen[1:]:
        assert np.shares_memory(bundle.x, first.x)
        assert np.shares_memory(bundle.sigma, first.sigma)
        assert chunk_buffers is buffers


_STOCHVOL_LIMIT = partial(_study_outputs, gaussian_bump(), 0.75, (2, 4, 8),
                          ("riemann", "trapezoid"), True)

_OWNERSHIP_CASES = pytest.mark.parametrize("spec, worker", [
    # no shift; the kernels read the observed paths bundle.x themselves
    *((_brownian(kind), _CHUNK_WORKERS[kind])
      for kind in sorted(_CHUNK_WORKERS)),
    (StochVol(), _STOCHVOL_LIMIT),
], ids=[*sorted(_CHUNK_WORKERS), "stochvol-limit"])


@_OWNERSHIP_CASES
def test_chunk_worker_outputs_own_their_data(spec, worker):
    # the next chunk overwrites the bundle's buffers before the outputs
    # are concatenated, so no output may view them
    bundle = simulate_paths(spec, build_grid(1.0, 8, 8), 20, 5)
    for key, value in worker(bundle, {}).items():
        for array in (bundle.x, bundle.sigma):
            if array is not None:
                assert not np.shares_memory(value, array), key


@_OWNERSHIP_CASES
def test_chunk_worker_outputs_do_not_view_the_pass_buffers(spec, worker):
    # nor the pass buffers, which the thread's next chunk overwrites too
    bundle = simulate_paths(replace(spec, shift_half_width=0.5),
                            build_grid(1.0, 8, 8), 20, 5)
    buffers = {}
    outputs = worker(bundle, buffers)
    assert buffers
    for key, value in outputs.items():
        for name, array in buffers.items():
            assert not np.shares_memory(value, array), (key, name)


def test_one_thread_reuses_its_value_and_gradient_buffers(monkeypatch):
    seen = []
    evaluate = experiments.eval_on_path

    def recording(*args, **kwargs):
        seen.append(evaluate(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(experiments, "eval_on_path", recording)
    _ensemble_map(BrownianMotion(shift_half_width=0.5), build_grid(1.0, 8, 8),
                  100, 5, _CHUNK_WORKERS["clt"], chunk_size=40)
    assert len(seen) == 3
    (values, grads), rest = seen[0], seen[1:]
    for chunk_values, chunk_grads in rest:
        assert np.shares_memory(chunk_values, values)
        assert np.shares_memory(chunk_grads, grads)


def test_limit_pass_allocates_no_chunk_array_beyond_its_buffers():
    # three chunks of 40 paths on 2049 fine nodes, on one thread: the pass
    # buffers (Y, f and grad f) are made for the first chunk and reused,
    # and every other array of a chunk, the bridge's and numpy's fixed-size
    # ufunc buffers included, is well below one chunk
    held = []

    def worker(bundle, buffers):
        held.append((bundle.x, buffers))
        return _CHUNK_WORKERS["efficiency"](bundle, buffers)

    run = partial(_ensemble_map, BrownianMotion(shift_half_width=0.5),
                  build_grid(1.0, 8, 256), 120, 5, worker, chunk_size=40)
    run()               # first calls import modules and fill lru caches
    held.clear()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    chunk = 40 * 2049 * 8
    paths, buffers = held[0]
    assert paths.nbytes == chunk
    assert sorted(buffers) == ["gradients", "values", "x"]
    assert np.shares_memory(paths, buffers["x"])
    assert all(b is buffers for _, b in held)
    kept = sum(a.nbytes for a in buffers.values())
    assert kept == 3 * chunk
    assert peak < kept + chunk / 2


def test_two_thread_chunks_with_a_partial_last_match_one_chunk():
    # three chunks of 40, 40 and 20 paths on two threads
    grid = build_grid(1.0, 16, 16)
    chunked = _ensemble_map(StochVol(), grid, 100, 5, _STOCHVOL_LIMIT, 2,
                            chunk_size=40)
    whole = _ensemble_map(StochVol(), grid, 100, 5, _STOCHVOL_LIMIT,
                          chunk_size=100)
    assert chunked.keys() == whole.keys()
    for key in whole:
        np.testing.assert_array_equal(chunked[key], whole[key])


def test_study_layout_budgets_path_floats():
    # 4097 fine nodes: 2**18 floats hold 63 paths in d = 1 and 31 in d = 2
    bump = gaussian_bump()
    plane = BrownianMotion(dimension=2, x0=(0.0, 0.0))
    for spec, f, chunk_size in (
            (BrownianMotion(), bump, 63),
            (plane, tensor_product([bump, bump]), 31)):
        report = rate_study(_cfg(spec=spec, function=f, refine=64,
                                 paths=100))
        assert report.layout == {"paths": 100, "chunk_size": chunk_size,
                                 "chunks": -(-100 // chunk_size),
                                 "threads": 1}


def test_study_pass_memory_stays_within_a_few_chunks():
    worker = partial(_study_outputs, gaussian_bump(), 1.0,
                     (16, 32, 64, 128, 256), ("trapezoid",), False)
    tracemalloc.start()
    try:
        _ensemble_map(StochVol(1.0, 0.5), build_grid(1.0, 256, 64), 64, 3,
                      worker, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_diagnostics_study_tables():
    cfg = _cfg(kind="diagnostics", n_list=(8, 16, 32, 64), refine=8,
               paths=200, u_list=(1.0, 3.0))
    report = diagnostics_study(cfg)
    assert {row["u"] for row in report.tables["g_trend"]} == {1.0, 3.0}
    assert report.summary["max_decomposition_residual"] < 1e-10
    assert report.summary["max_drift_identity_residual"] < 1e-10
    assert np.isfinite(report.summary["sup_g_hat"])


def test_diagnostics_g_decay_honours_horizon():
    cfg = _cfg(kind="diagnostics", n_list=(8, 16), refine=8, paths=100,
               u_list=(1.0, 3.0), horizon=2.0)
    rows = diagnostics_study(cfg).tables["g_decay"]
    probe = g_decay_probe((1.0, 3.0), (8, 16), BrownianMotion(), 100, 7,
                          horizon=2.0)
    assert rows == probe["g_decay"]


def test_diagnostics_thread_count_does_not_change_results():
    # 600 paths on the 65-node probe grid are three 256-path chunks
    cfg = dict(kind="diagnostics", n_list=(8, 16, 32, 64), refine=8,
               paths=600, u_list=(1.0, 3.0))
    r1 = diagnostics_study(_cfg(threads=1, **cfg))
    r4 = diagnostics_study(_cfg(threads=4, **cfg))
    assert r1.tables == r4.tables
    assert r1.summary == r4.summary
    layout = {"paths": 600, "chunk_size": 256, "chunks": 3}
    assert r1.layout == {**layout, "threads": 1}
    assert r4.layout == {**layout, "threads": 3}


def test_thread_count_does_not_change_results():
    r1 = rate_study(_cfg(paths=300, threads=1))
    r4 = rate_study(_cfg(paths=300, threads=4))
    # two 255-path chunks: the second pass uses two of its four threads
    assert (r1.layout["threads"], r4.layout["threads"]) == (1, 2)
    for a, b in zip(r1.tables["rates"], r4.tables["rates"]):
        assert a["rms"] == b["rms"]
        assert a["mean_error"] == b["mean_error"]


def test_shift_does_not_change_slope_conclusion():
    plain = rate_study(_cfg(paths=300))
    shifted = rate_study(_cfg(paths=300,
                              spec=BrownianMotion(shift_half_width=0.5)))
    for name in ("riemann", "trapezoid"):
        a, b = plain.summary[name], shifted.summary[name]
        gap = abs(a["slope"] - b["slope"])
        assert gap < 1.96 * (a["slope_se"] + b["slope_se"]) + 0.1
