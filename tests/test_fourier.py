from dataclasses import replace

import numpy as np
import pytest

from occutime import (
    BrownianMotion,
    CapabilityError,
    DeterministicGaussian,
    StochVol,
    build_grid,
    complex_exponential,
    constant,
    gaussian_bump,
    identity,
    reference_value,
    riemann_estimate,
    simulate_paths,
)
from occutime.fourier import (
    _interval_nodes,
    compute_E,
    compute_F,
    decompose,
    g_decay_probe,
)
from occutime.functions import eval_on_path


@pytest.fixture(scope="module")
def bundle():
    grid = build_grid(1.0, 8, 64)
    return simulate_paths(BrownianMotion(), grid, 40, master_seed=77)


def test_interval_node_ends_closed_form():
    # over a step of 0.5 the increment of X has variance 0.5 sigma^2, and
    # |E exp(iuX)| = exp(-u^2 var_end / 2) does not see the drift
    grid = build_grid(1.0, 2)
    bm = _interval_nodes(BrownianMotion(), grid, 2)
    np.testing.assert_allclose(bm.var_end, 0.5)
    np.testing.assert_allclose(bm.mean_end, 0.0)
    scaled = DeterministicGaussian(
        dimension=1, drift=lambda t: np.full(t.shape + (1,), 5.0),
        diffusion=lambda t: np.full(t.shape + (1, 1), 2.0))
    nodes = _interval_nodes(scaled, grid, 2)
    np.testing.assert_allclose(np.exp(-0.5 * nodes.var_end), np.exp(-1.0))
    np.testing.assert_allclose(nodes.mean_end, 2.5)


def test_constant_function_decomposes_to_zero(bundle):
    trace = decompose(constant(2.0), bundle)
    np.testing.assert_allclose(trace.martingale, 0.0, atol=1e-12)
    np.testing.assert_allclose(trace.drift, 0.0, atol=1e-12)
    np.testing.assert_allclose(compute_E(constant(2.0), bundle), 0.0, atol=1e-12)


def test_zero_frequency_terms_vanish(bundle):
    f0 = complex_exponential(0.0)
    trace = decompose(f0, bundle)
    np.testing.assert_allclose(np.abs(trace.total), 0.0, atol=1e-12)
    np.testing.assert_allclose(np.abs(compute_F(0.0, bundle)[1]), 0.0, atol=1e-14)


def test_brownian_f1_vanishes(bundle):
    np.testing.assert_allclose(np.abs(compute_F(2.0, bundle)[0]), 0.0, atol=1e-15)


def test_identity_drift_sum_vanishes_for_brownian(bundle):
    # martingale increments have zero conditional mean
    np.testing.assert_allclose(compute_E(identity(), bundle), 0.0, atol=1e-10)


def test_deterministic_drift_E_value():
    # dX = dt, sigma = 0, f(x) = x, T = 1, n = 4: E = (step/2) * sum step = 1/8
    spec = DeterministicGaussian(
        dimension=1, drift=lambda t: np.full(t.shape + (1,), 1.0),
        diffusion=lambda t: np.zeros(t.shape + (1, 1)), nondegenerate=False)
    grid = build_grid(1.0, 4, 8)
    b = simulate_paths(spec, grid, 3, master_seed=1)
    np.testing.assert_allclose(compute_E(identity(), b), 0.125, atol=1e-12)


@pytest.mark.parametrize("u", [1.0, 2.0, 5.0])
def test_decomposition_identity(bundle, u):
    f = complex_exponential(u)
    grid = bundle.grid
    fine_vals = eval_on_path(f, bundle)
    realized = (reference_value(fine_vals, grid)
                - riemann_estimate(fine_vals[:, ::grid.refine_factor], grid))
    trace = decompose(f, bundle)
    assert np.max(np.abs(trace.total - realized)) < 1e-6


def _time_varying_bundle():
    # no closed-form integrals: the moments come from Gauss-Legendre
    spec = DeterministicGaussian(
        dimension=1, drift=lambda t: np.sin(3.0 * t)[..., None],
        diffusion=lambda t: (1.0 + 0.5 * t)[..., None, None])
    return simulate_paths(spec, build_grid(1.0, 8, 64), 40, master_seed=78)


@pytest.mark.parametrize("process, u", [
    pytest.param("brownian", 1.0, id="1.0"),
    pytest.param("brownian", 3.0, id="3.0"),
    pytest.param("time_varying", 1.0, id="time_varying-1.0"),
    pytest.param("time_varying", 3.0, id="time_varying-3.0"),
])
def test_drift_identity(bundle, process, u):
    if process == "time_varying":
        bundle = _time_varying_bundle()
    f = complex_exponential(u)
    trace = decompose(f, bundle)
    gap = (trace.drift - compute_E(f, bundle)
           - sum(compute_F(u, bundle)))
    assert np.max(np.abs(gap)) < 1e-8


def test_martingale_term_centered():
    grid = build_grid(1.0, 16, 16)
    big = simulate_paths(BrownianMotion(), grid, 3000, master_seed=5)
    trace = decompose(complex_exponential(2.0), big)
    m = trace.martingale
    for part in (m.real, m.imag):
        se = part.std(ddof=1) / np.sqrt(len(part))
        assert abs(part.mean()) < 3 * se


def test_decompose_rejects_stochvol():
    grid = build_grid(1.0, 4, 8)
    b = simulate_paths(StochVol(), grid, 3, master_seed=2)
    with pytest.raises(CapabilityError):
        decompose(complex_exponential(1.0), b)


def test_decompose_needs_closed_form_or_gradient(bundle):
    # a gradient is not enough: the conditional expectations are closed forms
    with pytest.raises(CapabilityError):
        decompose(replace(gaussian_bump(), gaussian_expectation=None), bundle)


def test_g_probe_zero_frequency_row():
    probe = g_decay_probe([0.0], [8, 16], BrownianMotion(), 50, seed=3)
    assert all(row.g_hat == 0.0 for row in probe.rows)


def test_g_probe_rows_match_per_grid_simulation():
    # oracle: one simulate_paths ensemble per n, and sup_t (|F1|^2 + |F2|^2)
    # over the coarse times from compute_F at each of them
    spec = DeterministicGaussian(
        dimension=1, drift=lambda t: np.sin(3.0 * t)[..., None],
        diffusion=lambda t: (1.0 + 0.5 * t)[..., None, None])
    u_list, n_list, horizon = (1.0, 3.0), (4, 8, 16), 0.5
    probe = g_decay_probe(u_list, n_list, spec, 60, seed=12, horizon=horizon)
    expected = []
    for n in n_list:
        grid = build_grid(horizon, n, 1)
        bundle = simulate_paths(spec, grid, 60, master_seed=12)
        for u in u_list:
            sup = np.max([np.abs(f1) ** 2 + np.abs(f2) ** 2
                          for f1, f2 in (compute_F(u, bundle, t)
                                         for t in grid.coarse_times[1:])],
                         axis=0)
            vals = sup / grid.coarse_step ** 2 / (1.0 + u * u)
            expected.append((u, n, vals.mean(),
                             vals.std(ddof=1) / np.sqrt(len(vals))))
    assert [(r.u, r.n) for r in probe.rows] == [e[:2] for e in expected]
    for row, (_, _, g_hat, stderr) in zip(probe.rows, expected):
        assert row.g_hat == pytest.approx(g_hat, rel=1e-12)
        assert row.stderr == pytest.approx(stderr, rel=1e-10)


def test_g_probe_decreasing_trend():
    probe = g_decay_probe([2.0], [8, 16, 32, 64, 128], BrownianMotion(),
                          300, seed=9)
    tau, p = probe.trend[2.0]
    assert tau < 0
    assert p < 0.05
    assert np.isfinite(probe.sup_over_grid)
