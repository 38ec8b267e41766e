import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad, trapezoid

from occutime import (
    BrownianMotion,
    CapabilityError,
    ConfigError,
    StochVol,
    TestFunction,
    bridge_conditional_estimate,
    build_grid,
    gaussian_bump,
    identity,
    indicator,
    power_singularity,
    quadratic,
    reference_value,
    riemann_estimate,
    simulate_paths,
    tensor_product,
    trapezoid_estimate,
)
from occutime.functions import eval_on_path


grids = st.tuples(st.floats(0.25, 4.0), st.integers(1, 40),
                  st.floats(0.0, 1.0))     # horizon, n, t as a share of it


@given(grids, st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_trapezoid_is_riemann_plus_boundary_correction(shape, seed):
    horizon, n, share = shape
    grid = build_grid(horizon, n, 1)
    t = share * horizon
    k = grid.coarse_index(t)
    vals = np.random.default_rng(seed).standard_normal((3, n + 1))
    correction = 0.5 * grid.coarse_step * (vals[:, k] - vals[:, 0])
    np.testing.assert_allclose(trapezoid_estimate(vals, grid, t),
                               riemann_estimate(vals, grid, t) + correction,
                               rtol=1e-12, atol=1e-14)


@given(grids, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
       st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_bridge_equals_trapezoid_for_affine_f(shape, a, b, seed):
    # the bridge mean is linear in time, so E[a + b X] integrates exactly
    horizon, n, share = shape
    grid = build_grid(horizon, n, 1)
    t = share * horizon
    f = TestFunction("affine", lambda x: a + b * np.asarray(x, float),
                     gaussian_expectation=lambda mu, var: a + b * mu)
    x = np.cumsum(np.random.default_rng(seed).standard_normal((3, n + 1)),
                  axis=1)
    np.testing.assert_allclose(bridge_conditional_estimate(f, x, grid, t),
                               trapezoid_estimate(f.value(x), grid, t),
                               rtol=1e-10, atol=1e-10)


def test_estimators_at_intermediate_time():
    grid = build_grid(1.0, 4, 2)
    vals = np.arange(5.0)
    assert riemann_estimate(vals, grid, t=0.5) == pytest.approx(0.25 * (0 + 1))
    assert trapezoid_estimate(vals, grid, t=0.5) == pytest.approx(
        0.25 * (0.5 * 0 + 1 + 0.5 * 2))
    assert riemann_estimate(vals, grid, t=0.1) == 0.0


def test_reference_value_is_fine_trapezoid():
    grid = build_grid(1.0, 2, 4)
    vals = grid.fine_times ** 2
    assert reference_value(vals, grid) == pytest.approx(
        trapezoid(vals, dx=grid.fine_step))
    with pytest.raises(ConfigError):
        reference_value(vals, build_grid(1.0, 2, 1))


def test_bridge_equals_trapezoid_for_identity():
    grid = build_grid(1.0, 16, 1)
    bundle = simulate_paths(BrownianMotion(), grid, 100, master_seed=21)
    coarse = bundle.x[:, ::grid.refine_factor][:, :, 0]
    bridge = bridge_conditional_estimate(identity(), coarse, grid)
    trap = trapezoid_estimate(coarse, grid)
    np.testing.assert_allclose(bridge, trap, atol=1e-12)


def test_bridge_quadratic_single_interval():
    # one interval from 0 to 0 on [0, 1]: E int_0^1 B_tau^2 dtau with a
    # standard bridge B equals int tau (1 - tau) dtau = 1/6
    grid = build_grid(1.0, 1, 1)
    coarse = np.zeros((1, 2))
    val = bridge_conditional_estimate(quadratic(), coarse, grid)
    assert val[0] == pytest.approx(1.0 / 6.0, rel=1e-10)


def test_bridge_indicator_against_monte_carlo():
    grid = build_grid(1.0, 4, 1)
    f = indicator(0.0, 0.5)
    coarse = np.array([[0.0, 0.3, -0.2, 0.6, 0.1]])
    estimate = bridge_conditional_estimate(f, coarse, grid)[0]

    rng = np.random.default_rng(5)
    total = 0.0
    reps = 40000
    m_sub = 64
    taus = (np.arange(m_sub) + 0.5) / m_sub
    for k in range(4):
        a, b = coarse[0, k], coarse[0, k + 1]
        mean = a + taus * (b - a)
        sd = np.sqrt(taus * (1 - taus) * grid.coarse_step)
        pts = mean + sd * rng.standard_normal((reps, m_sub))
        total += grid.coarse_step * f.value(pts).mean()
    assert estimate == pytest.approx(total, abs=0.003)


def _singular_mean(f, m, v):
    """E f(N(m, v)) by quad, with the singularity at 0 as a breakpoint."""
    sd = math.sqrt(v)
    lo, hi = m - 40 * sd, m + 40 * sd
    integrand = lambda x: (float(f.value(np.array(x)))
                           * math.exp(-0.5 * (x - m) ** 2 / v))
    return quad(integrand, lo, hi, points=[0.0] if lo < 0 < hi else None,
                epsabs=0.0, epsrel=1e-13, limit=400)[0] / math.sqrt(
                    2 * math.pi * v)


@pytest.mark.parametrize("a, b", [(0.0, 0.0), (0.03, -0.01)])
def test_power_singularity_bridge_nodes_against_quadrature(a, b):
    # the space integrals at the estimator's own time nodes of an interval
    # of a grid with n = 512, on and beside the singularity
    f = power_singularity(0.3)
    grid = build_grid(1 / 512, 1, 1)
    tau, tw = np.polynomial.legendre.leggauss(8)
    tau, tw = 0.5 * (tau + 1.0), 0.5 * tw
    want = grid.coarse_step * sum(
        w * _singular_mean(f, a + t * (b - a), t * (1 - t) * grid.coarse_step)
        for t, w in zip(tau, tw))
    got = bridge_conditional_estimate(f, np.array([[a, b]]), grid)[0]
    assert got == pytest.approx(want, rel=1e-12)


def test_power_singularity_bridge_against_nested_quadrature():
    # E[int_0^h f(X_r) dr | X_0 = X_h = 1/4], nested quad over tau and x,
    # on an interval where the 8 time nodes resolve the time integral
    f = power_singularity(0.3)
    a, h = 0.25, 1 / 128
    want = h * quad(lambda t: _singular_mean(f, a, t * (1 - t) * h), 0.0, 1.0,
                    epsabs=0.0, epsrel=1e-12, limit=200)[0]
    got = bridge_conditional_estimate(f, np.array([[a, a]]), build_grid(h, 1, 1))
    assert got[0] == pytest.approx(want, rel=1e-10)


def test_bridge_rejects_non_brownian_spec():
    grid = build_grid(1.0, 4, 1)
    with pytest.raises(CapabilityError):
        bridge_conditional_estimate(identity(), np.zeros((1, 5)), grid,
                                    spec=StochVol())


def test_bridge_tensor_product_factorizes():
    grid = build_grid(1.0, 8, 1)
    spec = BrownianMotion(dimension=2, x0=(0.0, 0.0))
    bundle = simulate_paths(spec, grid, 50, master_seed=3)
    f2 = tensor_product([gaussian_bump(), gaussian_bump()])
    joint = bridge_conditional_estimate(
        f2, bundle.x[:, ::grid.refine_factor], grid)
    assert joint.shape == (50,)
    assert np.all(joint >= 0) and np.all(joint <= 1.0)


def test_common_paths_error_ordering():
    # optimal conditional estimator cannot beat trapezoid by definition of
    # the L2 projection, and trapezoid beats Riemann for smooth f
    grid = build_grid(1.0, 32, 64)
    bundle = simulate_paths(BrownianMotion(), grid, 400, master_seed=17)
    f = gaussian_bump()
    fine = eval_on_path(f, bundle)
    ref = reference_value(fine, grid)
    coarse = fine[:, ::grid.refine_factor]
    rms = lambda e: np.sqrt(np.mean(e ** 2))
    err_riem = rms(ref - riemann_estimate(coarse, grid))
    err_trap = rms(ref - trapezoid_estimate(coarse, grid))
    err_bridge = rms(ref - bridge_conditional_estimate(
        f, bundle.x[:, ::grid.refine_factor][:, :, 0], grid))
    assert err_bridge <= err_trap * 1.02
    assert err_trap < err_riem
