import numpy as np
import pytest

from occutime import (
    BrownianMotion,
    CapabilityError,
    StochVol,
    build_grid,
    constant,
    gaussian_bump,
    identity,
    indicator,
    lower_bound_constant,
    simulate_limit,
    simulate_paths,
)
from occutime.functions import eval_on_path
from occutime.limits import gradient_energy


def _energy(f, bundle, t=None):
    return gradient_energy(bundle, eval_on_path(f, bundle, gradient=True)[1], t)


@pytest.fixture(scope="module")
def brownian_bundle():
    grid = build_grid(1.0, 8, 32)
    return simulate_paths(BrownianMotion(), grid, 2000, master_seed=42)


def test_identity_conditional_variance_exact(brownian_bundle):
    cv = _energy(identity(), brownian_bundle)
    np.testing.assert_allclose(cv, 1.0 / 12.0, rtol=1e-12)
    # integrated up to t, not over the whole horizon
    np.testing.assert_allclose(_energy(identity(), brownian_bundle, 0.5),
                               0.5 / 12.0, rtol=1e-12)


def test_constant_limit_is_zero(brownian_bundle):
    sample = simulate_limit(constant(3.0), brownian_bundle)
    assert np.all(sample.bias_part == 0.0)
    assert np.all(sample.mixed_gaussian_part == 0.0)
    assert np.all(sample.conditional_variance == 0.0)


def test_identity_limit_total_variance(brownian_bundle):
    # bias = X_1 / 2 with variance 1/4; mixed part has variance 1/12 and is
    # independent of the path, so the total has variance 1/3
    sample = simulate_limit(identity(), brownian_bundle)
    var = sample.total.var()
    assert var == pytest.approx(1.0 / 3.0, rel=0.12)
    assert sample.bias_part.var() == pytest.approx(0.25, rel=0.12)
    assert sample.mixed_gaussian_part.var() == pytest.approx(1.0 / 12.0, rel=0.12)


def test_limit_reproducible_aux_stream(brownian_bundle):
    a = simulate_limit(identity(), brownian_bundle)
    b = simulate_limit(identity(), brownian_bundle)
    np.testing.assert_array_equal(a.mixed_gaussian_part, b.mixed_gaussian_part)


def test_gradientless_function_rejected(brownian_bundle):
    with pytest.raises(CapabilityError):
        simulate_limit(indicator(0.0, 1.0), brownian_bundle)
    with pytest.raises(CapabilityError):
        lower_bound_constant(indicator(0.0, 1.0), brownian_bundle)


def test_lower_bound_identity_exact(brownian_bundle):
    lb = lower_bound_constant(identity(), brownian_bundle)
    assert lb.value == pytest.approx(np.sqrt(1.0 / 12.0), rel=1e-12)
    assert lb.stderr == pytest.approx(0.0, abs=1e-12)


def test_lower_bound_constant_function_zero(brownian_bundle):
    assert lower_bound_constant(constant(1.0), brownian_bundle).value == 0.0


def test_scale_equivariance(brownian_bundle):
    from occutime.functions import TestFunction
    f = gaussian_bump()
    g = TestFunction("scaled", lambda x: 2.0 * f.value(x),
                     gradient=lambda x: 2.0 * f.gradient(x))
    cv_f = _energy(f, brownian_bundle)
    cv_g = _energy(g, brownian_bundle)
    np.testing.assert_allclose(cv_g, 4.0 * cv_f, rtol=1e-12)
    assert lower_bound_constant(g, brownian_bundle).value == pytest.approx(
        2.0 * lower_bound_constant(f, brownian_bundle).value, rel=1e-12)


def test_mixed_part_conditionally_gaussian(brownian_bundle):
    # each path draws its own auxiliary Brownian motion, so the mixed parts
    # standardized by their conditional variances are iid standard normal
    from scipy.stats import kstest
    s = simulate_limit(gaussian_bump(), brownian_bundle)
    draws = s.mixed_gaussian_part / np.sqrt(s.conditional_variance)
    assert kstest(draws, "norm").pvalue > 0.01


def test_stochvol_conditional_variance_uses_sigma():
    grid = build_grid(1.0, 8, 16)
    bundle = simulate_paths(StochVol(sigma0=2.0, eta=0.0), grid, 10,
                            master_seed=3)
    cv = _energy(identity(), bundle)
    np.testing.assert_allclose(cv, 4.0 / 12.0, rtol=1e-12)
    lb = lower_bound_constant(identity(), bundle)
    assert lb.value == pytest.approx(2.0 / np.sqrt(12.0), rel=1e-12)
