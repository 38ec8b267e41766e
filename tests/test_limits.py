import numpy as np
import pytest

from occutime import (
    BrownianMotion,
    CapabilityError,
    StochVol,
    StudyConfig,
    build_grid,
    constant,
    gaussian_bump,
    identity,
    indicator,
    simulate_paths,
)
from occutime.experiments import _study_outputs
from occutime.functions import TestFunction, eval_on_path
from occutime.limits import gradient_energy, root_mean_se


def _energy(f, bundle, t=None):
    return gradient_energy(bundle, eval_on_path(f, bundle, gradient=True)[1], t)


def _floor(f, bundle):
    return root_mean_se(_energy(f, bundle))


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
    out = _study_outputs(constant(3.0), 1.0, (8,), ("riemann", "trapezoid"),
                         True, brownian_bundle, {})
    assert len(out) == 4
    for name, values in out.items():
        assert np.all(values == 0.0), name


def test_identity_limit_total_variance(brownian_bundle):
    # the scaled Riemann error tends to the bias X_1 / 2 (variance 1/4) plus
    # a mixed part of variance 1/12 independent of the path: total 1/3
    out = _study_outputs(identity(), 1.0, (8,), ("riemann", "trapezoid"),
                         True, brownian_bundle, {})
    scaled = out["err_riemann"][:, 0] / brownian_bundle.grid.coarse_step
    bias = out["bias_realized"]
    assert scaled.var() == pytest.approx(1.0 / 3.0, rel=0.12)
    assert bias.var() == pytest.approx(0.25, rel=0.12)
    assert (scaled - bias).var() == pytest.approx(1.0 / 12.0, rel=0.12)


def test_gradientless_function_rejected(brownian_bundle):
    with pytest.raises(CapabilityError):
        eval_on_path(indicator(0.0, 1.0), brownian_bundle, gradient=True)


def test_lower_bound_identity_exact(brownian_bundle):
    value, stderr = _floor(identity(), brownian_bundle)
    assert value == pytest.approx(np.sqrt(1.0 / 12.0), rel=1e-12)
    assert stderr == pytest.approx(0.0, abs=1e-12)


def test_lower_bound_constant_function_zero(brownian_bundle):
    assert _floor(constant(1.0), brownian_bundle)[0] == 0.0


def test_scale_equivariance(brownian_bundle):
    f = gaussian_bump()
    g = TestFunction("scaled", lambda x: 2.0 * f.value(x),
                     gradient=lambda x: 2.0 * f.gradient(x))
    cv_f = _energy(f, brownian_bundle)
    cv_g = _energy(g, brownian_bundle)
    np.testing.assert_allclose(cv_g, 4.0 * cv_f, rtol=1e-12)
    assert _floor(g, brownian_bundle)[0] == pytest.approx(
        2.0 * _floor(f, brownian_bundle)[0], rel=1e-12)


def test_custom_gradient_kernel_serves_the_limit_pass(brownian_bundle):
    # a TestFunction given value and gradient kernels gets the pair kernel
    # the limit pass calls, with the bits of the two kernels
    f = gaussian_bump()
    g = TestFunction("scaled", lambda x, out=None: 2.0 * f.value(x),
                     gradient=lambda x: 2.0 * f.gradient(x))
    x = brownian_bundle.x[:3, :, 0]
    value, grad = g.value_and_gradient(x)
    assert np.array_equal(value, 2.0 * f.value(x))
    assert np.array_equal(grad, 2.0 * f.gradient(x))
    StudyConfig(BrownianMotion(), g, (8, 16), 16, 100, 1, "clt")
    limit = [_study_outputs(h, 1.0, (8,), ("trapezoid",), True,
                            brownian_bundle, {})["grad_energy"] for h in (f, g)]
    np.testing.assert_allclose(limit[1], 4.0 * limit[0], rtol=1e-12)


@pytest.mark.parametrize("spec", [BrownianMotion(), StochVol()],
                         ids=["brownian", "stochvol"])
def test_gradient_energy_writes_only_into_out(spec):
    bundle = simulate_paths(spec, build_grid(1.0, 8, 8), 20, master_seed=4)
    grad = eval_on_path(gaussian_bump(), bundle, gradient=True)[1]
    kept = grad.copy()
    energy = gradient_energy(bundle, grad)
    assert np.array_equal(grad, kept)
    assert np.array_equal(gradient_energy(bundle, grad, out=grad), energy)
    assert not np.array_equal(grad, kept)


def test_limit_pass_leaves_the_paths_alone(brownian_bundle):
    # a gradient kernel may hand back a view of its points, here of the
    # unshifted paths; the gradient energy must not square it in place
    half_square = TestFunction(
        "half_square", lambda x, out=None: 0.5 * np.asarray(x) ** 2,
        gradient=lambda x: x)
    paths = brownian_bundle.x.copy()
    out = _study_outputs(half_square, 1.0, (8,), ("trapezoid",), True,
                         brownian_bundle, {})
    assert np.array_equal(brownian_bundle.x, paths)
    np.testing.assert_allclose(out["grad_energy"],
                               _energy(half_square, brownian_bundle))


def test_stochvol_conditional_variance_uses_sigma():
    grid = build_grid(1.0, 8, 16)
    bundle = simulate_paths(StochVol(sigma0=2.0, eta=0.0), grid, 10,
                            master_seed=3)
    cv = _energy(identity(), bundle)
    np.testing.assert_allclose(cv, 4.0 / 12.0, rtol=1e-12)
    assert _floor(identity(), bundle)[0] == pytest.approx(
        2.0 / np.sqrt(12.0), rel=1e-12)
