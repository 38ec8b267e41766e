import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from occutime.estimators import BRIDGE_TIME_NODES
from occutime.fourier import _interval_nodes
from occutime.functions import _FAMILY_BUILDERS, eval_on_path, gaussian_mean
from occutime.grids import gauss_legendre
from occutime import (
    BrownianMotion,
    ConfigError,
    DeterministicGaussian,
    TestFunction,
    build_grid,
    complex_exponential,
    constant,
    gaussian_bump,
    hat,
    identity,
    indicator,
    lacunary,
    parse_function,
    power_singularity,
    quadratic,
    simulate_paths,
    tensor_product,
)

SMOOTH_FAMILIES = [gaussian_bump, lambda: lacunary(1.2, J=6), identity,
                   quadratic, lambda: constant(2.5)]


@pytest.mark.parametrize("factory", SMOOTH_FAMILIES)
def test_gradient_matches_finite_differences(factory):
    f = factory()
    x = np.linspace(-2.5, 2.5, 41)
    h = 1e-6
    numeric = (f.value(x + h) - f.value(x - h)) / (2 * h)
    np.testing.assert_allclose(f.gradient(x), numeric, atol=1e-4, rtol=1e-4)


@given(st.floats(-30.0, 30.0))
@settings(max_examples=50, deadline=None)
def test_gaussian_bump_fourier_closed_form(u):
    f = gaussian_bump()
    # int e^{-x^2/2} e^{iux} dx = sqrt(2 pi) e^{-u^2/2}
    expected = math.sqrt(2 * math.pi) * math.exp(-0.5 * u * u)
    assert f.fourier(u) == pytest.approx(expected, rel=1e-12)


def _ladder_atol(s, J, scale):
    """Absolute error bound of the lacunary value kernel. Its cosine ladder
    2 cos^2 a - 1 multiplies an absolute error by at most 4 per level and
    takes a direct cos every 6 levels, so the k-th level after one is off
    by at most 4^k ulps of 1. The 1e-15 * scale term covers the localizer
    and the oracle's own rounding. At s = 1.2 this is 5.6e-15 of the
    largest value; at s = 0.3 the ladder's error itself reaches 1.1e-14."""
    js = np.arange(1, J + 1)
    growth = 4.0 ** ((js - 1) % 6)
    return 2.0 ** -52 * np.sum(2.0 ** (-js * s) * growth) + 1e-15 * scale


@pytest.mark.parametrize("s", [0.3, 1.2])
@pytest.mark.parametrize("J", [1, 6, 7, 12, 13])
def test_lacunary_matches_direct_series(s, J):
    # angle doubling against the term-by-term series, on a strided view
    # with more points than one kernel block and off its block boundary;
    # J = 6, 7, 12, 13 cross the reseed boundaries
    x = np.linspace(-12.0, 12.0, 80000).reshape(200, 400)[:, ::2]
    js = np.arange(1, J + 1)[:, None, None]
    w = np.exp(-x ** 2 / 18.0)
    terms = 2.0 ** (-js * s)
    series = np.sum(terms * np.cos(2.0 ** js * x), axis=0)
    dseries = -np.sum(terms * 2.0 ** js * np.sin(2.0 ** js * x), axis=0)
    f = lacunary(s, J=J)
    value, want_value = f.value(x), w * series
    for got, want in ((value, want_value),
                      (f.gradient(x), w * (dseries - x / 9.0 * series))):
        assert got.shape == x.shape
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-13 * np.max(np.abs(want)))
    # the value path alone, within the error law of its cosine ladder
    atol = _ladder_atol(s, J, np.max(np.abs(want_value)))
    np.testing.assert_allclose(value, want_value, rtol=0, atol=atol)


@pytest.mark.parametrize("s", [0.3, 1.2])
def test_lacunary_gaussian_expectation_matches_direct_sum(s):
    # the cosine ladder on mu * shrink against one np.cos per level, from
    # point values (v = 0) to wide laws
    J, cutoff = 13, 3.0
    mu, var = np.broadcast_arrays(np.linspace(-6.0, 6.0, 2001)[:, None],
                                  np.array([0.0, 1 / 2048, 1 / 128, 0.05, 1.0]))
    js = np.arange(1, J + 1)[:, None, None]
    c2 = cutoff ** 2
    shrink = c2 / (c2 + var)
    levels = np.sum(2.0 ** (-js * s) * np.exp(-0.5 * var * shrink * 4.0 ** js)
                    * np.cos(2.0 ** js * mu * shrink), axis=0)
    want = np.sqrt(shrink) * np.exp(-0.5 * mu * mu / (c2 + var)) * levels
    got = gaussian_mean(lacunary(s, J=J, cutoff=cutoff), mu, var)
    assert got.shape == mu.shape
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=1e-14 * np.max(np.abs(want)))


def test_lacunary_empty_and_scalar_inputs():
    f = lacunary(1.2, J=7)
    for fn in (f.value, f.gradient):
        assert fn(np.empty(0)).shape == (0,)
        assert fn(np.empty((0, 4))).shape == (0, 4)
        point = fn(np.float64(0.7))
        assert np.shape(point) == ()
        assert point == fn(np.array([0.7]))[0]
    assert gaussian_mean(f, np.empty(0), 0.01).shape == (0,)
    point = gaussian_mean(f, np.array(0.7), 0.01)
    assert np.shape(point) == ()
    assert point == gaussian_mean(f, np.array([0.7]), 0.01)[0]


@pytest.mark.parametrize("shape", [(), (0,), (7,), (3, 5)])
def test_gaussian_bump_kernels_round_as_the_formula(shape):
    x = np.random.default_rng(3).normal(scale=3.0, size=shape)
    f = gaussian_bump()
    value, grad = f.value(x), f.gradient(x)
    bump = np.exp(-0.5 * x ** 2)
    assert np.array_equal(value, bump)
    assert np.array_equal(grad, -x * bump)
    assert np.shape(value) == np.shape(grad) == shape


def test_gaussian_bump_leaves_the_paths_unwritten():
    # without a shift the observed points are a view of bundle.x
    bundle = simulate_paths(BrownianMotion(), build_grid(1.0, 4, 4), 5, 1)
    before = bundle.x.copy()
    eval_on_path(gaussian_bump(), bundle, gradient=True)
    np.testing.assert_array_equal(bundle.x, before)


def test_fourier_conventions_numerically():
    # validate the registered transforms against direct quadrature of
    # int f(x) e^{iux} dx on a dense grid
    x = np.linspace(-40, 40, 400001)
    dx = x[1] - x[0]
    for f in (gaussian_bump(), hat(), indicator(-0.3, 1.1), lacunary(1.0, J=4)):
        for u in (0.0, 0.7, 3.0):
            direct = np.sum(f.value(x) * np.exp(1j * u * x)) * dx
            # the Riemann sum resolves discontinuous integrands only to O(dx)
            assert f.fourier(u) == pytest.approx(direct, abs=3e-4)


def test_indicator_gaussian_expectation_oracle():
    f = indicator(0.0, 1.0)
    rng = np.random.default_rng(0)
    mu, var = 0.3, 0.49
    samples = mu + math.sqrt(var) * rng.standard_normal(200000)
    mc = f.value(samples).mean()
    exact = f.gaussian_expectation(np.array(mu), np.array(var))
    assert float(exact) == pytest.approx(mc, abs=0.005)
    # degenerate variance reduces to a point evaluation
    assert float(f.gaussian_expectation(np.array(0.5), np.array(0.0))) == 1.0
    assert float(f.gaussian_expectation(np.array(2.0), np.array(0.0))) == 0.0


# (mu, v) points at the kinks of the hat and the high frequencies of the
# lacunary series; v = 0 is a point value
KINK_POINTS = [(0.03, 1 / 2048), (-0.99, 1 / 128), (1.2, 0.05), (0.4, 0.0)]
# a bridge node at n = 512 on the singularity and beside it, a wide law,
# and point values (f(0) = 0 by convention)
SINGULAR_POINTS = [(0.0, 1 / 2048), (0.03, 1 / 2048), (0.1, 0.25),
                   (0.4, 0.0), (0.0, 0.0)]

# one member of every registered family: (test id, instance, (mu, v) points,
# breakpoints of f for quad); a family registered without an entry fails
FAMILY_CASES = {
    "gaussian_bump": ("bump", gaussian_bump(), KINK_POINTS, ()),
    "hat": ("hat", hat(), KINK_POINTS, (-1.0, 0.0, 1.0)),
    "indicator": ("indicator", indicator(0.0, 0.5), KINK_POINTS, (0.0, 0.5)),
    "power_singularity": ("power_singularity", power_singularity(0.3),
                          SINGULAR_POINTS, (0.0,)),
    "lacunary": ("lacunary", lacunary(1.2, J=3), KINK_POINTS, ()),
    "complex_exponential": ("complex_exponential", complex_exponential(2.0),
                            KINK_POINTS, ()),
    "identity": ("identity", identity(), KINK_POINTS, ()),
    "quadratic": ("quadratic", quadratic(), KINK_POINTS, ()),
    "constant": ("constant", constant(2.5), KINK_POINTS, ()),
}


def _normal_density(mu, v):
    norm = math.sqrt(2 * math.pi * v)
    return lambda x: math.exp(-0.5 * (x - mu) ** 2 / v) / norm


def _family_params():
    for name in sorted(FAMILY_CASES):
        label, _, points, _ = FAMILY_CASES[name]
        for mu, v in points:
            yield pytest.param(name, mu, v, id=f"{label}-{mu}-{v}")


def test_every_registered_family_has_a_gaussian_expectation_case():
    missing = set(_FAMILY_BUILDERS) - set(FAMILY_CASES)
    assert not missing, f"no Gaussian expectation case for {sorted(missing)}"


@pytest.mark.parametrize("family, mu, v", _family_params())
def test_gaussian_expectation_against_quadrature(family, mu, v):
    _, f, _, breaks = FAMILY_CASES[family]
    assert f.gaussian_expectation is not None, f"{family} has no closed form"
    got = complex(gaussian_mean(f, np.array(mu), v))
    point = lambda x: complex(f.value(np.array(x)))
    if v == 0:
        assert got == pytest.approx(point(mu), abs=1e-12)
        return
    rho, sd = _normal_density(mu, v), math.sqrt(v)
    lo, hi = mu - 40 * sd, mu + 40 * sd
    kinks = [p for p in breaks if lo < p < hi]
    want = complex(*(quad(lambda x: part(point(x)) * rho(x), lo, hi,
                          points=kinks or None, epsabs=1e-14, epsrel=1e-13,
                          limit=400)[0]
                     for part in (lambda z: z.real, lambda z: z.imag)))
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def _bridge_and_node_variances():
    # the bridge's tau (1 - tau) step over its 8 time nodes, and the Fourier
    # node tables of a Brownian and a deterministic-Gaussian spec
    tau, _ = gauss_legendre(BRIDGE_TIME_NODES, unit=True)
    grid = build_grid(1.0, 8, 4)
    drifted = DeterministicGaussian(
        dimension=1, drift=lambda t: np.sin(3.0 * t)[..., None],
        diffusion=lambda t: (1.0 + 0.5 * t)[..., None, None])
    yield "bridge", tau * (1.0 - tau) / 8
    for label, spec in (("brownian", BrownianMotion()),
                        ("deterministic", drifted)):
        nodes = _interval_nodes(spec, grid, 6)
        yield f"nodes-{label}", nodes.var
        yield f"nodes-end-{label}", nodes.var_end


def _unbroadcast_cases():
    functions = [(label, f) for label, f, _, _ in FAMILY_CASES.values()]
    functions.append(("tensor", tensor_product([gaussian_bump(), hat()])))
    for (label, f), (var_label, var) in itertools.product(
            functions, _bridge_and_node_variances()):
        yield pytest.param(f, var, id=f"{label}-{var_label}")


@pytest.mark.parametrize("f, var", _unbroadcast_cases())
def test_gaussian_mean_takes_var_unbroadcast(f, var):
    # the same bits as the closed form on the full-shape variance, for means
    # of shape (paths, k, nodes) or (paths, K, q) and a coordinate axis
    lead = (5,) * (3 - var.ndim) + var.shape
    lead += () if f.dimension == 1 else (f.dimension,)
    mean = np.random.default_rng(4).normal(scale=1.5, size=lead)
    shape = mean.shape if f.dimension == 1 else mean.shape[:-1]
    got = gaussian_mean(f, mean, var)
    want = f.gaussian_expectation(mean, np.broadcast_to(var, shape))
    assert got.shape == want.shape == shape
    assert np.array_equal(got, want)


def test_gaussian_mean_passes_var_unbroadcast():
    seen = []
    bump = gaussian_bump()
    spy = dataclasses.replace(
        bump, gaussian_expectation=lambda mu, var: (
            seen.append(np.shape(var)) or bump.gaussian_expectation(mu, var)))
    assert gaussian_mean(spy, np.zeros((4, 3, 8)), np.ones(8)).shape == (4, 3, 8)
    assert seen == [(8,)]


def test_gaussian_mean_rejects_a_var_larger_than_the_means():
    with pytest.raises(ValueError):
        gaussian_mean(gaussian_bump(), np.zeros(8), np.ones((3, 8)))
    with pytest.raises(ValueError):
        gaussian_mean(gaussian_bump(), np.zeros(8), np.ones(3))


@pytest.mark.parametrize("mu, v", KINK_POINTS)
def test_lacunary_gaussian_expectation_against_quadrature(mu, v):
    # term by term, each cos(2^j x) as the oscillatory weight of quad
    s, J, cutoff = 1.2, 12, 3.0
    f = lacunary(s, J=J, cutoff=cutoff)
    got = float(gaussian_mean(f, np.array(mu), v))
    w = lambda x: math.exp(-0.5 * (x / cutoff) ** 2)
    if v == 0:
        want = w(mu) * sum(2.0 ** (-j * s) * math.cos(2.0 ** j * mu)
                           for j in range(1, J + 1))
    else:
        rho, sd = _normal_density(mu, v), math.sqrt(v)
        want = sum(2.0 ** (-j * s) * quad(
            lambda x: w(x) * rho(x), mu - 40 * sd, mu + 40 * sd,
            weight="cos", wvar=2.0 ** j, epsabs=1e-14, epsrel=1e-12,
            limit=400)[0] for j in range(1, J + 1))
    assert got == pytest.approx(want, abs=1e-12)


def test_indicator_requires_ordered_endpoints():
    with pytest.raises(ConfigError):
        indicator(1.0, 1.0)


@pytest.mark.parametrize("build, named", [
    pytest.param(lambda: indicator(0.0, math.inf), "finite b", id="indicator-b"),
    pytest.param(lambda: indicator(math.nan, 1.0), "finite a", id="indicator-a"),
    pytest.param(lambda: lacunary(math.nan), "finite s", id="lacunary-s"),
    pytest.param(lambda: lacunary(1.2, cutoff=math.inf), "finite cutoff",
                 id="lacunary-cutoff"),
    pytest.param(lambda: power_singularity(0.3, cutoff=math.inf),
                 "finite cutoff", id="power_singularity-cutoff"),
    pytest.param(lambda: constant(math.nan), "finite c", id="constant-c"),
    pytest.param(lambda: complex_exponential(math.inf), "finite u",
                 id="complex_exponential-u"),
    pytest.param(lambda: build_grid(math.inf, 4), "horizon", id="grid-horizon"),
    pytest.param(lambda: build_grid(math.nan, 4), "horizon",
                 id="grid-horizon-nan"),
    pytest.param(lambda: build_grid(1.0, math.inf), "coarse count",
                 id="grid-n"),
    pytest.param(lambda: build_grid(1.0, 4, math.nan), "refine factor",
                 id="grid-m"),
    pytest.param(lambda: build_grid(1.0, 4, 2).fine_index(math.nan),
                 "time nan", id="grid-fine_index"),
])
def test_non_finite_parameters_are_rejected(build, named):
    with pytest.raises(ConfigError, match=named):
        build()


def test_power_singularity_blows_up_near_zero():
    f = power_singularity(0.4)
    small, smaller = f.value(np.array([0.01])), f.value(np.array([0.001]))
    assert smaller > small > 1.0
    assert f.value(np.array([0.0])) == 0.0
    with pytest.raises(ConfigError):
        power_singularity(1.5)
    with pytest.raises(ConfigError, match="cutoff"):
        power_singularity(0.3, cutoff=0.0)


@pytest.mark.parametrize("alpha, cutoff", [(0.3, 1.0), (0.1, 2.0)])
@pytest.mark.parametrize("u", [0.0, 0.7, 5.0])
def test_power_singularity_transform_against_quadrature(alpha, cutoff, u):
    # Ff(u) = 2 int_0^inf x^-alpha exp(-x^2 / (2 c^2)) cos(u x) dx, with the
    # x^-alpha singularity as an algebraic weight on [0, 1] and cos(u x) as
    # an oscillatory weight beyond (the integrand is below 1e-80 past 20 c)
    g = lambda x: math.exp(-0.5 * (x / cutoff) ** 2)
    tol = dict(epsabs=0.0, epsrel=1e-13, limit=200)
    near, _ = quad(lambda x: g(x) * math.cos(u * x), 0.0, 1.0,
                   weight="alg", wvar=(-alpha, 0.0), **tol)
    far, _ = quad(lambda x: x ** -alpha * g(x), 1.0, 20.0 * cutoff,
                  weight="cos", wvar=u, **tol)
    f = power_singularity(alpha, cutoff)
    assert float(f.fourier(u)) == pytest.approx(2.0 * (near + far), rel=1e-10)


def _kernel_cases():
    for name in sorted(FAMILY_CASES):
        label, f, _, _ = FAMILY_CASES[name]
        yield pytest.param(f, (7, 9), id=label)
    yield pytest.param(tensor_product([gaussian_bump(), lacunary(1.2, J=7)]),
                       (7, 9, 2), id="tensor-2d")
    yield pytest.param(tensor_product([gaussian_bump(), hat()]), (7, 9, 2),
                       id="tensor-bump-hat")


def _outs(like):
    """A C-contiguous and a strided array of the shape and dtype of ``like``."""
    strided = np.empty(like.shape + (2,), like.dtype)[..., 1]
    return np.empty_like(like), strided


@pytest.mark.parametrize("f, shape", _kernel_cases())
def test_kernels_given_out_return_the_bits_of_a_fresh_call(f, shape):
    # a kernel may write into out or ignore it; its result is what counts
    x = np.random.default_rng(5).normal(scale=2.0, size=shape)
    value = f.value(x)
    for out in _outs(value):
        assert np.array_equal(f.value(x, out=out), value)
    if f.value_and_gradient is None:
        return
    fresh_value, grad = f.value_and_gradient(x)
    assert np.array_equal(fresh_value, value)
    assert np.array_equal(f.gradient(x), grad)
    for out in zip(_outs(value), _outs(grad)):
        got = f.value_and_gradient(x, out=out)
        assert np.array_equal(got[0], value)
        assert np.array_equal(got[1], grad)


@pytest.mark.parametrize("f", [gaussian_bump(), lacunary(1.2, J=7)],
                         ids=["gaussian_bump", "lacunary"])
def test_bump_and_lacunary_write_into_out(f):
    # into a contiguous out at least, such as the pass buffers
    x = np.random.default_rng(6).normal(scale=2.0, size=(7, 9))
    value_out, grad_out = np.empty_like(x), np.empty_like(x)
    assert f.value(x, out=value_out) is value_out
    got = f.value_and_gradient(x, out=(value_out, grad_out))
    assert got[0] is value_out and got[1] is grad_out


def test_eval_on_path_hands_back_the_gradient_buffer_of_a_1d_function():
    # with the strides of the 3-d buffer, so that squaring the gradient
    # into that buffer is one in-place ufunc, not an overlapping copy
    bundle = simulate_paths(BrownianMotion(), build_grid(1.0, 4, 4), 3, 1)
    values, grads = np.empty(bundle.x.shape[:2]), np.empty(bundle.x.shape)
    vals, grad = eval_on_path(gaussian_bump(), bundle, gradient=True,
                              out=(None, values, grads))
    assert vals is values
    assert grad.shape == grads.shape and grad.strides == grads.strides
    assert np.shares_memory(grad, grads)


def test_gradient_families():
    have = sorted(name for name, (_, f, _, _) in FAMILY_CASES.items()
                  if f.value_and_gradient is not None)
    assert have == ["constant", "gaussian_bump", "hat", "identity",
                    "lacunary", "quadratic"]


def test_hat_gradient_matches_finite_differences_off_its_kinks():
    f = hat()
    x = np.linspace(-2.5, 2.5, 41) + 1.0 / 16.0   # 1/16 from every kink
    h = 1e-6
    numeric = (f.value(x + h) - f.value(x - h)) / (2 * h)
    np.testing.assert_allclose(f.gradient(x), numeric, atol=1e-4, rtol=1e-4)


def test_replace_derives_gradient_kernels_again():
    # dataclasses.replace of the pair kernel derives gradient from it again
    x = np.linspace(-2.0, 2.0, 9)
    f = gaussian_bump()
    tripled = dataclasses.replace(
        f, value_and_gradient=lambda x, out=None: (f.value(x),
                                                   3.0 * f.gradient(x)))
    assert np.array_equal(tripled.gradient(x), 3.0 * f.gradient(x))
    # a gradient passed along with the pair is overwritten, not kept
    stale = dataclasses.replace(tripled, gradient=f.gradient)
    assert np.array_equal(stale.gradient(x), 3.0 * f.gradient(x))


def test_gradient_alone_is_rejected():
    with pytest.raises(ConfigError, match="value_and_gradient"):
        TestFunction("square", lambda x, out=None: x * x,
                     gradient=lambda x: 2.0 * x)


def test_complex_exponential_is_unimodular():
    f = complex_exponential(2.0)
    x = np.linspace(-3, 3, 7)
    np.testing.assert_allclose(np.abs(f.value(x)), 1.0)
    # no study reads the gradient of a complex f, so it has none
    assert f.value_and_gradient is None and f.gradient is None


def test_tensor_product_value_and_gradient():
    f = tensor_product([gaussian_bump(), identity()])
    pts = np.array([[0.5, 2.0], [-1.0, 3.0]])
    expected = np.exp(-0.5 * pts[:, 0] ** 2) * pts[:, 1]
    np.testing.assert_allclose(f.value(pts), expected)
    g = f.gradient(pts)
    np.testing.assert_allclose(
        g[:, 0], -pts[:, 0] * np.exp(-0.5 * pts[:, 0] ** 2) * pts[:, 1])
    np.testing.assert_allclose(g[:, 1], np.exp(-0.5 * pts[:, 0] ** 2))
    assert f.dimension == 2
    # E f(N(mu, v I)) is the product of the factors' expectations
    v = 0.3
    np.testing.assert_allclose(
        gaussian_mean(f, pts, v),
        np.exp(-0.5 * pts[:, 0] ** 2 / (1 + v)) / np.sqrt(1 + v) * pts[:, 1],
        rtol=1e-15)


def test_parse_function_round_trips():
    assert parse_function("gaussian_bump").name == "gaussian_bump"
    f = parse_function("lacunary(s=1.2, J=6)")
    assert f.name == "lacunary(s=1.2,J=6)"
    assert parse_function("indicator(a=0, b=1)").name == "indicator(0,1)"
    assert parse_function("constant(c=3)").value(np.zeros(2))[0] == 3.0


@pytest.mark.parametrize("text", ["nope", "gaussian_bump(oops=1)",
                                  "indicator(a=1, b=0)", "lacunary(J=0)",
                                  "indicator(z=3)", "lacunary(s=1.2, J=12.5)",
                                  "lacunary(s=1.2, cutoff=0)",
                                  "lacunary(s=1.2, cutoff=-3)",
                                  "complex_exponential(u=2)"])
def test_parse_function_rejects_bad_descriptors(text):
    with pytest.raises(ConfigError):
        parse_function(text)


@pytest.mark.parametrize("text, named", [
    ("lacunary(s=1.2, s=0.3)", "parameter 's' of lacunary given twice"),
    ("lacunary(J=4, 0.3)", "positional argument '0.3' of lacunary follows"),
])
def test_parse_function_rejects_repeated_or_misplaced_arguments(text, named):
    with pytest.raises(ConfigError, match=named):
        parse_function(text)
