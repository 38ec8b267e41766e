import math

import numpy as np
import pytest
from scipy.integrate import quad

from occutime import (
    CapabilityError,
    ConfigError,
    TestFunction,
    fourier_lebesgue_seminorm,
    gaussian_bump,
    hat,
    indicator,
    lacunary,
    identity,
    power_singularity,
    sobolev_seminorm,
    tensor_product,
)


def test_gaussian_bump_h1_closed_form():
    # |Ff|^2 |u|^2 integrates to 2 pi * sqrt(pi) / 2, so the seminorm is
    # pi^(3/4)
    r = sobolev_seminorm(gaussian_bump(), 1.0)
    assert not r.divergent
    assert r.value == pytest.approx(math.pi ** 0.75, abs=1e-6)


def test_gaussian_bump_fl0_closed_form():
    r = fourier_lebesgue_seminorm(gaussian_bump(), 0.0)
    assert r.value == pytest.approx(2.0 * math.pi, rel=1e-8)


def test_indicator_divergence_boundary():
    f = indicator(0.0, 1.0)
    finite = sobolev_seminorm(f, 0.3)
    assert not finite.divergent and np.isfinite(finite.value)
    divergent = sobolev_seminorm(f, 0.6)
    assert divergent.divergent
    assert divergent.value == math.inf


@pytest.mark.parametrize("s", [0.6, 1.0, 3.0, 6.0])
def test_indicator_outside_h_half_is_divergent(s):
    # |F 1_[0,1]|^2 ~ u^-2: every s >= 1/2 diverges. At s = 6 the integrand
    # grows by 2^11 per octave up to the frequency cap, so the first panels
    # of the fit window are negligible beside the last one
    r = sobolev_seminorm(indicator(0.0, 1.0), s)
    assert r.divergent and r.value == math.inf
    assert r.tail_exponent == pytest.approx(2.0 - 2.0 * s, abs=0.01)


def test_power_singularity_h6_divergent():
    # |Ff|^2 |u|^12 ~ u^10.6 grows up to the frequency cap
    r = sobolev_seminorm(power_singularity(0.3), 6.0)
    assert r.divergent and r.value == math.inf


def test_tail_exponent_only_from_a_tail():
    # transforms that live on a few panels have no tail and no exponent
    assert math.isnan(sobolev_seminorm(gaussian_bump(), 6.0).tail_exponent)
    assert math.isnan(sobolev_seminorm(lacunary(1.2, J=1), 1.0).tail_exponent)
    assert math.isnan(fourier_lebesgue_seminorm(gaussian_bump(), 1.0)
                      .tail_exponent)
    # the hat's |Ff|^2 |u|^2.8 ~ u^-1.2 is a tail on every panel
    r = sobolev_seminorm(hat(), 1.4)
    assert not r.divergent
    assert r.value == pytest.approx(7.9461531371165925, rel=1e-12)
    assert r.tail_exponent == pytest.approx(1.2, abs=1e-3)


def test_indicator_fractional_closed_form():
    # |F 1_[0,1](u)|^2 = 4 sin^2(u/2) / u^2, so its H^s seminorm squared is
    # 4 Gamma(2s) sin(pi s) / (1 - 2s) for 0 < s < 1/2 (2 pi at s = 0)
    s = 0.3
    exact = math.sqrt(4.0 * math.gamma(2.0 * s) * math.sin(math.pi * s)
                      / (1.0 - 2.0 * s))
    r = sobolev_seminorm(indicator(0.0, 1.0), s)
    assert r.value == pytest.approx(exact, rel=1e-5)


@pytest.mark.parametrize("alpha, cutoff", [(0.3, 1.0), (0.1, 2.0)])
def test_power_singularity_h0_plancherel(alpha, cutoff):
    # by Plancherel, int |Ff|^2 du = 2 pi int |x|^(-2 alpha) exp(-x^2 / c^2) dx
    r = sobolev_seminorm(power_singularity(alpha, cutoff), 0.0)
    assert not r.divergent
    assert r.value == pytest.approx(math.sqrt(
        2.0 * math.pi * cutoff ** (1.0 - 2.0 * alpha)
        * math.gamma(0.5 - alpha)), rel=1e-6)


def test_power_singularity_fl0_divergent():
    # |Ff(u)| ~ u^(alpha - 1) is not integrable
    r = fourier_lebesgue_seminorm(power_singularity(0.3), 0.0)
    assert r.divergent and r.value == math.inf


def test_lacunary_divergence_boundary():
    # coefficients 2^(-j s_t) put the H^s membership boundary at s = s_t
    f = lacunary(1.0, J=10)
    assert not sobolev_seminorm(f, 0.7).divergent
    assert sobolev_seminorm(f, 1.3).divergent


@pytest.mark.parametrize("s", [1.0, 1.1])
def test_lacunary_finite_series_has_no_tail(s):
    # the default series (J = 12) is a finite sum of Gaussian bumps at 2^j
    # whose top term dies out inside the last octave below the frequency
    # cap; the seminorm is the integral of its transform with no tail added
    f = lacunary(1.2)
    g = lambda u: abs(f.fourier(u)) ** 2 * u ** (2.0 * s)
    edges = [0.0] + [2.0 ** j for j in range(1, 13)] + [2.0 ** 12 + 20.0]
    half = sum(quad(g, a, b, epsabs=0.0, epsrel=1e-13, limit=400)[0]
               for a, b in zip(edges[:-1], edges[1:]))
    r = sobolev_seminorm(f, s)
    assert not r.divergent
    assert r.value == pytest.approx(math.sqrt(2.0 * half), rel=1e-10)


@pytest.mark.parametrize("s", [5.0, 6.0, 8.0, 39.0, 40.0, 60.0])
def test_gaussian_bump_high_order_is_finite(s):
    # int |Ff|^2 |u|^(2s) du = 2 pi Gamma(s + 1/2); the integrand lives on a
    # few panels, which must not be read as a slowly decaying tail. From
    # s = 1024 / 26 on, u^(2s) overflows below the cap, where the transform
    # has underflowed to 0
    r = sobolev_seminorm(gaussian_bump(), s)
    assert not r.divergent
    assert r.value == pytest.approx(
        math.sqrt(2.0 * math.pi * math.gamma(s + 0.5)), rel=1e-13)


def test_integrands_past_float_range():
    for f in (hat(), indicator(0.0, 1.0)):
        r = sobolev_seminorm(f, 60.0)
        assert r.divergent and r.value == math.inf
    # finite, but its square is past the float range
    r = sobolev_seminorm(gaussian_bump(), 200.0)
    assert not r.divergent and r.value == math.inf
    # int sqrt(2 pi) e^(-u^2 / 2) |u|^s du = sqrt(2 pi) 2^((s+1)/2) Gamma((s+1)/2)
    r = fourier_lebesgue_seminorm(gaussian_bump(), 60.0)
    assert r.value == pytest.approx(
        math.sqrt(2.0 * math.pi) * 2.0 ** 30.5 * math.gamma(30.5), rel=1e-13)


@pytest.mark.parametrize("s, J, cutoff, order", [
    (1.2, 1, 3.0, 0.0), (1.2, 1, 3.0, 1.0), (0.5, 2, 20.0, 0.3)])
def test_short_lacunary_series_is_finite(s, J, cutoff, order):
    # a finite series of Gaussian bumps at 2^j lies in every H^s, however
    # its few active panels compare
    f = lacunary(s, J=J, cutoff=cutoff)
    g = lambda u: abs(f.fourier(u)) ** 2 * u ** (2.0 * order)
    edges = [0.0] + [2.0 ** j for j in range(1, J + 1)] + [2.0 ** J + 20.0]
    half = sum(quad(g, a, b, epsabs=0.0, epsrel=1e-13, limit=400)[0]
               for a, b in zip(edges[:-1], edges[1:]))
    r = sobolev_seminorm(f, order)
    assert not r.divergent
    assert r.value == pytest.approx(math.sqrt(2.0 * half), rel=1e-13)


def test_scale_equivariance():
    f = gaussian_bump()
    g = TestFunction("scaled", lambda x: 3.0 * f.value(x),
                     fourier=lambda u: 3.0 * f.fourier(u))
    a = sobolev_seminorm(f, 1.0).value
    b = sobolev_seminorm(g, 1.0).value
    assert b == pytest.approx(3.0 * a, rel=1e-10)
    assert fourier_lebesgue_seminorm(g, 0.5).value == pytest.approx(
        3.0 * fourier_lebesgue_seminorm(f, 0.5).value, rel=1e-10)


def test_hat_h1_matches_derivative_energy():
    # |u Ff|^2 integrates to 2 pi int |f'|^2 dx = 4 pi (Plancherel without
    # the 1/(2 pi) normalization)
    r = sobolev_seminorm(hat(), 1.0)
    assert r.value == pytest.approx(math.sqrt(4.0 * math.pi), rel=1e-4)


def test_non_integrable_without_transform_rejected():
    with pytest.raises(CapabilityError):
        sobolev_seminorm(identity(), 1.0)


def test_negative_order_rejected():
    with pytest.raises(ConfigError):
        sobolev_seminorm(gaussian_bump(), -0.5)


@pytest.mark.parametrize("s", [float("nan"), float("inf")])
def test_nonfinite_order_rejected(s):
    with pytest.raises(ConfigError):
        fourier_lebesgue_seminorm(gaussian_bump(), s)


def test_tensor_product_seminorm_closed_form():
    # |u|^2 = u_1^2 + u_2^2 does not factor: H^1(bump x bump) = 2 pi^(3/2),
    # not the product pi^(3/2) of the factor seminorms
    t = tensor_product([gaussian_bump(), gaussian_bump()])
    assert sobolev_seminorm(t, 1.0).value == pytest.approx(
        2.0 * np.pi ** 1.5, rel=1e-8)
    with pytest.raises(CapabilityError):
        sobolev_seminorm(t, 0.5)


def inverse_fourier_value(f: TestFunction, x: float, u_max: float = 2e3) -> float:
    """f(x) rebuilt from its closed-form transform by oscillation-aware
    quadrature; assumes f real-valued."""
    re = lambda u: float(np.real(f.fourier(np.asarray(u))))
    im = lambda u: float(np.imag(f.fourier(np.asarray(u))))
    if x == 0.0:
        return quad(re, 0.0, u_max, limit=400)[0] / math.pi
    cos_part, _ = quad(re, 0.0, u_max, weight="cos", wvar=x, limit=400)
    sin_part, _ = quad(im, 0.0, u_max, weight="sin", wvar=x, limit=400)
    return (cos_part + sin_part) / math.pi


def test_inverse_transform_recovers_values():
    f = gaussian_bump()
    for x in (0.0, 0.8, -1.5):
        assert inverse_fourier_value(f, x) == pytest.approx(
            float(f.value(np.array(x))), abs=1e-6)
