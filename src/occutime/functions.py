"""Test function families with their gradients, Fourier data and Gaussian
expectations.

All members use the convention Ff(u) = int f(x) exp(i<u, x>) dx. One
dimensional families take plain arrays; multi-dimensional functions are
tensor products and take arrays with a trailing coordinate axis. Every
registered family carries E[f(N(mu, v))] in closed form, which is the only
way ``gaussian_mean`` computes it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import gamma, hyp1f1, ndtr

from .errors import CapabilityError, ConfigError

SQRT_2PI = math.sqrt(2.0 * math.pi)
BLOCK = 2 ** 14     # points per block of the lacunary kernel
RESEED = 6          # lacunary levels per direct cos (and sin, for gradients)


@dataclass(frozen=True)
class TestFunction:
    __test__ = False        # not a pytest test class despite the name

    name: str
    value: Callable
    gradient: Callable | None = None
    fourier: Callable | None = None
    osc_scale: float = 1.0               # node density hint for u-quadrature
    dimension: int = 1
    gaussian_expectation: Callable | None = None  # (mu, var) -> E[f(N(mu, var I))]
    components: tuple | None = None      # tensor product factors

    def __repr__(self):  # avoid dumping callables
        return f"TestFunction({self.name!r}, d={self.dimension})"


def eval_on_path(f: TestFunction, bundle, gradient: bool = False):
    """Sample f (and optionally its gradient) at the fine nodes of the
    observed paths Y = X + xi (see ``PathBundle.observed``).

    Returns an array of shape (paths, nodes) or a pair with the gradient
    array (paths, nodes, d). A one-dimensional f gets the points without
    their coordinate axis, and its gradient gets the axis back.
    """
    if gradient and f.gradient is None:
        raise CapabilityError(f"{f.name} has no gradient")
    y = bundle.observed()
    squeeze = f.dimension == 1 and y.shape[-1] == 1
    if squeeze:
        y = y[..., 0]
    vals = f.value(y)
    if not gradient:
        return vals
    grad = f.gradient(y)
    return vals, (np.asarray(grad)[..., None] if squeeze else grad)


def gaussian_mean(f: TestFunction, mean, var) -> np.ndarray:
    """E[f(N(mean, var I))] elementwise from f's closed form, with var
    broadcast against mean (against mean without its trailing coordinate
    axis for d >= 2)."""
    if f.gaussian_expectation is None:
        raise CapabilityError(
            f"{f.name} has no closed-form Gaussian expectation")
    mean = np.asarray(mean)
    shape = mean.shape if f.dimension == 1 else mean.shape[:-1]
    return f.gaussian_expectation(mean, np.broadcast_to(var, shape))


def _ramp_mean(d, sd):
    """E max(d + sd Z, 0) for a standard normal Z, elementwise; max(d, 0)
    where sd = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        z = d / sd
        out = d * ndtr(z) + sd * np.exp(-0.5 * z * z) / SQRT_2PI
    return np.where(sd > 0, out, np.maximum(d, 0.0))


# ---------------------------------------------------------------------------
# registered one-dimensional families


def gaussian_bump() -> TestFunction:
    """f(x) = exp(-x^2 / 2), a smooth rapidly decaying reference function."""
    return TestFunction(
        name="gaussian_bump",
        value=lambda x: np.exp(-0.5 * np.asarray(x, float) ** 2),
        gradient=lambda x: -np.asarray(x, float) * np.exp(-0.5 * np.asarray(x, float) ** 2),
        fourier=lambda u: SQRT_2PI * np.exp(-0.5 * np.asarray(u, float) ** 2),
        osc_scale=1.0,
        # E exp(-N(mu, v)^2 / 2) = exp(-mu^2 / (2 (1 + v))) / sqrt(1 + v)
        gaussian_expectation=lambda mu, var: (
            np.exp(-0.5 * mu * mu / (1.0 + var)) / np.sqrt(1.0 + var)),
    )


def hat() -> TestFunction:
    """Piecewise linear hat max(0, 1 - |x|); gradient one-sided at the kinks."""
    def value(x):
        return np.maximum(0.0, 1.0 - np.abs(np.asarray(x, float)))

    def grad(x):
        x = np.asarray(x, float)
        # right-limit convention at the kink set {-1, 0, 1}
        return np.where((x >= -1.0) & (x < 0.0), 1.0,
                        np.where((x >= 0.0) & (x < 1.0), -1.0, 0.0))

    def fourier(u):
        u = np.asarray(u, float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = 2.0 * (1.0 - np.cos(u)) / u ** 2
        return np.where(np.abs(u) < 1e-8, 1.0 - u ** 2 / 12.0, out)

    def gauss_expect(mu, var):
        # hat = r(x + 1) - 2 r(x) + r(x - 1) with the ramp r(y) = max(y, 0)
        sd = np.sqrt(np.maximum(var, 0.0))
        return (_ramp_mean(mu + 1.0, sd) - 2.0 * _ramp_mean(mu, sd)
                + _ramp_mean(mu - 1.0, sd))

    return TestFunction("hat", value, grad, fourier, osc_scale=2.0,
                        gaussian_expectation=gauss_expect)


def indicator(a: float, b: float) -> TestFunction:
    """Indicator of [a, b]; no gradient; H^s only for s < 1/2."""
    if not b > a:
        raise ConfigError(f"indicator needs a < b, got [{a}, {b}]")

    def value(x):
        x = np.asarray(x, float)
        return ((x >= a) & (x <= b)).astype(float)

    def fourier(u):
        u = np.asarray(u, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = (np.exp(1j * u * b) - np.exp(1j * u * a)) / (1j * u)
        small = np.abs(u) < 1e-12
        return np.where(small, b - a, out)

    def gauss_expect(mu, var):
        sd = np.sqrt(np.maximum(var, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            hi = np.where(sd > 0, (b - mu) / np.where(sd > 0, sd, 1.0), 0.0)
            lo = np.where(sd > 0, (a - mu) / np.where(sd > 0, sd, 1.0), 0.0)
        point = ((mu >= a) & (mu <= b)).astype(float)
        return np.where(sd > 0, ndtr(hi) - ndtr(lo), point)

    scale = max(abs(a), abs(b), b - a)
    return TestFunction(f"indicator({a},{b})", value, None, fourier,
                        osc_scale=max(scale, 1.0),
                        gaussian_expectation=gauss_expect)


def power_singularity(alpha: float, cutoff: float = 1.0) -> TestFunction:
    """|x|^(-alpha) localized by a smooth bump of width ``cutoff``."""
    if not 0 < alpha < 1:
        raise ConfigError("power singularity needs 0 < alpha < 1 in d = 1")
    if not cutoff > 0:
        raise ConfigError(f"power singularity needs cutoff > 0, got {cutoff}")

    def value(x):
        x = np.asarray(x, float)
        with np.errstate(divide="ignore"):
            out = np.abs(x) ** (-alpha) * np.exp(-0.5 * (x / cutoff) ** 2)
        return np.where(x == 0.0, 0.0, out)

    # Ff(u) = 2 int_0^inf x^-alpha exp(-x^2 / (2 c^2)) cos(u x) dx
    #       = (2 c^2)^a Gamma(a) 1F1(a; 1/2; -c^2 u^2 / 2), a = (1 - alpha) / 2
    a = 0.5 * (1.0 - alpha)
    scale = (2.0 * cutoff ** 2) ** a * gamma(a)

    def fourier(u):
        u = np.asarray(u, float)
        return scale * hyp1f1(a, 0.5, -0.5 * (cutoff * u) ** 2)

    # The localizer times the N(mu, v) density is sqrt(k) exp(-mu^2 /
    # (2 (c^2 + v))) times the N(k mu, k v) density, k = c^2 / (c^2 + v);
    # E|N(m, s2)|^-alpha = (2 s2)^(-alpha/2) Gamma(a) / sqrt(pi)
    # 1F1(alpha/2; 1/2; -m^2 / (2 s2)) (Winkelbauer 2012, arXiv:1209.4340)
    moment = gamma(a) / math.sqrt(math.pi)

    def gauss_expect(mu, var):
        k = cutoff ** 2 / (cutoff ** 2 + var)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = (np.sqrt(k) * np.exp(-0.5 * mu * mu / (cutoff ** 2 + var))
                   * (2.0 * k * var) ** (-0.5 * alpha) * moment
                   * hyp1f1(0.5 * alpha, 0.5, -0.5 * k * mu * mu / var))
        return np.where(var > 0, out, value(mu))

    return TestFunction(f"power_singularity({alpha})", value, None, fourier,
                        osc_scale=1.0, gaussian_expectation=gauss_expect)


def _cosine_ladder(angle, freqs, cos):
    """Yield cos(f * angle) in the buffer ``cos`` for each of the doubling
    frequencies f = freqs[0] * 2^k.

    Between direct ``np.cos`` calls, one every RESEED levels, it doubles
    the angle with cos 2a = 2 cos^2 a - 1. That map has slope 4 cos a, so
    it multiplies an absolute error by at most 4 per level, and the reseed
    bounds the growth at 4^(RESEED - 1) rounding errors. The bound is
    reached where cos a stays near +-1 from level to level, as it does for
    angles near 0: there a lacunary series is off by about 2e-15 of its
    largest value at s = 1.2 and 1e-14 at s = 0.3. (The sin/cos pair of the
    gradient only doubles an angle error per level.)
    """
    for j, fj in enumerate(freqs):
        if j % RESEED == 0:
            np.multiply(angle, fj, out=cos)
            np.cos(cos, out=cos)
        else:
            cos *= cos
            cos += cos
            cos -= 1.0
        yield cos


def lacunary(s: float, J: int = 12, cutoff: float = 3.0) -> TestFunction:
    """Localized lacunary cosine series with tunable Sobolev smoothness.

    f(x) = w(x) * sum_j 2^(-j s) cos(2^j x) with a Gaussian localizer w of
    width ``cutoff``; the dyadic coefficient decay places the H^sigma
    membership boundary at sigma = s.
    """
    if J < 1:
        raise ConfigError("lacunary series needs J >= 1")
    js = np.arange(1, J + 1)
    freqs = 2.0 ** js
    coeffs = 2.0 ** (-js * s)
    c2 = cutoff ** 2

    # Angle doubling. The values need only cosines, from ``_cosine_ladder``.
    # The gradient also needs the sines, so it doubles the pair: cos and sin
    # of 2a are (cos^2 - sin^2, 2 cos sin) of a, with a direct pair every
    # RESEED levels. The work runs in blocks of BLOCK points through a few
    # block-sized buffers, so no ensemble-sized temporary is made.
    def series(x, gradient):
        x = np.asarray(x, float)
        flat = np.ascontiguousarray(x).reshape(-1)
        out = np.empty_like(flat)
        buffers = [np.empty(min(BLOCK, flat.size)) for _ in range(5)]
        for lo in range(0, flat.size, BLOCK):
            xb = flat[lo:lo + BLOCK]
            cos, sin, tmp, acc, dacc = (b[:xb.size] for b in buffers)
            acc.fill(0.0)
            if not gradient:
                for cj, c in zip(coeffs, _cosine_ladder(xb, freqs, cos)):
                    np.multiply(c, cj, out=tmp)
                    acc += tmp
            else:
                dacc.fill(0.0)
                for j, (fj, cj) in enumerate(zip(freqs, coeffs)):
                    if j % RESEED == 0:
                        np.multiply(xb, fj, out=tmp)
                        np.cos(tmp, out=cos)
                        np.sin(tmp, out=sin)
                    else:
                        np.multiply(cos, sin, out=tmp)
                        tmp += tmp
                        cos *= cos
                        sin *= sin
                        cos -= sin
                        sin, tmp = tmp, sin
                    np.multiply(cos, cj, out=tmp)
                    acc += tmp
                    np.multiply(sin, cj * fj, out=tmp)
                    dacc -= tmp
            np.multiply(xb, xb, out=tmp)               # localizer w(x)
            tmp *= -0.5 / c2
            np.exp(tmp, out=tmp)
            if gradient:                               # w' = -x / c2 * w
                np.multiply(xb, acc, out=cos)
                cos /= c2
                dacc -= cos
                acc = dacc
            np.multiply(tmp, acc, out=out[lo:lo + xb.size])
        return out.reshape(x.shape)

    def value(x):
        return series(x, False)

    def grad(x):
        return series(x, True)

    def fourier(u):
        u = np.asarray(u, float)
        fw = lambda v: cutoff * SQRT_2PI * np.exp(-0.5 * c2 * v ** 2)
        shifted = 0.5 * (fw(np.subtract.outer(u, freqs)) + fw(np.add.outer(u, freqs)))
        return np.tensordot(shifted, coeffs, axes=(-1, 0))

    # E[w(X) cos(f X)] for X ~ N(mu, v) is, with shrink = c2 / (c2 + v),
    # sqrt(shrink) exp(-mu^2 / (2 (c2 + v))) exp(-f^2 v shrink / 2)
    # cos(f mu shrink); the cosines come from the value kernel's ladder.
    # Each level takes its own exp: raising exp(damp 4^j) to the fourth
    # power from level to level would multiply its relative error by 4.
    def gauss_expect(mu, var):
        shrink = c2 / (c2 + var)
        damp = -0.5 * var * shrink
        phase = mu * shrink
        acc = np.zeros(np.shape(phase))
        cos = np.empty_like(acc)
        for fj, cj, c in zip(freqs, coeffs, _cosine_ladder(phase, freqs, cos)):
            acc += cj * np.exp(damp * (fj * fj)) * c
        return np.sqrt(shrink) * np.exp(-0.5 * mu * mu / (c2 + var)) * acc

    return TestFunction(f"lacunary(s={s},J={J})", value, grad, fourier,
                        osc_scale=4.0 * cutoff,
                        gaussian_expectation=gauss_expect)


def complex_exponential(u: float) -> TestFunction:
    """f(x) = exp(i u x), the diagnostic frequency probe."""
    u = float(u)

    def value(x):
        return np.exp(1j * u * np.asarray(x, float))

    def gauss_expect(mu, var):
        # E exp(i u (mu + N(0, var))) = exp(i u mu - u^2 var / 2)
        return np.exp(1j * u * mu - 0.5 * u * u * var)

    return TestFunction(f"complex_exponential({u})", value,
                        gradient=lambda x: 1j * u * np.exp(1j * u * np.asarray(x, float)),
                        gaussian_expectation=gauss_expect)


def identity() -> TestFunction:
    return TestFunction("identity", lambda x: np.asarray(x, float) + 0.0,
                        gradient=lambda x: np.ones_like(np.asarray(x, float)),
                        gaussian_expectation=lambda mu, var: mu + 0.0 * var)


def quadratic() -> TestFunction:
    return TestFunction("quadratic", lambda x: np.asarray(x, float) ** 2,
                        gradient=lambda x: 2.0 * np.asarray(x, float),
                        gaussian_expectation=lambda mu, var: mu * mu + var)


def constant(c: float = 1.0) -> TestFunction:
    c = float(c)
    return TestFunction(f"constant({c})",
                        lambda x: np.full(np.shape(np.asarray(x)), c),
                        gradient=lambda x: np.zeros_like(np.asarray(x, float)),
                        gaussian_expectation=lambda mu, var: np.full(
                            np.broadcast(mu, var).shape, c))


def tensor_product(factors) -> TestFunction:
    """d >= 2 function as a product of one-dimensional members."""
    factors = tuple(factors)
    if len(factors) < 2:
        raise ConfigError("tensor product needs at least two factors")
    if any(f.dimension != 1 for f in factors):
        raise ConfigError("tensor factors must be one-dimensional")
    d = len(factors)

    def product(attr):
        """Product over the coordinates of the factors' ``attr``, or None
        when a factor lacks it; value, transform and the expectation under
        N(mu, var I) all separate so."""
        if any(getattr(f, attr) is None for f in factors):
            return None

        def call(x, *args):
            x = np.asarray(x)
            out = getattr(factors[0], attr)(x[..., 0], *args)
            for i in range(1, d):
                out = out * getattr(factors[i], attr)(x[..., i], *args)
            return out
        return call

    def grad(x):
        x = np.asarray(x, float)
        vals = [f.value(x[..., i]) for i, f in enumerate(factors)]
        out = np.empty(x.shape)
        for i, f in enumerate(factors):
            g = f.gradient(x[..., i])
            others = np.ones_like(g)
            for j, v in enumerate(vals):
                if j != i:
                    others = others * v
            out[..., i] = g * others
        return out

    return TestFunction(
        "tensor(" + ",".join(f.name for f in factors) + ")",
        product("value"), grad if all(f.gradient for f in factors) else None,
        product("fourier"), osc_scale=max(f.osc_scale for f in factors),
        dimension=d, gaussian_expectation=product("gaussian_expectation"),
        components=factors)


# ---------------------------------------------------------------------------
# config-file parsing of function descriptors


_FAMILY_BUILDERS = {
    "gaussian_bump": (gaussian_bump, ()),
    "hat": (hat, ()),
    "indicator": (indicator, ("a", "b")),
    "power_singularity": (power_singularity, ("alpha", "cutoff")),
    "lacunary": (lacunary, ("s", "J", "cutoff")),
    "complex_exponential": (complex_exponential, ("u",)),
    "identity": (identity, ()),
    "quadratic": (quadratic, ()),
    "constant": (constant, ("c",)),
}

_CALL_RE = re.compile(r"^\s*([a-z_]+)\s*(?:\((.*)\))?\s*$")


def parse_function(text: str) -> TestFunction:
    """Parse descriptors like ``gaussian_bump`` or ``lacunary(s=1.2, J=12)``."""
    m = _CALL_RE.match(text)
    if not m:
        raise ConfigError(f"cannot parse function descriptor {text!r}")
    name, argtext = m.group(1), m.group(2)
    if name not in _FAMILY_BUILDERS:
        known = ", ".join(sorted(_FAMILY_BUILDERS))
        raise ConfigError(f"unknown function family {name!r}; known: {known}")
    builder, param_names = _FAMILY_BUILDERS[name]
    args, kwargs = [], {}
    if argtext and argtext.strip():
        for piece in argtext.split(","):
            piece = piece.strip()
            if "=" in piece:
                key, val = (p.strip() for p in piece.split("=", 1))
                if key not in param_names:
                    raise ConfigError(
                        f"unknown parameter {key!r} for {name}; expected {param_names}")
                kwargs[key] = _number(val)
            else:
                args.append(_number(piece))
    try:
        fn = builder(*args, **kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad arguments for {name}: {exc}") from exc
    return fn


def _number(text: str):
    try:
        v = float(text)
    except ValueError:
        raise ConfigError(f"{text.strip()!r} is not a number") from None
    if not math.isfinite(v):
        raise ConfigError(f"{text.strip()!r} is not a finite number")
    return int(v) if v == int(v) and "." not in text and "e" not in text.lower() else v
