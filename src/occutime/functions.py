"""Test function families with their gradients, Fourier data and Gaussian
expectations.

All members use the convention Ff(u) = int f(x) exp(i<u, x>) dx. One
dimensional families take plain arrays; multi-dimensional functions are
tensor products and take arrays with a trailing coordinate axis. Every
registered family carries E[f(N(mu, v))] in closed form, which is the only
way ``gaussian_mean`` computes it.

Kernels follow one protocol: ``value(x, out=None)`` returns f at the points
x and ``value_and_gradient(x, out=None)`` returns the pair (f, grad f) from
one pass over x. ``out`` (an array, or a pair of arrays for the pair
kernel) is room the kernel may write its results into; callers use the
returned arrays, which have the bits of a call without ``out``. The
Gaussian bump and the lacunary series write there; the other families
ignore it. grad f is given only as ``value_and_gradient``, no longer as
``gradient=``; ``gradient(x)``, the pair's second array, is read-only.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import partial, reduce
from typing import Callable

import numpy as np

from .errors import CapabilityError, ConfigError

SQRT_2PI = math.sqrt(2.0 * math.pi)
BLOCK = 2 ** 14     # points per block of the lacunary kernel
RESEED = 6          # lacunary levels per direct cos (and sin, for gradients)


@dataclass(frozen=True)
class TestFunction:
    """A test function and what is known of it in closed form.

    Give grad f as ``value_and_gradient(x, out=None)``. ``gradient`` is
    read-only: it is always derived from the pair, also when
    ``dataclasses.replace`` changes the pair, and a ``gradient`` given
    without a pair raises ``ConfigError``. ``value`` must accept ``out=``
    (it may ignore it), since the study passes give it one."""
    __test__ = False        # not a pytest test class despite the name

    name: str
    value: Callable                      # (x, out=None) -> f(x)
    gradient: Callable | None = None     # x -> grad f(x), derived; read-only
    fourier: Callable | None = None
    osc_scale: float = 1.0               # node density hint for u-quadrature
    dimension: int = 1
    gaussian_expectation: Callable | None = None  # (mu, var) -> E[f(N(mu, var I))]
    components: tuple | None = None      # tensor product factors
    value_and_gradient: Callable | None = None    # (x, out=None) -> (f, grad f)

    def __post_init__(self):
        pair = self.value_and_gradient
        if pair is None and self.gradient is not None:
            raise ConfigError(f"{self.name}: give grad f as value_and_gradient=;"
                              f" gradient is derived from it")
        object.__setattr__(self, "gradient",
                           None if pair is None else partial(_gradient_of, pair))

    def __repr__(self):  # avoid dumping callables
        return f"TestFunction({self.name!r}, d={self.dimension})"


def _gradient_of(value_and_gradient, x):
    return value_and_gradient(x)[1]


def eval_on_path(f: TestFunction, bundle, gradient: bool = False, out=None):
    """Sample f (and optionally its gradient) at the fine nodes of the
    observed paths Y = X + xi (see ``PathBundle.observed``).

    Returns an array of shape (paths, nodes) or a pair with the gradient
    array (paths, nodes, d). A one-dimensional f gets the points without
    their coordinate axis, and its gradient gets the axis back. ``out`` is
    None or the triple (points, values, gradients) of arrays the kernels
    may fill (see the module docstring), each of them None or of the shape
    above: points (paths, nodes, d) takes Y of a shifted process.
    """
    if gradient and f.value_and_gradient is None:
        raise CapabilityError(f"{f.name} has no gradient")
    points, values, grads = (None, None, None) if out is None else out
    y = bundle.observed(out=points)
    squeeze = f.dimension == 1 and y.shape[-1] == 1
    if squeeze:
        y = y[..., 0]
        grads = None if grads is None else grads[..., 0]
    if not gradient:
        return f.value(y) if values is None else f.value(y, out=values)
    vals, grad = f.value_and_gradient(y, out=(values, grads))
    # expand_dims keeps the strides of a 3-d grads buffer, so a ufunc from
    # the returned gradient into that buffer sees one array, not an overlap
    return vals, (np.expand_dims(grad, -1) if squeeze else grad)


def gaussian_mean(f: TestFunction, mean, var) -> np.ndarray:
    """E[f(N(mean, var I))] elementwise from f's closed form, with var
    broadcast against mean (against mean without its trailing coordinate
    axis for d >= 2). var is passed on unbroadcast, so the closed form
    computes its var-only terms once per distinct variance."""
    if f.gaussian_expectation is None:
        raise CapabilityError(
            f"{f.name} has no closed-form Gaussian expectation")
    mean, var = np.asarray(mean), np.asarray(var)
    shape = mean.shape if f.dimension == 1 else mean.shape[:-1]
    if np.broadcast_shapes(var.shape, shape) != shape:
        raise ValueError(f"var of shape {var.shape} does not broadcast "
                         f"to the shape {shape} of the means")
    return f.gaussian_expectation(mean, var)


def _finite(family: str, **params) -> None:
    """Raise ConfigError naming the first parameter that is not finite."""
    for key, v in params.items():
        if not math.isfinite(v):
            raise ConfigError(f"{family} needs a finite {key}, got {v}")


def _ramp_mean(d, sd):
    """E max(d + sd Z, 0) for a standard normal Z, elementwise; max(d, 0)
    where sd = 0."""
    from scipy.special import ndtr      # slow to import; only used here
    with np.errstate(divide="ignore", invalid="ignore"):
        z = d / sd
        out = d * ndtr(z) + sd * np.exp(-0.5 * z * z) / SQRT_2PI
    return np.where(sd > 0, out, np.maximum(d, 0.0))


# ---------------------------------------------------------------------------
# registered one-dimensional families


def _bump_value(x, out=None) -> np.ndarray:
    """exp(-x^2 / 2) computed in ``out`` or one new array; x is never
    written. Rounds as ``np.exp(-0.5 * x ** 2)`` does."""
    x = np.asarray(x, float)
    out = np.square(x, out=np.empty(x.shape) if out is None else out)
    out *= -0.5                                 # out= keeps a 0-d array
    return np.exp(out, out=out)


def _bump_value_and_gradient(x, out=None):
    """(f, -x f) for f = exp(-x^2 / 2), one exp per point, computed in the
    pair ``out`` or two new arrays; x is never written."""
    x = np.asarray(x, float)
    value, grad = (None, None) if out is None else out
    value = _bump_value(x, value)
    grad = np.multiply(x, value, out=np.empty(x.shape) if grad is None else grad)
    return value, np.negative(grad, out=grad)


def _bump_expectation(mu, var) -> np.ndarray:
    """E exp(-N(mu, v)^2 / 2) = exp(-mu^2 / (2 (1 + v))) / sqrt(1 + v) in one
    new array. Rounds as ``np.exp(-0.5 * mu * mu / (1.0 + var)) /
    np.sqrt(1.0 + var)`` does."""
    mu = np.asarray(mu, float)
    out = np.multiply(mu, -0.5,
                      out=np.empty(np.broadcast_shapes(mu.shape, np.shape(var))))
    out *= mu
    out /= 1.0 + var
    np.exp(out, out=out)
    out /= np.sqrt(1.0 + var)
    return out


def gaussian_bump() -> TestFunction:
    """f(x) = exp(-x^2 / 2), a smooth rapidly decaying reference function."""
    return TestFunction(
        name="gaussian_bump",
        value=_bump_value,
        value_and_gradient=_bump_value_and_gradient,
        fourier=lambda u: SQRT_2PI * np.exp(-0.5 * np.asarray(u, float) ** 2),
        osc_scale=1.0,
        gaussian_expectation=_bump_expectation,
    )


def hat() -> TestFunction:
    """Piecewise linear hat max(0, 1 - |x|); gradient one-sided at the kinks."""
    def value(x, out=None):
        return np.maximum(0.0, 1.0 - np.abs(np.asarray(x, float)))

    def value_and_gradient(x, out=None):
        x = np.asarray(x, float)
        # right-limit convention at the kink set {-1, 0, 1}
        return value(x), np.where((x >= -1.0) & (x < 0.0), 1.0,
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

    return TestFunction("hat", value, fourier=fourier, osc_scale=2.0,
                        gaussian_expectation=gauss_expect,
                        value_and_gradient=value_and_gradient)


def indicator(a: float, b: float) -> TestFunction:
    """Indicator of [a, b]; no gradient; H^s only for s < 1/2."""
    _finite("indicator", a=a, b=b)
    if not b > a:
        raise ConfigError(f"indicator needs a < b, got [{a}, {b}]")

    def value(x, out=None):
        x = np.asarray(x, float)
        return ((x >= a) & (x <= b)).astype(float)

    def fourier(u):
        u = np.asarray(u, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = (np.exp(1j * u * b) - np.exp(1j * u * a)) / (1j * u)
        small = np.abs(u) < 1e-12
        return np.where(small, b - a, out)

    def gauss_expect(mu, var):
        from scipy.special import ndtr  # slow to import; only used here
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
    _finite("power singularity", cutoff=cutoff)
    if not cutoff > 0:
        raise ConfigError(f"power singularity needs cutoff > 0, got {cutoff}")
    from scipy.special import gamma, hyp1f1  # slow to import; only used here

    def value(x, out=None):
        x = np.asarray(x, float)
        with np.errstate(divide="ignore"):
            fx = np.abs(x) ** (-alpha) * np.exp(-0.5 * (x / cutoff) ** 2)
        return np.where(x == 0.0, 0.0, fx)

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
    _finite("lacunary series", s=s, cutoff=cutoff)
    if not (float(J).is_integer() and J >= 1):
        raise ConfigError(f"lacunary series needs an integer J >= 1, got {J}")
    if not cutoff > 0:
        raise ConfigError(f"lacunary series needs cutoff > 0, got {cutoff}")
    js = np.arange(1, J + 1)
    freqs = 2.0 ** js
    coeffs = 2.0 ** (-js * s)
    c2 = cutoff ** 2

    # Angle doubling. The values need only cosines, from ``_cosine_ladder``.
    # The gradient also needs the sines, so it doubles the pair: cos and sin
    # of 2a are (cos^2 - sin^2, 2 cos sin) of a, with a direct pair every
    # RESEED levels. The work runs in blocks of BLOCK points through a few
    # block-sized buffers, so no ensemble-sized temporary is made. The
    # value and the gradient are two series: each keeps its own rounding.
    def series(x, gradient, out=None):
        x = np.asarray(x, float)
        flat = np.ascontiguousarray(x).reshape(-1)
        direct = out is not None and out.flags.c_contiguous
        result = out if direct else np.empty(x.shape)
        flat_out = result.reshape(-1)
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
            np.multiply(tmp, acc, out=flat_out[lo:lo + xb.size])
        return result

    def value(x, out=None):
        return series(x, False, out)

    def value_and_gradient(x, out=None):
        value_out, gradient_out = (None, None) if out is None else out
        return series(x, False, value_out), series(x, True, gradient_out)

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

    return TestFunction(f"lacunary(s={s},J={J})", value, None, fourier,
                        osc_scale=4.0 * cutoff,
                        gaussian_expectation=gauss_expect,
                        value_and_gradient=value_and_gradient)


def complex_exponential(u: float) -> TestFunction:
    """f(x) = exp(i u x), the diagnostic frequency probe."""
    u = float(u)
    _finite("complex exponential", u=u)

    def value(x, out=None):
        return np.exp(1j * u * np.asarray(x, float))

    def gauss_expect(mu, var):
        # E exp(i u (mu + N(0, var))) = exp(i u mu - u^2 var / 2)
        return np.exp(1j * u * mu - 0.5 * u * u * var)

    return TestFunction(f"complex_exponential({u})", value,
                        gaussian_expectation=gauss_expect)


def identity() -> TestFunction:
    return TestFunction("identity",
                        lambda x, out=None: np.asarray(x, float) + 0.0,
                        value_and_gradient=lambda x, out=None: (
                            np.asarray(x, float) + 0.0,
                            np.ones_like(np.asarray(x, float))),
                        gaussian_expectation=lambda mu, var: mu + 0.0 * var)


def quadratic() -> TestFunction:
    return TestFunction("quadratic",
                        lambda x, out=None: np.asarray(x, float) ** 2,
                        value_and_gradient=lambda x, out=None: (
                            np.asarray(x, float) ** 2,
                            2.0 * np.asarray(x, float)),
                        gaussian_expectation=lambda mu, var: mu * mu + var)


def constant(c: float = 1.0) -> TestFunction:
    c = float(c)
    _finite("constant", c=c)
    return TestFunction(f"constant({c})",
                        lambda x, out=None: np.full(np.shape(np.asarray(x)), c),
                        value_and_gradient=lambda x, out=None: (
                            np.full(np.shape(np.asarray(x)), c),
                            np.zeros_like(np.asarray(x, float))),
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
        when a factor lacks it; the transform and the expectation under
        N(mu, var I) separate so, as the value does."""
        if any(getattr(f, attr) is None for f in factors):
            return None

        def call(x, *args):
            x = np.asarray(x)
            out = getattr(factors[0], attr)(x[..., 0], *args)
            for i in range(1, d):
                out = out * getattr(factors[i], attr)(x[..., i], *args)
            return out
        return call

    def value(x, out=None):
        x = np.asarray(x)
        result = factors[0].value(x[..., 0], out=out)
        for i in range(1, d):
            result = np.multiply(result, factors[i].value(x[..., i]), out=out)
        return result

    def value_and_gradient(x, out=None):
        # each factor's value once: f = v_0 v_1 ... and d_i f = g_i times
        # the product of the other values, both in coordinate order
        x = np.asarray(x, float)
        value_out, grad = (None, None) if out is None else out
        pairs = [f.value_and_gradient(x[..., i]) for i, f in enumerate(factors)]
        vals = [v for v, _ in pairs]
        value = vals[0]
        for v in vals[1:]:
            value = np.multiply(value, v, out=value_out)
        grad = np.empty(x.shape) if grad is None else grad
        for i, (_, g) in enumerate(pairs):
            others = reduce(np.multiply, vals[:i] + vals[i + 1:])
            np.multiply(g, others, out=grad[..., i])
        return value, grad

    smooth = all(f.value_and_gradient for f in factors)
    return TestFunction(
        "tensor(" + ",".join(f.name for f in factors) + ")",
        value, None, product("fourier"),
        osc_scale=max(f.osc_scale for f in factors), dimension=d,
        gaussian_expectation=product("gaussian_expectation"),
        components=factors,
        value_and_gradient=value_and_gradient if smooth else None)


# ---------------------------------------------------------------------------
# config-file parsing of function descriptors


_FAMILY_BUILDERS = {
    "gaussian_bump": (gaussian_bump, ()),
    "hat": (hat, ()),
    "indicator": (indicator, ("a", "b")),
    "power_singularity": (power_singularity, ("alpha", "cutoff")),
    "lacunary": (lacunary, ("s", "J", "cutoff")),
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
                if key in kwargs:
                    raise ConfigError(f"parameter {key!r} of {name} given twice")
                kwargs[key] = _number(val)
            elif kwargs:
                raise ConfigError(f"positional argument {piece!r} of {name} "
                                  f"follows a keyword argument")
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
