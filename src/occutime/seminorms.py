"""Numerical Sobolev and Fourier-Lebesgue seminorms.

The weighted frequency integrals of a function's closed-form transform are
computed over geometric panels up to a frequency cap, with the per-panel node
count scaled to the oscillation of the transform. The tail behaviour is
estimated from the panel sums: slow decay raises a divergence flag, fast decay
is extrapolated geometrically.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, ConfigError
from .functions import TestFunction
from .grids import gauss_legendre

# Frequency quadrature: a head panel [0, PANEL_START], then octave panels up
# to U_MAX with at least MIN_NODES nodes (more for oscillating transforms),
# each split into Gauss-Legendre subpanels of SUBPANEL_ORDER nodes. A panel
# is active when its sum exceeds NEGLIGIBLE times the largest. The tail
# exponent is fitted over the TAIL_FIT_PANELS panels that end at the last
# active one, and only when they are a tail: all of them active, or ending
# at the last panel below U_MAX, where an integrand that grows by more than
# 1 / NEGLIGIBLE over the window (the indicator at s = 6) leaves its first
# panels negligible. A transform that lives on a few panels (a smooth bump
# at high s, a short lacunary series) has no tail, and its exponent is nan.
# A tail that decays slower than u^-(1 + DIVERGENCE_EPS) is divergent.
# U_MAX / PANEL_START is a power of two: the geometric tail beyond U_MAX
# assumes that every panel, the last included, is a full octave, and it is
# added only while the integrand just below U_MAX is not negligible: a
# transform that dies out inside the last octave (the top term of a
# lacunary series) has none.
U_MAX = 2.0 ** 13
PANEL_START = 1.0
MIN_NODES = 64
SUBPANEL_ORDER = 256
TAIL_FIT_PANELS = 5
NEGLIGIBLE = 1e-13
DIVERGENCE_EPS = 0.05


@dataclass(frozen=True)
class SeminormResult:
    value: float                 # +inf when divergent
    divergent: bool
    tail_exponent: float         # fitted decay exponent p of the integrand,
                                 # nan when the panels show no tail

    def __float__(self):
        return self.value


def _panel_sum(integrand, a: float, b: float, nodes: int, order: int) -> float:
    """Gauss-Legendre over [a, b], split into subpanels of fixed order."""
    pieces = max(1, math.ceil(nodes / order))
    edges = np.linspace(a, b, pieces + 1)
    y, w = gauss_legendre(order)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    u = mid[:, None] + half[:, None] * y[None, :]
    vals = integrand(u.ravel()).reshape(u.shape)
    return float(np.sum(half[:, None] * w[None, :] * vals))


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _weighted_integral(f: TestFunction, s: float, squared: bool):
    """Shared engine: integrand |Ff|^2 |u|^{2s} (squared) or |Ff| |u|^s,
    over both half-lines, as no symmetry of Ff is assumed. Returns (body,
    tail, divergent, fitted tail exponent)."""
    transform = f.fourier
    if transform is None:
        raise CapabilityError(f"{f.name}: no closed-form Fourier transform")
    power = 2.0 * s if squared else s

    def integrand(u):
        a, b = np.abs(transform(u)), np.abs(transform(-u))
        mag = a ** 2 + b ** 2 if squared else a + b
        vals = mag * u ** power
        bad = ~np.isfinite(vals)
        if bad.any():
            # u^power overflows below the cap (H^s at s > 1024 / 26), where
            # the transform may have underflowed to 0: multiply in logs
            vals[bad] = np.exp(np.log(mag[bad]) + power * np.log(u[bad]))
        return vals

    density = max(1.0, f.osc_scale)

    # head panel [0, PANEL_START]
    head = _panel_sum(integrand, 0.0, PANEL_START, MIN_NODES, SUBPANEL_ORDER)

    panels = []
    lo = PANEL_START
    while lo < U_MAX:
        hi = 2.0 * lo
        nodes = max(MIN_NODES, int((hi - lo) * density))
        panels.append(_panel_sum(integrand, lo, hi, nodes, SUBPANEL_ORDER))
        lo = hi
    panels = np.asarray(panels)

    body = head + float(panels.sum())
    if not math.isfinite(body):
        # past the float range: divergent when the last panel is, as for an
        # integrand that grows up to the cap, else too large to represent
        return body, 0.0, bool(np.isinf(panels[-1])), math.nan

    peak = panels.max(initial=0.0)
    if peak <= 0.0:
        return body, 0.0, False, math.nan

    active = panels > NEGLIGIBLE * peak
    last = np.nonzero(active)[0][-1]
    first = last - TAIL_FIT_PANELS + 1
    at_cap = last == len(panels) - 1
    if first < 0 or not (at_cap or active[first:last + 1].all()):
        return body, 0.0, False, math.nan

    window = panels[first:last + 1]
    rho = float(np.median(window[1:] / window[:-1]))
    # panel sums of an integrand ~ u^-p over octaves scale by 2^(1-p)
    p_hat = 1.0 - math.log2(rho) if rho > 0 else math.inf
    divergent = p_hat < 1.0 + DIVERGENCE_EPS
    tail = 0.0
    if not divergent and at_cap and rho < 1.0:
        edge = float(np.max(integrand(U_MAX - np.arange(MIN_NODES) / density)))
        if U_MAX * edge > NEGLIGIBLE * peak:
            tail = float(window[-1]) * rho / (1.0 - rho)
    return body, tail, divergent, p_hat


def _tensor_seminorm(f: TestFunction, s: float, squared: bool) -> SeminormResult:
    """Seminorm of a tensor product g_1 x ... x g_d. Its weight |u|^{2s}
    (Sobolev) or |u|^s (Fourier-Lebesgue) is (sum_i u_i^2)^k, k = s or s/2;
    for an integer k it expands as sum_{|a| = k} k!/a! prod_i u_i^{2 a_i},
    a sum of products of one-dimensional weighted integrals of the g_i."""
    k = s if squared else s / 2
    if not float(k).is_integer():
        form = "H^s needs an integer s" if squared else "FL^s needs an even s"
        raise CapabilityError(f"{f.name}: the tensor-product {form}, got s={s}")
    k = int(k)
    parts = [[_seminorm(g, a if squared else 2 * a, squared)
              for a in range(k + 1)] for g in f.components]
    p_min = min((p.tail_exponent for row in parts for p in row
                 if not math.isnan(p.tail_exponent)), default=math.nan)
    if any(p.divergent for row in parts for p in row):
        return SeminormResult(math.inf, True, p_min)
    total = sum(
        math.factorial(k) / math.prod(map(math.factorial, a))
        * math.prod(row[a_i].value ** (2 if squared else 1)
                    for row, a_i in zip(parts, a))
        for a in itertools.product(range(k + 1), repeat=len(parts))
        if sum(a) == k)
    return SeminormResult(math.sqrt(total) if squared else total, False,
                          p_min)


def _seminorm(f: TestFunction, s: float, squared: bool) -> SeminormResult:
    if not (math.isfinite(s) and s >= 0):
        raise ConfigError(f"smoothness order must be finite and >= 0, "
                          f"got s={s}")
    if f.components is not None:
        return _tensor_seminorm(f, s, squared)
    body, tail, divergent, p_hat = _weighted_integral(f, s, squared)
    if divergent:
        return SeminormResult(math.inf, True, p_hat)
    total = body + tail
    return SeminormResult(math.sqrt(total) if squared else total, False, p_hat)


def sobolev_seminorm(f: TestFunction, s: float) -> SeminormResult:
    """(int |Ff(u)|^2 |u|^{2s} du)^{1/2}, with divergence detection."""
    return _seminorm(f, s, squared=True)


def fourier_lebesgue_seminorm(f: TestFunction, s: float) -> SeminormResult:
    """int |Ff(u)| |u|^s du, with divergence detection."""
    return _seminorm(f, s, squared=False)
