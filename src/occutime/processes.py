"""Process specifications and fine-grid path simulation.

Three coefficient families are supported: standard Brownian motion,
Gaussian processes with deterministic time-dependent drift/diffusion
(sampled from the exact transition law), and a stochastic volatility
example driven by an auxiliary Brownian motion (Euler-Maruyama on the
fine grid). All three run one simulation loop: each path starts at a
fixed point and draws its shift and standard normals from a counter-based
stream derived from ``(master_seed, path_index)``, and only the rule that
turns the normals into increments depends on the family. Ensembles are
therefore reproducible bit for bit regardless of chunking or thread count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, SimulationError
from .grids import TimeGrid, gauss_legendre

# Stream tags for the splittable per-path RNG. MAIN drives the shift and the
# increments of W; VOL drives the auxiliary Brownian motion of the stochastic
# volatility; LIMIT drives the limit-law module.
STREAM_MAIN = 0
STREAM_VOL = 1
STREAM_LIMIT = 2


def path_rng(master_seed: int, path_index: int, stream: int = STREAM_MAIN) -> np.random.Generator:
    """Deterministic, non-overlapping per-path generator."""
    ss = np.random.SeedSequence(entropy=int(master_seed),
                                spawn_key=(int(path_index), int(stream)))
    return np.random.Generator(np.random.Philox(ss))


# ---------------------------------------------------------------------------
# start point and shift


@dataclass(frozen=True)
class FixedStart:
    point: tuple[float, ...]


@dataclass(frozen=True)
class UniformShift:
    """Independent shift with bounded density, uniform on [-w, w]^d."""

    half_width: float = 0.5

    def __post_init__(self):
        if not (np.isfinite(self.half_width) and self.half_width > 0):
            raise ConfigError(f"half_width must be finite and > 0, "
                              f"got {self.half_width}")

    def sample(self, rng: np.random.Generator, d: int) -> np.ndarray:
        return rng.uniform(-self.half_width, self.half_width, size=d)


# ---------------------------------------------------------------------------
# coefficient specifications


@dataclass(frozen=True)
class BrownianMotion:
    """X = X_0 + W: zero drift, identity diffusion."""

    dimension: int = 1
    initial: FixedStart = field(default_factory=lambda: FixedStart((0.0,)))
    shift: UniformShift | None = None

    def __post_init__(self):
        if self.dimension < 1:
            raise ConfigError("dimension must be >= 1")


@dataclass(frozen=True)
class DeterministicGaussian:
    """Gaussian process with deterministic time-dependent coefficients.

    ``drift(t)`` returns a (d,) vector, ``diffusion(t)`` a (d, d) matrix.
    Optional ``drift_integral(t0, t1)`` / ``covariance_integral(t0, t1)``
    give closed forms for the transition moments; otherwise 16-point
    Gauss-Legendre per fine step is used. ``nondegenerate=False`` opts out
    of the eigenvalue check, allowing degenerate examples such as sigma = 0.
    """

    dimension: int
    drift: Callable[[float], np.ndarray]
    diffusion: Callable[[float], np.ndarray]
    initial: FixedStart = field(default_factory=lambda: FixedStart((0.0,)))
    shift: UniformShift | None = None
    drift_integral: Callable[[float, float], np.ndarray] | None = None
    covariance_integral: Callable[[float, float], np.ndarray] | None = None
    nondegenerate: bool = True

    def __post_init__(self):
        if self.dimension < 1:
            raise ConfigError("dimension must be >= 1")

    def drift_at(self, t: float) -> np.ndarray:
        return np.asarray(self.drift(t), dtype=float).reshape(self.dimension)

    def diffusion_at(self, t: float) -> np.ndarray:
        return np.asarray(self.diffusion(t), dtype=float).reshape(
            self.dimension, self.dimension)

    def transition_moments(self, t0: float, t1: float) -> tuple[np.ndarray, np.ndarray]:
        """Mean and covariance of X_{t1} - X_{t0}."""
        if self.drift_integral is not None:
            mu = np.asarray(self.drift_integral(t0, t1), float).reshape(self.dimension)
        else:
            mu = _gl_integrate(self.drift_at, t0, t1, (self.dimension,))
        if self.covariance_integral is not None:
            cov = np.asarray(self.covariance_integral(t0, t1), float).reshape(
                self.dimension, self.dimension)
        else:
            cov = _gl_integrate(
                lambda t: self.diffusion_at(t) @ self.diffusion_at(t).T,
                t0, t1, (self.dimension, self.dimension))
        return mu, cov


@dataclass(frozen=True)
class StochVol:
    """d = 1 stochastic volatility: sigma_t = sigma0 * (1 + eta * sin(W'_t))
    with an independent auxiliary Brownian motion W', so sigma is an Ito
    semimartingale. ``sigma0 > 0`` and ``|eta| < 1`` keep sigma bounded away from zero.
    """

    sigma0: float = 1.0
    eta: float = 0.5
    dimension: int = 1
    initial: FixedStart = field(default_factory=lambda: FixedStart((0.0,)))
    shift: UniformShift | None = None

    def __post_init__(self):
        if self.dimension != 1:
            raise ConfigError(f"dimension must be 1 for StochVol, "
                              f"got {self.dimension}")
        if not (np.isfinite(self.sigma0) and self.sigma0 > 0):
            raise ConfigError(f"sigma0 must be finite and > 0 for StochVol, "
                              f"got {self.sigma0}")
        if not abs(self.eta) < 1:
            raise ConfigError(
                f"eta must satisfy |eta| < 1 so that sigma stays positive, "
                f"got {self.eta}")


ProcessSpec = BrownianMotion | DeterministicGaussian | StochVol


def _gl_integrate(fn, t0, t1, shape):
    """16-point Gauss-Legendre integral of an array-valued fn over [t0, t1]."""
    nodes, weights = gauss_legendre(16)
    half = 0.5 * (t1 - t0)
    mid = 0.5 * (t1 + t0)
    out = np.zeros(shape)
    for y, w in zip(nodes, weights):
        out += w * np.asarray(fn(mid + half * y), float).reshape(shape)
    return half * out


def _psd_factor(cov: np.ndarray) -> np.ndarray:
    """Square-root factors of a stack of PSD matrices, tolerant of zero
    eigenvalues."""
    vals, vecs = np.linalg.eigh(cov)
    return vecs * np.sqrt(np.clip(vals, 0.0, None))[..., None, :]


# ---------------------------------------------------------------------------
# path ensembles


@dataclass(frozen=True)
class PathBundle:
    """Ensemble of fine-grid trajectories.

    ``x`` has shape (paths, fine_count + 1, d) and ``shifts`` (paths, d).
    ``sigma`` is the diffusion coefficient at the fine nodes: None for
    Brownian motion (the identity), (fine_count + 1, d, d) shared across
    paths for deterministic coefficients, or (paths, fine_count + 1) for the
    scalar stochastic volatility. The driving normals are not stored; they
    are a pure function of (master_seed, path index).
    """

    grid: TimeGrid
    spec: ProcessSpec
    master_seed: int
    first_path_index: int
    x: np.ndarray
    sigma: np.ndarray | None
    shifts: np.ndarray

    @property
    def count(self) -> int:
        return self.x.shape[0]

    @property
    def dimension(self) -> int:
        return self.x.shape[2]

    def path_indices(self) -> np.ndarray:
        return self.first_path_index + np.arange(self.count)

    def observed(self, coarse: bool = False, stride: int = 1) -> np.ndarray:
        """Y = X + xi at every ``stride``-th fine node (or at the coarse
        nodes), shape (paths, nodes, d); a view of ``x`` when the process
        has no shift."""
        x = self.x[:, ::self.grid.refine_factor if coarse else stride]
        return x if self.spec.shift is None else x + self.shifts[:, None, :]


def _diffusion_nodes(spec: DeterministicGaussian, grid: TimeGrid) -> np.ndarray:
    """sigma at the fine nodes, checked for degeneracy unless opted out."""
    sigma = np.array([spec.diffusion_at(t) for t in grid.fine_times])
    if spec.nondegenerate:
        lam = np.linalg.eigvalsh(sigma @ sigma.transpose(0, 2, 1))[:, 0]
        bad = np.flatnonzero(lam <= 0)
        if bad.size:
            raise SimulationError(
                f"diffusion matrix degenerate at time {grid.fine_times[bad[0]]}: "
                f"smallest eigenvalue of sigma sigma^T is {lam[bad[0]]}")
    return sigma


def _transition_factors(spec: DeterministicGaussian, grid: TimeGrid):
    """Mean and covariance factor of every fine-step increment."""
    times = grid.fine_times
    moments = [spec.transition_moments(t0, t1)
               for t0, t1 in zip(times[:-1], times[1:])]
    mu = np.array([m for m, _ in moments])
    return mu, _psd_factor(np.array([cov for _, cov in moments]))


def _volatility(spec: StochVol, grid: TimeGrid, master_seed, index) -> np.ndarray:
    """sigma0 (1 + eta sin W') at the fine nodes, W' from the path's VOL stream."""
    zv = path_rng(master_seed, index, STREAM_VOL).standard_normal(grid.fine_count)
    w_aux = np.concatenate(([0.0], np.cumsum(zv) * np.sqrt(grid.fine_step)))
    return spec.sigma0 * (1.0 + spec.eta * np.sin(w_aux))


def simulate_paths(spec: ProcessSpec, grid: TimeGrid, count: int,
                   master_seed: int, first_path_index: int = 0) -> PathBundle:
    """Simulate ``count`` trajectories on the fine grid.

    Every family turns the path's standard normals z into fine-step
    increments: z sqrt(dt) for Brownian motion, the exact Gaussian
    transition mu + factor z for deterministic coefficients, and
    Euler-Maruyama sigma z sqrt(dt) with the volatility frozen between fine
    nodes for stochastic volatility; the path is their cumulative sum.
    """
    if count < 1:
        raise ConfigError(f"path count must be >= 1, got {count}")
    sqrt_dt = np.sqrt(grid.fine_step)
    sigma = None
    if isinstance(spec, BrownianMotion):
        def increments(i, z):
            return z * sqrt_dt
    elif isinstance(spec, DeterministicGaussian):
        sigma = _diffusion_nodes(spec, grid)
        mu, factor = _transition_factors(spec, grid)

        def increments(i, z):
            return mu + np.einsum("jab,jb->ja", factor, z)
    elif isinstance(spec, StochVol):
        sigma = np.empty((count, grid.fine_count + 1))

        def increments(i, z):
            sigma[i] = _volatility(spec, grid, master_seed, first_path_index + i)
            return sigma[i, :-1, None] * z * sqrt_dt
    else:
        raise ConfigError(f"unknown process spec {type(spec).__name__}")

    d = spec.dimension
    x0 = np.asarray(spec.initial.point, dtype=float).reshape(d)
    x = np.empty((count, grid.fine_count + 1, d))
    shifts = np.zeros((count, d))
    for i in range(count):
        # the shift, then the (fine_count, d) normals, from the main stream
        rng = path_rng(master_seed, first_path_index + i)
        if spec.shift is not None:
            shifts[i] = spec.shift.sample(rng, d)
        dx = increments(i, rng.standard_normal((grid.fine_count, d)))
        x[i, 0] = x0
        np.cumsum(dx, axis=0, out=x[i, 1:])
        x[i, 1:] += x0
    return PathBundle(grid, spec, master_seed, first_path_index, x, sigma, shifts)


def dump_paths_csv(bundle: PathBundle, stream) -> None:
    """Write fine-grid trajectories as CSV rows path_id,time,x_1..x_d."""
    d = bundle.dimension
    header = "path_id,time," + ",".join(f"x_{j + 1}" for j in range(d))
    stream.write(header + "\n")
    times = [repr(t) for t in bundle.grid.fine_times.tolist()]
    for index, path in zip(bundle.path_indices().tolist(), bundle.x.tolist()):
        stream.write("".join(
            f"{index},{t},{','.join(map(repr, point))}\n"
            for t, point in zip(times, path)))
