"""Process specifications and fine-grid path simulation.

Three coefficient families are supported: standard Brownian motion,
Gaussian processes with deterministic time-dependent drift/diffusion
(sampled from the exact transition law), and a stochastic volatility
example driven by an auxiliary Brownian motion (Euler-Maruyama on the
fine grid). All three run one simulation loop: each path starts at a
fixed point and draws its shift and standard normals from a counter-based
stream derived from ``(master_seed, path_index)``, once for all the grids
of a call, and only the rule that turns the normals into increments
depends on the family. Ensembles are therefore reproducible bit for bit
regardless of chunking, thread count or the other grids of the call.

The stream contract: the stream with tag ``tag`` of path ``i`` is
``Generator(Philox(SeedSequence(master_seed, spawn_key=(i, tag))))``. The
seed is a non-negative integer and path indices lie in [0, 2**32), so each
index is one spawn word. The keys of all paths of a call are computed in
one array call (``_stream_keys``), and one generator per call is re-keyed
for each path instead of building a SeedSequence per path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, SimulationError
from .grids import TimeGrid, gauss_legendre

# Stream tags for the splittable per-path RNG. MAIN drives the shift and the
# increments of W; VOL drives the auxiliary Brownian motion of the stochastic
# volatility.
STREAM_MAIN = 0
STREAM_VOL = 1

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MAX_PATHS = 2 ** 32


def _hasher(init: int, mult: int):
    """numpy's SeedSequence hash: a multiplier that advances with every
    word hashed, whatever its value; words are ints or uint64 arrays
    holding 32-bit values."""
    const = init

    def hash_word(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ (value >> _XSHIFT)
    return hash_word


def _stream_keys(master_seed: int, indices, stream: int) -> np.ndarray:
    """Philox keys of the streams (master_seed, index, stream), shape
    (count, 2) uint64: ``SeedSequence(master_seed, spawn_key=(index,
    stream)).generate_state(2, np.uint64)`` for every index at once.

    The seed enters as its little-endian 32-bit words (one word for 0),
    padded with zeros to the pool size; each index below 2**32 and the
    stream tag are one spawn word each. The hash multipliers do not depend
    on the words' values, so everything before the index word is a scalar
    and the rest is uint64 arithmetic mod 2**32 over all indices.
    """
    seed = int(master_seed)
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    words = []
    while True:
        words.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    words += [0] * (_POOL_SIZE - len(words))
    index = np.asarray(indices, dtype=np.uint64)
    entropy = words + [index, int(stream)]

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> _XSHIFT)

    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(2, np.uint64): four 32-bit words, paired little-endian
    out = _hasher(_INIT_B, _MULT_B)
    lo0, hi0, lo1, hi1 = map(out, pool)
    return np.stack([lo0 | hi0 << np.uint64(32),
                     lo1 | hi1 << np.uint64(32)], axis=-1)


def _path_streams(master_seed: int, indices, stream: int = STREAM_MAIN):
    """Yield the generator of each path's stream in turn.

    One ``Generator(Philox)`` serves the whole call: Philox is counter
    based, so setting its key to the path's and its counter and buffer to
    zero gives exactly the stream that ``Philox(SeedSequence(master_seed,
    spawn_key=(index, stream)))`` starts. The generator yielded is reused,
    so each path's draws must be taken before the next is requested.
    """
    bit_generator = np.random.Philox(0)
    rng = np.random.Generator(bit_generator)
    zero = np.zeros(4, dtype=np.uint64)
    state = {"bit_generator": "Philox",
             "state": {"counter": zero, "key": None},
             "buffer": zero, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for key in _stream_keys(master_seed, indices, stream).tolist():
        state["state"]["key"] = key
        bit_generator.state = state
        yield rng


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

    The coefficients take arrays of times: ``drift(t)`` returns an array of
    shape ``t.shape + (d,)`` and ``diffusion(t)`` one of shape
    ``t.shape + (d, d)``; a constant of shape (d,) or (d, d) broadcasts.
    Optional ``drift_integral(t0, t1)`` / ``covariance_integral(t0, t1)``
    give closed forms for the transition moments, broadcasting ``t0`` against
    ``t1`` in the same way; otherwise 16-point Gauss-Legendre per fine step
    is used. ``nondegenerate=False`` opts out of the eigenvalue check,
    allowing degenerate examples such as sigma = 0.
    """

    dimension: int
    drift: Callable[[np.ndarray], np.ndarray]
    diffusion: Callable[[np.ndarray], np.ndarray]
    initial: FixedStart = field(default_factory=lambda: FixedStart((0.0,)))
    shift: UniformShift | None = None
    drift_integral: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    covariance_integral: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    nondegenerate: bool = True

    def __post_init__(self):
        if self.dimension < 1:
            raise ConfigError("dimension must be >= 1")

    def _shaped(self, value, times, matrix: bool) -> np.ndarray:
        d = self.dimension
        return np.broadcast_to(np.asarray(value, dtype=float),
                               np.shape(times) + ((d, d) if matrix else (d,)))

    def drift_at(self, t) -> np.ndarray:
        """b at the times t, shape t.shape + (d,)."""
        t = np.asarray(t, float)
        return self._shaped(self.drift(t), t, False)

    def diffusion_at(self, t) -> np.ndarray:
        """sigma at the times t, shape t.shape + (d, d)."""
        t = np.asarray(t, float)
        return self._shaped(self.diffusion(t), t, True)

    def transition_moments(self, t0, t1) -> tuple[np.ndarray, np.ndarray]:
        """Mean and covariance of X_{t1} - X_{t0} for broadcast arrays of
        times t0, t1: shapes (..., d) and (..., d, d)."""
        t0, t1 = np.broadcast_arrays(np.asarray(t0, float),
                                     np.asarray(t1, float))
        if self.drift_integral is not None:
            mu = self._shaped(self.drift_integral(t0, t1), t0, False)
        else:
            mu = _gl_integrate(self.drift_at, t0, t1)
        if self.covariance_integral is not None:
            cov = self._shaped(self.covariance_integral(t0, t1), t0, True)
        else:
            def sigma_sigma_t(t):
                sigma = self.diffusion_at(t)
                return sigma @ np.swapaxes(sigma, -1, -2)
            cov = _gl_integrate(sigma_sigma_t, t0, t1)
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


def _gl_integrate(fn, t0, t1):
    """16-point Gauss-Legendre integral over [t0, t1] of a coefficient fn of
    times, for arrays t0, t1 of one shape S; fn(t) has shape S + (...)."""
    nodes, weights = gauss_legendre(16)
    half = 0.5 * (t1 - t0)
    mid = 0.5 * (t1 + t0)
    out = 0.0
    for y, w in zip(nodes, weights):
        out = out + w * fn(mid + half * y)
    return half.reshape(half.shape + (1,) * (out.ndim - half.ndim)) * out


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
    sigma = np.array(spec.diffusion_at(grid.fine_times))
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
    mu, cov = spec.transition_moments(times[:-1], times[1:])
    return mu, _psd_factor(cov)


def _assemble(spec: ProcessSpec, grid: TimeGrid, x: np.ndarray,
              sigma: np.ndarray | None) -> np.ndarray | None:
    """Turn the standard normals z in x[:, 1:] (and, for StochVol, the
    auxiliary normals in sigma[:, 1:]) into the paths, in place, and return
    the bundle's sigma.

    Every family turns z into fine-step increments: z sqrt(dt) for Brownian
    motion, the exact Gaussian transition mu + factor z for deterministic
    coefficients, and Euler-Maruyama sigma z sqrt(dt) with the volatility
    frozen between fine nodes for stochastic volatility; the path is their
    cumulative sum.
    """
    sqrt_dt = np.sqrt(grid.fine_step)
    z = x[:, 1:]
    if isinstance(spec, BrownianMotion):
        z *= sqrt_dt
    elif isinstance(spec, DeterministicGaussian):
        sigma = _diffusion_nodes(spec, grid)
        mu, factor = _transition_factors(spec, grid)
        np.add(mu, np.einsum("jab,ijb->ija", factor, z), out=z)
    else:
        # sigma0 (1 + eta sin W') at the fine nodes, W' from the VOL normals
        w_aux = sigma[:, 1:]
        np.cumsum(w_aux, axis=1, out=w_aux)
        w_aux *= sqrt_dt
        sigma[:, 0] = 0.0
        np.sin(sigma, out=sigma)
        sigma *= spec.eta
        sigma += 1.0
        sigma *= spec.sigma0
        z *= sigma[:, :-1, None]
        z *= sqrt_dt
    x0 = np.asarray(spec.initial.point, dtype=float).reshape(spec.dimension)
    np.cumsum(z, axis=1, out=z)
    z += x0
    x[:, 0] = x0
    return sigma


def simulate_grids(spec: ProcessSpec, grids: list[TimeGrid], count: int,
                   master_seed: int, first_path_index: int = 0
                   ) -> list[PathBundle]:
    """Simulate the same ``count`` trajectories on each of ``grids``.

    Each path draws its shift and its standard normals from its own
    streams once, for the grid with the most fine steps, straight into that
    grid's bundle. The draws are sequential, so a grid of N fine steps
    takes the first N normals of the path, exactly what a draw of N alone
    gives: every bundle equals ``simulate_paths`` on its grid.
    """
    if count < 1:
        raise ConfigError(f"path count must be >= 1, got {count}")
    if first_path_index < 0 or first_path_index + count > _MAX_PATHS:
        raise ConfigError(
            f"path indices must lie in [0, 2**32), got {first_path_index} "
            f"to {first_path_index + count - 1}")
    if not isinstance(spec, (BrownianMotion, DeterministicGaussian, StochVol)):
        raise ConfigError(f"unknown process spec {type(spec).__name__}")
    d = spec.dimension
    vol = isinstance(spec, StochVol)
    xs = [np.empty((count, g.fine_count + 1, d)) for g in grids]
    vols = [np.empty((count, g.fine_count + 1)) if vol else None
            for g in grids]
    shifts = np.zeros((count, d))
    top = max(range(len(grids)), key=lambda k: grids[k].fine_count)
    x_top, vol_top = xs[top], vols[top]
    indices = first_path_index + np.arange(count)
    for i, rng in enumerate(_path_streams(master_seed, indices)):
        # the shift, then the (fine_count, d) normals, from the main stream
        if spec.shift is not None:
            shifts[i] = spec.shift.sample(rng, d)
        rng.standard_normal(out=x_top[i, 1:])
    if vol:
        for i, rng in enumerate(_path_streams(master_seed, indices,
                                              STREAM_VOL)):
            rng.standard_normal(out=vol_top[i, 1:])
    for grid, x, sigma in zip(grids, xs, vols):
        if x is not x_top:
            x[:, 1:] = x_top[:, 1:grid.fine_count + 1]
            if vol:
                sigma[:, 1:] = vol_top[:, 1:grid.fine_count + 1]
    return [PathBundle(grid, spec, master_seed, first_path_index, x,
                       _assemble(spec, grid, x, sigma), shifts)
            for grid, x, sigma in zip(grids, xs, vols)]


def simulate_paths(spec: ProcessSpec, grid: TimeGrid, count: int,
                   master_seed: int, first_path_index: int = 0) -> PathBundle:
    """Simulate ``count`` trajectories on the fine grid; see
    :func:`simulate_grids`."""
    return simulate_grids(spec, [grid], count, master_seed,
                          first_path_index)[0]


def dump_paths_csv(bundle: PathBundle, stream) -> None:
    """Write fine-grid trajectories as CSV rows path_id,time,x_1..x_d."""
    d = bundle.dimension
    header = "path_id,time," + ",".join(f"x_{j + 1}" for j in range(d))
    stream.write(header + "\n")
    times = [repr(t) for t in bundle.grid.fine_times.tolist()]
    flat = bundle.x.reshape(bundle.count, -1)
    for index, row in zip(bundle.path_indices().tolist(), flat):
        values = list(map(repr, row.tolist()))
        if d > 1:
            values = [",".join(values[k:k + d])
                      for k in range(0, len(values), d)]
        stream.write("".join([f"{index},{t},{v}\n"
                              for t, v in zip(times, values)]))
