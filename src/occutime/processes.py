"""Process specifications and fine-grid path simulation.

Three coefficient families are supported: standard Brownian motion,
Gaussian processes with deterministic time-dependent drift/diffusion
(sampled from the exact transition law), and a stochastic volatility
example driven by an auxiliary Brownian motion (Euler-Maruyama on the
fine grid). Each family takes ``dimension``, the start point ``x0`` (the
origin by default) and ``shift_half_width`` w, which when set adds an
independent shift xi uniform on [-w, w]^d to the start, and checks them at
construction. All three run one simulation loop: each path draws its shift
and standard normals from a counter-based stream derived from
``(master_seed, path_index)`` and starts at x0 + xi, and only the rule that
turns the normals into increments depends on the family. Ensembles are
therefore reproducible bit for bit regardless of chunking or thread count.

The stream contract: the stream with tag ``tag`` of path ``i`` is
``Generator(Philox(SeedSequence(master_seed, spawn_key=(i, tag))))``. The
seed is a non-negative integer and path indices lie in [0, 2**32), so each
index is one spawn word. The keys of all paths of a call are computed in
one array call (``_stream_keys``), and one generator per call is re-keyed
for each path instead of building a SeedSequence per path.

``_pass_buffer`` is the one allocator of chunk-sized arrays. Given a dict
of pass buffers, as every thread of a study pass keeps one, it hands out a
view of a named buffer there, which ``simulate_paths(buffers=)`` fills
with the paths and the study's chunk worker with its own arrays; without
one it returns a new array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
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
# coefficient specifications


def _finite(value) -> bool:
    """Whether value is a finite real number (not a string or a sequence)."""
    return isinstance(value, Real) and bool(np.isfinite(value))


def _check_start(spec) -> None:
    """Check the fields every family shares: ``dimension`` an integer
    >= 1, ``x0`` (stored as a tuple of floats, the origin when None) one
    finite number per dimension, and ``shift_half_width`` a finite
    number > 0 when set."""
    d = spec.dimension
    if not (isinstance(d, (int, np.integer)) and d >= 1):
        raise ConfigError(f"dimension must be an integer >= 1, got {d!r}")
    x0 = (0.0,) * d if spec.x0 is None else spec.x0
    if not np.iterable(x0):
        raise ConfigError(f"x0 must be a sequence of numbers, got {x0!r}")
    x0 = tuple(x0)
    if len(x0) != d:
        raise ConfigError(f"x0 has {len(x0)} coordinates for dimension {d}")
    if not all(map(_finite, x0)):
        raise ConfigError(f"x0 must hold finite numbers, got {x0!r}")
    object.__setattr__(spec, "x0", tuple(map(float, x0)))
    w = spec.shift_half_width
    if w is not None and not (_finite(w) and w > 0):
        raise ConfigError(f"shift_half_width must be a finite number > 0, "
                          f"got {w!r}")


@dataclass(frozen=True)
class BrownianMotion:
    """X = x0 + W: zero drift, identity diffusion."""

    dimension: int = 1
    x0: tuple[float, ...] | None = None
    shift_half_width: float | None = None

    def __post_init__(self):
        _check_start(self)


@dataclass(frozen=True)
class DeterministicGaussian:
    """Gaussian process with deterministic time-dependent coefficients.

    The coefficients take arrays of times: ``drift(t)`` returns an array of
    shape ``t.shape + (d,)`` and ``diffusion(t)`` one of shape
    ``t.shape + (d, d)``; a constant of shape (d,) or (d, d) broadcasts.
    The transition moments are their 16-point Gauss-Legendre integrals.
    ``nondegenerate=False`` opts out of the eigenvalue check, allowing
    degenerate examples such as sigma = 0.
    """

    dimension: int
    drift: Callable[[np.ndarray], np.ndarray]
    diffusion: Callable[[np.ndarray], np.ndarray]
    x0: tuple[float, ...] | None = None
    shift_half_width: float | None = None
    nondegenerate: bool = True

    def __post_init__(self):
        _check_start(self)

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
        times t0, t1: shapes (..., d) and (..., d, d).

        These are the integrals of b and sigma sigma^T over [t0, t1]: the
        weighted means at the 16 Gauss-Legendre nodes of the unit interval,
        times t1 - t0, so finite coefficients give finite moments. The nodes
        are summed one by one in a fixed order, so an array call rounds
        exactly as scalar calls do, and a constant coefficient is squared
        and summed before it is broadcast over the times."""
        t0, t1 = np.broadcast_arrays(np.asarray(t0, float),
                                     np.asarray(t1, float))
        step = t1 - t0
        mean = second = 0.0
        for tau, w in zip(*gauss_legendre(16, unit=True)):
            t = t0 + tau * step
            # a scalar diffusion of d = 1 squares as a 1 x 1 matrix
            sigma = np.atleast_2d(np.asarray(self.diffusion(t), float))
            mean = mean + w * np.asarray(self.drift(t), float)
            second = second + w * (sigma @ np.swapaxes(sigma, -1, -2))
        return (self._shaped(step[..., None] * mean, t0, False),
                self._shaped(step[..., None, None] * second, t0, True))


@dataclass(frozen=True)
class StochVol:
    """d = 1 stochastic volatility: sigma_t = sigma0 * (1 + eta * sin(W'_t))
    with an independent auxiliary Brownian motion W', so sigma is an Ito
    semimartingale. ``sigma0 > 0`` and ``|eta| < 1`` keep sigma bounded away from zero.
    """

    sigma0: float = 1.0
    eta: float = 0.5
    dimension: int = 1
    x0: tuple[float, ...] | None = None
    shift_half_width: float | None = None

    def __post_init__(self):
        if self.dimension != 1:
            raise ConfigError(f"dimension must be 1 for StochVol, "
                              f"got {self.dimension}")
        _check_start(self)
        if not (_finite(self.sigma0) and self.sigma0 > 0):
            raise ConfigError(f"sigma0 must be a finite number > 0 for "
                              f"StochVol, got {self.sigma0!r}")
        if not (isinstance(self.eta, Real) and abs(self.eta) < 1):
            raise ConfigError(
                f"eta must satisfy |eta| < 1 so that sigma stays positive, "
                f"got {self.eta!r}")


ProcessSpec = BrownianMotion | DeterministicGaussian | StochVol


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

    ``x`` has shape (paths, fine_count + 1, d): the observed paths, each
    started at x0 plus its shift. ``sigma`` is the diffusion coefficient at
    the fine nodes: None for Brownian motion (the identity), shape
    (fine_count + 1, d, d) shared across paths for deterministic
    coefficients, or (paths, fine_count + 1) for the scalar stochastic
    volatility. The driving normals and shifts are not stored; they are a
    pure function of (master_seed, path index).
    """

    grid: TimeGrid
    spec: ProcessSpec
    first_path_index: int
    x: np.ndarray
    sigma: np.ndarray | None

    @property
    def count(self) -> int:
        return self.x.shape[0]

    @property
    def dimension(self) -> int:
        return self.x.shape[2]

    def path_indices(self) -> np.ndarray:
        return self.first_path_index + np.arange(self.count)


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
    x0 = np.asarray(spec.x0)
    np.cumsum(z, axis=1, out=z)
    z += x0
    x[:, 0] = x0
    return sigma


def _pass_buffer(buffers: dict | None, name: str, shape,
                 dtype=float) -> np.ndarray:
    """An uninitialized array of ``shape``: a new one without ``buffers``,
    else a view of the buffer ``name`` in a thread's pass buffers, made (or
    grown) at its first use in the pass."""
    if buffers is None:
        return np.empty(shape, dtype)
    size = math.prod(shape)
    flat = buffers.get(name)
    if flat is None or flat.size < size:
        flat = buffers[name] = np.empty(size, dtype)
    return flat[:size].reshape(shape)


def simulate_paths(spec: ProcessSpec, grid: TimeGrid, count: int,
                   master_seed: int, first_path_index: int = 0, *,
                   buffers: dict | None = None) -> PathBundle:
    """Simulate ``count`` trajectories from x0 plus a shift on the fine
    grid, each from its own streams. With a dict of pass buffers the paths
    are drawn and assembled in its buffers ``x`` (and ``sigma`` for StochVol)
    instead of new arrays, with the same bits; the bundle's ``x`` and
    ``sigma`` are views of them, valid until the buffers are filled again."""
    if count < 1:
        raise ConfigError(f"path count must be >= 1, got {count}")
    if first_path_index < 0 or first_path_index + count > _MAX_PATHS:
        raise ConfigError(
            f"path indices must lie in [0, 2**32), got {first_path_index} "
            f"to {first_path_index + count - 1}")
    if not isinstance(spec, (BrownianMotion, DeterministicGaussian, StochVol)):
        raise ConfigError(f"unknown process spec {type(spec).__name__}")
    nodes, d, w = grid.fine_count + 1, spec.dimension, spec.shift_half_width
    vol = isinstance(spec, StochVol)
    x = _pass_buffer(buffers, "x", (count, nodes, d))
    sigma = _pass_buffer(buffers, "sigma", (count, nodes)) if vol else None
    shifts = None if w is None else np.empty((count, 1, d))
    indices = first_path_index + np.arange(count)
    for i, rng in enumerate(_path_streams(master_seed, indices)):
        # the shift, uniform on [-w, w]^d, then the (fine_count, d) normals,
        # from the main stream
        if w is not None:
            shifts[i, 0] = rng.uniform(-w, w, size=d)
        rng.standard_normal(out=x[i, 1:])
    if vol:
        for i, rng in enumerate(_path_streams(master_seed, indices,
                                              STREAM_VOL)):
            rng.standard_normal(out=sigma[i, 1:])
    sigma = _assemble(spec, grid, x, sigma)
    if w is not None:
        x += shifts      # x0 first, then xi: (x0 + increments) + xi
    return PathBundle(grid, spec, first_path_index, x, sigma)


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
