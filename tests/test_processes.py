import io

import numpy as np
import pytest

from occutime import (
    BrownianMotion,
    ConfigError,
    DeterministicGaussian,
    FixedStart,
    SimulationError,
    StochVol,
    UniformShift,
    build_grid,
    simulate_grids,
    simulate_paths,
)
from occutime.config import build_process, load_config
from occutime.processes import (STREAM_MAIN, STREAM_VOL, _path_streams,
                                _stream_keys, dump_paths_csv)


def path_rng(master_seed, path_index, stream=STREAM_MAIN):
    # the stream oracle: numpy's own SeedSequence and Philox, one per path
    ss = np.random.SeedSequence(entropy=int(master_seed),
                                spawn_key=(int(path_index), int(stream)))
    return np.random.Generator(np.random.Philox(ss))


@pytest.mark.parametrize("spec", [
    BrownianMotion(dimension=2, initial=FixedStart((0.0, 1.0)),
                   shift=UniformShift(0.5)),
    DeterministicGaussian(dimension=1, drift=lambda t: t[..., None],
                          diffusion=lambda t: (1.0 + t)[..., None, None]),
    StochVol(),
], ids=["brownian-2d-shift", "deterministic", "stochvol"])
def test_streams_independent_of_chunking(spec):
    grid = build_grid(1.0, 4, 8)
    whole = simulate_paths(spec, grid, 6, master_seed=99)
    head = simulate_paths(spec, grid, 2, master_seed=99)
    tail = simulate_paths(spec, grid, 4, master_seed=99, first_path_index=2)
    for part, rows in ((head, slice(0, 2)), (tail, slice(2, 6))):
        np.testing.assert_array_equal(whole.x[rows], part.x)
        np.testing.assert_array_equal(whole.shifts[rows], part.shifts)
        if isinstance(spec, BrownianMotion):
            assert part.sigma is None
        elif isinstance(spec, DeterministicGaussian):
            np.testing.assert_array_equal(whole.sigma, part.sigma)
        else:
            np.testing.assert_array_equal(whole.sigma[rows], part.sigma)


@pytest.mark.parametrize("spec", [
    BrownianMotion(dimension=2, initial=FixedStart((0.0, 1.0)),
                   shift=UniformShift(0.5)),
    DeterministicGaussian(dimension=1,
                          drift=lambda t: np.full(t.shape + (1,), 0.3),
                          diffusion=lambda t: np.full(t.shape + (1, 1), 0.8)),
    DeterministicGaussian(dimension=1, drift=lambda t: np.sin(3.0 * t)[..., None],
                          diffusion=lambda t: (1.0 + 0.5 * t)[..., None, None]),
    StochVol(shift=UniformShift(0.2)),
], ids=["brownian-2d-shift", "deterministic-constant",
        "deterministic-time-varying", "stochvol"])
def test_simulate_grids_equals_separate_runs(spec):
    # one draw per path serves every grid, the longest not listed first;
    # each bundle is byte for byte the single-grid simulation
    grids = [build_grid(1.0, 4, 2), build_grid(1.0, 16, 4),
             build_grid(2.0, 8, 1)]
    bundles = simulate_grids(spec, grids, 5, master_seed=31,
                             first_path_index=4)
    assert [b.grid for b in bundles] == grids
    for grid, bundle in zip(grids, bundles):
        alone = simulate_paths(spec, grid, 5, master_seed=31,
                               first_path_index=4)
        for name in ("x", "sigma", "shifts"):
            got, want = getattr(bundle, name), getattr(alone, name)
            if want is None:
                assert got is None
            else:
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()


def test_stochvol_matches_per_path_euler():
    # oracle: each path's two streams drawn alone, the volatility and the
    # Euler increments assembled one path at a time
    spec = StochVol(sigma0=1.5, eta=-0.3, initial=FixedStart((0.2,)))
    grid = build_grid(1.0, 4, 8)
    bundle = simulate_paths(spec, grid, 3, master_seed=12, first_path_index=2)
    sqrt_dt = np.sqrt(grid.fine_step)
    for i in range(3):
        z = path_rng(12, 2 + i).standard_normal((grid.fine_count, 1))
        zv = path_rng(12, 2 + i, STREAM_VOL).standard_normal(grid.fine_count)
        w_aux = np.concatenate(([0.0], np.cumsum(zv) * sqrt_dt))
        sigma = 1.5 * (1.0 + -0.3 * np.sin(w_aux))
        x = np.concatenate(([[0.0]], np.cumsum(sigma[:-1, None] * z * sqrt_dt,
                                               axis=0))) + 0.2
        assert bundle.sigma[i].tobytes() == sigma.tobytes()
        np.testing.assert_array_equal(bundle.x[i, 1:], x[1:])
        assert bundle.x[i, 0, 0] == 0.2


def _sigma_2d(t):
    out = np.empty(t.shape + (2, 2))
    out[..., 0, 0] = 1.0 + t
    out[..., 0, 1] = 0.3
    out[..., 1, 0] = 0.2 * t
    out[..., 1, 1] = 1.5 - 0.25 * t * t
    return out


def _constant_gaussian(d):
    return build_process(load_config(
        "[process]\nkind = deterministic_gaussian\n"
        f"dimension = {d}\ndrift_const = {','.join(['0.3', '-0.1'][:d])}\n"
        f"diffusion_const = {','.join(['0.8', '1.3'][:d])}\n"))


@pytest.mark.parametrize("spec", [
    DeterministicGaussian(dimension=1, drift=lambda t: t[..., None],
                          diffusion=lambda t: (1.0 + t)[..., None, None]),
    DeterministicGaussian(
        dimension=2, drift=lambda t: np.stack([t, 1.0 - t * t], axis=-1),
        diffusion=_sigma_2d),
    _constant_gaussian(1),
    _constant_gaussian(2),
], ids=["gauss-legendre-1d", "gauss-legendre-2d", "closed-form-1d",
        "closed-form-2d"])
def test_array_transition_moments_match_scalar_calls(spec):
    d = spec.dimension
    t0 = np.array([[0.0], [0.25], [0.5]])
    t1 = t0 + np.array([0.0, 0.01, 0.3, 0.5])
    mu, cov = spec.transition_moments(t0, t1)
    assert mu.shape == (3, 4, d) and cov.shape == (3, 4, d, d)
    for i, j in np.ndindex(t1.shape):
        m, c = spec.transition_moments(t0[i, 0], t1[i, j])
        assert m.shape == (d,) and c.shape == (d, d)
        np.testing.assert_array_equal(mu[i, j], m)
        np.testing.assert_array_equal(cov[i, j], c)
    if d == 1 and spec.drift_integral is None:
        # 16-point Gauss-Legendre is exact for these polynomials
        np.testing.assert_allclose(mu[..., 0], 0.5 * (t1 ** 2 - t0 ** 2),
                                   rtol=1e-13, atol=1e-16)
        np.testing.assert_allclose(cov[..., 0, 0],
                                   ((1.0 + t1) ** 3 - (1.0 + t0) ** 3) / 3.0,
                                   rtol=1e-13, atol=1e-16)


def test_constant_coefficients_broadcast_over_times():
    spec = DeterministicGaussian(dimension=2,
                                 drift=lambda t: np.array([0.5, -1.0]),
                                 diffusion=lambda t: np.eye(2))
    times = np.linspace(0.0, 1.0, 6).reshape(2, 3)
    np.testing.assert_array_equal(spec.drift_at(times),
                                  np.broadcast_to([0.5, -1.0], (2, 3, 2)))
    assert spec.diffusion_at(times).shape == (2, 3, 2, 2)
    mu, cov = spec.transition_moments(0.0, 0.5)
    np.testing.assert_allclose(mu, [0.25, -0.5], rtol=1e-15)
    np.testing.assert_allclose(cov, 0.5 * np.eye(2), rtol=1e-15, atol=1e-17)


def test_streams_distinct_per_path_and_tag():
    def draws(index, stream=STREAM_MAIN):
        rng = next(_path_streams(5, [index], stream))
        return rng.standard_normal(4)

    a = draws(0)
    assert not np.allclose(a, draws(1))
    assert not np.allclose(a, draws(0, stream=STREAM_VOL))
    np.testing.assert_array_equal(a, draws(0))
    keys = _stream_keys(5, np.arange(1000), STREAM_MAIN)
    assert len({tuple(k) for k in keys.tolist()}) == 1000


@pytest.mark.parametrize("seed", [0, 1, 11, 2 ** 32 - 1, 2 ** 32 + 5,
                                  2 ** 70 + 3, 2 ** 130 + 1])
def test_stream_keys_match_seed_sequence(seed):
    indices = [0, 1, 99, 2 ** 31, 2 ** 32 - 1]
    for stream in (STREAM_MAIN, STREAM_VOL, 2):     # any tag is keyed
        keys = _stream_keys(seed, indices, stream)
        assert keys.shape == (5, 2) and keys.dtype == np.uint64
        for key, index in zip(keys, indices):
            ss = np.random.SeedSequence(seed, spawn_key=(index, stream))
            np.testing.assert_array_equal(key, ss.generate_state(2, np.uint64))


def test_shift_then_normals_drawn_as_the_oracle():
    spec = BrownianMotion(dimension=2, initial=FixedStart((0.0, 1.0)),
                          shift=UniformShift(0.5))
    grid = build_grid(1.0, 4, 8)
    bundle = simulate_paths(spec, grid, 3, master_seed=2 ** 40 + 9,
                            first_path_index=2 ** 32 - 3)
    sqrt_dt = np.sqrt(grid.fine_step)
    for i in range(3):
        rng = path_rng(2 ** 40 + 9, 2 ** 32 - 3 + i)
        shift = rng.uniform(-0.5, 0.5, size=2)
        z = rng.standard_normal((grid.fine_count, 2))
        x = np.cumsum(z * sqrt_dt, axis=0) + np.array([0.0, 1.0])
        assert bundle.shifts[i].tobytes() == shift.tobytes()
        assert bundle.x[i, 1:].tobytes() == x.tobytes()


@pytest.mark.parametrize("first, count", [(-1, 2), (2 ** 32 - 1, 2),
                                          (2 ** 32, 1)])
def test_path_index_outside_32_bits_rejected(first, count):
    grid = build_grid(1.0, 2, 2)
    with pytest.raises(ConfigError, match="path indices"):
        simulate_paths(BrownianMotion(), grid, count, master_seed=1,
                       first_path_index=first)


def test_negative_seed_rejected():
    with pytest.raises(ConfigError, match="non-negative"):
        simulate_paths(BrownianMotion(), build_grid(1.0, 2, 2), 2,
                       master_seed=-1)


def test_no_seed_sequence_per_path(monkeypatch):
    # the streams are keyed directly; numpy's SeedSequence is never built
    def refuse(*args, **kwargs):
        raise AssertionError("SeedSequence built during simulation")

    grid = build_grid(1.0, 4, 4)
    spec = StochVol(shift=UniformShift(0.2))
    want = simulate_paths(spec, grid, 5, master_seed=3)
    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    got = simulate_paths(spec, grid, 5, master_seed=3)
    for name in ("x", "sigma", "shifts"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def test_brownian_moments():
    grid = build_grid(2.0, 16, 16)
    bundle = simulate_paths(BrownianMotion(), grid, 4000, master_seed=1)
    x_end = bundle.x[:, -1, 0]
    assert abs(x_end.mean()) < 4 * np.sqrt(2.0 / 4000)
    assert x_end.var() == pytest.approx(2.0, rel=0.1)
    assert np.all(bundle.x[:, 0] == 0.0)
    assert bundle.sigma is None   # the identity is not stored


def test_deterministic_gaussian_matches_closed_form():
    # dX = dt + 2 dW from x0 = 1
    spec = DeterministicGaussian(
        dimension=1,
        drift=lambda t: np.full(t.shape + (1,), 1.0),
        diffusion=lambda t: np.full(t.shape + (1, 1), 2.0),
        initial=FixedStart((1.0,)))
    grid = build_grid(1.0, 8, 8)
    bundle = simulate_paths(spec, grid, 3000, master_seed=3)
    x_end = bundle.x[:, -1, 0]
    assert x_end.mean() == pytest.approx(2.0, abs=4 * 2.0 / np.sqrt(3000))
    assert x_end.var() == pytest.approx(4.0, rel=0.15)


def test_degenerate_diffusion_rejected_unless_opted_out():
    degenerate = DeterministicGaussian(
        dimension=1, drift=lambda t: np.full(t.shape + (1,), 1.0),
        diffusion=lambda t: np.zeros(t.shape + (1, 1)))
    grid = build_grid(1.0, 4, 2)
    with pytest.raises(SimulationError, match="degenerate at time"):
        simulate_paths(degenerate, grid, 2, master_seed=0)
    allowed = DeterministicGaussian(
        dimension=1, drift=lambda t: np.full(t.shape + (1,), 1.0),
        diffusion=lambda t: np.zeros(t.shape + (1, 1)), nondegenerate=False)
    bundle = simulate_paths(allowed, grid, 2, master_seed=0)
    # pure drift: X_t = t exactly
    np.testing.assert_allclose(bundle.x[:, :, 0],
                               np.broadcast_to(grid.fine_times, (2, 9)),
                               atol=1e-12)


def test_stochvol_volatility_range():
    spec = StochVol(sigma0=2.0, eta=0.5)
    grid = build_grid(1.0, 8, 8)
    bundle = simulate_paths(spec, grid, 50, master_seed=7)
    assert bundle.sigma.shape == (50, grid.fine_count + 1)
    assert np.all(bundle.sigma >= 1.0 - 1e-12)
    assert np.all(bundle.sigma <= 3.0 + 1e-12)
    assert np.all(bundle.sigma[:, 0] == 2.0)


@pytest.mark.parametrize("kwargs", [
    {"eta": 1.0}, {"eta": -1.5}, {"eta": float("nan")},
    {"sigma0": 0.0}, {"sigma0": -1.0},
])
def test_stochvol_rejects_vanishing_volatility(kwargs):
    with pytest.raises(ConfigError):
        StochVol(**kwargs)


@pytest.mark.parametrize("width", [0.0, -1.0, float("nan"), float("inf")])
def test_uniform_shift_rejects_bad_width(width):
    with pytest.raises(ConfigError):
        UniformShift(width)


def test_uniform_shift_sampled_once_per_path():
    spec = BrownianMotion(shift=UniformShift(0.5))
    grid = build_grid(1.0, 4, 2)
    bundle = simulate_paths(spec, grid, 200, master_seed=2)
    assert bundle.shifts.shape == (200, 1)
    assert np.all(np.abs(bundle.shifts) <= 0.5)
    assert len(np.unique(bundle.shifts)) > 100


def test_observed_paths_apply_the_shift_once():
    grid = build_grid(1.0, 4, 3)
    plain = simulate_paths(BrownianMotion(dimension=2,
                                          initial=FixedStart((0.0, 1.0))),
                           grid, 6, master_seed=4)
    assert np.shares_memory(plain.observed(), plain.x)
    assert np.shares_memory(plain.observed(coarse=True), plain.x)
    assert np.shares_memory(plain.observed(stride=2), plain.x)
    shifted = simulate_paths(BrownianMotion(shift=UniformShift(0.5)), grid, 6,
                             master_seed=4)
    y = shifted.x + shifted.shifts[:, None, :]
    np.testing.assert_array_equal(shifted.observed(), y)
    np.testing.assert_array_equal(shifted.observed(coarse=True), y[:, ::3])
    np.testing.assert_array_equal(shifted.observed(stride=2), y[:, ::2])


def _dump_paths_per_value(bundle, stream):
    # the writer's oracle: one repr per value and one write per row
    d = bundle.dimension
    stream.write("path_id,time," + ",".join(f"x_{j + 1}" for j in range(d))
                 + "\n")
    ids = bundle.path_indices()
    for i in range(bundle.count):
        for j, t in enumerate(bundle.grid.fine_times):
            coords = ",".join(repr(float(v)) for v in bundle.x[i, j])
            stream.write(f"{ids[i]},{float(t)!r},{coords}\n")


@pytest.mark.parametrize("spec", [
    BrownianMotion(dimension=2, initial=FixedStart((0.3, -1.0))),
    BrownianMotion(dimension=3, initial=FixedStart((0.0, 2.0, -0.5))),
    BrownianMotion(shift=UniformShift(0.5)),
    StochVol(),
], ids=["brownian-2d", "brownian-3d", "brownian-shift", "stochvol"])
def test_dump_paths_csv_matches_per_value_writer(spec):
    grid = build_grid(0.7, 3, 5)
    bundle = simulate_paths(spec, grid, 4, master_seed=21, first_path_index=7)
    fast, oracle = io.StringIO(), io.StringIO()
    dump_paths_csv(bundle, fast)
    _dump_paths_per_value(bundle, oracle)
    assert fast.getvalue() == oracle.getvalue()


def test_dump_paths_csv_layout():
    grid = build_grid(1.0, 2, 2)
    spec = BrownianMotion(dimension=2, initial=FixedStart((0.0, 0.0)))
    bundle = simulate_paths(spec, grid, 2, master_seed=8)
    buf = io.StringIO()
    dump_paths_csv(bundle, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "path_id,time,x_1,x_2"
    assert len(lines) == 1 + 2 * (grid.fine_count + 1)
    assert lines[1].startswith("0,0.0,")

