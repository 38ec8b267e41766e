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
    simulate_paths,
)
from occutime.processes import dump_paths_csv, path_rng


@pytest.mark.parametrize("spec", [
    BrownianMotion(dimension=2, initial=FixedStart((0.0, 1.0)),
                   shift=UniformShift(0.5)),
    DeterministicGaussian(dimension=1, drift=lambda t: np.array([t]),
                          diffusion=lambda t: np.array([[1.0 + t]])),
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


def test_streams_distinct_per_path_and_tag():
    a = path_rng(5, 0).standard_normal(4)
    b = path_rng(5, 1).standard_normal(4)
    c = path_rng(5, 0, stream=1).standard_normal(4)
    assert not np.allclose(a, b)
    assert not np.allclose(a, c)
    np.testing.assert_array_equal(a, path_rng(5, 0).standard_normal(4))


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
        drift=lambda t: np.array([1.0]),
        diffusion=lambda t: np.array([[2.0]]),
        initial=FixedStart((1.0,)))
    grid = build_grid(1.0, 8, 8)
    bundle = simulate_paths(spec, grid, 3000, master_seed=3)
    x_end = bundle.x[:, -1, 0]
    assert x_end.mean() == pytest.approx(2.0, abs=4 * 2.0 / np.sqrt(3000))
    assert x_end.var() == pytest.approx(4.0, rel=0.15)


def test_degenerate_diffusion_rejected_unless_opted_out():
    degenerate = DeterministicGaussian(
        dimension=1, drift=lambda t: np.array([1.0]),
        diffusion=lambda t: np.array([[0.0]]))
    grid = build_grid(1.0, 4, 2)
    with pytest.raises(SimulationError, match="degenerate at time"):
        simulate_paths(degenerate, grid, 2, master_seed=0)
    allowed = DeterministicGaussian(
        dimension=1, drift=lambda t: np.array([1.0]),
        diffusion=lambda t: np.array([[0.0]]), nondegenerate=False)
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
    BrownianMotion(shift=UniformShift(0.5)),
    StochVol(),
], ids=["brownian-2d", "brownian-shift", "stochvol"])
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

