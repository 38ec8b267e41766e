import ast
import io
import re
from dataclasses import MISSING, fields
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from occutime import (
    BrownianMotion,
    ConfigError,
    DeterministicGaussian,
    SimulationError,
    StochVol,
    build_grid,
    simulate_paths,
)
from occutime.config import _SCHEMA, build_process, load_config
from occutime.processes import (STREAM_MAIN, STREAM_VOL, _path_streams,
                                _stream_keys, dump_paths_csv)


README = Path(__file__).resolve().parents[1] / "README.md"


def path_rng(master_seed, path_index, stream=STREAM_MAIN):
    # the stream oracle: numpy's own SeedSequence and Philox, one per path
    ss = np.random.SeedSequence(entropy=int(master_seed),
                                spawn_key=(int(path_index), int(stream)))
    return np.random.Generator(np.random.Philox(ss))


@pytest.mark.parametrize("spec", [
    BrownianMotion(dimension=2, x0=(0.0, 1.0), shift_half_width=0.5),
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
        if isinstance(spec, BrownianMotion):
            assert part.sigma is None
        elif isinstance(spec, DeterministicGaussian):
            np.testing.assert_array_equal(whole.sigma, part.sigma)
        else:
            np.testing.assert_array_equal(whole.sigma[rows], part.sigma)


OUT_SPECS = [
    BrownianMotion(shift_half_width=0.5),
    BrownianMotion(dimension=2, x0=(0.0, 1.0)),
    DeterministicGaussian(dimension=1, drift=lambda t: np.sin(3.0 * t)[..., None],
                          diffusion=lambda t: (1.0 + 0.5 * t)[..., None, None]),
    StochVol(),
]
OUT_IDS = ["brownian-shift", "brownian-2d", "deterministic", "stochvol"]


@pytest.mark.parametrize("spec", OUT_SPECS, ids=OUT_IDS)
def test_simulate_into_buffers_matches_a_fresh_simulation(spec):
    # one dict of pass buffers for 3, 5 and 2 paths: the buffers are made,
    # grown once, then viewed, and are full of NaN before every call
    grid = build_grid(1.0, 4, 8)
    buffers = {}
    for count, first in ((3, 0), (5, 3), (2, 8)):
        for buf in buffers.values():
            buf.fill(np.nan)
        held = dict(buffers)
        bundle = simulate_paths(spec, grid, count, 31, first_path_index=first,
                                buffers=buffers)
        fresh = simulate_paths(spec, grid, count, 31, first_path_index=first)
        for name in ("x", "sigma"):
            got, want = getattr(bundle, name), getattr(fresh, name)
            if want is None:
                assert got is None
            else:
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
        vol = isinstance(spec, StochVol)
        assert sorted(buffers) == (["sigma", "x"] if vol else ["x"])
        assert np.shares_memory(bundle.x, buffers["x"])
        if vol:
            assert np.shares_memory(bundle.sigma, buffers["sigma"])
        assert all((buffers[k] is held.get(k)) == (count == 2)
                   for k in buffers)


def test_stochvol_matches_per_path_euler():
    # oracle: each path's two streams drawn alone, the volatility and the
    # Euler increments assembled one path at a time
    spec = StochVol(sigma0=1.5, eta=-0.3, x0=(0.2,))
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


def _polynomial_moments(t0, t1):
    # b = t and sigma = 1 + t: 16-point Gauss-Legendre is exact for these
    return (0.5 * (t1 ** 2 - t0 ** 2),
            ((1.0 + t1) ** 3 - (1.0 + t0) ** 3) / 3.0)


def _constant_moments(t0, t1):
    # b = 0.3 and sigma = 0.8 of _constant_gaussian(1)
    return (t1 - t0) * 0.3, (t1 - t0) * 0.8 ** 2


@pytest.mark.parametrize("spec, exact, rtol", [
    (DeterministicGaussian(dimension=1, drift=lambda t: t[..., None],
                           diffusion=lambda t: (1.0 + t)[..., None, None]),
     _polynomial_moments, 1e-13),
    (DeterministicGaussian(
        dimension=2, drift=lambda t: np.stack([t, 1.0 - t * t], axis=-1),
        diffusion=_sigma_2d), None, None),
    (_constant_gaussian(1), _constant_moments, 1e-15),
    (_constant_gaussian(2), None, None),
], ids=["gauss-legendre-1d", "gauss-legendre-2d", "constant-1d",
        "constant-2d"])
def test_array_transition_moments_match_scalar_calls(spec, exact, rtol):
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
    if d == 1:
        mean, var = exact(t0, t1)
        np.testing.assert_allclose(mu[..., 0], mean, rtol=rtol)
        np.testing.assert_allclose(cov[..., 0, 0], var, rtol=rtol)


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
    spec = BrownianMotion(dimension=2, x0=(0.0, 1.0), shift_half_width=0.5)
    grid = build_grid(1.0, 4, 8)
    bundle = simulate_paths(spec, grid, 3, master_seed=2 ** 40 + 9,
                            first_path_index=2 ** 32 - 3)
    sqrt_dt = np.sqrt(grid.fine_step)
    for i in range(3):
        rng = path_rng(2 ** 40 + 9, 2 ** 32 - 3 + i)
        shift = rng.uniform(-0.5, 0.5, size=2)
        z = rng.standard_normal((grid.fine_count, 2))
        x0 = np.array([0.0, 1.0])
        # x0 first, then the shift, once per node
        x = np.vstack([x0, np.cumsum(z * sqrt_dt, axis=0) + x0]) + shift
        assert bundle.x[i].tobytes() == x.tobytes()


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
    spec = StochVol(shift_half_width=0.2)
    want = simulate_paths(spec, grid, 5, master_seed=3)
    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    got = simulate_paths(spec, grid, 5, master_seed=3)
    for name in ("x", "sigma"):
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
        x0=(1.0,))
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


FAMILIES = {
    "brownian": BrownianMotion,
    "deterministic": partial(DeterministicGaussian, dimension=1,
                             drift=lambda t: 0.0, diffusion=lambda t: 1.0),
    "stochvol": StochVol,
}


@pytest.mark.parametrize("width", [0.0, -1.0, float("nan"), float("inf")])
def test_uniform_shift_rejects_bad_width(width):
    for family in FAMILIES.values():
        with pytest.raises(ConfigError, match="^shift_half_width"):
            family(shift_half_width=width)


BAD_STARTS = {
    "x0-long": {"x0": (0.0, 1.0)},
    "x0-empty": {"x0": ()},
    "x0-nan": {"x0": (float("nan"),)},
    "x0-inf": {"x0": (float("-inf"),)},
    "x0-str": {"x0": ("a",)},
    "x0-scalar": {"x0": 0.5},
    "x0-nested": {"x0": [[0.0]]},
    "width-str": {"shift_half_width": "a"},
    "dim-float": {"dimension": 1.0},
    "dim-half": {"dimension": 0.5},
    "dim-str": {"dimension": "1"},
}
BAD_FIELDS = [pytest.param(FAMILIES[family], kwargs, id=f"{family}-{case}")
              for family in FAMILIES for case, kwargs in BAD_STARTS.items()]
BAD_FIELDS += [
    pytest.param(StochVol, {"sigma0": "a"}, id="stochvol-sigma0-str"),
    pytest.param(StochVol, {"eta": "a"}, id="stochvol-eta-str")]


@pytest.mark.parametrize("family, kwargs", BAD_FIELDS)
def test_specs_reject_a_bad_start_at_construction(family, kwargs):
    # a value of the wrong type is a ConfigError too, opening with the key
    (key,) = kwargs
    with pytest.raises(ConfigError, match=f"^{key}"):
        family(**kwargs)


def test_specs_store_the_start_as_floats():
    assert BrownianMotion().x0 == (0.0,)
    assert BrownianMotion(dimension=3).x0 == (0.0, 0.0, 0.0)
    spec = StochVol(x0=np.array([2]))
    assert spec.x0 == (2.0,) and type(spec.x0[0]) is float


@pytest.mark.parametrize("family, d", [
    (BrownianMotion, 2),
    (BrownianMotion, 3),
    (partial(DeterministicGaussian, drift=lambda t: np.array([0.4, -0.2]),
             diffusion=_sigma_2d), 2),
], ids=["brownian-2d", "brownian-3d", "deterministic-2d"])
def test_default_start_is_the_origin_in_every_dimension(family, d):
    grid = build_grid(1.0, 4, 4)
    default = simulate_paths(family(dimension=d), grid, 5, master_seed=17)
    origin = simulate_paths(family(dimension=d, x0=(0.0,) * d), grid, 5,
                            master_seed=17)
    assert default.x.shape == (5, grid.fine_count + 1, d)
    assert default.x.tobytes() == origin.x.tobytes()
    assert not default.x[:, 0].any()


def test_process_config_keys_are_spec_fields():
    # build_process passes these [process] keys to the specs by name
    shared = {"dimension", "x0", "shift_half_width"}
    for family, keys in ((BrownianMotion, shared),
                         (DeterministicGaussian, shared),
                         (StochVol, shared | {"sigma0", "eta"})):
        assert keys <= {f.name for f in fields(family)}, family
    assert shared | {"sigma0", "eta"} <= _SCHEMA["process"]


def test_readme_lists_the_spec_fields():
    # README's library section lists each spec's signature by hand
    listed = {}
    for name, args in re.findall(r"^- `(\w+)\(([^)]*)\)`", README.read_text(),
                                 re.MULTILINE):
        call = ast.parse(f"f({args})", mode="eval").body
        listed[name] = ([(arg.id, MISSING) for arg in call.args]
                        + [(kw.arg, ast.literal_eval(kw.value))
                           for kw in call.keywords])
    families = (BrownianMotion, DeterministicGaussian, StochVol)
    assert set(listed) == {family.__name__ for family in families}
    for family in families:
        assert listed[family.__name__] == [(f.name, f.default)
                                           for f in fields(family)], family


def test_uniform_shift_sampled_once_per_path():
    spec = BrownianMotion(shift_half_width=0.5)
    grid = build_grid(1.0, 4, 2)
    bundle = simulate_paths(spec, grid, 200, master_seed=2)
    shifts = bundle.x[:, 0] - np.asarray(spec.x0)   # the start is x0 + xi
    assert shifts.shape == (200, 1)
    assert np.all(np.abs(shifts) <= 0.5)
    assert len(np.unique(shifts)) > 100


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
    BrownianMotion(dimension=2, x0=(0.3, -1.0)),
    BrownianMotion(dimension=3, x0=(0.0, 2.0, -0.5)),
    BrownianMotion(shift_half_width=0.5),
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
    spec = BrownianMotion(dimension=2, x0=(0.0, 0.0))
    bundle = simulate_paths(spec, grid, 2, master_seed=8)
    buf = io.StringIO()
    dump_paths_csv(bundle, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "path_id,time,x_1,x_2"
    assert len(lines) == 1 + 2 * (grid.fine_count + 1)
    assert lines[1].startswith("0,0.0,")

