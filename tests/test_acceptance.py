"""Acceptance gate: ten criteria, one PASS/FAIL line each.

Each test prints ``ACCEPTANCE <k> (<summary>): PASS|FAIL`` with the measured
values, then asserts. Tolerances are stated inline next to each check.
"""

import json
import math
from functools import partial

import numpy as np
import pytest
from scipy.integrate import quad

from occutime import (
    BrownianMotion,
    StochVol,
    StudyConfig,
    bridge_conditional_estimate,
    build_grid,
    clt_check,
    complex_exponential,
    gaussian_bump,
    hat,
    identity,
    indicator,
    lacunary,
    quadratic,
    rate_study,
    reference_value,
    riemann_estimate,
    simulate_paths,
    sobolev_seminorm,
    trapezoid_estimate,
)
from occutime.cli import main as cli_main
from occutime.experiments import (_ensemble_map, _rms_stats, _study_outputs,
                                  g_decay_probe)
from occutime.fourier import (
    _interval_nodes,
    compute_E,
    compute_F,
    decompose,
)
from occutime.functions import eval_on_path
from occutime.limits import gradient_energy, root_mean_se


def _report(num, summary, ok, detail=""):
    line = f"ACCEPTANCE {num} ({summary}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print("\n" + line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared heavy ensembles: identity / Brownian / T=1 / P=10^4 / m=64


@pytest.fixture(scope="module")
def identity_scaled():
    """{n: {estimator: (scaled_rms, se)}} with Delta^-1 scaling."""
    out = {}
    f = identity()
    for n in (16, 64, 256):
        grid = build_grid(1.0, n, 64)
        estimators = ("riemann", "trapezoid", "bridge") if n == 256 \
            else ("riemann", "trapezoid")
        stats = _ensemble_map(
            BrownianMotion(), grid, 10000, 2024,
            partial(_study_outputs, f, 1.0, (n,), estimators, False),
            threads=1)
        out[n] = {}
        for name in estimators:
            st = _rms_stats(stats[f"err_{name}"] / grid.coarse_step)
            out[n][name] = (st["rms"], st["rms_se"])
    return out


def test_1_algebraic_identities():
    # Trapezoid = Riemann + half-step boundary correction, 10^3 random
    # path/function combinations, relative tolerance 1e-12.
    rng = np.random.default_rng(314)
    families = [gaussian_bump(), hat(), identity(), quadratic(),
                indicator(-0.5, 0.5), lacunary(1.2, J=6)]
    worst = 0.0
    for trial in range(1000):
        n = int(rng.integers(2, 100))
        grid = build_grid(float(rng.uniform(0.5, 2.0)), n, 1)
        x = np.cumsum(rng.standard_normal(n + 1) * 0.3)
        f = families[trial % len(families)]
        vals = f.value(x)
        lhs = trapezoid_estimate(vals, grid)
        rhs = (riemann_estimate(vals, grid)
               + 0.5 * grid.coarse_step * (vals[-1] - vals[0]))
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    identity_ok = worst < 1e-12

    # bridge estimator equals the trapezoid for f = identity, 1e-10
    grid = build_grid(1.0, 32, 1)
    bundle = simulate_paths(BrownianMotion(), grid, 1000, master_seed=2)
    coarse = bundle.observed(stride=grid.refine_factor)[:, :, 0]
    gap = np.max(np.abs(bridge_conditional_estimate(identity(), coarse, grid)
                        - trapezoid_estimate(coarse, grid)))
    bridge_ok = gap < 1e-10
    _report(1, "exact trapezoid and bridge identities",
            identity_ok and bridge_ok,
            f"max rel dev {worst:.2e}, bridge gap {gap:.2e}")


def test_2_trapezoid_l2_constant(identity_scaled):
    # Delta^-1 RMS -> sqrt(1/12) within 3 standard errors at each n
    target = math.sqrt(1.0 / 12.0)
    detail = []
    ok = True
    for n in (16, 64, 256):
        rms, se = identity_scaled[n]["trapezoid"]
        ok &= abs(rms - target) < 3 * se
        detail.append(f"n={n}: {rms:.5f}+-{se:.5f}")
    _report(2, f"trapezoid constant sqrt(1/12)={target:.5f}", ok,
            "; ".join(detail))


def test_3_riemann_l2_constant(identity_scaled):
    target = math.sqrt(1.0 / 3.0)
    detail = []
    ok = True
    for n in (16, 64, 256):
        rms, se = identity_scaled[n]["riemann"]
        ok &= abs(rms - target) < 3 * se
        detail.append(f"n={n}: {rms:.5f}+-{se:.5f}")
    _report(3, f"riemann constant sqrt(1/3)={target:.5f}", ok,
            "; ".join(detail))


def test_4_lower_bound(identity_scaled):
    # exact value for identity
    grid = build_grid(1.0, 64, 16)
    bundle = simulate_paths(BrownianMotion(), grid, 2000, master_seed=8)

    def bound(f):
        grad = eval_on_path(f, bundle, gradient=True)[1]
        return root_mean_se(gradient_energy(bundle, grad))

    lb_id, _ = bound(identity())
    exact_ok = abs(lb_id - math.sqrt(1.0 / 12.0)) < 1e-12

    # Gaussian bump against the deterministic marginal oracle:
    # E|f'(X_t)|^2 = t (1 + 2t)^(-3/2) for X_t ~ N(0, t)
    oracle = math.sqrt(quad(lambda t: t * (1 + 2 * t) ** -1.5, 0, 1)[0] / 12.0)
    lb_gb, lb_gb_se = bound(gaussian_bump())
    bump_ok = abs(lb_gb - oracle) < 3 * lb_gb_se

    # no estimator's scaled RMS at n = 256 sits below the bound
    floor_ok = True
    for name, (rms, se) in identity_scaled[256].items():
        floor_ok &= rms > math.sqrt(1.0 / 12.0) - 3 * se
    _report(4, "efficiency lower bound", exact_ok and bump_ok and floor_ok,
            f"identity exact {lb_id:.6f}; bump {lb_gb:.5f} vs "
            f"oracle {oracle:.5f} (+-{lb_gb_se:.5f}); floor at n=256 ok")


def test_5_rate_slopes():
    # smooth functions: slope in [0.9, 1.1] under Brownian and stochastic
    # volatility; indicator under Brownian: slope in [0.65, 0.85]
    n_list = (16, 32, 64, 128, 256, 512)
    cases = [
        ("gaussian_bump/brownian", gaussian_bump(), BrownianMotion(),
         ("riemann", "trapezoid"), (0.9, 1.1)),
        ("lacunary(1.2)/brownian", lacunary(1.2), BrownianMotion(),
         ("riemann", "trapezoid"), (0.9, 1.1)),
        ("gaussian_bump/stochvol", gaussian_bump(), StochVol(),
         ("trapezoid",), (0.9, 1.1)),
        ("lacunary(1.2)/stochvol", lacunary(1.2), StochVol(),
         ("trapezoid",), (0.9, 1.1)),
        ("indicator(0,1)/brownian", indicator(0.0, 1.0), BrownianMotion(),
         ("riemann",), (0.65, 0.85)),
    ]
    ok = True
    detail = []
    for label, f, spec, estimators, (lo, hi) in cases:
        cfg = StudyConfig(spec, f, n_list, 64, 4000, 11, "rate",
                          estimators=estimators, threads=1)
        report = rate_study(cfg)
        for name in estimators:
            slope = report.summary[name]["slope"]
            ok &= lo <= slope <= hi
            detail.append(f"{label}/{name}: {slope:.3f}")
    _report(5, "log-log RMS rate slopes", ok, "; ".join(detail))


def test_6_clt_shape():
    cfg = StudyConfig(BrownianMotion(), identity(), (256,), 64, 2000, 33,
                      "clt", threads=1)
    report = clt_check(cfg)
    ks_ok = report.summary["ks_pvalue"] > 0.01
    trap_mean = report.summary["scaled_trapezoid_mean"]
    trap_se = report.summary["scaled_trapezoid_mean_se"]
    unbiased_ok = abs(trap_mean) < 3 * trap_se

    cfg_q = StudyConfig(BrownianMotion(), quadratic(), (256,), 64, 2000, 34,
                        "clt", threads=1)
    rep_q = clt_check(cfg_q)
    mean_r = rep_q.summary["scaled_riemann_mean"]
    se_r = rep_q.summary["scaled_riemann_mean_se"]
    # target E[(f(X_1) - f(X_0)) / 2] = E[X_1^2] / 2 = 1/2
    bias_ok = abs(mean_r - 0.5) < 3 * se_r
    _report(6, "trapezoid CLT shape and Riemann bias",
            ks_ok and unbiased_ok and bias_ok,
            f"KS p={report.summary['ks_pvalue']:.3f}; trapezoid mean "
            f"{trap_mean:.4f}+-{trap_se:.4f}; quadratic Riemann mean "
            f"{mean_r:.4f}+-{se_r:.4f} vs 0.5")


def test_7_fourier_decomposition():
    grid = build_grid(1.0, 16, 256)
    bundle = simulate_paths(BrownianMotion(), grid, 100, master_seed=55)
    decomp_ok = drift_ok = True
    worst_md = worst_de = 0.0
    for u in (1.0, 2.0, 5.0):
        f = complex_exponential(u)
        fine_vals = eval_on_path(f, bundle)
        realized = (reference_value(fine_vals, grid)
                    - riemann_estimate(fine_vals[:, ::256], grid))
        trace = decompose(f, bundle)
        gap_md = float(np.max(np.abs(trace.total - realized)))
        gap_de = float(np.max(np.abs(
            trace.drift - compute_E(f, bundle)
            - sum(compute_F(u, bundle)))))
        worst_md = max(worst_md, gap_md)
        worst_de = max(worst_de, gap_de)
        decomp_ok &= gap_md < 1e-6
        drift_ok &= gap_de < 1e-8

    # |E exp(iu(X_r - X_h))| over a gap of 0.5 from the node table that
    # F1/F2 read, against Monte Carlo
    rng = np.random.default_rng(7)
    u, gap = 3.0, 0.5
    z = math.sqrt(gap) * rng.standard_normal(100000)
    mc = abs(np.exp(1j * u * z).mean())
    nodes = _interval_nodes(BrownianMotion(), build_grid(1.0, 2), 1)
    closed = float(np.exp(-0.5 * u * u * nodes.var_end[0]))
    char_ok = abs(closed - mc) < 3.0 / math.sqrt(100000)
    _report(7, "Fourier error decomposition identities",
            decomp_ok and drift_ok and char_ok,
            f"max |M+D-(ref-riemann)|={worst_md:.2e}, "
            f"max |D-E-(F1+F2)|={worst_de:.2e}, "
            f"char closed {closed:.5f} vs MC {mc:.5f}")


def test_8_g_decay():
    n_list = (8, 16, 32, 64, 128, 256)
    probe = g_decay_probe((1.0, 3.0, 10.0), n_list, BrownianMotion(),
                          2000, seed=21)
    sup = max(row["g_hat"] for row in probe["g_decay"])
    ok = np.isfinite(sup)
    detail = [f"sup={sup:.3e}"]
    trend = {row["u"]: (row["kendall_tau"], row["p_value"])
             for row in probe["g_trend"]}
    for u in (1.0, 3.0, 10.0):
        tau, p = trend[u]
        ok &= tau < 0 and p < 0.05
        detail.append(f"u={u}: tau={tau:.2f}, p={p:.4f}")
    _report(8, "normalized F1/F2 bound decays in n", ok, "; ".join(detail))


def test_9_seminorm_analytics():
    h1 = sobolev_seminorm(gaussian_bump(), 1.0)
    bump_ok = abs(h1.value - math.pi ** 0.75) < 1e-3
    f = indicator(0.0, 1.0)
    div = sobolev_seminorm(f, 0.6)
    fin = sobolev_seminorm(f, 0.3)
    ind_ok = div.divergent and (not fin.divergent) and np.isfinite(fin.value)
    _report(9, "seminorm closed forms and divergence flags",
            bump_ok and ind_ok,
            f"H1={h1.value:.5f} vs {math.pi ** 0.75:.5f}; indicator s=0.6 "
            f"divergent={div.divergent}, s=0.3 value={fin.value:.4f}")


RATE_CFG = """\
[process]
kind = brownian

[function]
descriptor = gaussian_bump

[study]
n_list = 16,32,64
refine = 16
paths = 300
seed = 99
"""


def test_10_reproducibility(tmp_path):
    cfg = tmp_path / "rate.cfg"
    cfg.write_text(RATE_CFG)
    bodies = []
    for name, threads in (("run1", "1"), ("run2", "1"), ("run8", "8")):
        out = tmp_path / name
        rc = cli_main(["rate-study", "--config", str(cfg), "--out", str(out),
                       "--threads", threads])
        assert rc == 0
        bodies.append((out / "rates.csv").read_bytes())
    ok = bodies[0] == bodies[1] == bodies[2]
    reports = [json.loads((tmp_path / n / "report.json").read_text())
               for n in ("run1", "run8")]
    ok &= reports[0]["summary"] == reports[1]["summary"]
    _report(10, "byte-identical CSVs across reruns and thread counts", ok,
            f"{len(bodies[0])} bytes per body")
