"""Self-tests of the benchmark.

    python3 benchmarks/selftest.py

1. Every output check passes a good value and rejects a deliberately wrong
   one (a slope of 0.5, a lower bound x 1.1, a residual of 1e-3, ...). Only
   the wrong value that a known fault gives counts as that fault; a crash,
   a bad exit code or another wrong value is an unexpected failure.
2. Every workload runs in tiny mode, untraced and traced; the printed
   result and ``.bench_out/NAME/result.json`` list every BENCHMARK.json
   metric with its unit, and only the two known faults fail.
3. In a directory holding only BENCHMARK.json and ``benchmarks/``, the
   benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

import checks
import run as bench_run
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_SEED = 3
# analytics: fault (a) and (b) fail in both passes, 4 of 16 operations
FAILED_SHARE = {"analytics": Fraction(1, 4)}


def rejects(check, *args) -> bool:
    try:
        check(*args)
    except checks.CheckFailed:
        return True
    return False


def known(check, *args) -> bool:
    try:
        check(*args)
    except checks.KnownFault:
        return True
    except checks.CheckFailed:
        return False
    return False


def changed(data: dict, **values) -> dict:
    out = copy.deepcopy(data)
    out.update(values)
    return out


def good_rate():
    n_list, est = (16, 32, 64), ("riemann", "trapezoid")
    rows = [{"n": str(n), "estimator": e, "rms": str(1.0 / n)}
            for n in n_list for e in est]
    fit = {"degenerate": False, "slope": 1.0}
    return {e: dict(fit) for e in est}, rows, n_list, est


def good_efficiency():
    floor, riem = checks.bump_floor(), checks.bump_riemann_scaled_rms()
    summary = {"lower_bound": floor, "lower_bound_se": 1e-3,
               "scaled_rms_trapezoid": floor, "scaled_rms_trapezoid_se": 2e-3,
               "scaled_rms_bridge": floor, "scaled_rms_bridge_se": 2e-3,
               "scaled_rms_riemann": riem, "scaled_rms_riemann_se": 4e-3}
    rows = [{"n": str(n), "estimator": e} for n in (32, 64)
            for e in ("riemann", "trapezoid", "bridge")]
    return summary, rows, (32, 64)


def good_clt():
    summary = {"ks_pvalue": 0.4, "scaled_trapezoid_mean": 0.001,
               "scaled_trapezoid_mean_se": 0.004,
               "scaled_riemann_mean": checks.RIEMANN_BIAS,
               "scaled_riemann_mean_se": 0.006, "excluded_zero_variance": 0}
    return summary, [{}] * 200, 200


def good_diagnostics():
    summary = {"max_decomposition_residual": 2e-16,
               "max_drift_identity_residual": 1e-16}
    n_list, u_list = (8, 16), (1.0, 3.0)
    g_rows = [{"u": str(u), "n": str(n), "g_hat": "0.01"}
              for u in u_list for n in n_list]
    trend = [{"u": str(u), "kendall_tau": "-1.0"} for u in u_list]
    return summary, g_rows, trend, u_list, n_list


def stochvol_csv(paths: int, steps: int, scale: float = 1.0) -> str:
    """paths.csv text from a direct simulation of the StochVol model."""
    rng = np.random.default_rng(5)
    dt = 1.0 / steps
    sv = workloads.STOCHVOL
    w_aux = np.concatenate([np.zeros((paths, 1)), np.cumsum(
        rng.standard_normal((paths, steps)) * math.sqrt(dt), axis=1)], axis=1)
    sigma = sv["sigma0"] * (1.0 + sv["eta"] * np.sin(w_aux[:, :-1]))
    incr = sigma * rng.standard_normal((paths, steps)) * math.sqrt(dt)
    x = scale * np.concatenate([np.zeros((paths, 1)),
                                np.cumsum(incr, axis=1)], axis=1)
    lines = ["path_id,time,x_1"]
    for p in range(paths):
        lines += [f"{p},{j * dt!r},{float(x[p, j])!r}"
                  for j in range(steps + 1)]
    return "\n".join(lines) + "\n"


def test_checks() -> None:
    summary, rows, n_list, est = good_rate()
    assert not rejects(checks.check_rate, summary, rows, n_list, est)
    for slope in (0.5, 0.85, 1.2, math.nan):
        bad = changed(summary, trapezoid={"degenerate": False, "slope": slope})
        assert rejects(checks.check_rate, bad, rows, n_list, est), slope
    bad = changed(summary, riemann={"degenerate": True, "slope": 1.0})
    assert rejects(checks.check_rate, bad, rows, n_list, est)
    flat = [dict(r, rms="0.1") for r in rows]
    assert rejects(checks.check_rate, summary, flat, n_list, est)
    assert rejects(checks.check_rate, summary, rows[:-1], n_list, est)

    summary, rows, n_list = good_efficiency()
    assert not rejects(checks.check_efficiency, summary, rows, n_list)
    floor = checks.bump_floor()
    for bad in (changed(summary, lower_bound=1.1 * floor),
                changed(summary, lower_bound=0.9 * floor),
                changed(summary, scaled_rms_trapezoid=1.25 * floor),
                changed(summary, scaled_rms_bridge=0.75 * floor),
                changed(summary, scaled_rms_riemann=floor)):
        assert rejects(checks.check_efficiency, bad, rows, n_list), bad
    assert rejects(checks.check_efficiency, summary, rows[:-1], n_list)

    summary, rows, paths = good_clt()
    assert not rejects(checks.check_clt, summary, rows, paths)
    for bad in (changed(summary, ks_pvalue=1e-6),
                changed(summary, scaled_trapezoid_mean=0.04),
                changed(summary, scaled_riemann_mean=-checks.RIEMANN_BIAS)):
        assert rejects(checks.check_clt, bad, rows, paths), bad
    assert rejects(checks.check_clt, summary, rows[:-1], paths)

    summary, g_rows, trend, u_list, n_list = good_diagnostics()
    args = (g_rows, trend, u_list, n_list)
    assert not rejects(checks.check_diagnostics, summary, *args)
    for bad in (changed(summary, max_decomposition_residual=1e-3),
                changed(summary, max_drift_identity_residual=1e-7)):
        assert rejects(checks.check_diagnostics, bad, *args), bad
    up = [dict(trend[0], kendall_tau="0.2")] + trend[1:]
    assert rejects(checks.check_diagnostics, summary, g_rows, up, u_list,
                   n_list)
    nan = [dict(g_rows[0], g_hat="nan")] + g_rows[1:]
    assert rejects(checks.check_diagnostics, summary, nan, trend, u_list,
                   n_list)

    bump = {"sobolev_value": checks.BUMP_H1, "sobolev_divergent": False,
            "fourier_lebesgue_value": math.inf,
            "fourier_lebesgue_divergent": True}
    assert not rejects(checks.check_norm, bump, "sobolev", checks.BUMP_H1)
    assert not rejects(checks.check_norm, bump, "fourier_lebesgue", None)
    assert not rejects(checks.check_norm, bump, "sobolev", math.inf)
    assert rejects(checks.check_norm, bump, "fourier_lebesgue",
                   checks.BUMP_FL1)
    assert rejects(checks.check_norm, bump, "sobolev", None)
    assert rejects(checks.check_norm,
                   changed(bump, sobolev_value=1.01 * checks.BUMP_H1),
                   "sobolev", checks.BUMP_H1)

    text = stochvol_csv(400, 16)
    sv = workloads.STOCHVOL
    assert not rejects(checks.check_paths_csv, text, 400, 16, sv["sigma0"],
                       sv["eta"])
    assert rejects(checks.check_paths_csv, stochvol_csv(400, 16, 1.1), 400,
                   16, sv["sigma0"], sv["eta"])
    assert rejects(checks.check_paths_csv, text, 401, 16, sv["sigma0"],
                   sv["eta"])
    assert rejects(checks.check_paths_csv, "path,t,x\n" + text.split("\n", 1)[1],
                   400, 16, sv["sigma0"], sv["eta"])

    power = {"sobolev_value": math.inf, "sobolev_divergent": True}
    target, fault = checks.power_h0(0.3), workloads.FAULT_POWER
    assert known(checks.check_norm, power, "sobolev", target,
                 checks.POWER_NORM_RTOL, fault)
    assert rejects(checks.check_norm, power, "sobolev", target,
                   checks.POWER_NORM_RTOL)
    assert not known(checks.check_norm, power, "sobolev", target,
                     checks.POWER_NORM_RTOL)
    for value in (1.1 * target, math.nan):
        wrong = {"sobolev_value": value, "sobolev_divergent": False}
        assert rejects(checks.check_norm, wrong, "sobolev", target,
                       checks.POWER_NORM_RTOL, fault), value
        assert not known(checks.check_norm, wrong, "sobolev", target,
                         checks.POWER_NORM_RTOL, fault), value
    right = {"sobolev_value": target, "sobolev_divergent": False}
    assert not rejects(checks.check_norm, right, "sobolev", target,
                       checks.POWER_NORM_RTOL, fault)

    fault = workloads.FAULT_TENSOR
    assert not rejects(checks.check_tensor_h1, checks.TENSOR_BUMP_H1, False,
                       fault)
    assert known(checks.check_tensor_h1, 5.568327996831708, False, fault)
    assert rejects(checks.check_tensor_h1, 5.568327996831708, False)
    assert not known(checks.check_tensor_h1, 5.568327996831708, False)
    for value, divergent in ((7.0, False), (math.nan, False),
                             (checks.TENSOR_BUMP_H1, True)):
        assert rejects(checks.check_tensor_h1, value, divergent, fault)
        assert not known(checks.check_tensor_h1, value, divergent, fault)

    csvs = {"a.csv": b"x\n1\n"}
    assert not rejects(checks.check_same_csvs, csvs, dict(csvs))
    assert rejects(checks.check_same_csvs, csvs, {"a.csv": b"x\n2\n"})
    assert rejects(checks.check_same_csvs, {}, {})
    print("checks: every good value passes, every wrong value is rejected")


class StubOp:
    """An operation with a known fault whose call and check are given."""

    name = "stub"
    fault = "a known fault"

    def __init__(self, call, check):
        self.call, self.check = call, check

    def prepare(self, threads: int) -> None:
        pass


def test_fault_classification() -> None:
    def crash(threads):
        raise RuntimeError("boom")

    def sys_exit(threads):
        raise SystemExit(2)

    def exit_code(threads, rc):
        checks.require(rc == 0, f"exit code {rc}")

    def fault_value(threads, result):
        checks.check_tensor_h1(result, False, StubOp.fault)

    cases = (
        (StubOp(crash, fault_value), False),
        (StubOp(sys_exit, fault_value), False),
        (StubOp(lambda t: 2, exit_code), False),
        (StubOp(lambda t: 7.0, fault_value), False),
        (StubOp(lambda t: checks.BUMP_H1 ** 2, fault_value), True),
    )
    for op, want in cases:
        _, error, is_known = bench_run.run_op(op, 1)
        assert error is not None and is_known == want, (error, is_known)
    _, error, _ = bench_run.run_op(
        StubOp(lambda t: checks.TENSOR_BUMP_H1, fault_value), 1)
    assert error is None, error
    print("faults: only the known wrong value counts as the known fault")


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmarks/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def test_tiny() -> None:
    for w in (w["name"] for w in SPEC["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, "--workload", w, "--seed", str(TINY_SEED),
                       "--seconds", "1", "--trace", str(trace), "--tiny")
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, result
            saved = json.loads((ROOT / ".bench_out" / w / "result.json")
                               .read_text())
            want = {m["name"]: m["unit"] for m in SPEC[kind]}
            for got in (result["metrics"], saved["metrics"]):
                assert {k: v["unit"] for k, v in got.items()} == want, got
                assert all(isinstance(v["value"], (int, float))
                           and math.isfinite(v["value"])
                           for v in got.values()), got
            assert result["correct"], proc.stderr
            share = Fraction(result["failed"], result["attempted"])
            assert share == FAILED_SHARE.get(w, 0), (w, share, proc.stderr)
            print(f"tiny {w} trace={trace}: {len(want)} metrics listed, "
                  f"{result['failed']}/{result['attempted']} failed")


def test_bare_directory() -> None:
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, "--workload", "analytics", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    shutil.rmtree(bare)
    print(f"bare directory: exit {proc.returncode}, nothing printed")


if __name__ == "__main__":
    test_checks()
    test_fault_classification()
    test_bare_directory()
    test_tiny()
    print("selftest passed")
