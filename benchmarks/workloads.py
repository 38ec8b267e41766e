"""The four workloads: their configs, sizes and operations.

An operation is one subcommand call through ``occutime.cli.main`` or one
library call, together with its output checks. Every pass of a round runs
the same operations; ``run.py`` runs each round at 1 and then 2 threads.
The workload seed reaches the program only as ``--seed``. The program is
imported when an operation is called, once ``run.py`` has put the
checkout's ``src`` on ``sys.path``; its functions are looked up at call
time, so the tracer's wrappers apply.
"""

from __future__ import annotations

import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

RATE_CONFIG = """\
[process]
kind = {kind}
{process_extra}
[function]
descriptor = {descriptor}

[study]
n_list = {n_list}
refine = {refine}
paths = {paths}
estimators = {estimators}
"""

LIMIT_CONFIG = """\
[process]
kind = brownian

[function]
descriptor = gaussian_bump

[study]
n_list = {n_list}
refine = {refine}
paths = {paths}
estimators = riemann,trapezoid,bridge
"""

DIAGNOSTICS_CONFIG = """\
[process]
kind = deterministic_gaussian
drift_const = 0.3
diffusion_const = 0.8

[function]
descriptor = gaussian_bump

[study]
n_list = {n_list}
refine = {refine}
paths = {paths}
u_list = 1,3,10
"""

SIMULATE_CONFIG = """\
[process]
kind = stochvol
sigma0 = {sigma0}
eta = {eta}

[simulate]
n = {n}
refine = 1
paths = {paths}
"""

NORMS_CONFIG = """\
[function]
descriptor = {descriptor}

[norms]
s = {s}
norm = {norm}
"""

FAULT_POWER = ("norms reads the flat high-frequency floor of the sampled "
               "singularity's transform as a divergent tail")
FAULT_TENSOR = ("sobolev_seminorm multiplies the factor seminorms of a "
                "tensor product")

# name -> (descriptor, s, norm, {form: target}, relative tolerance, fault);
# target None = flagged divergent, inf = finite without a closed form
NORMS = {
    "norms-bump": ("gaussian_bump", 1.0, "both",
                   {"sobolev": checks.BUMP_H1,
                    "fourier_lebesgue": checks.BUMP_FL1},
                   checks.NORM_RTOL, None),
    "norms-hat": ("hat", 1.0, "both",
                  {"sobolev": checks.HAT_H1, "fourier_lebesgue": None},
                  checks.NORM_RTOL, None),
    "norms-indicator-0.3": ("indicator(0,1)", 0.3, "sobolev",
                            {"sobolev": math.inf}, checks.NORM_RTOL, None),
    "norms-indicator-0.6": ("indicator(0,1)", 0.6, "sobolev",
                            {"sobolev": None}, checks.NORM_RTOL, None),
    "norms-power-0.3": ("power_singularity(alpha=0.3)", 0.0, "sobolev",
                        {"sobolev": checks.power_h0(0.3)},
                        checks.POWER_NORM_RTOL, FAULT_POWER),
}

STOCHVOL = {"sigma0": 1.0, "eta": 0.5}

SIZES = {
    "full": {
        "rate-lacunary": {"n_list": "16,32,64,128,256", "refine": 64,
                          "paths": 400},
        "rate-stochvol": {"n_list": "16,32,64,128,256", "refine": 64,
                          "paths": 800},
        "limit-laws": {"n_list": "32,64,128", "refine": 32, "paths": 1500},
        "analytics": {"n_list": "8,16,32,64,128,256,512", "refine": 16,
                      "paths": 1000, "sim_n": 64, "sim_paths": 1000},
    },
    "tiny": {
        "rate-lacunary": {"n_list": "16,32,64", "refine": 16, "paths": 100},
        "rate-stochvol": {"n_list": "16,32,64", "refine": 16, "paths": 100},
        "limit-laws": {"n_list": "16,32", "refine": 16, "paths": 200},
        "analytics": {"n_list": "8,16,32", "refine": 4, "paths": 200,
                      "sim_n": 16, "sim_paths": 100},
    },
}

WORKLOADS = tuple(SIZES["full"])


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(","))


@dataclass
class Context:
    """Where an operation reads configs and writes outputs, its seed, and
    the wrapper for test functions it builds itself."""

    workdir: Path
    seed: int
    wrap_function: Callable      # identity, or the tracer's wrapper


@dataclass
class CliOp:
    ctx: Context
    name: str
    subcommand: str
    config: Path
    verify: Callable[[Path], None]
    fault: str | None = None

    def out_dir(self, threads: int) -> Path:
        return self.ctx.workdir / "out" / f"{self.name}-t{threads}"

    def prepare(self, threads: int) -> None:
        shutil.rmtree(self.out_dir(threads), ignore_errors=True)

    def call(self, threads: int):
        from occutime import cli
        return cli.main([
            self.subcommand, "--config", str(self.config),
            "--out", str(self.out_dir(threads)), "--seed", str(self.ctx.seed),
            "--threads", str(threads)])

    def check(self, threads: int, rc) -> None:
        checks.require(rc == 0, f"exit code {rc}")
        self.verify(self.out_dir(threads))
        if threads == 2:
            checks.check_same_csvs(checks.csv_bodies(self.out_dir(1)),
                                   checks.csv_bodies(self.out_dir(2)))


@dataclass
class TensorH1Op:
    """Library call: H^1 seminorm of the 2-d tensor product bump x bump."""

    ctx: Context
    name: str = "tensor-h1"
    fault: str | None = FAULT_TENSOR

    def prepare(self, threads: int) -> None:
        pass

    def call(self, threads: int):
        from occutime import functions, seminorms
        f = self.ctx.wrap_function(functions.tensor_product(
            [functions.gaussian_bump(), functions.gaussian_bump()]))
        return seminorms.sobolev_seminorm(f, 1.0)

    def check(self, threads: int, result) -> None:
        checks.check_tensor_h1(result.value, result.divergent, self.fault)


def _verify_rate(n_list, estimators):
    def verify(out: Path) -> None:
        checks.check_rate(checks.read_report(out)["summary"],
                          checks.read_csv(out / "rates.csv"), n_list,
                          estimators)
    return verify


def _verify_efficiency(n_list):
    def verify(out: Path) -> None:
        checks.check_efficiency(checks.read_report(out)["summary"],
                                checks.read_csv(out / "efficiency.csv"),
                                n_list)
    return verify


def _verify_clt(paths):
    def verify(out: Path) -> None:
        checks.check_clt(checks.read_report(out)["summary"],
                         checks.read_csv(out / "standardized.csv"), paths)
    return verify


def _verify_diagnostics(n_list):
    def verify(out: Path) -> None:
        checks.check_diagnostics(checks.read_report(out)["summary"],
                                 checks.read_csv(out / "g_decay.csv"),
                                 checks.read_csv(out / "g_trend.csv"),
                                 (1.0, 3.0, 10.0), n_list)
    return verify


def _verify_norms(targets, rtol, fault):
    def verify(out: Path) -> None:
        summary = checks.read_report(out)["summary"]
        for form, target in targets.items():
            checks.check_norm(summary, form, target, rtol, fault)
    return verify


def _verify_simulate(paths, steps):
    def verify(out: Path) -> None:
        checks.check_paths_csv((out / "paths.csv").read_text(), paths, steps,
                               STOCHVOL["sigma0"], STOCHVOL["eta"])
    return verify


def config_texts(workload: str, tiny: bool) -> dict[str, str]:
    """Config file name -> text for one workload."""
    size = SIZES["tiny" if tiny else "full"][workload]
    if workload == "rate-lacunary":
        return {"rate.cfg": RATE_CONFIG.format(
            kind="brownian", process_extra="",
            descriptor="lacunary(s=1.2, J=12)",
            estimators="riemann,trapezoid", **size)}
    if workload == "rate-stochvol":
        extra = "".join(f"{k} = {v}\n" for k, v in STOCHVOL.items())
        return {"rate.cfg": RATE_CONFIG.format(
            kind="stochvol", process_extra=extra,
            descriptor="gaussian_bump", estimators="trapezoid", **size)}
    if workload == "limit-laws":
        return {"limit.cfg": LIMIT_CONFIG.format(**size)}
    texts = {
        "diagnostics.cfg": DIAGNOSTICS_CONFIG.format(
            n_list=size["n_list"], refine=size["refine"],
            paths=size["paths"]),
        "simulate.cfg": SIMULATE_CONFIG.format(
            n=size["sim_n"], paths=size["sim_paths"], **STOCHVOL),
    }
    for name, (descriptor, s, norm, *_) in NORMS.items():
        texts[f"{name}.cfg"] = NORMS_CONFIG.format(descriptor=descriptor,
                                                   s=s, norm=norm)
    return texts


def operations(workload: str, tiny: bool, ctx: Context) -> list:
    """The operations of one pass, in order; configs must already exist."""
    size = SIZES["tiny" if tiny else "full"][workload]
    n_list = _ints(size["n_list"])

    def cli_op(name, subcommand, config, verify, fault=None):
        return CliOp(ctx, name, subcommand, ctx.workdir / "configs" / config,
                     verify, fault)

    if workload in ("rate-lacunary", "rate-stochvol"):
        estimators = (("riemann", "trapezoid") if workload == "rate-lacunary"
                      else ("trapezoid",))
        return [cli_op("rate-study", "rate-study", "rate.cfg",
                       _verify_rate(n_list, estimators))]
    if workload == "limit-laws":
        return [cli_op("efficiency", "efficiency", "limit.cfg",
                       _verify_efficiency(n_list)),
                cli_op("clt-check", "clt-check", "limit.cfg",
                       _verify_clt(size["paths"]))]
    ops = [cli_op("diagnostics", "diagnostics", "diagnostics.cfg",
                  _verify_diagnostics(n_list)),
           cli_op("simulate", "simulate", "simulate.cfg",
                  _verify_simulate(size["sim_paths"], size["sim_n"]))]
    for name, (_, _, _, targets, rtol, fault) in NORMS.items():
        ops.append(cli_op(name, "norms", f"{name}.cfg",
                          _verify_norms(targets, rtol, fault), fault))
    ops.append(TensorH1Op(ctx))
    return ops
