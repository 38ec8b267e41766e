import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import occutime
from occutime.cli import main

STUDY_CFG = """\
[process]
kind = brownian

[function]
descriptor = gaussian_bump

[study]
n_list = 16,32,64
refine = 16
paths = 200
seed = 42
"""

NORMS_CFG = """\
[function]
descriptor = gaussian_bump

[norms]
s = 1.0
norm = both
"""

SIM_CFG = """\
[process]
kind = brownian

[simulate]
n = 4
refine = 2
paths = 3
seed = 5
"""


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_missing_config_exits_1(tmp_path, capsys):
    rc = main(["norms", "--config", str(tmp_path / "absent.cfg")])
    assert rc == 1
    assert "absent.cfg" in capsys.readouterr().err


def test_unknown_key_exits_1_naming_key(tmp_path, capsys):
    cfg = _write(tmp_path, NORMS_CFG + "typo_key = 3\n")
    rc = main(["norms", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "typo_key" in capsys.readouterr().err


def test_norms_reports_gaussian_h1(tmp_path):
    cfg = _write(tmp_path, NORMS_CFG)
    out = tmp_path / "out"
    assert main(["norms", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["summary"]["sobolev_value"] == pytest.approx(2.3597, abs=1e-3)
    assert (out / "norms.csv").exists()
    assert (out / "manifest.txt").exists()
    manifest = (out / "manifest.txt").read_text()
    assert "config_sha256" in manifest and "numpy" in manifest


def test_simulate_writes_paths_csv(tmp_path):
    cfg = _write(tmp_path, SIM_CFG)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "paths.csv").read_text().strip().split("\n")
    assert lines[0] == "path_id,time,x_1"
    assert len(lines) == 1 + 3 * 9


def _reject_constant(name):
    raise ValueError(f"report.json holds the non-JSON constant {name}")


def test_rate_study_constant_flags_degenerate(tmp_path):
    cfg = _write(tmp_path, STUDY_CFG)
    out = tmp_path / "deg"
    rc = main(["rate-study", "--config", cfg, "--out", str(out),
               "--set", "function.descriptor=constant(c=2)",
               "--set", "study.paths=100"])
    assert rc == 0
    report = json.loads((out / "report.json").read_text(),
                        parse_constant=_reject_constant)
    assert report["summary"]["riemann"]["degenerate"] is True
    assert report["summary"]["riemann"]["slope"] is None
    # the resolved config reflects the overrides
    assert report["config"]["function"]["descriptor"] == "constant(c=2)"


def test_seed_flag_overrides_config(tmp_path):
    cfg = _write(tmp_path, STUDY_CFG)
    out = tmp_path / "seeded"
    assert main(["rate-study", "--config", cfg, "--out", str(out),
                 "--seed", "7"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["master_seed"] == 7


@pytest.mark.parametrize("command, text, args, key", [
    ("simulate", SIM_CFG, ["--seed", "-1"], "--seed"),
    ("simulate", SIM_CFG, ["--set", "simulate.seed=-3"], "[simulate] seed"),
    ("rate-study", STUDY_CFG, ["--seed", "-1"], "--seed"),
    ("rate-study", STUDY_CFG, ["--set", "study.seed=-2"], "[study] seed"),
], ids=["simulate-flag", "simulate-key", "study-flag", "study-key"])
def test_negative_seed_exits_1_naming_key(tmp_path, capsys, command, text,
                                          args, key):
    cfg = _write(tmp_path, text)
    rc = main([command, "--config", cfg, "--out", str(tmp_path / "neg"),
               *args])
    assert rc == 1
    err = capsys.readouterr().err
    assert key in err and "non-negative" in err
    assert not (tmp_path / "neg").exists()


def test_reruns_byte_identical_across_threads(tmp_path):
    cfg = _write(tmp_path, STUDY_CFG)
    outs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / name
        assert main(["rate-study", "--config", cfg, "--out", str(out),
                     "--threads", threads]) == 0
        outs.append((out / "rates.csv").read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_bad_override_exits_1(tmp_path, capsys):
    cfg = _write(tmp_path, STUDY_CFG)
    mismatch = ("process.dimension=2", "process.x0=0,0")
    for command, overrides, key in (
            ("rate-study", ("study.nope=3",), "[study] nope"),
            ("rate-study", ("study.kind=rate",), "[study] kind"),
            ("rate-study", ("study.paths=abc",), "[study] paths"),
            ("rate-study", ("study.n_list=16,24,64",), "[study] n_list"),
            ("rate-study", ("study.refine=4",), "[study] refine"),
            ("rate-study", ("study.t_eval=2",), "[study] t_eval"),
            ("rate-study", ("study.t_eval=nan",), "[study] t_eval"),
            ("rate-study", ("function.descriptor=lacunary(s=abc)",),
             "[function] descriptor"),
            ("rate-study", ("function.descriptor=lacunary(s=nan)",),
             "[function] descriptor"),
            ("rate-study", ("function.descriptor=indicator(a=0,b=inf)",),
             "[function] descriptor"),
            ("rate-study", ("function.descriptor=lacunary(s=1.2,J=12.5)",),
             "[function] descriptor"),
            ("rate-study", ("function.descriptor=lacunary(s=1.2,cutoff=0)",),
             "[function] descriptor"),
            ("rate-study", ("function.descriptor=lacunary(s=1.2,s=0.3)",),
             "[function] descriptor"),
            ("norms", ("function.descriptor=lacunary(s=1.2,cutoff=0)",),
             "[function] descriptor"),
            ("norms", ("function.descriptor=lacunary(s=1.2,cutoff=-3)",),
             "[function] descriptor"),
            ("norms", ("norms.s=nan",), "[norms] s"),
            ("norms", ("norms.s=-0.5",), "[norms] s"),
            ("norms", ("function.descriptor=power_singularity(alpha=0.3,"
                       "cutoff=0)",), "[function] descriptor"),
            ("diagnostics", ("study.u_list=1,nan",), "[study] u_list"),
            ("diagnostics", ("study.u_list=",), "[study] u_list"),
            ("diagnostics", ("study.n_list=255,256,257",), "[study] n_list"),
            ("diagnostics", ("process.x0=nan",), "[process] x0"),
            ("rate-study", ("process.x0=inf",), "[process] x0"),
            ("rate-study", ("process.x0=0,1",), "[process] x0"),
            ("diagnostics", ("process.shift_half_width=nan",),
             "[process] shift_half_width"),
            ("diagnostics", ("process.shift_half_width=-1",),
             "[process] shift_half_width"),
            ("diagnostics", ("process.kind=stochvol", "process.sigma0=-1"),
             "[process] sigma0"),
            ("diagnostics", ("process.kind=stochvol", "process.eta=2"),
             "[process] eta"),
            ("rate-study", ("process.dimension=-1",), "[process] dimension"),
            ("rate-study", ("process.dimension=0",), "[process] dimension"),
            ("diagnostics", ("process.kind=deterministic_gaussian",
                             "process.dimension=0"), "[process] dimension"),
            ("rate-study", mismatch, "[process] dimension"),
            ("efficiency", mismatch, "[process] dimension"),
            ("clt-check", mismatch, "[process] dimension"),
            ("rate-study", ("process.kind=stochvol",
                            "study.estimators=trapezoid,bridge"),
             "[study] estimators"),
            ("rate-study", ("study.estimators=trapezoid,trapezoid",),
             "[study] estimators"),
            ("efficiency", ("study.estimators=trapezoid,riemann,trapezoid",),
             "[study] estimators"),
            ("clt-check", ("function.descriptor=indicator(a=0,b=1)",),
             "[function] descriptor"),
            ("rate-study", ("function.descriptor=complex_exponential(u=2)",),
             "[function] descriptor"),
            ("clt-check", ("function.descriptor=complex_exponential(u=2)",),
             "[function] descriptor"),
            ("diagnostics", ("process.kind=stochvol",), "[process] kind"),
            ("norms", ("function.descriptor=constant",),
             "[function] descriptor"),
            ("efficiency", ("process.kind=stochvol",), "[process] kind")):
        args = [command, "--config", cfg, "--out", str(tmp_path / "x")]
        for item in overrides:
            args += ["--set", item]
        assert main(args) == 1, (command, overrides)
        assert key in capsys.readouterr().err, (command, overrides)


def test_empty_u_list_ignored_outside_diagnostics(tmp_path):
    cfg = _write(tmp_path, STUDY_CFG)
    assert main(["rate-study", "--config", cfg, "--out", str(tmp_path / "r"),
                 "--set", "study.u_list=", "--set", "study.paths=100"]) == 0


@pytest.mark.parametrize("key, value", [("n", "0"), ("refine", "0"),
                                        ("paths", "0"), ("horizon", "-1")])
def test_simulate_bad_size_exits_1_naming_key(tmp_path, capsys, key, value):
    cfg = _write(tmp_path, SIM_CFG)
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "bad"),
               "--set", f"simulate.{key}={value}"])
    assert rc == 1
    assert f"[simulate] {key} " in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


def test_non_finite_result_exits_2(tmp_path, capsys):
    # 2^(100 j) coefficients overflow the series; no table may carry the nan
    cfg = _write(tmp_path, STUDY_CFG)
    with pytest.warns(RuntimeWarning) as caught:
        rc = main(["rate-study", "--config", cfg, "--out",
                   str(tmp_path / "nan"),
                   "--set", "function.descriptor=lacunary(s=-100,J=12)",
                   "--set", "study.n_list=8,16"])
    assert any("overflow" in str(w.message) for w in caught)
    assert rc == 2
    assert "rates.csv" in capsys.readouterr().err


@pytest.mark.parametrize("override", ["function.descriptor=constant",
                                      "study.t_eval=0"])
def test_clt_check_zero_variance_everywhere_exits_2(tmp_path, capsys,
                                                    override):
    # no path has a conditional variance to standardize by
    cfg = _write(tmp_path, STUDY_CFG)
    out = tmp_path / "clt"
    rc = main(["clt-check", "--config", cfg, "--out", str(out),
               "--set", "study.n_list=8,16", "--set", "study.refine=8",
               "--set", "study.paths=100", "--set", "study.seed=1",
               "--set", override])
    assert rc == 2
    assert "zero conditional variance" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_simulate_non_finite_paths_exit_2(tmp_path, capsys):
    # a drift of 1e308 overflows the path by time 2; paths.csv would hold inf
    cfg = _write(tmp_path, SIM_CFG.replace("kind = brownian",
                                           "kind = deterministic_gaussian\n"
                                           "drift_const = 1e308"))
    out = tmp_path / "inf"
    with pytest.warns(RuntimeWarning, match="overflow"):
        rc = main(["simulate", "--config", cfg, "--out", str(out),
                   "--set", "simulate.refine=1", "--set", "simulate.paths=2",
                   "--set", "simulate.seed=1", "--set", "simulate.horizon=4"])
    assert rc == 2
    assert "path 0 is not finite at time 2.0" in capsys.readouterr().err
    assert not (out / "paths.csv").exists()
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("command", ["simulate", "norms", "rate-study",
                                     "clt-check", "efficiency", "diagnostics"])
def test_runtime_seconds_is_measured(tmp_path, command):
    text = {"simulate": SIM_CFG, "norms": NORMS_CFG}.get(command, STUDY_CFG)
    cfg = _write(tmp_path, text)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["runtime_seconds"] > 0
    # 1025 fine nodes: the 2**18-float budget holds 255 paths per chunk;
    # the diagnostics probe grid has lcm(n_list) + 1 = 65 nodes
    if command in ("rate-study", "clt-check", "efficiency"):
        assert report["layout"] == {"paths": 200, "chunk_size": 255,
                                    "chunks": 1, "threads": 1}
    elif command == "diagnostics":
        assert report["layout"] == {"paths": 200, "chunk_size": 256,
                                    "chunks": 1, "threads": 1}
    else:
        assert "layout" not in report


def test_documented_non_finite_values_exit_0(tmp_path):
    # the Kendall trend is nan for a single n and for u = 0, where g_hat is
    # 0 at every n; the hat's Fourier-Lebesgue H^1 seminorm diverges
    cfg = _write(tmp_path, STUDY_CFG)
    for n_list, nans in (("8", 4), ("8,16", 2)):
        out = tmp_path / f"d{nans}"
        assert main(["diagnostics", "--config", cfg, "--out", str(out),
                     "--set", f"study.n_list={n_list}",
                     "--set", "study.u_list=0,1", "--set", "study.paths=100",
                     "--set", "study.refine=4"]) == 0
        assert (out / "g_trend.csv").read_text().count("nan") == nans
    norms = _write(tmp_path, NORMS_CFG, "norms.cfg")
    assert main(["norms", "--config", norms, "--out", str(tmp_path / "n"),
                 "--set", "function.descriptor=hat"]) == 0
    assert "inf,true" in (tmp_path / "n" / "norms.csv").read_text()
    # the bump's transform lives on a few panels: it has no tail exponent
    assert main(["norms", "--config", norms, "--out", str(tmp_path / "b")]) == 0
    rows = (tmp_path / "b" / "norms.csv").read_text().splitlines()[1:]
    assert [row.split(",")[-1] for row in rows] == ["nan", "nan"]


def test_norms_flags_indicator_growing_to_the_cap(tmp_path):
    # |u|^12 |F 1_[0,1]|^2 grows up to the frequency cap: divergent
    norms = _write(tmp_path, NORMS_CFG, "norms.cfg")
    assert main(["norms", "--config", norms, "--out", str(tmp_path / "n"),
                 "--set", "function.descriptor=indicator(0,1)",
                 "--set", "norms.s=6", "--set", "norms.norm=sobolev"]) == 0
    row = (tmp_path / "n" / "norms.csv").read_text().splitlines()[1]
    assert row.startswith("sobolev,6.0,inf,true,")


def test_norms_past_float_range(tmp_path, capsys):
    # a divergent integrand past the float range is flagged; a finite
    # seminorm too large to represent is a non-finite result
    norms = _write(tmp_path, NORMS_CFG, "norms.cfg")
    assert main(["norms", "--config", norms, "--out", str(tmp_path / "h"),
                 "--set", "function.descriptor=hat", "--set", "norms.s=100",
                 "--set", "norms.norm=sobolev"]) == 0
    row = (tmp_path / "h" / "norms.csv").read_text().splitlines()[1]
    assert row.startswith("sobolev,100.0,inf,true,")
    assert main(["norms", "--config", norms, "--out", str(tmp_path / "b"),
                 "--set", "norms.s=200", "--set", "norms.norm=sobolev"]) == 2
    assert "'value' is inf" in capsys.readouterr().err
    assert not (tmp_path / "b").exists()


def test_successive_main_calls_do_not_share_overrides(tmp_path, capsys):
    # the parser is built once per process, so the --set list of one
    # call must not reach the next
    cfg = _write(tmp_path, NORMS_CFG)
    out = tmp_path / "out"
    assert main(["norms", "--config", cfg, "--out", str(out),
                 "--set", "norms.nope=3"]) == 1
    assert "nope" in capsys.readouterr().err
    assert main(["norms", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["norms"] == {"s": "1.0", "norm": "both"}


def _fresh_interpreter(code: str) -> str:
    """stdout of ``code`` run by a new interpreter on this checkout's src."""
    src = str(Path(occutime.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


@pytest.mark.parametrize("module", ["scipy.stats", "scipy.special"])
def test_cli_import_leaves_scipy_unloaded(tmp_path, module):
    # scipy.stats and scipy.special dominate start-up time. Only clt-check
    # and the diagnostics trend statistic import scipy.stats, and only the
    # hat, indicator and power_singularity closed forms scipy.special.
    cfg = _write(tmp_path, STUDY_CFG.replace("paths = 200", "paths = 100"))
    code = f"""\
import sys
import occutime.cli
loaded = [{module!r} in sys.modules]
for fn in ("gaussian_bump", "lacunary(s=1.2,J=12)"):
    assert occutime.cli.main(["rate-study", "--config", {cfg!r},
                              "--out", {str(tmp_path / "o")!r},
                              "--threads", "1",
                              "--set", "function.descriptor=" + fn]) == 0
    loaded.append({module!r} in sys.modules)
print(loaded)
"""
    assert _fresh_interpreter(code) == "[False, False, False]"


LAZY_SPECIAL_VALUES = """\
import numpy as np
from occutime.functions import hat, indicator, power_singularity
mu, var = np.array([-0.7, 0.0, 0.4, 1.3]), np.array([0.0, 0.2, 0.5, 1.0])
p = power_singularity(0.3)
values = [hat().gaussian_expectation(mu, var).tolist(),
          indicator(-0.5, 1.0).gaussian_expectation(mu, var).tolist(),
          p.fourier(np.array([0.0, 1.5, 4.0])).tolist(),
          p.gaussian_expectation(mu, var).tolist()]
"""


def test_lazy_scipy_special_imports_resolve():
    # In-process tests cannot show these imports resolve: the test modules
    # import scipy.integrate, which loads scipy.special first.
    scope = {}
    exec(LAZY_SPECIAL_VALUES, scope)
    code = LAZY_SPECIAL_VALUES + "import json; print(json.dumps(values))"
    assert json.loads(_fresh_interpreter(code)) == scope["values"]
